"""The four workloads: seeded inputs, one task per user-level command, and
independent checks of every output.

Each workload has a ``setup(seed, workdir)`` that makes the inputs from the
seed alone and returns a list of rounds; a round is a fixed list of tasks.
The runner runs every round once, however long that takes, then repeats
rounds until the measuring time is used up.  A task is a
``run`` (the package calls one command makes, timed) followed by a
``check`` (untimed) that recomputes what it can from the returned objects
and reports failures by name.

Tasks call the package through module attributes (``mot.discretize``), so
the traced run can wrap them.  Checks use the references captured below at
import time, so their own calls stay out of the trace.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from radialmot import costs, counterexample, density, density_io, maps, minimize, mot
from radialmot.errors import DegenerateRadii

_radial_cost = minimize.radial_cost
_phi_threshold = costs.phi_threshold
_torus_distance = costs.torus_distance

N_PER_TERTILE = 9  # `radialmot solve --n 9`: 27 atoms, 3654 sorted triples
ATOMS = 3 * N_PER_TERTILE
MAP_PROBES = 300  # probes per pattern for `map --check`
PATTERNS = maps.PATTERNS

# counterexample gate region: s1/s2 > (1 + 2 sqrt 3)/5 = 0.89282, ratio > 7/2
S2 = 1.0
S1_RANGE = (0.8935, 0.98)
RATIO_RANGE = (3.5, 8.0)  # log-uniform


class Failure(Exception):
    """An output check that did not hold; ``name`` identifies the check."""

    def __init__(self, name: str, detail: str = ""):
        super().__init__(f"{name}: {detail}")
        self.name = name
        self.detail = detail


class Task:
    """One user-level command's worth of work.

    ``stage`` names the package call in progress, so an exception is
    recorded as ``<stage>:<ExceptionType>``.  ``counts`` collects exact
    budget counters derived from the outputs.
    """

    def __init__(self, label: str):
        self.label = label
        self.stage = ""
        self.counts: dict[str, int] = {}
        self.lp: dict[str, float] = {}

    def run(self):
        raise NotImplementedError

    def check(self, out) -> list[Failure]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# shared checks


def _lp_failures(problem, sol, task: Task) -> list[Failure]:
    """Recompute primal value, marginals, dual feasibility and duality gap
    from the returned coupling, duals and cost tensor."""
    fails = []
    n = problem.n
    c = problem.cost
    w = sol.coupling.weights
    fin = np.isfinite(c)
    scale = max(1.0, abs(sol.value))
    if np.any(w[~fin] > 0.0) or np.any(w < -1e-12):
        fails.append(Failure("lp.support", "weight on an infinite or negative entry"))
    primal = float(np.sum(w[fin] * c[fin]))
    if abs(primal - sol.value) > 1e-9 * scale:
        fails.append(Failure("lp.primal", f"{primal!r} vs value {sol.value!r}"))
    marg = max(
        float(np.max(np.abs(w.sum(axis=axes) - 1.0 / n)))
        for axes in ((1, 2), (0, 2), (0, 1))
    )
    if marg > 1e-9:
        fails.append(Failure("lp.marginal", f"residual {marg:.3e}"))
    u, v, z = (np.asarray(d, dtype=float) for d in sol.certificate.duals)
    slack = c - (u[:, None, None] + v[None, :, None] + z[None, None, :])
    violation = float(max(0.0, -slack[fin].min()))
    if violation > 1e-9:
        fails.append(Failure("lp.dual", f"u+v+w exceeds c by {violation:.3e}"))
    gap = abs((u.sum() + v.sum() + z.sum()) / n - sol.value)
    if gap > 1e-9 * scale:
        fails.append(Failure("lp.gap", f"duality gap {gap:.3e}"))
    task.lp = {
        "rows": 3 * n,
        "columns": int(np.count_nonzero(fin)),
        "cert_residual": max(marg, violation, gap),
    }
    return fails


def _solve_failures(out, task: Task) -> list[Failure]:
    problem, sol, monge = out
    fails = _lp_failures(problem, sol, task)
    # branch-map orbits of quantile-midpoint atoms stay on atoms, so every
    # map coupling is feasible for the LP
    for pat, m in monge.items():
        if sol.value > m.value + 1e-9 * max(1.0, abs(m.value)):
            fails.append(Failure("lp.above_map", f"{pat}: LP {sol.value!r} > {m.value!r}"))
    return fails


class _SolveTask(Task):
    """`radialmot solve`: discretize, LP, and the four branch-map costs."""

    def solve(self, rho):
        self.stage = "discretize"
        problem = mot.discretize(rho, ATOMS)
        self.stage = "solve_exact"
        sol = mot.solve_exact(problem, method="lp")
        self.stage = "monge_cost"
        monge = {
            pat: mot.monge_cost(maps.build_map(rho, pat), n=N_PER_TERTILE)
            for pat in PATTERNS
        }
        return problem, sol, monge


# ---------------------------------------------------------------------------
# solve-blocks


def _max_phi(b1: tuple[float, float], b2: tuple[float, float]) -> float:
    """Largest alignment threshold phi(r1, r2) over the first two blocks
    (phi is not monotone in r2, so take a dense grid with the corners)."""
    r1 = np.linspace(b1[0], b1[1], 33)
    r2 = np.linspace(b2[0], b2[1], 33)
    return max(_phi_threshold(float(a), float(b)) for a in r1 for b in r2)


class BlocksTask(_SolveTask):
    def __init__(self, label: str, blocks):
        super().__init__(label)
        self.blocks = blocks

    def run(self):
        self.stage = "block_density"
        rho = density.block_density(self.blocks)
        return self.solve(rho)

    def check(self, out) -> list[Failure]:
        fails = _solve_failures(out, self)
        lp, ddi = out[1].value, out[2]["DDI"].value
        if abs(lp - ddi) > 1e-6:
            fails.append(Failure("blocks.lp_eq_ddi", f"LP {lp!r} vs DDI {ddi!r}"))
        return fails


def _strata(rng, n: int, shift: int = 0) -> np.ndarray:
    """One uniform draw from each of n equal strata of [0, 1); task i takes
    stratum (i + shift) mod n.  A round of n tasks spans the whole range,
    and the seed moves points only within their strata, so rounds drawn
    from different seeds cost about the same."""
    return ((np.arange(n) + shift) % n + rng.uniform(size=n)) / n


SOLVE_ROUND = 3  # densities per round of solve-blocks


def setup_solve_blocks(seed: int, workdir: Path) -> list[list[Task]]:
    """Three-block densities with the far block beyond phi of the first
    two; every shape parameter is stratified across the round."""
    rng = np.random.default_rng(seed)
    lo1, w1, gap, w2, margin, w3 = (_strata(rng, SOLVE_ROUND, j) for j in range(6))
    tasks = []
    for i in range(SOLVE_ROUND):
        b1 = (float(lo1[i]), float(lo1[i] + 0.5 + w1[i]))
        lo2 = float(b1[1] + 0.2 + 1.8 * gap[i])
        b2 = (lo2, float(lo2 + 0.5 + w2[i]))
        lo3 = _max_phi(b1, b2) * float(1.02 + 0.48 * margin[i])
        b3 = (lo3, float(lo3 + 0.5 + 1.5 * w3[i]))
        label = "blocks " + " ".join(f"[{lo:.3f}, {hi:.3f}]" for lo, hi in (b1, b2, b3))
        tasks.append(BlocksTask(label, [b1, b2, b3]))
    return [tasks]


# ---------------------------------------------------------------------------
# solve-cex


def _s1_at(u: float) -> float:
    lo, hi = S1_RANGE
    return float(lo + (hi - lo) * u)


def _ratio_at(u: float) -> float:
    lo, hi = RATIO_RANGE
    return float(lo * (hi / lo) ** u)


CEX_SOLVE_ROUND = 2  # tail files per round of solve-cex


class CexSolveTask(_SolveTask):
    def __init__(self, label: str, path: Path):
        super().__init__(label)
        self.path = path

    def run(self):
        self.stage = "load"
        rho = density_io.load(self.path)
        return self.solve(rho)

    def check(self, out) -> list[Failure]:
        fails = _solve_failures(out, self)
        lp = out[1].value
        for pat, m in out[2].items():
            if not lp < m.value - 1e-8:
                fails.append(
                    Failure("cex.lp_below_maps", f"{pat}: LP {lp!r} vs {m.value!r}")
                )
        return fails


def setup_solve_cex(seed: int, workdir: Path) -> list[list[Task]]:
    """Counterexample tail files (k = 1, the `counterexample` default),
    written the way the command writes them; s1 and the boundary ratio
    are stratified across the round."""
    rng = np.random.default_rng(seed)
    u_s1, u_ratio = _strata(rng, CEX_SOLVE_ROUND), _strata(rng, CEX_SOLVE_ROUND, 1)
    tasks = []
    for i in range(CEX_SOLVE_ROUND):
        s1, ratio = _s1_at(u_s1[i]), _ratio_at(u_ratio[i])
        rho = counterexample.example_counterexample_density(s1=s1, s2=S2, ratio=ratio, k=1)
        path = workdir / f"cex{i}.json"
        density_io.save(rho, path)
        tasks.append(CexSolveTask(f"cex s1={s1:.4f} ratio={ratio:.3f}", path))
    return [tasks]


# ---------------------------------------------------------------------------
# cex-build


def _log2_count(big: float, small: float) -> int:
    return int(round(math.log2(big / small)))


class CexBuildTask(Task):
    """`radialmot counterexample --out f` then `radialmot map f --check`
    for all four patterns."""

    def __init__(self, label: str, s1: float, ratio: float, k: int, path: Path):
        super().__init__(label)
        self.s1, self.ratio, self.k, self.path = s1, ratio, k, path

    def run(self):
        self.stage = "build"
        rho = counterexample.example_counterexample_density(
            s1=self.s1, s2=S2, ratio=self.ratio, k=self.k
        )
        self.stage = "check_graph_condition"
        graph = counterexample.check_graph_condition(rho)
        self.stage = "find_eps_M"
        epsm = counterexample.find_eps_M(self.s1, S2)
        self.stage = "refute"
        certs = counterexample.refute_class_T(rho)
        self.stage = "save"
        density_io.save(rho, self.path)
        self.stage = "load"
        loaded = density_io.load(self.path)
        self.stage = "check_map"
        diags = {
            pat: maps.check_map(maps.build_map(loaded, pat), n_probe=MAP_PROBES)
            for pat in PATTERNS
        }
        return rho, graph, epsm, certs, loaded, diags

    def check(self, out) -> list[Failure]:
        rho, graph, epsm, certs, loaded, diags = out
        fails = []
        t = rho.tertiles()
        spec = rho.tail_spec
        self.counts["delta_halvings"] = _log2_count(t.s1 / 2.0, spec.delta)
        self.counts["eps_halvings"] = _log2_count((S2 - self.s1) / 2.0, epsm.eps)

        for pat, cert in certs.items():
            if not cert.gap > 0.0:
                fails.append(Failure("cert.gap_positive", f"{pat}: gap {cert.gap!r}"))
            ca = _radial_cost(cert.triple_a.as_tuple()).value
            cb = _radial_cost(cert.triple_b.as_tuple()).value
            sa = _radial_cost(cert.swapped_a).value
            sb = _radial_cost(cert.swapped_b).value
            gap = (ca + cb) - (sa + sb)
            if abs(gap - cert.gap) > 1e-12 * max(1.0, ca + cb):
                fails.append(
                    Failure("cert.gap_recompute", f"{pat}: {gap!r} vs {cert.gap!r}")
                )
        ddi = certs["DDI"]
        start = min(ddi.metadata["eps"], t.s1) / 2.0
        self.counts["near_bisect_steps"] = _log2_count(start, ddi.triple_a.x)
        self.counts["far_bisect_steps"] = _log2_count(start, t.s1 - ddi.triple_b.x)

        got = loaded.tail_spec.h_taylor
        if len(got) != len(spec.h_taylor) or any(
            abs(a - b) > 1e-8 * max(1.0, abs(b)) for a, b in zip(got, spec.h_taylor)
        ):
            fails.append(Failure("io.h_taylor", f"{got} vs {spec.h_taylor}"))
        probes = [0.5 * t.s1, 0.5 * (t.s1 + t.s2)] + [
            t.s2 * f for f in (1.001, 1.1, 2.0, 10.0, 100.0)
        ]
        for x in probes:
            a, b = rho.pdf(x), loaded.pdf(x)
            if abs(a - b) > 1e-12 * max(abs(a), 1e-300):
                fails.append(Failure("io.pdf", f"pdf({x!r}) {b!r} vs {a!r}"))

        if not graph.holds:
            fails.append(Failure("graph_condition", f"worst {graph.worst_margin!r}"))

        x_top = loaded.quantile((MAP_PROBES - 0.5) / MAP_PROBES)
        for pat, d in diags.items():
            if d.ok:
                continue
            if (
                d.pushforward_ok
                and all(d.monotone_ok)
                and d.max_cycle_error <= 1e-10 * max(1.0, x_top)
            ):
                # cycle error within 1e-10 relative of the largest probe,
                # rejected only by check_map's absolute 1e-9 tolerance
                name = "check_map.cycle_abs_tol"
            else:
                name = "check_map"
            fails.append(
                Failure(name, f"{pat}: cycle {d.max_cycle_error:.3e} at x <= {x_top:.4g}")
            )
        return fails


# One round pairs each smoothness order k with one log-quartile of the
# boundary-ratio range, so every round covers the whole range.  The pairing
# is fixed rather than drawn so that rounds have the same make-up for every
# seed: k = 1 takes the quartile holding ratio 4.9, the onset of the
# "pushforward map fails to increase" DensityError for k >= 2, so each round
# has two passing builds (k = 1, 2) and two failing ones (k = 3, 4).
_CEX_PAIRING = ((2, 0), (1, 1), (3, 2), (4, 3))


def setup_cex_build(seed: int, workdir: Path) -> list[list[Task]]:
    rng = np.random.default_rng(seed)
    u_s1 = _strata(rng, len(_CEX_PAIRING), 1)
    tasks = []
    for i, (k, quartile) in enumerate(_CEX_PAIRING):
        s1 = _s1_at(u_s1[i])
        ratio = _ratio_at((quartile + rng.uniform()) / 4.0)
        tasks.append(
            CexBuildTask(
                f"k={k} s1={s1:.4f} ratio={ratio:.3f}",
                s1,
                ratio,
                k,
                workdir / f"build_k{k}.json",
            )
        )
    return [tasks]


# ---------------------------------------------------------------------------
# cost-scalar

COST_ROUND = 1000  # triples per round
COST_POOL_ROUNDS = 3  # distinct rounds, all run in every run
EXTREME_SHARE = 20  # triples per round with scale log-uniform on 1e-150..1e150


class CostTask(Task):
    """`radialmot cost r1 r2 r3`."""

    def __init__(self, r):
        super().__init__("cost")
        self.r = r

    def run(self):
        r = self.r
        self.stage = "radial_cost"
        res = minimize.radial_cost(r)
        self.stage = "alignment_condition"
        p = costs.alignment_condition(r)
        self.stage = "c_pi"
        cp = costs.c_pi(r)
        self.stage = "phi_threshold"
        try:
            costs.phi_threshold(r[0], r[1])
        except DegenerateRadii:
            pass  # the command prints no phi line then
        return res, p, cp

    def check(self, out) -> list[Failure]:
        res, p, cp = out
        fails = []
        if not res.value <= cp * (1.0 + 1e-12):
            fails.append(Failure("cost.above_c_pi", f"{self.r}: {res.value!r} > {cp!r}"))
        if p > 0.0:
            if abs(res.value - cp) > 1e-12 * cp:
                fails.append(
                    Failure("cost.aligned_value", f"{self.r}: {res.value!r} vs {cp!r}")
                )
            d = _torus_distance(res.argmin.as_tuple(), (math.pi, 0.0))
            if d > 1e-6:
                fails.append(
                    Failure("cost.argmin_not_collinear", f"{self.r}: off by {d:.3e}")
                )
        return fails


def setup_cost_scalar(seed: int, workdir: Path) -> list[list[Task]]:
    """Radii s * (1, q2, q3) in a random order, q log-uniform on [1, 1e6];
    s log-uniform on [1e-3, 1e3], except a fixed share per round on
    [1e-150, 1e150]."""
    rng = np.random.default_rng(seed)
    n = COST_ROUND * COST_POOL_ROUNDS
    q = 10.0 ** rng.uniform(0.0, 6.0, size=(n, 2))
    log_s = rng.uniform(-3.0, 3.0, size=n).reshape(COST_POOL_ROUNDS, COST_ROUND)
    log_s[:, :EXTREME_SHARE] = rng.uniform(-150.0, 150.0, size=(COST_POOL_ROUNDS, EXTREME_SHARE))
    s = 10.0 ** log_s.reshape(n)
    radii = np.column_stack([s, s * q[:, 0], s * q[:, 1]])
    radii = rng.permuted(radii, axis=1)
    order = np.argsort(rng.uniform(size=(COST_POOL_ROUNDS, COST_ROUND)), axis=1)
    rows = radii.reshape(COST_POOL_ROUNDS, COST_ROUND, 3)
    return [
        [CostTask(tuple(float(v) for v in rows[i, j])) for j in order[i]]
        for i in range(COST_POOL_ROUNDS)
    ]


WORKLOADS = {
    "solve-blocks": setup_solve_blocks,
    "solve-cex": setup_solve_cex,
    "cex-build": setup_cex_build,
    "cost-scalar": setup_cost_scalar,
}

# Failures known when the benchmark was defined, by check name or by
# `<stage>:<exception>`.  They count in `failed` like any other failure; a
# failure outside this table makes the run report correct=false.
KNOWN_DEFECTS = {
    "solve_exact:CertificationError": "the LP certificate wants dual "
    "feasibility within 1e-9, HiGHS returns duals to its own tolerance "
    "(violations near 5e-8 on some block densities)",
    "check_map.cycle_abs_tol": "check_map compares the cycle error with an "
    "absolute 1e-9, so far-tail probes fail at relative errors near 3e-12",
    "build:DensityError": "the tail build raises 'pushforward map fails to "
    "increase' for k >= 2 from ratio 4.9 up",
    "cost.argmin_not_collinear": "radial_cost's relative tie merge absorbs "
    "non-collinear candidates at large ratios",
    "radial_cost:OverflowError": "float powers overflow at scales near 1e150",
    "alignment_condition:OverflowError": "float powers overflow at scales "
    "near 1e150",
}
