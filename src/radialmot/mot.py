"""Discrete three-marginal problems, exact solvers, and one-dimensional
reference costs.

A density is discretized into n equal-mass atoms at quantile midpoints.
The cost is symmetric under permuting the three radii, so a problem holds
one value per sorted atom triple i <= j <= k: an (m, 3) index array and an
(m,) cost vector, m = C(n + 2, 3).  A symmetric coupling is held the same
way, as the total weight of each sorted triple it charges.  The dense
n x n x n cost and weight tensors are views built on demand; no solver
path for n > 8 builds them.

The symmetric problem over those atoms is solved two ways:

* "lp": the symmetric linear program, one column per finite sorted triple
  and one uniform-marginal row per atom, solved by HiGHS at 1e-10
  feasibility tolerances on the costs divided by the power of two of the
  largest one.  Symmetrizing an optimal coupling keeps it optimal, so this
  has the optimum of the full program over n^3 coupling tensors (Friesecke
  & Voegler, SIAM J. Math. Anal. 2018).  The returned coupling and duals
  are those of the full program, and they are certified independently
  (marginal residuals, dual feasibility, duality gap, all at 1e-9, the
  last two relative to that power of two);
* "brute-monge": exact minimization over permutation-pair couplings
  (id, sigma, tau), by one optimal assignment per sigma, n <= 8.  The
  coupling returned is the symmetrization of (id, sigma, tau), which has
  the same cost.

The LP value can only be lower; agreement of the two within tolerance is
the discrete optimality certificate used throughout.

Also here: the collinear reference cost of three points on a line, the
reflection of a radial density to a signed line density, support probes
for cyclical monotonicity, and the planar lift of an optimal angular
configuration along rotations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .costs import _P_ROUNDING, Radii, _alignment_margin, _unit_scale, c_pi
from .density import RadialDensity
from .errors import (
    CertificationError,
    InfeasibleCost,
    SizeExceeded,
)
from .maps import SeidlMap
from .minimize import _radial_cost_batch, radial_cost

__all__ = [
    "DiscreteProblem",
    "Coupling",
    "SolveResult",
    "MongeTriple",
    "MongeCostResult",
    "OneDCheckResult",
    "Violation",
    "LiftResult",
    "discretize",
    "solve_exact",
    "monge_cost",
    "probe_cyclical_monotonicity",
    "c_1d",
    "ReflectedLineDensity",
    "one_d_increasing_map_check",
    "lift_radial_triple",
    "graph_triples",
    "LpCertificate",
    "MongeCertificate",
]

_CERT_TOL = 1e-9
# HiGHS primal and dual feasibility tolerances; at its default 1e-7 the
# duals can miss the 1e-9 certificate
_LP_TOL = 1e-10


def c_1d(x1: float, x2: float, x3: float) -> float:
    """Coulomb cost of three points on a line; +inf on coincidence."""
    out = 0.0
    for a, b in ((x1, x2), (x1, x3), (x2, x3)):
        d = abs(a - b)
        if d == 0.0:
            return math.inf
        out += 1.0 / d
    return out


def _sorted_triples(n: int) -> np.ndarray:
    """(m, 3) array of all sorted triples i <= j <= k, lexicographic."""
    m = math.comb(n + 2, 3)
    flat = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(n), 3)
    )
    return np.fromiter(flat, dtype=np.intp, count=3 * m).reshape(m, 3)


def _symmetric_tensor(n: int, triples: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Dense n x n x n tensor holding values[t] at every permutation of the
    sorted triple triples[t] and zero elsewhere."""
    out = np.zeros((n, n, n))
    for p in itertools.permutations(range(3)):
        out[tuple(triples[:, p].T)] = values
    return out


@dataclass(frozen=True)
class Coupling:
    """A symmetric coupling of n atoms: mass[t] is the total weight of the
    sorted triple triples[t], spread evenly over its distinct permutations.
    Only charged triples are stored; marginals should be uniform."""

    n: int
    triples: np.ndarray
    mass: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        """The dense n x n x n weight tensor."""
        t = self.triples
        n_perms = np.array([1.0, 3.0, 6.0])[
            (t[:, 0] < t[:, 1]).astype(int) + (t[:, 1] < t[:, 2])
        ]
        return _symmetric_tensor(self.n, t, self.mass / n_perms)

    def marginal_residual(self) -> float:
        # every one of the three marginals puts count_i(t) / 3 of the
        # triple's mass on atom i
        marg = np.bincount(
            self.triples.ravel(), weights=np.repeat(self.mass, 3), minlength=self.n
        )
        return float(np.max(np.abs(marg / 3.0 - 1.0 / self.n)))

    def cost_against(self, cost: np.ndarray) -> float:
        """Cost under a dense symmetric n x n x n cost tensor."""
        c = cost[tuple(self.triples.T)]
        if np.any(~np.isfinite(c)):
            return math.inf
        return float(np.sum(self.mass * c))


@dataclass(frozen=True)
class DiscreteProblem:
    """Atoms at quantile midpoints and the cost of every sorted atom
    triple (inf where every angular configuration has a coincidence)."""

    atoms: np.ndarray
    triples: np.ndarray
    values: np.ndarray

    @property
    def n(self) -> int:
        return int(self.atoms.size)

    @property
    def cost(self) -> np.ndarray:
        """The dense symmetric n x n x n cost tensor."""
        return _symmetric_tensor(self.n, self.triples, self.values)


@dataclass(frozen=True)
class LpCertificate:
    """Duals of the full program and its residuals; the dual violation and
    the duality gap are relative to the power of two of the largest cost."""

    duals: tuple[np.ndarray, np.ndarray, np.ndarray]
    marginal_residual: float
    max_dual_violation: float
    duality_gap: float

    @property
    def certified(self) -> bool:
        return (
            self.marginal_residual <= _CERT_TOL
            and self.max_dual_violation <= _CERT_TOL
            and abs(self.duality_gap) <= _CERT_TOL
        )


@dataclass(frozen=True)
class MongeCertificate:
    sigma: tuple[int, ...]
    tau: tuple[int, ...]


@dataclass(frozen=True)
class SolveResult:
    value: float
    coupling: Coupling
    method: str
    certificate: LpCertificate | MongeCertificate


def discretize(rho: RadialDensity, n: int) -> DiscreteProblem:
    """Equal-mass atoms at masses (k - 1/2)/n and the cost of every sorted
    atom triple, the angular minima of one kernel batch."""
    if n < 1:
        raise ValueError("need at least one atom")
    atoms = rho.mass_quantile((np.arange(n) + 0.5) / n)
    triples = _sorted_triples(n)
    # infinite where two radii vanish
    values = _radial_cost_batch(atoms[triples])[0]
    return DiscreteProblem(atoms=atoms, triples=triples, values=values)


def _solve_lp(problem: DiscreteProblem) -> SolveResult:
    """The symmetric LP: one column per finite sorted triple.

    The cost is symmetric, so symmetrizing any optimal coupling leaves an
    optimal one, and a symmetric coupling is fixed by the total weight x_t
    of each sorted triple t.  Its marginal at atom i is
    sum_t x_t count_i(t) / 3, which gives n rows instead of 3n, and the
    dual u yields the full LP's duals (u/3, u/3, u/3).

    HiGHS solves on the costs divided by the power of two s of the largest
    one, which is exact, so its absolute tolerances and the certificate's
    mean the same at every scale; the value and duals are multiplied back.
    """
    n = problem.n
    finite = np.isfinite(problem.values)
    if not np.any(finite):
        raise InfeasibleCost("every coupling entry has infinite cost")
    triples, c = problem.triples[finite], problem.values[finite]
    s = _unit_scale(float(c.max()))
    c = c / s
    ii, jj, kk = triples.T

    m = c.size
    rows = np.concatenate([ii, jj, kk])
    cols = np.concatenate([np.arange(m)] * 3)
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    # duplicate (row, column) entries add up to count_i(t)
    a_eq = csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, m)) / 3.0
    b_eq = np.full(n, 1.0 / n)

    tols = dict(
        dual_feasibility_tolerance=_LP_TOL, primal_feasibility_tolerance=_LP_TOL
    )
    res = linprog(
        c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs", options=tols
    )
    if res.status != 0:
        raise InfeasibleCost(f"linear program failed: {res.message}")

    charged = res.x != 0.0
    coupling = Coupling(n=n, triples=triples[charged], mass=res.x[charged])

    u = np.asarray(res.eqlin.marginals)
    third = u / 3.0
    # dual feasibility over all finite columns, in one vector pass
    slack = c - (third[ii] + third[jj] + third[kk])
    max_dual_violation = float(max(0.0, -slack.min()))
    dual_obj = float(b_eq @ u)
    cert = LpCertificate(
        duals=(third * s,) * 3,
        marginal_residual=coupling.marginal_residual(),
        max_dual_violation=max_dual_violation,
        duality_gap=float(res.fun - dual_obj),
    )
    if not cert.certified:
        raise CertificationError(
            "lp solution failed verification: "
            f"marginal residual {cert.marginal_residual:.3e}, "
            f"dual violation {cert.max_dual_violation:.3e}, "
            f"gap {cert.duality_gap:.3e}"
        )
    return SolveResult(
        value=float(res.fun) * s, coupling=coupling, method="lp", certificate=cert
    )


def _solve_brute(problem: DiscreteProblem) -> SolveResult:
    """For each sigma, the optimal tau is an assignment on the cost slice
    c[i, sigma(i), :]; a slice whose every assignment meets an infinite
    entry makes linear_sum_assignment raise ValueError."""
    n = problem.n
    if n > 8:
        raise SizeExceeded(f"brute-monge supports n <= 8, got {n}")
    from scipy.optimize import linear_sum_assignment

    cost = problem.cost
    idx = np.arange(n)
    best_val = math.inf
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for sigma in itertools.permutations(range(n)):
        sl = cost[idx, sigma, :]
        try:
            _, tau = linear_sum_assignment(sl)
        except ValueError:
            continue
        v = float(sl[idx, tau].sum())
        if v < best_val:
            best_val, best = v, (sigma, tuple(tau.tolist()))
    if best is None:
        raise InfeasibleCost("every permutation coupling has infinite cost")

    sigma, tau = best
    # symmetrize (id, sigma, tau): each orbit's sorted triple carries 1/n
    triples, counts = np.unique(
        np.sort(np.stack([idx, sigma, tau], axis=1), axis=1),
        axis=0,
        return_counts=True,
    )
    return SolveResult(
        value=best_val / n,
        coupling=Coupling(n=n, triples=triples, mass=counts / n),
        method="brute-monge",
        certificate=MongeCertificate(sigma=tuple(sigma), tau=tuple(tau)),
    )


def solve_exact(problem: DiscreteProblem, method: str = "lp") -> SolveResult:
    """Solve a discretized problem exactly by the requested method.

    "lp" handles any size the memory allows and returns a certified
    optimum over all couplings; "brute-monge" searches permutation pairs
    only (an upper bound for the LP value, equal when a Monge optimizer
    exists) and is limited to n <= 8.
    """
    if method == "lp":
        return _solve_lp(problem)
    if method in ("brute", "brute-monge"):
        return _solve_brute(problem)
    raise ValueError(f"unknown method {method!r}; use 'lp' or 'brute'")


@dataclass(frozen=True)
class MongeTriple:
    """One orbit (x, T x, T^2 x) of a branch map."""

    x: float
    tx: float
    t2x: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.tx, self.t2x)


@dataclass(frozen=True)
class MongeCostResult:
    value: float
    triples: tuple[MongeTriple, ...]
    costs: tuple[float, ...]


def graph_triples(seidl_map: SeidlMap, n: int) -> tuple[MongeTriple, ...]:
    """Orbits started from n quantile midpoints of the first tertile."""
    orbits = seidl_map.orbit_of_mass((np.arange(n) + 0.5) / (3.0 * n))
    return tuple(MongeTriple(*t) for t in np.stack(orbits, axis=1).tolist())


def monge_cost(seidl_map: SeidlMap, n: int = 64) -> MongeCostResult:
    """Transport cost of the map's coupling by first-tertile sampling.

    The coupling (Id, T, T^2)_# rho has equal cost on each tertile because
    the integrand is symmetric under cycling the orbit, so n quantile
    midpoints of the first tertile with weight 1/n give the full value.
    """
    triples = graph_triples(seidl_map, n)
    costs = tuple(_radial_cost_batch([t.as_tuple() for t in triples])[0].tolist())
    return MongeCostResult(
        value=float(np.mean(costs)), triples=triples, costs=costs
    )


@dataclass(frozen=True)
class Violation:
    """A pairwise swap that strictly lowers total cost."""

    i: int
    j: int
    template: str
    original: float
    swapped: float

    @property
    def gap(self) -> float:
        return self.original - self.swapped


_SWAP_TEMPLATES = ("first", "second", "third")


def _apply_swap(a, b, template: str):
    if template == "first":
        return (b[0], a[1], a[2]), (a[0], b[1], b[2])
    if template == "second":
        return (a[0], b[1], a[2]), (b[0], a[1], b[2])
    if template == "third":
        return (a[0], a[1], b[2]), (b[0], b[1], a[2])
    raise ValueError(f"unknown swap template {template!r}")


def probe_cyclical_monotonicity(
    cost_fn,
    triples,
    templates: tuple[str, ...] = _SWAP_TEMPLATES,
    tol: float = 1e-10,
) -> tuple[Violation, ...]:
    """Search all support pairs for coordinate swaps that lower the cost.

    cost_fn takes a radius triple (three floats) and returns a scalar cost;
    results are memoized per distinct triple.  A violation is recorded when
    the swapped pair is cheaper by more than tol; an empty result means the
    sampled support passes the pairwise monotonicity probe at that
    tolerance.
    """
    tr = [t.as_tuple() if isinstance(t, MongeTriple) else tuple(t) for t in triples]
    memo: dict[tuple[float, float, float], float] = {}

    def c(t):
        v = memo.get(t)
        if v is None:
            v = float(cost_fn(*t))
            memo[t] = v
        return v

    out: list[Violation] = []
    for i, j in itertools.combinations(range(len(tr)), 2):
        base = c(tr[i]) + c(tr[j])
        if not math.isfinite(base):
            continue
        for template in templates:
            na, nb = _apply_swap(tr[i], tr[j], template)
            swapped = c(na) + c(nb)
            if swapped < base - tol:
                out.append(
                    Violation(
                        i=i, j=j, template=template, original=base, swapped=swapped
                    )
                )
    return tuple(out)


class ReflectedLineDensity:
    """Signed-line reflection of a radial density: the middle third's mass
    is mirrored to the negative axis, outer thirds stay in place."""

    def __init__(self, rho: RadialDensity):
        t = rho.tertiles()
        self.rho = rho
        self.s1 = t.s1
        self.s2 = t.s2

    def pdf(self, x: float) -> float:
        if x >= 0.0:
            if x <= self.s1 or x >= self.s2:
                return self.rho.pdf(x)
            return 0.0
        y = -x
        if self.s1 <= y <= self.s2:
            return self.rho.pdf(y)
        return 0.0

    def interval_mass(self, a: float, b: float) -> float:
        """Mass of [a, b] under the reflected density."""
        if b <= a:
            return 0.0
        total = 0.0
        # positive part: [0, s1] and [s2, inf) carry the original mass
        lo, hi = max(a, 0.0), b
        if hi > lo:
            for seg_lo, seg_hi in ((0.0, self.s1), (self.s2, math.inf)):
                l, h = max(lo, seg_lo), min(hi, seg_hi)
                if h > l:
                    total += self.rho.cdf(h) - self.rho.cdf(l)
        # negative part mirrors the middle third
        lo, hi = a, min(b, 0.0)
        if hi > lo:
            l, h = max(-hi, self.s1), min(-lo, self.s2)
            if h > l:
                total += self.rho.cdf(h) - self.rho.cdf(l)
        return total


@dataclass(frozen=True)
class OneDCheckResult:
    """Agreement between the angular minimum and the collinear line cost
    along a DDI graph, with alignment-violating samples excluded."""

    max_discrepancy: float
    max_identity_discrepancy: float
    n_checked: int
    excluded: tuple[MongeTriple, ...]


def one_d_increasing_map_check(seidl_map: SeidlMap, n: int = 32) -> OneDCheckResult:
    """Compare the angular minimum against the reflected-line cost on orbits.

    For each sampled orbit (x, Tx, T^2 x), the reflected configuration
    (-Tx, x, T^2 x) on the line has cost c_1d equal to the collinear
    angular value; where the alignment margin certifies P > 0 this also
    equals the full angular minimum.  The other orbits are excluded and
    reported, since there the angular minimum can drop below the
    collinear value.
    """
    triples = graph_triples(seidl_map, n)
    radii = np.array([t.as_tuple() for t in triples]).reshape(-1, 3)
    lines = np.array([c_1d(-t.tx, t.x, t.t2x) for t in triples])
    ident = np.array([c_pi(r) for r in radii.tolist()]) - lines
    aligned = _alignment_margin(radii) > _P_ROUNDING
    values = _radial_cost_batch(radii[aligned])[0]
    return OneDCheckResult(
        max_discrepancy=float(np.max(np.abs(values - lines[aligned]), initial=0.0)),
        max_identity_discrepancy=float(np.max(np.abs(ident), initial=0.0)),
        n_checked=int(np.count_nonzero(aligned)),
        excluded=tuple(t for t, ok in zip(triples, aligned) if not ok),
    )


@dataclass(frozen=True)
class LiftResult:
    """Planar realizations of one optimal angular configuration under a
    grid of rotations, with their exact planar costs."""

    value: float
    config_alpha: float
    config_beta: float
    points: np.ndarray  # (n_rotations, 3, 2)
    costs: np.ndarray  # (n_rotations,)
    max_cost_deviation: float


def lift_radial_triple(r: Radii | tuple, n_rotations: int = 16) -> LiftResult:
    """Embed the optimal angular configuration in the plane along a uniform
    rotation grid; every rotation has the same planar cost as the angular
    minimum, which is the rotation invariance making the radial reduction
    exact."""
    r = Radii.of(r)
    res = radial_cost(r)
    a, b = res.argmin.alpha, res.argmin.beta
    ts = 2.0 * math.pi * np.arange(n_rotations) / n_rotations
    radii = np.array(r.as_tuple())
    angles = np.stack([ts, ts + a, ts + b], axis=1)
    pts = np.stack(
        [radii[None, :] * np.cos(angles), radii[None, :] * np.sin(angles)], axis=2
    )
    costs = np.empty(n_rotations)
    for m in range(n_rotations):
        p = pts[m]
        total = 0.0
        for i, j in ((0, 1), (0, 2), (1, 2)):
            d = float(np.hypot(*(p[i] - p[j])))
            total += math.inf if d == 0.0 else 1.0 / d
        costs[m] = total
    dev = float(np.max(np.abs(costs - res.value)))
    return LiftResult(
        value=res.value,
        config_alpha=a,
        config_beta=b,
        points=pts,
        costs=costs,
        max_cost_deviation=dev,
    )
