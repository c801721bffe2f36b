"""Discrete three-marginal problems, exact solvers, and one-dimensional
reference costs.

A density is discretized into n equal-mass atoms at quantile midpoints.
The symmetric three-marginal problem over those atoms is solved two ways:

* "lp": the symmetric linear program, one column per sorted atom triple
  and one uniform-marginal row per atom, solved by HiGHS at 1e-10
  feasibility tolerances.  Symmetrizing an optimal coupling keeps it
  optimal, so this has the optimum of the full program over n^3 coupling
  tensors (Friesecke & Voegler, SIAM J. Math. Anal. 2018).  The returned
  coupling and duals are those of the full program, and they are certified
  independently (marginal residuals, dual feasibility, duality gap, all
  at 1e-9);
* "brute-monge": exact minimization over permutation-pair couplings
  (id, sigma, tau), by full lexicographic enumeration up to n = 6 and by
  per-sigma optimal assignment for n in {7, 8}.

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
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from .costs import Radii, alignment_condition, c_pi, full_cost
from .density import RadialDensity
from .errors import (
    AllInfinite,
    CertificationError,
    InfeasibleCost,
    SizeExceeded,
)
from .maps import SeidlMap
from .minimize import MinimizeOptions, radial_cost

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
]

_CERT_TOL = 1e-9
# HiGHS primal and dual feasibility tolerances; at its default 1e-7 the
# duals can miss the 1e-9 certificate
_LP_TOL = 1e-10
_BIG = 1e30


def c_1d(x1: float, x2: float, x3: float) -> float:
    """Coulomb cost of three points on a line; +inf on coincidence."""
    out = 0.0
    for a, b in ((x1, x2), (x1, x3), (x2, x3)):
        d = abs(a - b)
        if d == 0.0:
            return math.inf
        out += 1.0 / d
    return out


@dataclass(frozen=True)
class Coupling:
    """Nonnegative weights over atom triples; marginals should be uniform."""

    weights: np.ndarray

    def marginal_residual(self) -> float:
        n = self.weights.shape[0]
        target = 1.0 / n
        res = 0.0
        for axes in ((1, 2), (0, 2), (0, 1)):
            marg = self.weights.sum(axis=axes)
            res = max(res, float(np.max(np.abs(marg - target))))
        return res

    def cost_against(self, cost: np.ndarray) -> float:
        mask = self.weights > 0
        if np.any(~np.isfinite(cost[mask])):
            return math.inf
        return float(np.sum(self.weights[mask] * cost[mask]))


@dataclass(frozen=True)
class DiscreteProblem:
    """Atoms at quantile midpoints and the full symmetric cost tensor."""

    atoms: np.ndarray
    cost: np.ndarray

    @property
    def n(self) -> int:
        return int(self.atoms.size)


@dataclass(frozen=True)
class LpCertificate:
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
    exhaustive_pairs: bool


@dataclass(frozen=True)
class SolveResult:
    value: float
    coupling: Coupling
    method: str
    certificate: LpCertificate | MongeCertificate


def _sorted_triples(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of all sorted triples i <= j <= k, in lexicographic order."""
    t = np.array(
        list(itertools.combinations_with_replacement(range(n), 3)), dtype=np.intp
    )
    return t[:, 0], t[:, 1], t[:, 2]


def _symmetric_tensor(n: int, ii, jj, kk, values: np.ndarray) -> np.ndarray:
    """Dense n x n x n tensor holding values[t] at every permutation of the
    sorted triple (ii[t], jj[t], kk[t]) and zero elsewhere."""
    out = np.zeros((n, n, n))
    idx = (ii, jj, kk)
    for p in itertools.permutations(range(3)):
        out[idx[p[0]], idx[p[1]], idx[p[2]]] = values
    return out


def discretize(
    rho: RadialDensity, n: int, opts: MinimizeOptions = MinimizeOptions()
) -> DiscreteProblem:
    """Equal-mass atoms at masses (k - 1/2)/n and their cost tensor.

    The tensor is filled from sorted index triples only; permutation
    symmetry of the angular minimum makes the remaining entries copies.
    """
    if n < 1:
        raise ValueError("need at least one atom")
    atoms = np.array([rho.quantile((k + 0.5) / n) for k in range(n)])
    ii, jj, kk = _sorted_triples(n)
    r = atoms.tolist()
    values = np.empty(ii.size)
    for t, (i, j, k) in enumerate(zip(ii.tolist(), jj.tolist(), kk.tolist())):
        try:
            values[t] = radial_cost(Radii(r[i], r[j], r[k]), opts).value
        except AllInfinite:
            values[t] = math.inf
    return DiscreteProblem(atoms=atoms, cost=_symmetric_tensor(n, ii, jj, kk, values))


def _solve_lp(problem: DiscreteProblem) -> SolveResult:
    """The symmetric LP: one column per finite sorted triple.

    The cost tensor is symmetric, so symmetrizing any optimal coupling
    leaves an optimal one, and a symmetric coupling is fixed by the total
    weight x_t of each sorted triple t.  Its marginal at atom i is
    sum_t x_t count_i(t) / 3, which gives n rows instead of 3n, and the
    dual u yields the full LP's duals (u/3, u/3, u/3).
    """
    n = problem.n
    ii, jj, kk = _sorted_triples(n)
    c = problem.cost[ii, jj, kk]
    finite = np.isfinite(c)
    if not np.any(finite):
        raise InfeasibleCost("every coupling entry has infinite cost")
    ii, jj, kk, c = ii[finite], jj[finite], kk[finite], c[finite]

    m = c.size
    rows = np.concatenate([ii, jj, kk])
    cols = np.concatenate([np.arange(m)] * 3)
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

    # a sorted triple's weight is split evenly over its distinct
    # permutations: 1, 3 or 6 of them
    n_perms = np.array([1.0, 3.0, 6.0])[(ii < jj).astype(int) + (jj < kk)]
    coupling = Coupling(weights=_symmetric_tensor(n, ii, jj, kk, res.x / n_perms))

    u = np.asarray(res.eqlin.marginals)
    third = u / 3.0
    # dual feasibility over all finite columns, in one vector pass
    slack = c - (third[ii] + third[jj] + third[kk])
    max_dual_violation = float(max(0.0, -slack.min()))
    dual_obj = float(b_eq @ u)
    cert = LpCertificate(
        duals=(third, third, third),
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
        value=float(res.fun), coupling=coupling, method="lp", certificate=cert
    )


def _monge_value(cost: np.ndarray, sigma, tau) -> float:
    n = cost.shape[0]
    total = 0.0
    for i in range(n):
        v = cost[i, sigma[i], tau[i]]
        if not math.isfinite(v):
            return math.inf
        total += v
    return total / n


def _solve_brute(problem: DiscreteProblem) -> SolveResult:
    n = problem.n
    if n > 8:
        raise SizeExceeded(f"brute-monge supports n <= 8, got {n}")
    cost = problem.cost
    idx = np.arange(n)

    best_val = math.inf
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    exhaustive = n <= 6

    if exhaustive:
        perms = np.array(list(itertools.permutations(range(n))))
        for sigma in itertools.permutations(range(n)):
            sl = cost[idx, sigma, :]
            with np.errstate(invalid="ignore"):
                vals = sl[idx[None, :], perms].sum(axis=1)
            t = int(np.nanargmin(np.where(np.isfinite(vals), vals, np.inf)))
            v = float(vals[t])
            if math.isfinite(v) and v < best_val:
                best_val = v
                best = (sigma, tuple(int(x) for x in perms[t]))
        if best is not None:
            best_val /= n
    else:
        for sigma in itertools.permutations(range(n)):
            sl = cost[idx, sigma, :]
            safe = np.where(np.isfinite(sl), sl, _BIG)
            rr, cc = linear_sum_assignment(safe)
            v = float(safe[rr, cc].sum())
            if v < best_val:
                best_val = v
                tau = np.empty(n, dtype=int)
                tau[rr] = cc
                best = (sigma, tuple(int(x) for x in tau))
        if best_val >= _BIG / 2:
            best = None
        else:
            best_val /= n

    if best is None:
        raise InfeasibleCost("every permutation coupling has infinite cost")

    sigma, tau = best
    weights = np.zeros((n, n, n))
    for i in range(n):
        weights[i, sigma[i], tau[i]] = 1.0 / n
    return SolveResult(
        value=best_val,
        coupling=Coupling(weights=weights),
        method="brute-monge",
        certificate=MongeCertificate(
            sigma=tuple(sigma), tau=tuple(tau), exhaustive_pairs=exhaustive
        ),
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
    rho = seidl_map.density
    out = []
    for j in range(n):
        p = (j + 0.5) / (3.0 * n)
        x = rho.quantile(p)
        out.append(MongeTriple(*seidl_map.orbit(x)))
    return tuple(out)


def monge_cost(
    seidl_map: SeidlMap,
    rho: RadialDensity | None = None,
    n: int = 64,
    opts: MinimizeOptions = MinimizeOptions(),
) -> MongeCostResult:
    """Transport cost of the map's coupling by first-tertile sampling.

    The coupling (Id, T, T^2)_# rho has equal cost on each tertile because
    the integrand is symmetric under cycling the orbit, so n quantile
    midpoints of the first tertile with weight 1/n give the full value.
    """
    if rho is not None and rho is not seidl_map.density:
        raise ValueError("rho, when given, must be the map's own density")
    triples = graph_triples(seidl_map, n)
    costs = tuple(
        radial_cost(Radii(*t.as_tuple()), opts).value for t in triples
    )
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


def one_d_increasing_map_check(
    seidl_map: SeidlMap, n: int = 32, opts: MinimizeOptions = MinimizeOptions()
) -> OneDCheckResult:
    """Compare the angular minimum against the reflected-line cost on orbits.

    For each sampled orbit (x, Tx, T^2 x), the reflected configuration
    (-Tx, x, T^2 x) on the line has cost c_1d equal to the collinear
    angular value; where the alignment condition holds this also equals
    the full angular minimum.  Orbits failing the condition are excluded
    and reported, since there the angular minimum legitimately drops
    below the collinear value.
    """
    triples = graph_triples(seidl_map, n)
    max_full = 0.0
    max_ident = 0.0
    excluded = []
    checked = 0
    for t in triples:
        line = c_1d(-t.tx, t.x, t.t2x)
        max_ident = max(max_ident, abs(c_pi(Radii(*t.as_tuple())) - line))
        if alignment_condition(t.as_tuple()) < 0.0:
            excluded.append(t)
            continue
        val = radial_cost(Radii(*t.as_tuple()), opts).value
        max_full = max(max_full, abs(val - line))
        checked += 1
    return OneDCheckResult(
        max_discrepancy=max_full,
        max_identity_discrepancy=max_ident,
        n_checked=checked,
        excluded=tuple(excluded),
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


def lift_radial_triple(
    r: Radii | tuple, n_rotations: int = 16, opts: MinimizeOptions = MinimizeOptions()
) -> LiftResult:
    """Embed the optimal angular configuration in the plane along a uniform
    rotation grid; every rotation has the same planar cost as the angular
    minimum, which is the rotation invariance making the radial reduction
    exact."""
    r = Radii.of(r)
    res = radial_cost(r, opts)
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
