"""Discrete three-marginal problems, exact solvers, and one-dimensional
reference costs.

A density is discretized into n equal-mass atoms at quantile midpoints.
The cost is symmetric under permuting the three radii, so a problem holds
one value per sorted atom triple i <= j <= k: an (m, 3) lexicographic index
array with each triple's row in closed form, and an (m,) cost vector,
m = C(n + 2, 3).  That vector starts as the chord bound sum 1/(r_i + r_j),
known for every triple at once, since no chord is longer than r_i + r_j,
and the kernel overwrites a bound with the cost on demand.  A symmetric
coupling is held as the total weight of each sorted triple it charges.
The dense n x n x n cost and weight tensors are views built on demand; no
solver path for n > 8 builds them.

The symmetric problem over those atoms is solved two ways:

* "lp": the symmetric linear program over the finite sorted triples, one
  uniform-marginal row per atom, by column generation.  One HiGHS model,
  at 1e-10 feasibility tolerances on the costs divided by the power of two
  of the largest one, holds a subset of the columns: first the diagonal
  and the index neighbourhoods of the four branch-map supports, then each
  round the columns its duals price below zero, re-solved from the last
  optimal basis.  Each round makes at most one kernel call, on the
  columns whose chord bound prices below zero; every other column keeps a
  reduced cost of at least zero.
  Symmetrizing an optimal coupling keeps it optimal, so this has the
  optimum of the full program over n^3 coupling tensors (Friesecke &
  Voegler, SIAM J. Math. Anal. 2018).  The returned coupling and duals
  are those of the full program, and they are certified independently on
  every finite column (marginal residuals, dual feasibility, duality gap,
  all at 1e-9, the last two relative to that power of two);
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

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .costs import Radii, _unit_scale, _unit_scales, c_pi
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


def _rank(t: np.ndarray, n: int) -> np.ndarray:
    """Row of each sorted triple (i, j, k) of t in _sorted_triples(n): of the
    C(n + 2, 3) rows, C(n - i + 1, 3) have a first index above i and
    C(n - j + 1, 2) are (i, b, c) with b >= j; (i, j, k) is the (k - j)-th
    of those.  Evaluated with one temporary of t's length at a time."""
    s = n + 1 - t[:, 0]
    r = s * (s - 1) * (s - 2) // 6
    s = n + 1 - t[:, 1]
    r += s * (s - 1) // 2
    return math.comb(n + 2, 3) - r + t[:, 2] - t[:, 1]


def _size(n, what: str) -> int:
    """n as an int; ValueError for a fractional or empty size."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"{what} must be an integer of at least 1, got {n!r}")
    return int(n)


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


# relative amount by which the chord bound is lowered.  Each computed pair
# term of the kernel is at least 1/(r_i + r_j) less a few roundings, since
# its computed squared distance is at most (r_i + r_j)^2 plus a few
# roundings at any cosine in [-1, 1]; the bound's own sum adds a few more
_BOUND_MARGIN = 16.0 * np.finfo(float).eps


@np.errstate(divide="ignore")
def _chord_bound(radii: np.ndarray) -> np.ndarray:
    """Lower bound sum 1/(r_i + r_j) on the cost of each row of an (m, 3)
    radius array, since no chord is longer than r_i + r_j.  Computed like
    the kernel on the row divided by the power of two of its largest
    radius, and lowered by _BOUND_MARGIN relative, so that it lies below
    the kernel's computed value as well; infinite where two radii vanish."""
    s = _unit_scales(radii.max(axis=1))
    a, b, c = (radii / s[:, None]).T
    bound = 1.0 / (a + b) + 1.0 / (a + c) + 1.0 / (b + c)
    return bound * (1.0 - _BOUND_MARGIN) / s


class DiscreteProblem:
    """Atoms at quantile midpoints and the cost of every sorted atom
    triple (inf where every angular configuration has a coincidence).

    The triples follow from the atoms, row _rank(t, n) holding triple t.
    One price vector holds each row's cost where _exact marks it, and its
    chord bound elsewhere: the kernel overwrites the bound on demand.
    Reading values or cost evaluates every row still at its bound; the LP
    prices in this vector and evaluates only the rows it needs.  The
    kernel's rows are independent, so a cost does not depend on when it
    was filled in.  An infinite bound is exact, since the kernel is
    infinite there too, and costs passed in, one per triple, are exact."""

    def __init__(self, atoms: np.ndarray, values=None):
        self.atoms = atoms
        self.triples = _sorted_triples(atoms.size)
        if values is None:
            self._price = _chord_bound(atoms[self.triples])
            self._exact = np.isinf(self._price)
        else:
            self._price = np.array(values, dtype=float)
            if self._price.shape != (len(self.triples),):
                raise ValueError(f"need {len(self.triples)} costs, one per triple")
            self._exact = np.ones(len(self.triples), dtype=bool)

    @property
    def n(self) -> int:
        return int(self.atoms.size)

    def _evaluate(self, mask: np.ndarray) -> None:
        """Price the rows of mask not yet exact at their cost, in one kernel
        batch."""
        todo = np.flatnonzero(mask & ~self._exact)
        if todo.size:
            self._price[todo] = _radial_cost_batch(self.atoms[self.triples[todo]])[0]
            self._exact[todo] = True

    @property
    def values(self) -> np.ndarray:
        """The cost of every sorted triple, read-only."""
        self._evaluate(~self._exact)
        out = self._price.view()
        out.flags.writeable = False
        return out

    @property
    def cost(self) -> np.ndarray:
        """The dense symmetric n x n x n cost tensor."""
        return _symmetric_tensor(self.n, self.triples, self.values)


@dataclass(frozen=True)
class LpCertificate:
    """Duals of the full program and its residuals; the dual violation and
    the duality gap are relative to the power of two of the largest cost.
    columns is the size of the final column subset, rounds the number of
    restricted programs solved, simplex_iterations the simplex iterations
    of all rounds, and exact_columns the number of finite columns the
    problem holds at their exact cost when the solve ends: the LP priced
    those exactly and the others by their chord bound.  For a problem no
    earlier read evaluated, they are the rows this solve evaluated."""

    duals: tuple[np.ndarray, np.ndarray, np.ndarray]
    marginal_residual: float
    max_dual_violation: float
    duality_gap: float
    columns: int
    rounds: int
    exact_columns: int
    simplex_iterations: int

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
    """Equal-mass atoms at masses (k - 1/2)/n and every sorted atom triple,
    with their chord bounds; the kernel evaluates a triple's cost only when
    it is needed."""
    n = _size(n, "n")
    return DiscreteProblem(rho.mass_quantile((np.arange(n) + 0.5) / n))


def _neighbourhood(triples: np.ndarray, n: int) -> np.ndarray:
    """Every index of every row moved by -1, 0 or +1, clipped to [0, n) and
    sorted: 27 rows per row, with repeats."""
    steps = np.array(list(itertools.product((-1, 0, 1), repeat=3)))
    return np.sort(np.clip(triples[:, None, :] + steps, 0, n - 1).reshape(-1, 3))


def _lp_seed(n: int) -> np.ndarray:
    """Sorted index triples the LP's column subset starts from: the diagonal
    (i, i, i), on which every restricted program is feasible, and the width-1
    neighbourhoods of the index supports of the four branch patterns on
    m = n // 3 atoms per tertile, (i, m + i | 2m - 1 - i, 2m + i | 3m - 1 - i)."""
    m = n // 3
    i = np.arange(m)
    supports = [
        np.stack([i, j, k], axis=1)
        for j in (m + i, 2 * m - 1 - i)
        for k in (2 * m + i, 3 * m - 1 - i)
    ]
    diagonal = np.repeat(np.arange(n)[:, None], 3, axis=1)
    return np.concatenate([diagonal, _neighbourhood(np.concatenate(supports), n)])


def _solve_lp(problem: DiscreteProblem) -> SolveResult:
    """The symmetric LP over every finite sorted triple, by column generation.

    The cost is symmetric, so symmetrizing any optimal coupling leaves an
    optimal one, and a symmetric coupling is fixed by the total weight x_t
    of each sorted triple t.  Its marginal at atom i is
    sum_t x_t count_i(t) / 3, which gives n rows instead of 3n, and the
    dual u yields the full LP's duals (u/3, u/3, u/3).

    One HiGHS model holds the restricted program over a growing subset of
    the finite columns, seeded by _lp_seed.  Each round solves it and
    prices every column (the problem's rows) in the problem's price vector
    c, c_t - (u_i + u_j + u_k) / 3, after one kernel call on the columns
    whose price is still their chord bound B_t <= c_t and prices below 0.
    Every other column has B_t - (u_i + u_j + u_k) / 3 >= 0, so its exact
    price is at least 0 too: it would not be added, and it cannot lower the
    certificate's least slack.  The round then appends exactly the columns
    outside the subset priced below -_LP_TOL, all of them evaluated by
    that call, until none is left; at worst the subset ends as every
    column.
    Appended columns enter at zero, so the next round starts from the last
    optimal basis, still primal feasible.  The last duals are then
    feasible for every finite column, which the certificate checks.

    The bound is infinite where two radii vanish, which is where the kernel
    is, so the finite columns are known before any cost and no other row is
    evaluated or added; nor is a column whose squared distances underflow
    in the kernel, infinite although its bound is not.  The subsets are
    those of exact pricing, so a problem whose values were read solves the
    same.  Past the first round, the value and duals can differ in their
    last bits from a cold solve of the same subset, since HiGHS reaches
    the optimum from another basis.

    HiGHS solves on the costs divided by the power of two s of the largest
    one, which is exact, so its absolute tolerances and the certificate's
    mean the same at every scale; the value and duals are multiplied back.
    The largest cost is on the diagonal, c(r) <= c(r1, r1, r1) for sorted
    radii, and the first subset holds the diagonal.
    """
    n, triples, c = problem.n, problem.triples, problem._price
    if not np.isfinite(c).any():
        raise InfeasibleCost("every coupling entry has infinite cost")
    ii, jj, kk = triples.T

    from scipy.optimize._highspy._core import HighsModelStatus, _Highs
    from scipy.sparse import csc_matrix

    b_eq = np.full(n, 1.0 / n)
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    # each restricted program is small and warm-started, and there HiGHS's
    # presolve costs more than it saves
    highs.setOptionValue("presolve", "off")
    # "choose": the dual simplex from no basis, the primal simplex from the
    # primal feasible basis a round leaves, where the dual one is slower
    highs.setOptionValue("simplex_strategy", 0)
    highs.setOptionValue("dual_feasibility_tolerance", _LP_TOL)
    highs.setOptionValue("primal_feasibility_tolerance", _LP_TOL)
    none = np.zeros(0, dtype=np.int32)
    highs.addRows(n, b_eq, b_eq, 0, none, none, np.zeros(0))

    subset = np.zeros(c.shape, dtype=bool)
    subset[_rank(_lp_seed(n), n)] = True
    # a restricted program holding every diagonal column (i, i, i) is
    # feasible; when one of them is infinite, the subset is every column
    if np.count_nonzero(np.isfinite(c[subset & (ii == kk)])) < n:
        subset[:] = True
    problem._evaluate(subset)
    # an underflowing kernel row can be infinite where its bound is not
    seed = np.flatnonzero(subset & np.isfinite(c))
    s = _unit_scale(float(c[seed].max()))

    def add(new):
        """Append the finite columns new to the model."""
        m, rows = new.size, triples[new].ravel()
        # one entry per distinct index: duplicates add up to count_i(t)
        a = csc_matrix((np.ones(3 * m), (rows, np.repeat(np.arange(m), 3))), (n, m))
        a /= 3.0
        lo, hi = np.zeros(m), np.full(m, np.inf)
        highs.addCols(m, c[new] / s, lo, hi, a.nnz, a.indptr[:-1], a.indices, a.data)

    add(seed)
    cols = seed  # the model's columns, in the order added
    iterations = 0
    for rounds in itertools.count(1):
        highs.run()
        status = highs.getModelStatus()
        if status != HighsModelStatus.kOptimal:
            raise InfeasibleCost(
                f"linear program failed: {highs.modelStatusToString(status)}"
            )
        info = highs.getInfo()
        iterations += info.simplex_iteration_count
        solution = highs.getSolution()
        u = np.array(solution.row_dual)
        third = u / 3.0
        dual = third[ii] + third[jj] + third[kk]
        # a column whose bound has slack >= 0 has an exact slack >= 0 too
        problem._evaluate(c / s - dual < 0.0)
        # every column priced in one vector pass
        slack = c / s - dual
        priced = np.flatnonzero((slack < -_LP_TOL) & ~subset)
        if priced.size == 0:
            break
        add(priced)
        subset[priced] = True
        cols = np.concatenate([cols, priced])

    x = np.array(solution.col_value)
    order = np.argsort(cols)
    charged = order[x[order] != 0.0]
    coupling = Coupling(n=n, triples=triples[cols[charged]], mass=x[charged])
    value = info.objective_function_value
    cert = LpCertificate(
        duals=(third * s,) * 3,
        marginal_residual=coupling.marginal_residual(),
        max_dual_violation=float(max(0.0, -slack.min())),
        duality_gap=float(value - b_eq @ u),
        columns=cols.size,
        rounds=rounds,
        exact_columns=int(np.count_nonzero(problem._exact & np.isfinite(c))),
        simplex_iterations=iterations,
    )
    if not cert.certified:
        raise CertificationError(
            "lp solution failed verification: "
            f"marginal residual {cert.marginal_residual:.3e}, "
            f"dual violation {cert.max_dual_violation:.3e}, "
            f"gap {cert.duality_gap:.3e}"
        )
    return SolveResult(
        value=float(value) * s, coupling=coupling, method="lp", certificate=cert
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
    midpoints of the first tertile (an integer n >= 1, else ValueError)
    with weight 1/n give the full value.
    """
    triples = graph_triples(seidl_map, _size(n, "n"))
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
_PROBE_TOL = 1e-10  # least cost drop that counts as a violation


def _apply_swap(a, b, template: str):
    if template == "first":
        return (b[0], a[1], a[2]), (a[0], b[1], b[2])
    if template == "second":
        return (a[0], b[1], a[2]), (b[0], a[1], b[2])
    if template == "third":
        return (a[0], a[1], b[2]), (b[0], b[1], a[2])
    raise ValueError(f"unknown swap template {template!r}")


def probe_cyclical_monotonicity(cost_fn, triples) -> tuple[Violation, ...]:
    """Search all support pairs for coordinate swaps that lower the cost.

    cost_fn takes a radius triple (three floats) and returns a scalar cost;
    results are memoized per distinct triple.  A violation is recorded when
    the swapped pair is cheaper by more than _PROBE_TOL = 1e-10; an empty
    result means the sampled support passes the pairwise monotonicity probe
    at that tolerance.
    """
    tr = [t.as_tuple() if isinstance(t, MongeTriple) else tuple(t) for t in triples]
    c = functools.cache(lambda t: float(cost_fn(*t)))
    out: list[Violation] = []
    for i, j in itertools.combinations(range(len(tr)), 2):
        base = c(tr[i]) + c(tr[j])
        if not math.isfinite(base):
            continue
        for template in _SWAP_TEMPLATES:
            na, nb = _apply_swap(tr[i], tr[j], template)
            swapped = c(na) + c(nb)
            if swapped < base - _PROBE_TOL:
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
    along a DDI graph, less the samples the kernel did not close in form."""

    max_discrepancy: float
    max_identity_discrepancy: float
    n_checked: int
    excluded: tuple[MongeTriple, ...]


def one_d_increasing_map_check(seidl_map: SeidlMap, n: int = 32) -> OneDCheckResult:
    """Compare the angular minimum against the reflected-line cost on orbits.

    For each sampled orbit (x, Tx, T^2 x), the reflected configuration
    (-Tx, x, T^2 x) on the line has cost c_1d equal to the collinear
    angular value; where the kernel returns that in closed form (the
    alignment margin certifies P > 0) it is the angular minimum.  The other
    orbits are excluded and reported, since there the angular minimum can
    drop below the collinear value.
    """
    triples = graph_triples(seidl_map, n)
    radii = np.array([t.as_tuple() for t in triples]).reshape(-1, 3)
    lines = np.array([c_1d(-t.tx, t.x, t.t2x) for t in triples])
    ident = np.array([c_pi(r) for r in radii.tolist()]) - lines
    values, _, _, _, candidates, _ = _radial_cost_batch(radii)
    aligned = (candidates == 0) & np.isfinite(values)
    err = np.abs(values[aligned] - lines[aligned])
    return OneDCheckResult(
        max_discrepancy=float(np.max(err, initial=0.0)),
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
    exact.  n_rotations is an integer of at least 1, else ValueError."""
    n_rotations = _size(n_rotations, "n_rotations")
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
