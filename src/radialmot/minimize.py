"""Global angular minimization and the stationary structure of the energy.

The energy f(a, b) on the torus is smooth away from coincidences and, for
strictly ordered radii, has no coincidences at all, so a dense grid scan
followed by damped Newton refinement finds the global minimum reliably.
The grid exploits separability: f decomposes into three one-dimensional
profiles (one per pair), so the full n x n table is assembled from three
length-n arrays and a strided circulant view instead of n^2 evaluations.
The refinement of the few grid nodes near the minimum runs on plain
floats with the scalar pair terms of :mod:`costs`, which give numpy's
results bit for bit at a fraction of the per-call cost.

Stationary points solve the closed-form gradient system; a multistart
Newton iteration run in lockstep over all starts converges quadratically
and the surviving points are deduplicated on the torus and classified by
the Hessian spectrum.

The two families of implicit curves traced here are the solution branches
of the split stationarity system

    g12(alpha) = -g13(beta)        (curves alpha_pi, alpha_0)
    g23(alpha - beta) = g13(beta)  (curves alpha_hat_pi, alpha_hat_0)

whose intersections are exactly the stationary points.  Brackets for the
one-dimensional solves come from the unimodal shape of each g profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import brentq

from .costs import (
    AngularConfig,
    Radii,
    _grad_hess_terms,
    _inv_dist,
    _inv_dist_d1,
    _inv_dist_d2,
    _pair_terms,
    canonical_angle,
    g_profile,
    grad_hess,
    torus_distance,
)
from .errors import AllInfinite, DegenerateRadii, RootNotBracketed

__all__ = [
    "RadialCostResult",
    "StationaryPoint",
    "StationaryReport",
    "CurveBundle",
    "radial_cost",
    "find_stationary_points",
    "trace_implicit_curves",
]

_PI = math.pi
_TWO_PI = 2.0 * math.pi
# value tolerance when comparing refined candidates
_TOL = 1e-10
# nodes per angle for the stationary multistart sweep
_START_GRID = 128
# torus radius merging coincident stationary points
_DEDUP_TOL = 1e-6
# Newton iteration cap for both refinement and the sweep
_MAX_ITER = 80
# relative window above the grid minimum whose nodes are all refined, so
# exact symmetry ties are broken deterministically
_TIE_WINDOW = 1e-7
# cap on the number of refined tie candidates
_MAX_CANDIDATES = 12


@dataclass(frozen=True)
class RadialCostResult:
    """Outcome of the global angular minimization for one radius triple."""

    value: float
    argmin: AngularConfig
    grid_value: float
    candidates: int
    iterations: int


@dataclass(frozen=True)
class StationaryPoint:
    config: AngularConfig
    classification: str  # "min" | "max" | "saddle" | "degenerate"
    grad_norm: float


@dataclass(frozen=True)
class StationaryReport:
    points: tuple[StationaryPoint, ...]
    only_corner_points: bool
    n_starts: int
    n_converged: int
    max_grad_norm: float

    def configs(self) -> tuple[AngularConfig, ...]:
        return tuple(p.config for p in self.points)


@dataclass(frozen=True)
class CurveBundle:
    """Sampled implicit curves on beta in [0, pi], angles kept in [0, 2 pi].

    alpha_pi / alpha_0 pass through (pi, 0) and (2 pi, 0); alpha_hat_pi /
    alpha_hat_0 pass through (pi, 0) and (0, 0).  Slopes are the exact
    tangent slopes of the two curves through (pi, 0) at beta = 0, and the
    confinement flags report whether each curve stays between its straight
    chord bounds over the sampled range.
    """

    beta: np.ndarray
    alpha_pi: np.ndarray
    alpha_0: np.ndarray
    alpha_hat_pi: np.ndarray
    alpha_hat_0: np.ndarray
    slope_alpha_pi: float
    slope_alpha_hat_pi: float
    confinement_ok: bool
    max_confinement_violation: float


def _check_not_all_infinite(r: Radii) -> None:
    zeros = sum(1 for v in r.as_tuple() if v == 0.0)
    if zeros >= 2:
        raise AllInfinite(
            f"radii {r.as_tuple()} put two charges at the center; every "
            "configuration has a coincident pair"
        )


def _refine_minimum(
    r1: float, r2: float, r3: float, a: float, b: float
) -> tuple[float, float, float, int]:
    """Damped Newton descent from a grid node; value never increases.

    Plain floats throughout: the derivatives are taken at the canonical
    angles, the energy at the raw iterate."""
    f12, f13, f23 = _pair_terms(r1, r2, r3, a, b)
    fval = f12 + f13 + f23
    iters = 0
    for _ in range(_MAX_ITER):
        g1, g2, h11, h12, h22 = _grad_hess_terms(
            r1, r2, r3, canonical_angle(a), canonical_angle(b)
        )
        gn = math.hypot(g1, g2)
        if gn <= 1e-12 * max(1.0, abs(fval)):
            break
        det = h11 * h22 - h12 * h12
        if det > 0.0 and h11 > 0.0:
            sa = -(h22 * g1 - h12 * g2) / det
            sb = -(h11 * g2 - h12 * g1) / det
        else:
            # Hessian not positive definite: fall back to scaled descent.
            # A NaN entry makes the scale NaN, as numpy's max does, and
            # the NaN step then stops the descent
            mags = (abs(h11), abs(h12), abs(h22))
            hn = math.nan if math.isnan(sum(mags)) else max(*mags, 1e-12)
            sa, sb = -g1 / hn, -g2 / hn
        sn = math.hypot(sa, sb)
        if sn > 0.7:
            sa, sb = sa * 0.7 / sn, sb * 0.7 / sn
        t = 1.0
        accepted = False
        for _ in range(40):
            na, nb = a + t * sa, b + t * sb
            f12, f13, f23 = _pair_terms(r1, r2, r3, na, nb)
            nf = f12 + f13 + f23
            if nf <= fval:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        improvement = fval - nf
        a, b, fval = na, nb, nf
        iters += 1
        if improvement <= 1e-16 * max(1.0, abs(fval)) and gn <= 1e-9:
            break
    return fval, a, b, iters


def radial_cost(r: Radii | tuple, grid: int = 256) -> RadialCostResult:
    """Minimal Coulomb energy over all angular configurations at fixed radii.

    Separable grid scan with grid nodes per angle, followed by damped
    Newton refinement of every node inside the tie window.  Ties between
    refined candidates at equal value are broken by the lexicographically
    smallest canonical (alpha, beta).

    Raises :class:`AllInfinite` when two radii vanish, since then every
    configuration contains a coincident pair.
    """
    if grid < 8:
        raise ValueError("grids must have at least 8 nodes per angle")
    r = Radii.of(r)
    _check_not_all_infinite(r)
    n = grid
    base = -_PI + _TWO_PI * np.arange(n) / n
    diff = _TWO_PI * np.arange(n) / n
    with np.errstate(divide="ignore"):
        fa = _inv_dist(r.r1, r.r2, base)
        fb = _inv_dist(r.r1, r.r3, base)
        fc = _inv_dist(r.r2, r.r3, diff)
    # f[k, l] = fa[k] + fb[l] + fc[(k - l) % n], the circulant term as a
    # strided view: f is then the only grid-sized array a call allocates,
    # whereas freeing several per call let malloc trim the heap and fault
    # its pages back in on every call
    circulant = sliding_window_view(np.concatenate([fc, fc]), n)[1:, ::-1]
    f = fa[:, None] + fb[None, :]
    f += circulant
    grid_min = float(np.min(f))
    if not math.isfinite(grid_min):
        raise AllInfinite(f"no finite configuration found for radii {r.as_tuple()}")

    window = _TIE_WINDOW * max(1.0, abs(grid_min))
    # split flat indices into (row, column) only for the kept candidates:
    # when many nodes tie, a full split holds two more grid-sized arrays
    flat = np.flatnonzero(f <= grid_min + window)
    order = np.argsort(f.ravel()[flat], kind="stable")[:_MAX_CANDIDATES]
    rows, cols = np.divmod(flat[order], n)

    best: tuple[float, float, float] | None = None
    total_iters = 0
    for a0, b0 in zip(base[rows].tolist(), base[cols].tolist()):
        fval, a, b, iters = _refine_minimum(r.r1, r.r2, r.r3, a0, b0)
        total_iters += iters
        a, b = canonical_angle(a), canonical_angle(b)
        if best is None:
            best = (fval, a, b)
            continue
        lower = min(fval, best[0])
        if abs(fval - best[0]) <= _TOL * max(1.0, abs(lower)):
            best = (lower, *min((a, b), (best[1], best[2])))
        elif fval < best[0]:
            best = (fval, a, b)
    assert best is not None
    return RadialCostResult(
        value=best[0],
        argmin=AngularConfig(best[1], best[2]),
        grid_value=grid_min,
        candidates=len(order),
        iterations=total_iters,
    )


def _grad_hess_arrays(r: Radii, a: np.ndarray, b: np.ndarray):
    """Vectorized gradient and Hessian entries at many configurations."""
    d12 = _inv_dist_d1(r.r1, r.r2, a)
    d13 = _inv_dist_d1(r.r1, r.r3, b)
    d23 = _inv_dist_d1(r.r2, r.r3, a - b)
    s12 = _inv_dist_d2(r.r1, r.r2, a)
    s13 = _inv_dist_d2(r.r1, r.r3, b)
    s23 = _inv_dist_d2(r.r2, r.r3, a - b)
    g1 = d12 + d23
    g2 = d13 - d23
    h11 = s12 + s23
    h12 = -s23
    h22 = s13 + s23
    return g1, g2, h11, h12, h22


def _classify(h: np.ndarray) -> str:
    w = np.linalg.eigvalsh(h)
    scale = max(1.0, float(np.max(np.abs(w))))
    if np.min(np.abs(w)) <= 1e-8 * scale:
        return "degenerate"
    if w[0] > 0.0:
        return "min"
    if w[1] < 0.0:
        return "max"
    return "saddle"


_CORNERS = ((0.0, 0.0), (0.0, _PI), (_PI, 0.0), (_PI, _PI))


def find_stationary_points(r: Radii | tuple) -> StationaryReport:
    """All gradient zeros of the energy found from a dense multistart sweep.

    Newton iterations run in lockstep over a 128 x 128 set of initial angle
    pairs; non-converged starts are dropped, survivors are deduplicated
    within 1e-6 on the torus and classified by Hessian eigenvalue signs.
    The four corner configurations are stationary for
    every radius triple and always appear.

    Requires strictly ordered positive radii so the energy is smooth on
    the whole torus.
    """
    r = Radii.of(r)
    r.require_strictly_ordered()
    if r.r1 <= 0.0:
        raise DegenerateRadii(
            "stationary sweep needs r1 > 0; at r1 = 0 the gradient system "
            "degenerates to a one-parameter family"
        )
    n0 = _START_GRID
    g = -_PI + _TWO_PI * np.arange(n0) / n0
    a = np.repeat(g, n0).astype(float)
    b = np.tile(g, n0).astype(float)

    for _ in range(_MAX_ITER):
        g1, g2, h11, h12, h22 = _grad_hess_arrays(r, a, b)
        gn = np.hypot(g1, g2)
        if np.all(gn <= 1e-13):
            break
        det = h11 * h22 - h12 * h12
        scale = np.maximum(np.abs(h11) + np.abs(h22) + np.abs(h12), 1e-300)
        safe = np.abs(det) > 1e-14 * scale * scale
        inv_det = np.where(safe, det, 1.0)
        sa = np.where(safe, -(h22 * g1 - h12 * g2) / inv_det, 0.0)
        sb = np.where(safe, -(h11 * g2 - h12 * g1) / inv_det, 0.0)
        sn = np.hypot(sa, sb)
        clip = np.where(sn > 0.5, 0.5 / np.maximum(sn, 1e-300), 1.0)
        a = a + clip * sa
        b = b + clip * sb
        a = (a + _PI) % _TWO_PI - _PI
        b = (b + _PI) % _TWO_PI - _PI

    g1, g2, *_ = _grad_hess_arrays(r, a, b)
    gn = np.hypot(g1, g2)
    keep = gn <= 1e-12
    pts = sorted(zip(a[keep], b[keep], gn[keep]))
    n_converged = len(pts)

    reps: list[tuple[float, float, float]] = []
    for pa, pb, pg in pts:
        hit = False
        for qa, qb, _ in reps:
            if torus_distance((pa, pb), (qa, qb)) <= _DEDUP_TOL:
                hit = True
                break
        if not hit:
            reps.append((pa, pb, pg))

    points = []
    max_g = 0.0
    for pa, pb, pg in reps:
        _, h = grad_hess(r, (pa, pb))
        points.append(
            StationaryPoint(
                config=AngularConfig(pa, pb),
                classification=_classify(h),
                grad_norm=float(pg),
            )
        )
        max_g = max(max_g, float(pg))

    only_corners = all(
        min(torus_distance(p.config.as_tuple(), c) for c in _CORNERS)
        <= _DEDUP_TOL
        for p in points
    )
    return StationaryReport(
        points=tuple(points),
        only_corner_points=only_corners,
        n_starts=n0 * n0,
        n_converged=n_converged,
        max_grad_norm=max_g,
    )


def _bracketed_root(fn, lo: float, hi: float, what: str) -> float:
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise RootNotBracketed(
            f"{what}: no sign change on [{lo:.6g}, {hi:.6g}] "
            f"(f(lo)={flo:.3e}, f(hi)={fhi:.3e}); the alignment condition "
            "may fail for these radii or the geometry is too extreme"
        )
    return float(brentq(fn, lo, hi, xtol=1e-13, rtol=8.9e-16))


def trace_implicit_curves(r: Radii | tuple, n_beta: int = 181) -> CurveBundle:
    """Sample the four stationarity branch curves over beta in [0, pi].

    Solves g12(alpha) = -g13(beta) for the two alpha branches and
    g23(alpha - beta) = g13(beta) for the two alpha_hat branches, each by
    bracketed one-dimensional root finding between profile peaks.  The
    brackets exist when pairwise attraction toward the outer charge stays
    dominated, which is what the alignment condition guarantees; a missing
    sign change raises :class:`RootNotBracketed`.
    """
    r = Radii.of(r)
    r.require_strictly_ordered()
    if r.r1 <= 0.0:
        raise DegenerateRadii("curve tracing needs r1 > 0")
    if n_beta < 2:
        raise ValueError("n_beta must be at least 2")

    r1, r2, r3 = r.as_tuple()
    _, _, th12 = g_profile(r1, r2, 0.0)
    _, _, th13 = g_profile(r1, r3, 0.0)
    _, _, th23 = g_profile(r2, r3, 0.0)

    def g12(t: float) -> float:
        return float(-_inv_dist_d1(r1, r2, t))

    def g13(t: float) -> float:
        return float(-_inv_dist_d1(r1, r3, t))

    def g23(t: float) -> float:
        return float(-_inv_dist_d1(r2, r3, t))

    # below this the target is numerically indistinguishable from the
    # exact-endpoint case beta in {0, pi} where the roots are known
    tiny_target = 1e-12 * g13(th13)

    betas = np.linspace(0.0, _PI, n_beta)
    a_pi = np.empty(n_beta)
    a_0 = np.empty(n_beta)
    ah_pi = np.empty(n_beta)
    ah_0 = np.empty(n_beta)

    for i, beta in enumerate(betas):
        tgt = g13(float(beta))
        if tgt <= tiny_target:
            a_pi[i], a_0[i] = _PI, _TWO_PI
            ah_0[i], ah_pi[i] = beta, beta + _PI
            continue
        a_pi[i] = _bracketed_root(
            lambda t: g12(t) + tgt, _PI, _TWO_PI - th12, "alpha_pi"
        )
        a_0[i] = _bracketed_root(
            lambda t: g12(t) + tgt, _TWO_PI - th12, _TWO_PI, "alpha_0"
        )
        u_near = _bracketed_root(lambda u: g23(u) - tgt, 0.0, th23, "alpha_hat_0")
        u_far = _bracketed_root(lambda u: g23(u) - tgt, th23, _PI, "alpha_hat_pi")
        ah_0[i] = beta + u_near
        ah_pi[i] = beta + u_far

    slope_pi = r3 * (r1 + r2) ** 3 / (r2 * (r3 - r1) ** 3)
    slope_hat = (r2 * (r3 - r1) ** 3 - r1 * (r2 + r3) ** 3) / (
        r2 * (r3 - r1) ** 3
    )

    slack = 1e-9
    viol = 0.0
    viol = max(viol, float(np.max(_PI - a_pi)))
    viol = max(viol, float(np.max(a_pi - (_PI + slope_pi * betas))))
    viol = max(viol, float(np.max((_PI + slope_hat * betas) - ah_pi)))
    viol = max(viol, float(np.max(ah_pi - (_PI + betas))))
    return CurveBundle(
        beta=betas,
        alpha_pi=a_pi,
        alpha_0=a_0,
        alpha_hat_pi=ah_pi,
        alpha_hat_0=ah_0,
        slope_alpha_pi=slope_pi,
        slope_alpha_hat_pi=slope_hat,
        confinement_ok=viol <= slack,
        max_confinement_violation=viol,
    )
