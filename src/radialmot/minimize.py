"""Global angular minimization and the stationary structure of the energy.

One batched kernel, :func:`_radial_cost_batch`, computes minimal energies;
:func:`radial_cost` is a batch of one.  The energy is homogeneous of
degree -1, so each triple is divided by a power of two near its largest
radius (exactly) and minimized at unit scale.  Where the alignment
polynomial of the sorted triple clears its rounding-error bound, the
alignment theorem gives the value c_pi in closed form.  Elsewhere the
collinear corner is a saddle between two mirrored minima, every local
minimum is global, and f(a, b) is smooth on the torus away from
coincidences.  So each such triple is seeded once, at the lowest node of a
fixed 6 x 6 grid built from per-pair tables, and descends by damped
saddle-free Newton steps: the Newton step where the Hessian is positive
definite, -|H|^-1 g elsewhere, and a step along the negative-curvature
direction off an exact saddle; a lane converges only where the Hessian is
positive semidefinite.  One descent runs in lockstep over the batch, on
numpy arrays, whose elementwise results do not depend on the batch.

Stationary points solve the closed-form gradient system; a multistart
Newton iteration run in lockstep over all starts converges quadratically
and the surviving points are deduplicated on the torus and classified by
the closed-form spectrum of the Hessian, as in the saddle-free step.

The two families of implicit curves traced here are the solution branches
of the split stationarity system

    g12(alpha) = -g13(beta)        (curves alpha_pi, alpha_0)
    g23(alpha - beta) = g13(beta)  (curves alpha_hat_pi, alpha_hat_0)

whose intersections are exactly the stationary points.  Each branch is one
lockstep solve over every beta by ``density._solve_increasing``, bracketed
by a multiple of pi and a peak of the unimodal g profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .costs import (
    AngularConfig,
    Radii,
    _P_ROUNDING,
    _alignment_margin,
    _critical_angle,
    _energy_terms,
    _grad_hess_arrays,
    _inv_dist,
    _inv_dist_derivs,
    _pairs,
    _unit_scale,
    _unit_scales,
    canonical_angle,
    torus_distance,
)
from .density import _size, _solve_increasing
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
# nodes per angle for the stationary multistart sweep
_START_GRID = 128
# torus radius merging coincident stationary points
_DEDUP_TOL = 1e-6
# Newton iteration cap for both refinement and the sweep
_MAX_ITER = 80
# longest step a descent lane takes
_MAX_STEP = 0.7
# seed grid nodes per angle, -pi + 2 pi k / 6: the collinear corner (-pi, 0)
# and the angles +-2 pi / 3 are nodes; _SEED_A, _SEED_B list it in flat order
_SEED_NODES = -_PI + _TWO_PI * np.arange(6) / 6
_SEED_A, _SEED_B = np.repeat(_SEED_NODES, 6), np.tile(_SEED_NODES, 6)
# the 21 distinct node differences a - b, and each flat node's index into them
_SEED_DIFFS, _SEED_DIFF_OF = np.unique(_SEED_A - _SEED_B, return_inverse=True)
# rows seeded and descended together at most: 2^18 node energies
_ROW_CHUNK = 2**18 // _SEED_A.size


@dataclass(frozen=True)
class RadialCostResult:
    """Outcome of the global angular minimization for one radius triple:
    grid_value is the energy at the seed node, candidates the number of
    descents (0 or 1) and iterations their accepted steps."""

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


def _spectrum(h11, h12, h22):
    """Eigenvalues lo <= hi of each symmetric 2 x 2 matrix [[h11, h12],
    [h12, h22]] in closed form, mid -+ rad, and the largest magnitude."""
    mid, rad = 0.5 * (h11 + h22), np.hypot(0.5 * (h11 - h22), h12)
    return mid - rad, mid + rad, np.abs(mid) + rad


def _saddle_free_step(g1, g2, h11, h12, h22, tol):
    """The saddle-free step -|H|^-1 g (Dauphin et al., NeurIPS 2014) from the
    closed-form eigendecomposition of each 2 x 2 Hessian, eigenvalues kept
    at least 1e-12 of the largest in magnitude.  Where H is strictly
    indefinite and the model decrease g |H|^-1 g is at most tol, as at an
    exact saddle, the step is _MAX_STEP along the negative-curvature
    eigenvector, of a fixed sign (Nocedal and Wright, 2006), so a lane
    leaves a saddle the same way every time.  Returns the step and whether
    H is positive semidefinite."""
    lo, hi, top = _spectrum(h11, h12, h22)
    # (c, s) spans the eigenspace of hi, (-s, c) the one of lo, with c >= 0
    th = 0.5 * np.arctan2(h12, 0.5 * (h11 - h22))
    c, s = np.cos(th), np.sin(th)
    gl, gh = c * g2 - s * g1, c * g1 + s * g2
    floor = 1e-12 * top
    wl = gl / np.maximum(np.abs(lo), floor)
    wh = gh / np.maximum(np.abs(hi), floor)
    curved = lo < -floor
    escape = curved & (gl * wl + gh * wh <= tol)
    sa = np.where(escape, -_MAX_STEP * s, s * wl - c * wh)
    sb = np.where(escape, _MAX_STEP * c, -c * wl - s * wh)
    return sa, sb, ~curved


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _newton_lanes(r1, r2, r3, a, b, fval):
    """Damped saddle-free Newton descent in lockstep from seeds (a, b) of energy fval.

    Each lane takes a Newton step where the Hessian is positive definite,
    else the step of :func:`_saddle_free_step`, capped at length _MAX_STEP
    and halved until the value decreases (NaN never does).  A lane stops
    when no step decreases the value, or after one try of its full step
    where the Hessian is positive semidefinite and the model decrease -g.s
    is at most 1e-15 of the value.  Derivatives are taken at the canonical
    angles, the energy at the raw iterate, each in one stacked pair pass.
    Returns final values, angles and iteration counts.
    """
    a, b, fval = a.copy(), b.copy(), fval.copy()
    iters = np.zeros(a.size, dtype=int)
    run = np.arange(a.size)
    for _ in range(_MAX_ITER):
        q1, q2, q3, qa, qb, qf = (v[run] for v in (r1, r2, r3, a, b, fval))
        g1, g2, h11, h12, h22 = _grad_hess_arrays(
            q1, q2, q3, canonical_angle(qa), canonical_angle(qb)
        )
        tol = 1e-15 * np.maximum(1.0, np.abs(qf))
        det = h11 * h22 - h12 * h12
        sa, sb = -(h22 * g1 - h12 * g2) / det, -(h11 * g2 - h12 * g1) / det
        psd = (det > 0.0) & (h11 > 0.0)
        k = np.flatnonzero(~psd)
        if k.size:
            sa[k], sb[k], psd[k] = _saddle_free_step(
                g1[k], g2[k], h11[k], h12[k], h22[k], tol[k]
            )
        # a lane at a minimum to within rounding tries its full step once
        final = psd & (-(g1 * sa + g2 * sb) <= tol)
        sn = np.hypot(sa, sb)
        sa = np.where(sn > _MAX_STEP, sa * _MAX_STEP / sn, sa)
        sb = np.where(sn > _MAX_STEP, sb * _MAX_STEP / sn, sb)
        todo = np.arange(run.size)
        accepted = np.zeros(run.size, dtype=bool)
        t = 1.0
        for _ in range(40):
            if todo.size == 0:
                break
            ta, tb = qa[todo] + t * sa[todo], qb[todo] + t * sb[todo]
            tf = sum(_inv_dist(*_pairs(q1[todo], q2[todo], q3[todo], ta, tb)))
            ok = tf < qf[todo]
            accepted[todo[ok]] = True
            lane = run[todo[ok]]
            a[lane], b[lane], fval[lane] = ta[ok], tb[ok], tf[ok]
            todo = todo[~ok & ~final[todo]]
            t *= 0.5
        iters[run[accepted]] += 1
        run = run[accepted & ~final]
        if run.size == 0:
            break
    return fval, a, b, iters


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _radial_cost_batch(radii):
    """Minimal energy over the torus for each row of an (m, 3) radius array.

    Returns arrays value, alpha, beta, grid_value, candidates, iterations;
    rows with two zero radii get infinite values.  Each row is computed on
    r / s, s the power of two that puts its largest radius in [1/2, 1),
    sorted once there, and rescaled.  Where the sorted row's margin certifies
    P > 0, the value is its c_pi in closed form at the collinear argmin with
    the middle radius opposite the other two (0 candidates, 0 iterations).
    Every other row is seeded at the lowest node of the 6 x 6 seed grid
    (grid_value, 1 candidate), added from per-pair tables in the order of
    the builtin sum, the first node winning ties, and descends from that
    node and its energy by :func:`_newton_lanes`, all rows of a chunk in lockstep.
    """
    r = np.array(radii, dtype=float).reshape(-1, 3)
    m = len(r)
    s = _unit_scales(r.max(axis=1))
    u = r / s[:, None]
    order = np.argsort(u, axis=1)
    v = u[np.arange(m)[:, None], order]
    value, grid_value = np.full((2, m), np.inf)
    alpha, beta = np.zeros((2, m))
    candidates, iterations = np.zeros((2, m), dtype=int)
    live = np.count_nonzero(u == 0.0, axis=1) < 2

    closed = live & (_alignment_margin(v) > _P_ROUNDING)
    k = np.flatnonzero(closed)
    value[k] = grid_value[k] = sum(_energy_terms(*v[k].T, -_PI, 0.0))
    middle = order[k, 1]
    alpha[k] = np.where(middle == 2, 0.0, -_PI)
    beta[k] = np.where(middle == 1, 0.0, -_PI)

    seeded = np.flatnonzero(live & ~closed)
    candidates[seeded] = 1
    # rows are independent, so chunks only bound the memory
    for lo in range(0, seeded.size, _ROW_CHUNK):
        i = seeded[lo : lo + _ROW_CHUNK]
        q1, q2, q3 = u[i, :1], u[i, 1:2], u[i, 2:]
        f12, f13 = _inv_dist(q1, q2, _SEED_NODES), _inv_dist(q1, q3, _SEED_NODES)
        f = (f12[:, :, None] + f13[:, None, :]).reshape(-1, _SEED_A.size)
        f += _inv_dist(q2, q3, _SEED_DIFFS).take(_SEED_DIFF_OF, axis=1)
        node = np.argmin(f, axis=1)
        grid_value[i] = f[np.arange(i.size), node]
        seed = _SEED_A[node], _SEED_B[node], grid_value[i]
        value[i], a, b, iterations[i] = _newton_lanes(*u[i].T, *seed)
        alpha[i], beta[i] = canonical_angle(a), canonical_angle(b)
    return value / s, alpha, beta, grid_value / s, candidates, iterations


def radial_cost(r: Radii | tuple) -> RadialCostResult:
    """Minimal Coulomb energy over all angular configurations at fixed radii.

    One row of :func:`_radial_cost_batch`: closed form where the alignment
    theorem applies, else saddle-free Newton descent from the lowest node
    of a 6 x 6 seed grid.

    Raises :class:`AllInfinite` when two radii vanish, since then every
    configuration contains a coincident pair.
    """
    r = Radii.of(r)
    value, alpha, beta, grid_value, candidates, iterations = (
        v.item() for v in _radial_cost_batch([r.as_tuple()])
    )
    if not math.isfinite(grid_value):
        raise AllInfinite(
            f"no finite configuration for radii {r.as_tuple()}: every one has "
            "a coincident pair"
        )
    return RadialCostResult(
        value, AngularConfig(alpha, beta), grid_value, candidates, iterations
    )


def _classify(h11, h12, h22):
    """Each stationary point's class from its Hessian's :func:`_spectrum`:
    "degenerate" where an eigenvalue is within 1e-8 max(1, top) of 0, else
    "min", "max" or "saddle" by the eigenvalues' signs."""
    lo, hi, top = _spectrum(h11, h12, h22)
    flat = np.minimum(np.abs(lo), np.abs(hi)) <= 1e-8 * np.maximum(1.0, top)
    return np.select([flat, lo > 0.0, hi < 0.0], ["degenerate", "min", "max"], "saddle")


_CORNERS = ((0.0, 0.0), (0.0, _PI), (_PI, 0.0), (_PI, _PI))


def _unit_radii(r: Radii | tuple, what: str) -> tuple[float, float, float, float]:
    """Strictly ordered radii with r1 > 0, divided by the power of two s
    that puts r3 in [1/2, 1) (exactly), followed by s."""
    r = Radii.of(r)
    r.require_strictly_ordered()
    s = _unit_scale(r.r3)
    r1, r2, r3 = (v / s for v in r.as_tuple())
    if not 0.0 < r1 < r2:
        raise DegenerateRadii(
            f"{what} needs r1 > 0 and r1 < r2 at unit scale, got {r.as_tuple()}; "
            "at r1 = 0 the stationarity system degenerates"
        )
    return r1, r2, r3, s


def _representatives(a, b) -> list[int]:
    """Indices of the points (a, b) in [-pi, pi)^2 that represent the rest:
    in sorted order, the first point left represents every point left
    within _DEDUP_TOL of it on the torus.  For such angles min(d, 2 pi - d)
    of d = |p - q| is |remainder(p - q, 2 pi)| exactly, as torus_distance."""
    todo, reps = np.lexsort((b, a)), []
    while todo.size:
        i = todo[0]
        reps.append(i)
        da, db = np.abs(a[todo] - a[i]), np.abs(b[todo] - b[i])
        dist = np.maximum(np.minimum(da, _TWO_PI - da), np.minimum(db, _TWO_PI - db))
        todo = todo[dist > _DEDUP_TOL]
    return reps


def find_stationary_points(r: Radii | tuple) -> StationaryReport:
    """All gradient zeros of the energy found from a dense multistart sweep.

    Newton iterations run in lockstep over a 128 x 128 set of initial angle
    pairs, each start leaving after one step from a gradient norm within
    1e-13 (or NaN); non-converged starts are dropped, survivors are
    deduplicated within 1e-6 on the torus and classified by the signs of
    the Hessian's closed-form eigenvalues (:func:`_classify`).
    The four corner configurations are stationary for
    every radius triple and always appear.

    Requires strictly ordered positive radii so the energy is smooth on
    the whole torus.  Runs on the radii divided by a power of two near the
    largest, so points and classifications do not depend on the scale;
    gradient norms are reported at the caller's scale.
    """
    r1, r2, r3, s = _unit_radii(r, "stationary sweep")
    n0 = _START_GRID
    g = -_PI + _TWO_PI * np.arange(n0) / n0
    a, b = np.repeat(g, n0), np.tile(g, n0)

    run = np.arange(a.size)
    for _ in range(_MAX_ITER):
        g1, g2, h11, h12, h22 = _grad_hess_arrays(r1, r2, r3, a[run], b[run])
        det = h11 * h22 - h12 * h12
        scale = np.maximum(np.abs(h11) + np.abs(h22) + np.abs(h12), 1e-300)
        safe = np.abs(det) > 1e-14 * scale * scale
        inv_det = np.where(safe, det, 1.0)
        sa = np.where(safe, -(h22 * g1 - h12 * g2) / inv_det, 0.0)
        sb = np.where(safe, -(h11 * g2 - h12 * g1) / inv_det, 0.0)
        sn = np.hypot(sa, sb)
        clip = np.where(sn > 0.5, 0.5 / np.maximum(sn, 1e-300), 1.0)
        a[run] = canonical_angle(a[run] + clip * sa)
        b[run] = canonical_angle(b[run] + clip * sb)
        run = run[np.hypot(g1, g2) > 1e-13]
        if run.size == 0:
            break

    g1, g2, h11, h12, h22 = _grad_hess_arrays(r1, r2, r3, a, b)
    gn = np.hypot(g1, g2)
    keep = np.flatnonzero(gn <= 1e-12)
    reps = keep[_representatives(a[keep], b[keep])]
    points = tuple(
        StationaryPoint(AngularConfig(a[i], b[i]), kind, float(gn[i] / s))
        for i, kind in zip(reps, _classify(h11[reps], h12[reps], h22[reps]).tolist())
    )
    only_corners = all(
        min(torus_distance(p.config.as_tuple(), c) for c in _CORNERS)
        <= _DEDUP_TOL
        for p in points
    )
    return StationaryReport(
        points=points,
        only_corner_points=only_corners,
        n_starts=n0 * n0,
        n_converged=keep.size,
        max_grad_norm=max((p.grad_norm for p in points), default=0.0),
    )


def _signed_g(ri, rj, sign, x):
    """sign g and its slope sign g' at the angles x, for the pair's profile
    g = -F', with g exactly 0 at multiples of pi, where sin vanishes:
    sin(2 pi) rounds to -2.4e-16, which D^(-3/2) magnifies where the radii
    nearly coincide."""
    d1, d2 = _inv_dist_derivs(ri, rj, x)
    return np.where(x % _PI == 0.0, 0.0, -sign * d1), -sign * d2


def trace_implicit_curves(r: Radii | tuple, n_beta: int = 181) -> CurveBundle:
    """Sample the four stationarity branch curves at n_beta >= 2 betas in [0, pi].

    Solves g12(alpha) = -g13(beta) for the two alpha branches and
    g23(alpha - beta) = g13(beta) for the two alpha_hat branches.  Each
    branch is one lockstep solve over every beta by
    :func:`density._solve_increasing`, on a bracket between a profile peak
    and a multiple of pi where g is monotone.  The brackets exist when
    pairwise attraction toward the outer charge stays dominated, which is
    what the alignment condition guarantees; a missing sign change, or a
    bracket left empty by a critical angle that rounds to 0, raises
    :class:`RootNotBracketed`.  Runs on the radii divided by a power of
    two near the largest, so no output depends on the scale.
    """
    r1, r2, r3, _ = _unit_radii(r, "curve tracing")
    n_beta = _size(n_beta, "n_beta", 2)
    th12, th13, th23 = (
        _critical_angle(ri, rj) for ri, rj in ((r1, r2), (r1, r3), (r2, r3))
    )
    # name, pair, bracket, the sign that makes sign g increasing on it, the
    # side in g(x) = side g13(beta), and the root at a target of 0; the
    # brackets that a critical angle of 0 leaves empty come first
    branches = (
        ("alpha_0", r1, r2, _TWO_PI - th12, _TWO_PI, 1.0, -1.0, _TWO_PI),
        ("alpha_hat_0", r2, r3, 0.0, th23, 1.0, 1.0, 0.0),
        ("alpha_pi", r1, r2, _PI, _TWO_PI - th12, -1.0, -1.0, _PI),
        ("alpha_hat_pi", r2, r3, th23, _PI, -1.0, 1.0, _PI),
    )

    betas = np.linspace(0.0, _PI, n_beta)
    tgt = _signed_g(r1, r3, 1.0, betas)[0]
    # below this the target is numerically indistinguishable from the
    # exact-endpoint case beta in {0, pi} where the roots are known
    solved = np.flatnonzero(tgt > 1e-12 * _signed_g(r1, r3, 1.0, th13)[0])
    roots = {}
    for what, ri, rj, lo, hi, sign, side, known in branches:
        # lanes with a tiny target keep the known root; with no other lane
        # no g is evaluated, as far-apart radii can overflow it
        roots[what] = x = np.full(n_beta, known)
        if solved.size == 0:
            continue
        w = sign * side * tgt[solved]
        # a bracket that a critical angle of 0 leaves empty is one multiple
        # of pi, where g is 0 and nearly equal radii coincide
        ends = np.array([lo, hi])
        f_lo, f_hi = _signed_g(ri, rj, sign, ends)[0] if lo < hi else (0.0, 0.0)
        bad = np.flatnonzero(~((f_lo <= w) & (w <= f_hi)))
        if bad.size:
            wb = w[bad[0]]
            raise RootNotBracketed(
                f"{what}: no sign change on [{lo:.6g}, {hi:.6g}] "
                f"(f(lo)={sign * (f_lo - wb):.3e}, f(hi)={sign * (f_hi - wb):.3e}); "
                "the alignment condition may fail for these radii or the "
                "geometry is too extreme"
            )
        start = lo + (w - f_lo) / (f_hi - f_lo) * (hi - lo)
        f = partial(_signed_g, ri, rj, sign)
        x[solved] = _solve_increasing(f, w, lo, hi, start)
    a_pi, a_0 = roots["alpha_pi"], roots["alpha_0"]
    ah_0, ah_pi = betas + roots["alpha_hat_0"], betas + roots["alpha_hat_pi"]

    d = r2 * (r3 - r1) ** 3
    slope_pi, slope_hat = r3 * (r1 + r2) ** 3 / d, (d - r1 * (r2 + r3) ** 3) / d

    excess = (_PI - a_pi, a_pi - (_PI + slope_pi * betas))
    excess += ((_PI + slope_hat * betas) - ah_pi, ah_pi - (_PI + betas))
    viol = max(0.0, *(float(np.max(v)) for v in excess))
    return CurveBundle(
        beta=betas,
        alpha_pi=a_pi,
        alpha_0=a_0,
        alpha_hat_pi=ah_pi,
        alpha_hat_0=ah_0,
        slope_alpha_pi=slope_pi,
        slope_alpha_hat_pi=slope_hat,
        confinement_ok=viol <= 1e-9,
        max_confinement_violation=viol,
    )
