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

Away from the four corners a stationary point carries equal torque
g12(theta12) = g13(theta13) = g23(theta23) = mu on gaps summing to 2 pi
(the separable dual structure of Aubin and Ekeland, Math. Oper. Res.
1976), so once each pair's side of its critical angle is fixed only mu is
unknown.  The census finds those roots on all eight side patterns from one
private inverse of g, ``costs._torque_angle``.  The implicit curves

    g12(alpha) = -g13(beta)        (curves alpha_pi, alpha_0)
    g23(alpha - beta) = g13(beta)  (curves alpha_hat_pi, alpha_hat_0)

whose intersections are exactly the stationary points, come from the same
inverse at mu = g13(beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import (
    AngularConfig,
    Radii,
    _P_ROUNDING,
    _alignment_margin,
    _energy_terms,
    _grad_hess_arrays,
    _inv_dist,
    _pairs,
    _torque_angle,
    _torque_peak,
    _unit_scale,
    _unit_scales,
    canonical_angle,
    g_profile,
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
# Newton iteration cap of a descent
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
    """Each stationary point's class by the signs of its Hessian's det and
    h11, the positive-definite test of :func:`_newton_lanes`: "degenerate"
    where |det| <= 1e-8 (|h11 h22| + h12^2), so cancellation may have lost
    det's sign, else "min", "max" or "saddle"."""
    det = h11 * h22 - h12 * h12
    flat = np.abs(det) <= 1e-8 * (np.abs(h11 * h22) + h12 * h12)
    kinds = ["degenerate", "min", "max"]
    return np.select([flat, (det > 0.0) & (h11 > 0.0), det > 0.0], kinds, "saddle")


# the four corners at their canonical angles, pi being -pi in [-pi, pi)
_CORNERS = np.array([[0.0, 0.0, -_PI, -_PI], [0.0, -_PI, 0.0, -_PI]])
# the eight side patterns: 1 where pair 12, 13 or 23 is on the convex side
_SIDES = (np.arange(8)[:, None] >> np.arange(3)) & 1


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


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def find_stationary_points(r: Radii | tuple) -> StationaryReport:
    """The four corners and the equal-torque roots, classified by :func:`_classify`.

    Elsewhere the gaps theta carry equal torque g(theta) = mu in (0, mu_max],
    mu_max the least pair peak, and with each pair's side of its critical
    angle fixed S(mu) = sum theta(mu) - 2 pi vanishes.  Sign changes of S on
    a grid of mu, for the eight side patterns from six
    :func:`costs._torque_angle` inverses, bracket its roots, refined in
    lockstep with S' = sum dtheta/dmu.  Where one pair is concave, S(0) = 0
    at a corner and S has the sign of S'(0) (of P at the collinear corner).
    Each root is (theta12, -theta13) and its mirror.  Runs at unit scale, so
    points and classes do not depend on the scale (gradient norms are at
    the caller's); raises :class:`DegenerateRadii` where that scale cannot
    resolve a corner.
    """
    r = Radii.of(r)
    r1, r2, r3, s = _unit_radii(r, "stationary sweep")
    pairs = ((r1, r2, r3), (r1, r3, r2), (r2, r3, r1))  # and the third radius
    peaks = [_torque_peak(ri, rj) for ri, rj, _ in pairs]
    hess = _grad_hess_arrays(r1, r2, r3, *_CORNERS)[2:]
    if min(tc for tc, _, _ in peaks) == 0.0 or not np.isfinite(hess).all():
        raise DegenerateRadii(
            f"stationary sweep lost a corner for radii {r.as_tuple()}: its Hessian "
            "is not finite at unit scale, or a pair's critical angle rounds to 0"
        )
    # 33 torques mu_max sin^2(pi k / 64): dense at 0 and mu_max, where S' diverges
    mu = min(g / sp for _, g, sp in peaks) * np.sin(_PI * np.arange(33) / 64) ** 2
    # theta[i, side, k]: pair i's angle at mu[k], the concave side first
    both = np.repeat([0, 1], mu.size - 1)
    theta = [_torque_angle(ri, rj, np.tile(mu[1:], 2), both)[0] for ri, rj, _ in pairs]
    excess = np.reshape(theta, (3, 2, -1))[np.arange(3), _SIDES].sum(axis=1) - _TWO_PI
    # S(0) = (#convex - 2) pi, else the sign of S'(0) r1 r2 r3, from 1/g'(0) =
    # (rj - ri)^3 / (ri rj) and 1/g'(pi) = -(ri + rj)^3 / (ri rj)
    left = (_SIDES.sum(axis=1) - 2) * _PI
    left[left == 0.0] = sum(
        np.where(side, -rk * (ri + rj) ** 3, rk * (rj - ri) ** 3)
        for (ri, rj, rk), side in zip(pairs, _SIDES[left == 0.0].T)
    )
    neg = np.column_stack([left, excess]) < 0.0
    change = neg[:, 1:] != neg[:, :-1]
    change[:, 0] &= left != 0.0

    a, b = (list(v) for v in _CORNERS)
    for p in np.flatnonzero(change.any(axis=1)):
        k, sides = np.flatnonzero(change[p]), _SIDES[p]
        # z = mu where S rises on the bracket, -mu where it falls: S(|z|) rises
        lo, hi = np.where(neg[p, k], [mu[k], mu[k + 1]], [-mu[k + 1], -mu[k]])
        args = [(ri, rj, c) for (ri, rj, _), c in zip(pairs, sides)]

        def sum_angles(z):
            th, dth = zip(*(_torque_angle(*arg, np.abs(z), c) for *arg, c in args))
            return sum(th) - _TWO_PI, np.where(z < 0.0, -1.0, 1.0) * sum(dth)

        root = np.abs(_solve_increasing(sum_angles, 0.0 * lo, lo, hi, (lo + hi) / 2))
        t12, t13 = (_torque_angle(ri, rj, root, c)[0] for ri, rj, c in args[:2])
        a += [*t12, *-t12]
        b += [*-t13, *t13]

    order = np.lexsort((b, a))
    a, b = np.array(a)[order], np.array(b)[order]
    g1, g2, h11, h12, h22 = _grad_hess_arrays(r1, r2, r3, a, b)
    kinds, norms = _classify(h11, h12, h22).tolist(), np.hypot(g1, g2) / s
    points = tuple(
        StationaryPoint(AngularConfig(x, y), kind, float(norm))
        for x, y, kind, norm in zip(a, b, kinds, norms)
    )
    return StationaryReport(
        points, only_corner_points=len(points) == 4, max_grad_norm=float(norms.max())
    )


def trace_implicit_curves(r: Radii | tuple, n_beta: int = 181) -> CurveBundle:
    """Sample the four stationarity branch curves at n_beta >= 2 betas in [0, pi].

    The branches are alpha = 2 pi - theta12(mu) and beta + theta23(mu) at
    the torque mu = g13(beta), each theta on either side of its pair's
    critical angle, from :func:`costs._torque_angle`.  They exist while mu
    stays below each pair's peak, as the alignment condition guarantees; a
    larger mu, or a critical angle that rounds to 0, raises
    :class:`RootNotBracketed`.  Runs at unit scale, so no output depends on
    the scale, and solves each pair at its own.
    """
    r1, r2, r3, _ = _unit_radii(r, "curve tracing")
    n_beta = _size(n_beta, "n_beta", 2)
    betas = np.linspace(0.0, _PI, n_beta)
    g13, _, th13 = g_profile(r1, r3, betas)
    # g13 is 0 at multiples of pi, where sin does not round to 0; below
    # 1e-12 of its peak the torque is numerically that of beta in {0, pi}
    peak13 = g_profile(r1, r3, th13)[0]
    mu = np.where((betas % _PI != 0.0) & (g13 > 1e-12 * peak13), g13, 0.0)
    angles, both = [], np.repeat([0, 1], n_beta)
    # each pair's concave branch, alpha = 2 pi - theta12 (mirrored) or
    # beta + theta23; the convex one shares its bracket check
    branches = (("alpha_0", r1, r2, True), ("alpha_hat_0", r2, r3, False))
    for what, ri, rj, mirrored in branches:
        tc, peak, sp = _torque_peak(ri, rj)
        bad = np.flatnonzero(mu * sp > peak)
        if bad.size:
            # the bracket in alpha, and g12(alpha) + mu or g23 - mu at its ends
            m, top = mu[bad[0]], peak / sp
            lo, hi = (_TWO_PI - tc, _TWO_PI) if mirrored else (0.0, tc)
            f_lo, f_hi = (m - top, m) if mirrored else (-m, top - m)
            raise RootNotBracketed(
                f"{what}: no sign change on [{lo:.6g}, {hi:.6g}] (f(lo)={f_lo:.3e}, "
                f"f(hi)={f_hi:.3e}); the alignment condition may fail for these "
                "radii or the geometry is too extreme"
            )
        angles.append(_torque_angle(ri, rj, np.tile(mu, 2), both)[0].reshape(2, -1))
    (t12_0, t12_pi), (t23_0, t23_pi) = angles
    a_pi, a_0 = _TWO_PI - t12_pi, _TWO_PI - t12_0
    ah_0, ah_pi = betas + t23_0, betas + t23_pi

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
