"""Construction of densities whose optimal coupling is no tertile branch map.

The recipe needs two ingredients on the bounded part of the support:

* a first piece rho1 on [0, s1] and a second piece rho2 on [s1, s2], each
  of mass 1/3, smooth and strictly positive, with the tertile ratio gate
  s1/s2 > (1 + 2 sqrt(3))/5 and the boundary ratio gate
  rho(0)/rho(s2) > 7/2;

* an unbounded third piece defined as the pushforward of rho1 under

      psi(x) = phi(x, T(x)) + h(x),

  where T is the decreasing mass-preserving map from the first tertile
  onto the second, phi is the threshold radius of the alignment
  condition, and h >= 0 is a bump whose jet at 0 is chosen so the full
  density matches rho2 at s2 to order C^k.  The jets come from the
  mass-preservation differential equation rho(psi(x)) psi'(x) = rho1(x)
  expanded as a truncated power series, and phi(x, T(x)) is expanded the
  same way in 40-digit decimal arithmetic; the first bump derivative
  always works out to h'(0) = 2 rho(0)/rho(s2) - 7, which is why the
  boundary gate is 7/2.

Because psi dominates phi along the graph, every orbit (x, T x, T^2 x) of
the decreasing-decreasing-increasing branch map satisfies the alignment
condition, so the map's cost is fully collinear; yet window pairs found
here violate pairwise monotonicity, and analogous shrinking-region
arguments refute the other three tertile patterns as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from typing import Callable, Sequence

import numpy as np

from .costs import (
    _P_ROUNDING,
    Radii,
    _alignment_margin,
    _alignment_terms,
    _phi_partials,
    _unit_scale,
    _unit_scales,
)
from .density import (
    PolySegment,
    PushforwardTailSegment,
    RadialDensity,
    SegmentStack,
    _horner,
    _result,
    _size,
)
from .errors import (
    CertificationError,
    DensityError,
    EpsMInfeasible,
    GateFailed,
    JetNotPositive,
    RegionEmpty,
    ViolationNotFound,
)
from .maps import build_map
# radial_cost stays a module attribute, which tracing tools wrap by name
from .minimize import _radial_cost_batch, radial_cost  # noqa: F401
from .mot import MongeTriple, _apply_swap

__all__ = [
    "RATIO_THRESHOLD",
    "BOUNDARY_RATIO_THRESHOLD",
    "EpsM",
    "TailSpec",
    "GraphConditionReport",
    "ViolationCertificate",
    "CounterexampleDensity",
    "ratio_gate",
    "boundary_ratio_gate",
    "limit_margin",
    "find_eps_M",
    "check_graph_condition",
    "example_piece_specs",
    "build_counterexample_density",
    "example_counterexample_density",
    "find_violation",
    "refute_class_T",
]

RATIO_THRESHOLD = (1.0 + 2.0 * math.sqrt(3.0)) / 5.0
BOUNDARY_RATIO_THRESHOLD = 3.5
_GUARD = 1e-12
# halving budget of find_eps_M, bisection budget of each window search,
# and halving budget of the bump's plateau onset delta
_EPS_HALVINGS = 200
_WINDOW_BISECTIONS = 200
_DELTA_HALVINGS = 60


def ratio_gate(s1: float, s2: float) -> bool:
    """Strict tertile ratio gate s1/s2 > (1 + 2 sqrt(3))/5.

    Evaluated with a relative guard band of 1e-12, so a ratio at the
    threshold up to floating noise counts as failing the strict
    inequality.
    """
    if not 0.0 < s1 < s2:
        raise GateFailed(f"need 0 < s1 < s2, got ({s1}, {s2})")
    return s1 / s2 > RATIO_THRESHOLD + _GUARD


def boundary_ratio_gate(ratio: float) -> bool:
    """Strict boundary density ratio gate rho(0)/rho(s2) > 7/2, with the
    same guard band convention as the tertile gate."""
    if not (math.isfinite(ratio) and ratio > 0.0):
        raise GateFailed(f"boundary ratio must be finite and positive, got {ratio!r}")
    return ratio > BOUNDARY_RATIO_THRESHOLD + _GUARD


def limit_margin(s1: float, s2: float) -> float:
    """Margin of the window inequality in the limit eps -> 0, M -> inf,
    the finite-window margin at eps = 0:

        2/s2 + 1/(2 s2) + 1/(2 s1) - sqrt(3)/s1 - 1/s1

    Positive exactly when the tertile ratio gate passes.
    """
    return _window_margin(s1, s2, 0.0)


def _window_margin(s1: float, s2: float, eps: float) -> float:
    """Margin of the finite-window inequality before the far-mass term."""
    return (
        2.0 / (s2 + eps)
        + 1.0 / (2.0 * s2 + eps)
        + 1.0 / (2.0 * s1 + eps)
        - math.sqrt(3.0) / (s1 - eps)
        - 1.0 / s1
    )


@dataclass(frozen=True)
class EpsM:
    """Window parameters certifying a pairwise swap advantage.

    Orbits entering the windows (0, eps) x (s2-eps, s2) x (s2, s2+eps)
    and (s1-eps, s1) x (s1, s1+eps) x (M, inf) admit a first-coordinate
    swap that strictly lowers the total cost, with slack at least
    margin/2.
    """

    eps: float
    M: float
    margin: float
    limit: float


def find_eps_M(s1: float, s2: float) -> EpsM:
    """Window parameters for the swap argument, or EpsMInfeasible.

    Bisects eps downward from (s2 - s1)/2 until the finite-window
    inequality holds with positive margin delta, then takes
    M = eps + 2/delta so the far-mass correction consumes half the
    margin.
    """
    if not ratio_gate(s1, s2):
        raise EpsMInfeasible(
            f"tertile ratio {s1 / s2:.6f} does not exceed the threshold "
            f"{RATIO_THRESHOLD:.6f}; limit margin {limit_margin(s1, s2):.6f}"
        )
    eps = (s2 - s1) / 2.0
    for _ in range(_EPS_HALVINGS):
        delta = _window_margin(s1, s2, eps)
        if delta > 0.0:
            break
        eps /= 2.0
    else:
        raise EpsMInfeasible(
            f"no eps found below {(s2 - s1) / 2.0} with positive window margin"
        )
    m_far = eps + 2.0 / delta
    full = _window_margin(s1, s2, eps) - 1.0 / (m_far - eps)
    if full <= 0.0:
        raise EpsMInfeasible("window margin lost to the far-mass term")
    return EpsM(eps=eps, M=m_far, margin=delta, limit=limit_margin(s1, s2))


@dataclass(frozen=True)
class GraphConditionReport:
    """Worst alignment polynomial along a branch-map graph.

    worst_margin is the smallest P and worst_x the first radius of its
    orbit.  The orbits are ranked at unit scale, so worst_x is right at
    every scale, while worst_margin may underflow to 0 or overflow to
    -inf.  holds says that no orbit's scale-free alignment margin
    certifies P < 0, a verdict that does not depend on the scale.
    """

    worst_margin: float
    worst_x: float
    n_samples: int
    holds: bool


def check_graph_condition(rho: RadialDensity, n: int = 64) -> GraphConditionReport:
    """Minimum of the alignment polynomial over n >= 2 first-tertile orbits
    of the decreasing-decreasing-increasing branch map.

    Samples the closed mass range [0, 1/3] including both endpoints, and
    evaluates each orbit from its first-tertile mass
    (:meth:`SeidlMap.orbit_of_mass`), which continues the branch-map orbit
    to the tertile boundary; endpoint orbits with an infinite third
    radius are skipped.  Sampling the closed range keeps the reported
    minimum stable under refinement, because boundary minima (the uniform
    density's, for instance) are hit exactly at every n.

    When the report holds, the map's support satisfies the alignment
    condition at probe resolution, so its cost is entirely collinear.
    """
    n = _size(n, "n", 2)
    ddi = build_map(rho, "DDI")
    v = np.stack(ddi.orbit_of_mass((1.0 / 3.0) * np.arange(n) / (n - 1)), axis=1)
    v = v[np.all(np.isfinite(v), axis=1)]
    # P at one unit scale, that of the largest radius, ranks the orbits as
    # the raw P would without under- or overflow; the first of ties wins
    s = _unit_scale(float(v.max()))
    t1, t2, t3 = _alignment_terms(*(v / s).T)
    p = t1 - t2 - t3
    worst = int(np.argmin(p))
    u = v / _unit_scales(v[:, 2])[:, None]  # ascending: x <= s1 <= Tx <= s2 <= T^2 x
    return GraphConditionReport(
        worst_margin=float(p[worst]) * s * s * s * s,
        worst_x=float(v[worst, 0]),
        n_samples=len(v),
        holds=bool(np.all(_alignment_margin(u) >= -_P_ROUNDING)),
    )


# ---------------------------------------------------------------------------
# truncated power series solver for the mass-preservation equation


def _series_mul(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Cauchy product truncated after x^order; float or Decimal entries."""
    out = np.zeros(order + 1, dtype=np.result_type(a, b))
    for i in range(min(len(a), order + 1)):
        if a[i] == 0.0:
            continue
        top = min(len(b), order + 1 - i)
        out[i : i + top] += a[i] * b[:top]
    return out


def _series_recip(a: np.ndarray, order: int) -> np.ndarray:
    """1/a truncated after x^order; needs a[0] != 0."""
    out = np.zeros(order + 1, dtype=a.dtype)
    out[0] = 1 / a[0]
    for n in range(1, order + 1):
        out[n] = -sum(a[m] * out[n - m] for m in range(1, n + 1)) / a[0]
    return out


def _series_sqrt(a: np.ndarray, order: int) -> np.ndarray:
    """Square root of a Decimal series truncated after x^order; a[0] > 0."""
    out = np.zeros(order + 1, dtype=object)
    out[0] = a[0].sqrt()
    for n in range(1, order + 1):
        cross = sum(out[m] * out[n - m] for m in range(1, n))
        out[n] = (a[n] - cross) / (2 * out[0])
    return out


def _series_compose(outer: np.ndarray, inner: np.ndarray, order: int) -> np.ndarray:
    """outer(inner(x)) truncated; inner must have zero constant term."""
    out = np.zeros(order + 1)
    out[0] = outer[0]
    power = np.zeros(order + 1)
    power[0] = 1.0
    for j in range(1, len(outer)):
        power = _series_mul(power, inner, order)
        if not np.any(power):
            break
        out += outer[j] * power
    return out


def _solve_branch_series(
    rho1_jets: np.ndarray, rho2_jets: np.ndarray, s2: float, order: int, sign: float
) -> np.ndarray:
    """Taylor coefficients of the map W with W(0) = s2 solving

        rho2(W(x)) * (sign * W'(x)) = rho1(x)

    through x^(order-1), where the jets are Taylor coefficients of rho1
    at 0 and of rho2 at s2.  sign=-1 gives the decreasing first-tertile
    branch, sign=+1 the increasing tail map before the bump.
    """
    if rho2_jets[0] <= 0.0:
        raise DensityError("rho2 must be positive at s2 to solve the branch series")
    w = np.zeros(order + 1)
    w[0] = s2
    for n in range(order):
        inner = w.copy()
        inner[0] = 0.0
        comp = _series_compose(rho2_jets, inner, n)
        wp = np.array([(m + 1) * w[m + 1] for m in range(n + 1)])
        prod = float(
            sum(comp[m] * sign * wp[n - m] for m in range(n + 1))
        )
        target = rho1_jets[n] if n < len(rho1_jets) else 0.0
        w[n + 1] = (target - prod) / (sign * (n + 1) * rho2_jets[0])
    return w


def _poly_taylor(coeffs: Sequence[float], x0: float, order: int) -> np.ndarray:
    p = np.polynomial.Polynomial(list(coeffs))
    out = [float(p(x0))]
    for j in range(1, order + 1):
        p = p.deriv()
        out.append(float(p(x0)) / math.factorial(j))
    return np.array(out)


def _phi_graph_derivs(t_coeffs: np.ndarray, order: int) -> list[float]:
    """Derivatives of phi(x, T(x)) at x = 0, with T given by its Taylor
    polynomial: phi evaluated on truncated power series in 40-digit decimal
    arithmetic, so every returned derivative is correctly rounded.  T(0) =
    s2 > 0 keeps the square root and the reciprocal regular at 0."""
    with localcontext() as ctx:
        ctx.prec = 40
        b = np.array([Decimal(float(c)) for c in t_coeffs], dtype=object)
        x = np.zeros(order + 1, dtype=object)
        x[1] = Decimal(1)
        bb = _series_mul(b, b, order)
        xb = _series_mul(x, b, order)
        root = _series_sqrt(bb + 12 * xb - 4 * _series_mul(x, x, order), order)
        num = 5 * xb + bb + _series_mul(x + b, root, order)
        phi = _series_mul(num, _series_recip(2 * (b - x), order), order)
        return [float(phi[j] * math.factorial(j)) for j in range(order + 1)]


# ---------------------------------------------------------------------------
# bump profile


class _HProfile:
    """Smooth bump realizing a finite jet at 0 and a plateau beyond delta.

    Equal to its Taylor polynomial p on [0, delta/2], constant p(delta/2)
    beyond delta, and a smooth convex blend of the two in between, which
    keeps the profile strictly positive on (0, s1] whenever p is positive
    up to delta/2.  p and p' are ascending coefficient tuples in x,
    evaluated by ``density._horner``; ``value_and_prime`` gives the
    profile and its slope together, elementwise.  delta may be an array
    that broadcasts against x, one width per lane; plateau then has its
    shape.
    """

    def __init__(self, derivs: Sequence[float], delta):
        self.poly = tuple(float(d) / math.factorial(j) for j, d in enumerate(derivs))
        # numpy's polyder: the coefficient of x^(j-1) is j * c_j
        self.dpoly = tuple(j * c for j, c in enumerate(self.poly) if j)
        self.delta = _result(np.asarray(delta, dtype=float))
        self.plateau = _result(_horner(self.poly, self.delta / 2.0))

    def _blend(self, x):
        """Lanes of x inside (delta/2, delta), their widths and plateaus,
        and there the smoothstep s(u) = e^(-1/u) / (e^(-1/u) + e^(-1/(1-u)))
        of the blend variable u and its x-derivative."""
        delta, plateau = (np.broadcast_to(v, x.shape) for v in (self.delta, self.plateau))
        mid = (x > delta / 2.0) & (x < delta)
        delta, plateau = delta[mid], plateau[mid]
        u = (x[mid] - delta / 2.0) / (delta / 2.0)
        a, b = np.exp(-1.0 / u), np.exp(-1.0 / (1.0 - u))
        da, db = a / (u * u), b / ((1.0 - u) * (1.0 - u))
        ds = (da * b + a * db) / ((a + b) * (a + b)) * 2.0 / delta
        return mid, plateau, a / (a + b), ds

    def value_and_prime(self, x):
        x = np.asarray(x, dtype=float)
        p, dp = _horner(self.poly, x), _horner(self.dpoly, x)
        out = np.where(x >= self.delta, self.plateau, p)
        dout = np.where(x >= self.delta, 0.0, dp)
        mid, plateau, s, ds = self._blend(x)
        out[mid] = plateau + (p[mid] - plateau) * (1.0 - s)
        dout[mid] = dp[mid] * (1.0 - s) - (p[mid] - plateau) * ds
        return out, dout


def _choose_delta(derivs: Sequence[float], s1: float) -> float:
    """Largest delta = s1/2^j whose Taylor polynomial stays positive on
    (0, delta]; the jet has h(0) = 0 and h'(0) > 0 so this terminates.
    The roots do not depend on delta, so one solve and one array pass over
    the widths decide them all: a width passes below the least real root
    above 1e-300, with p positive at the width and at its half."""
    poly = np.polynomial.Polynomial([d / math.factorial(j) for j, d in enumerate(derivs)])
    z = np.atleast_1d(poly.roots()).astype(complex)
    first_root = z.real[(np.abs(z.imag) < 1e-10) & (z.real > 1e-300)].min(initial=np.inf)
    deltas = np.ldexp(s1 / 2.0, -np.arange(_DELTA_HALVINGS))
    passed = np.flatnonzero(
        (deltas < first_root) & (poly(deltas) > 0.0) & (poly(deltas / 2.0) > 0.0)
    )
    if passed.size:
        return float(deltas[passed[0]])
    raise JetNotPositive(
        f"bump jet {tuple(derivs)} admits no positive profile on (0, {s1}]"
    )


# ---------------------------------------------------------------------------
# builder


@dataclass(frozen=True)
class TailSpec:
    """Record of the pushforward tail construction.

    h_taylor holds the bump derivatives (h(0), h'(0), ..., h^(k+1)(0)):
    matching the density to order C^k at s2 pins the tail map's jet to
    order k+1, one past the density order.  delta is the plateau onset of
    the realized positive profile and plateau its constant value beyond
    it.
    """

    order: int
    h_taylor: tuple[float, ...]
    delta: float
    plateau: float
    psi_taylor: tuple[float, ...]
    t_taylor: tuple[float, ...]


class CounterexampleDensity(RadialDensity):
    """A constructed density together with its tail ingredients.

    Behaves exactly like a RadialDensity; additionally exposes the tail
    spec and the graph map pieces, for diagnostics and serialization.
    """

    def __init__(
        self,
        segments,
        *,
        tail_spec: TailSpec,
        s1: float,
        s2: float,
        boundary_ratio: float,
        psi: Callable,
        psi_prime: Callable,
        t_map: Callable,
    ):
        super().__init__(segments)
        self.tail_spec = tail_spec
        self.s1 = s1
        self.s2 = s2
        self.boundary_ratio = boundary_ratio
        self.psi = psi
        self.psi_prime = psi_prime
        self.t_map = t_map


def _as_poly_segments(spec, what: str) -> list[PolySegment]:
    segs = []
    for item in spec:
        if isinstance(item, PolySegment):
            segs.append(item)
        else:
            lo, hi, coeffs = item
            segs.append(PolySegment(lo, hi, coeffs))
    segs.sort(key=lambda s: s.lo)
    for a, b in zip(segs, segs[1:]):
        if abs(a.hi - b.lo) > 1e-12:
            raise DensityError(f"{what} pieces must be contiguous, gap at {a.hi}")
    if not segs:
        raise DensityError(f"{what} needs at least one piece")
    return segs


def build_counterexample_density(
    rho1_spec, rho2_spec, k: int = 1
) -> CounterexampleDensity:
    """Assemble a full density from bounded pieces plus the matched tail.

    rho1_spec and rho2_spec are sequences of polynomial pieces (instances
    of PolySegment, or (lo, hi, coeffs) tuples) covering [0, s1] and
    [s1, s2] contiguously with mass 1/3 each, strictly positive.  k is
    the smoothness order to enforce for the density at s2.

    Gate failures raise GateFailed; a bump jet that cannot stay positive
    raises JetNotPositive; a non-monotone pushforward raises
    DensityError.  The continuity rho3(s2+) = rho2(s2) is automatic from
    psi'(0) = rho(0)/rho(s2).
    """
    if not 0 <= k <= 4:
        raise ValueError("smoothness order k must be between 0 and 4")
    rho1 = _as_poly_segments(rho1_spec, "rho1")
    rho2 = _as_poly_segments(rho2_spec, "rho2")
    if abs(rho1[0].lo) > 1e-12:
        raise DensityError("rho1 must start at 0")
    s1 = rho1[-1].hi
    if abs(rho2[0].lo - s1) > 1e-12:
        raise DensityError("rho2 must start where rho1 ends")
    s2 = rho2[-1].hi
    m1 = sum(s.mass for s in rho1)
    m2 = sum(s.mass for s in rho2)
    if abs(m1 - 1.0 / 3.0) > 1e-10 or abs(m2 - 1.0 / 3.0) > 1e-10:
        raise DensityError(
            f"piece masses must each be 1/3, got {m1!r} and {m2!r}"
        )
    if min(seg.minimum for seg in (*rho1, *rho2)) <= 0.0:
        raise DensityError("pieces must be strictly positive on their intervals")

    if not ratio_gate(s1, s2):
        raise GateFailed(
            f"tertile ratio {s1 / s2:.6f} fails the threshold {RATIO_THRESHOLD:.6f}"
        )
    rho0 = rho1[0].pdf(0.0)
    rho_s2 = rho2[-1].pdf(s2)
    ratio = rho0 / rho_s2
    if not boundary_ratio_gate(ratio):
        raise GateFailed(
            f"boundary ratio {ratio:.6f} fails the threshold 7/2; the bump "
            "slope 2*ratio - 7 must be positive"
        )

    order = k + 1
    rho1_jets = _poly_taylor(rho1[0].coeffs, 0.0, order)
    rho2_jets = _poly_taylor(rho2[-1].coeffs, s2, order)
    t_series = _solve_branch_series(rho1_jets, rho2_jets, s2, order, sign=-1.0)
    psi_series = _solve_branch_series(rho1_jets, rho2_jets, s2, order, sign=+1.0)
    phi_derivs = _phi_graph_derivs(t_series, order)
    psi_derivs = [s2] + [
        psi_series[j] * math.factorial(j) for j in range(1, order + 1)
    ]
    h_derivs = [0.0] + [
        psi_derivs[j] - phi_derivs[j] for j in range(1, order + 1)
    ]
    expected_h1 = 2.0 * ratio - 7.0
    if abs(h_derivs[1] - expected_h1) > 1e-8 * max(1.0, abs(expected_h1)):
        raise CertificationError(
            f"bump slope {h_derivs[1]!r} disagrees with the closed form "
            f"{expected_h1!r}; jet solver inconsistency"
        )

    stack12 = SegmentStack([*rho1, *rho2])
    stack1 = SegmentStack(rho1)

    def t_map(x):
        return stack12.mass_quantile(2.0 / 3.0 - stack12.mass_below(x))

    probes = np.unique(
        np.concatenate(
            [
                np.linspace(1e-6 * s1, s1 * (1.0 - 1e-6), 401),
                s1 * (1.0 - np.geomspace(1e-9, 0.5, 40)),
                s1 * np.geomspace(1e-9, 0.5, 40),
            ]
        )
    )

    def graph(x):
        """phi(x, T(x)) and its derivative along the branch graph."""
        b = t_map(x)
        phi, da, db = _phi_partials(x, b)
        return phi, da + db * (-stack1.pdf(x) / stack12.pdf(b))

    # shrinking delta both restores positivity of the jet polynomial and
    # tames the blend slope, so the first of the widths delta0 2^-j that
    # keeps psi' positive is taken.  The blend seam [delta/2, delta] moves
    # with delta, so each width gets its own dense seam probes (the global
    # grid can straddle it); the graph slope on the fixed probes does not
    # depend on delta and is computed once.  The widths are tried in
    # batches of 1, 2, 4, ... rows, one row of probes and seam per width,
    # so a first width that works costs one row and the whole budget six
    # passes; every operation is elementwise, so a row gives the bits a
    # lone width would.
    probe_slopes = graph(probes)[1]
    delta0 = _choose_delta(h_derivs, s1)
    start = 0
    while start < _DELTA_HALVINGS:
        stop = min(2 * start + 1, _DELTA_HALVINGS)
        deltas = np.ldexp(delta0, -np.arange(start, stop))
        seams = np.linspace(
            deltas / 8.0, np.minimum(2.0 * deltas, s1 * (1.0 - 1e-6)), 241, axis=1
        )
        rows = (deltas.size, probes.size)
        points = np.concatenate([np.broadcast_to(probes, rows), seams], axis=1)
        dpsi = np.concatenate([np.broadcast_to(probe_slopes, rows), graph(seams)[1]], axis=1)
        dpsi += _HProfile(h_derivs, deltas[:, None]).value_and_prime(points)[1]
        worst = dpsi.min(axis=1)
        passed = np.flatnonzero(worst > 0.0)
        if passed.size:
            delta = float(deltas[passed[0]])
            break
        start = stop
    else:
        bad = points[-1, np.argmin(dpsi[-1])]
        raise DensityError(
            f"pushforward map fails to increase near x={bad:.6g} "
            f"(psi'={worst[-1]:.3e}); adjust the pieces or the bump"
        )
    h_profile = _HProfile(h_derivs, delta)

    def psi_and_prime(x):
        x = np.asarray(x, dtype=float)
        phi, slope = graph(x)
        h, dh = h_profile.value_and_prime(x)
        # phi(0, T(0)) = s2 in the limit
        return np.where(x <= 0.0, s2, phi) + h, slope + dh

    def psi(x):
        return _result(psi_and_prime(x)[0])

    def psi_prime(x):
        return _result(psi_and_prime(x)[1])

    tail = PushforwardTailSegment(s2, stack1, psi_and_prime)
    spec = TailSpec(
        order=k,
        h_taylor=tuple(float(v) for v in h_derivs),
        delta=delta,
        plateau=h_profile.plateau,
        psi_taylor=tuple(float(v) for v in psi_series),
        t_taylor=tuple(float(v) for v in t_series),
    )
    return CounterexampleDensity(
        [*rho1, *rho2, tail],
        tail_spec=spec,
        s1=s1,
        s2=s2,
        boundary_ratio=ratio,
        psi=psi,
        psi_prime=psi_prime,
        t_map=t_map,
    )


def example_piece_specs(
    s1: float = 0.9, s2: float = 1.0, ratio: float = 4.0
) -> tuple[list[tuple], list[tuple]]:
    """Built-in bounded pieces meeting both gates.

    rho2 is linear on [s1, s2] ending at value 1 (so the boundary ratio
    is rho(0) directly); rho1 is a steep cubic from ratio down to a small
    plateau value, joined C^1 to a constant stretch.  The two pieces are
    deliberately not continuous at s1; nothing in the construction needs
    that, only positivity, the masses, and the two gates.
    """
    boundary_ratio_gate(ratio)  # raises on a non-finite or non-positive ratio
    w, c = s2 - s1, 1.0
    a0 = ratio * c
    w1 = min(s1 / 4.0, 1.0 / a0)
    # the pieces divide by w^2 and w1^3
    if not (w * w > 0.0 and w1 * w1 * w1 > 0.0):
        raise DensityError(
            f"example piece widths s2 - s1 = {w!r} and {w1!r} are not positive "
            "or their powers underflow"
        )
    d = 2.0 * (c * w - 1.0 / 3.0) / (w * w)
    rho2 = [(s1, s2, _shifted_linear(c, d, s2))]
    if c - d * w <= 0.0 or c <= 0.0:
        raise DensityError("rho2 example parameters lost positivity")

    t = (1.0 / 3.0 - a0 * w1 / 4.0) / (s1 - 0.25 * w1)
    if t <= 0.0:
        raise DensityError("rho1 example parameters lost positivity")
    cubic = _plateau_cubic(a0, t, w1)
    rho1 = [(0.0, w1, cubic), (w1, s1, (t,))]
    return rho1, rho2


def _shifted_linear(c: float, d: float, x0: float) -> tuple[float, float]:
    """Coefficients of c + d (x - x0) in the power basis."""
    return (c - d * x0, d)


def _plateau_cubic(a0: float, t: float, w1: float) -> tuple[float, ...]:
    """Coefficients of t + (a0 - t) (1 - x/w1)^3."""
    s = a0 - t
    return (
        t + s,
        -3.0 * s / w1,
        3.0 * s / (w1 * w1),
        -s / (w1 * w1 * w1),
    )


def example_counterexample_density(
    s1: float = 0.9, s2: float = 1.0, ratio: float = 4.0, k: int = 1
) -> CounterexampleDensity:
    """The built-in counterexample density; see example_piece_specs."""
    rho1, rho2 = example_piece_specs(s1, s2, ratio)
    return build_counterexample_density(rho1, rho2, k)


# ---------------------------------------------------------------------------
# violation search


@dataclass(frozen=True)
class ViolationCertificate:
    """Two orbits plus a coordinate swap that strictly lowers the cost.

    The four costs are the angular kernel's minima: c_pi in closed form
    where the alignment margin certifies P > 0, seeded Newton (not
    certified) elsewhere.  gap = (cost of the orbits) - (cost after the
    swap) > 0 exhibits the failure of pairwise monotonicity for the
    pattern's coupling.  collinear_gap is gap where the kernel closed all
    four costs in form, so that it is a difference of collinear values,
    and None where it did not.  The DDI certificate's metadata carries
    its window (eps, M, window_margin), the region certificates' their
    threshold and levels.
    """

    pattern: str
    template: str
    triple_a: MongeTriple
    triple_b: MongeTriple
    swapped_a: tuple[float, float, float]
    swapped_b: tuple[float, float, float]
    cost_a: float
    cost_b: float
    cost_swapped_a: float
    cost_swapped_b: float
    gap: float
    collinear_gap: float | None
    template_extrapolated: bool
    metadata: dict = field(default_factory=dict)


def _certify(pairs: dict[str, tuple]) -> dict[str, ViolationCertificate]:
    """Certificates of orbit pairs, keyed and checked in the given order.

    Each pair is (template, orbit_a, orbit_b, extrapolated, metadata).  The
    four triples of every pair are priced in one kernel batch, whose rows
    are independent, so a pair gets the bits it would get alone.  The
    first pattern whose swap gap is not positive raises ViolationNotFound.
    """
    quads = {
        p: (ta.as_tuple(), tb.as_tuple(), *_apply_swap(ta.as_tuple(), tb.as_tuple(), template))
        for p, (template, ta, tb, _, _) in pairs.items()
    }
    rows = np.array([Radii.of(t).as_tuple() for quad in quads.values() for t in quad])
    value, _, _, _, candidates, _ = _radial_cost_batch(rows)
    costs = value.reshape(-1, 4).tolist()
    # a pair is collinear where the kernel closed its four rows in form
    collinear = ((candidates == 0) & np.isfinite(value)).reshape(-1, 4).all(axis=1)
    out = {}
    for (p, pair), (ca, cb, cs_a, cs_b), col in zip(pairs.items(), costs, collinear):
        template, ta, tb, extrapolated, metadata = pair
        _, _, sa, sb = quads[p]
        gap = (ca + cb) - (cs_a + cs_b)
        if gap <= 0.0:
            raise ViolationNotFound(
                f"window orbits found but the swap gap is {gap!r}; "
                "the hypothesis chain is numerically violated"
                if p == "DDI"
                else f"{p}: region pair found but swap gap is {gap!r}"
            )
        out[p] = ViolationCertificate(
            pattern=p,
            template=template,
            triple_a=ta,
            triple_b=tb,
            swapped_a=sa,
            swapped_b=sb,
            cost_a=ca,
            cost_b=cb,
            cost_swapped_a=cs_a,
            cost_swapped_b=cs_b,
            gap=gap,
            collinear_gap=gap if col else None,
            template_extrapolated=extrapolated,
            metadata=metadata,
        )
    return out


def find_violation(rho: RadialDensity) -> ViolationCertificate:
    """Monotonicity violation for the DDI branch map via window bisection.

    Halves x toward 0 until the orbit enters the near window
    (0, eps) x (s2-eps, s2) x (s2, s2+eps), and s1 - y toward 0 until that
    orbit enters the far window (s1-eps, s1) x (s1, s1+eps) x (M, inf),
    each ladder of halvings evaluated as one array; swapping the first
    coordinates of the two orbits then lowers the total cost strictly.
    The window is find_eps_M of the tertiles, and the certificate's
    metadata reports it.  Raises ViolationNotFound when no window exists or
    a ladder misses its window.
    """
    return _certify({"DDI": _window_pair(rho)})["DDI"]


def _window_pair(rho: RadialDensity) -> tuple:
    """The DDI orbit pair of find_violation, unpriced."""
    t = rho.tertiles()
    s1, s2 = t.s1, t.s2
    try:
        epsm = find_eps_M(s1, s2)
    except EpsMInfeasible as e:
        raise ViolationNotFound(f"no admissible window exists: {e}") from e
    ddi = build_map(rho, "DDI")
    eps, m_far = epsm.eps, epsm.M

    # each halving ladder whole: the first orbit in its window wins, and the
    # orbits past it may meet psi's cancellation next to s1 (warnings off)
    steps = np.ldexp(min(eps, s1) / 2.0, -np.arange(_WINDOW_BISECTIONS))
    # a probe rounded to s1 itself leaves the first tertile and is no hit
    below = s1 - steps[s1 - steps < s1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x0, x1, x2 = ddi.orbit(steps)
        y0, y1, y2 = ddi.orbit(below)
    near = np.flatnonzero(
        (x0 < eps) & (s2 - eps < x1) & (x1 < s2) & (s2 < x2) & (x2 < s2 + eps)
    )
    if not near.size:
        raise ViolationNotFound(
            f"near-window orbit not found: last probe x={float(steps[-1]) / 2.0!r} "
            f"gave {ddi.orbit(float(steps[-1]))}"
        )
    far = np.flatnonzero((s1 - eps < y0) & (s1 < y1) & (y1 < s1 + eps) & (y2 > m_far))
    if not far.size:
        raise ViolationNotFound(
            f"far-window orbit not found: last probe y={float(s1 - steps[-1])!r} "
            f"gave {ddi.orbit(float(s1 - steps[-1]))}"
        )
    x_orbit = MongeTriple(*(float(v[near[0]]) for v in (x0, x1, x2)))
    y_orbit = MongeTriple(*(float(v[far[0]]) for v in (y0, y1, y2)))
    window = {"eps": eps, "M": m_far, "window_margin": epsm.margin}
    return "first", x_orbit, y_orbit, False, window


_REGION_TEMPLATES = {"DID": "third", "III": "second", "IDD": "first"}


def _region_violations(rho: RadialDensity, patterns: Sequence[str]) -> dict[str, tuple]:
    """Shrinking-region orbit pairs for the non-DDI patterns, in lockstep,
    unpriced and in the form _certify takes.

    The second iterate of each pattern's map diverges at one end of the
    first tertile; shrinking the region until its second-iterate range
    dominates the running threshold sup phi turns every involved triple
    collinear, and the six-point line ordering dictates which coordinate
    swap must win.

    The patterns shrink together, one row of arrays each: a step takes
    the region ends, their images, the thresholds and the first-tertile
    masses under them (the tail inverse) in one call each, over the rows
    still shrinking, and one more call gives every pattern's level
    masses.  Every operation is elementwise, so a row gives the bits a
    lone pattern would.  Where patterns fail, the first of them in the
    given order raises its error.
    """
    smaps = {p: build_map(rho, p) for p in patterns}
    # initial mass interval hugging the divergence end; the second iterate
    # of III alone is increasing on tertile 1
    region = {p: (0.25, 1.0 / 3.0) if p == "III" else (0.0, 1.0 / 12.0) for p in patterns}
    thresh: dict[str, float] = {}
    failed: dict[str, RegionEmpty] = {}

    def image_masses(rows, x, branch):
        """Image of the mass below each point of x under the letter
        formula of branch, one row of x per pattern in rows."""
        u = rho.mass_below(x)
        branch = np.broadcast_to(branch, u.shape)
        return np.stack([smaps[p].image_mass(*ub) for p, *ub in zip(rows, u, branch)])

    active = list(patterns)
    for _ in range(10):
        if not active:
            break
        ends = rho.mass_quantile(
            [[max(lo, 1e-15), min(hi, 1.0 / 3.0 - 1e-15)] for lo, hi in map(region.get, active)]
        )
        # each row's image under its own map; the maps share the tertiles
        branch = smaps[active[0]].branch_index(ends)
        img = np.sort(rho.mass_quantile(image_masses(active, ends, branch)), axis=1)
        bs = np.linspace(img[:, 0], img[:, 1], 129, axis=1)
        tops = np.max(_phi_partials(ends.max(axis=1)[:, None], bs)[0], axis=1) * (1.0 + 1e-6)
        # part of each interval whose second iterate clears the threshold:
        # the map's third power is the identity, so it sends a third-tertile
        # mass to the first-tertile mass whose second iterate it is
        stars = image_masses(active, tops, 2)
        shrinking = []
        for p, m_thresh, m_star in zip(active, tops.tolist(), stars.tolist()):
            thresh[p] = m_thresh
            m_lo, m_hi = region[p]
            if p == "III":
                new_lo = max(m_lo, m_star)
                empty, shrunk = new_lo >= m_hi - 1e-15, new_lo > m_lo + 1e-15
                region[p] = (new_lo, m_hi)
            else:
                new_hi = min(m_hi, m_star)
                empty, shrunk = new_hi <= m_lo + 1e-15, new_hi < m_hi - 1e-15
                region[p] = (m_lo, new_hi)
            if empty:
                failed[p] = RegionEmpty(
                    f"{p}: no first-tertile mass clears threshold {m_thresh!r}"
                )
            elif shrunk:
                shrinking.append(p)
        active = shrinking

    # pick each pair by second-iterate level: well inside the certified range
    done = [p for p in patterns if p not in failed]
    pairs = {}
    if done:
        levels = [[2.0 * thresh[p], 4.0 * thresh[p]] for p in done]
        masses = np.sort(image_masses(done, levels, 2), axis=1).tolist()
        for p, (ml, mr) in zip(done, masses):
            if 0.0 < ml < mr < 1.0 / 3.0:
                pairs[p] = (ml, mr)
            else:
                failed[p] = RegionEmpty(
                    f"{p}: level masses ({ml!r}, {mr!r}) left the first tertile"
                )

    out = {}
    for p in patterns:
        if p in failed:
            raise failed[p]
        orbits = np.stack(smaps[p].orbit_of_mass(pairs[p]), 1).tolist()
        ta, tb = (MongeTriple(*t) for t in orbits)
        # implied collinear positions: middle coordinates reflected across 0
        line = sorted((-ta.tx, -tb.tx, ta.x, tb.x, ta.t2x, tb.t2x))
        metadata = {
            "region_mass": region[p],
            "threshold": thresh[p],
            "levels": (2.0 * thresh[p], 4.0 * thresh[p]),
            "line_points": tuple(line),
            "line_strictly_ordered": all(a < b for a, b in zip(line, line[1:])),
        }
        out[p] = (_REGION_TEMPLATES[p], ta, tb, p in ("III", "IDD"), metadata)
    return out


def refute_class_T(rho: RadialDensity) -> dict[str, ViolationCertificate]:
    """Monotonicity violations for all four tertile patterns.

    DDI uses the window pair; the other three use the shrinking-region
    construction with the swap template dictated by the six-point line
    ordering (third coordinates for DID, second for III, first for IDD;
    the latter two are template extrapolations and flagged as such).  All
    eight orbits and their swaps are priced in one kernel batch.
    """
    pairs = {"DDI": _window_pair(rho), **_region_violations(rho, ("DID", "III", "IDD"))}
    return _certify(pairs)
