"""Pointwise angular cost algebra for three charges on concentric circles.

Three unit charges sit at radii r1, r2, r3 from a common center.  Rotating
the whole configuration is free, so the first charge is pinned to angle 0
and the interaction energy is a function of the two remaining angles,

    f(a, b) = F12(a) + F13(b) + F23(a - b),

where each pairwise term is the inverse chord distance

    Fij(t) = (ri^2 + rj^2 - 2 ri rj cos t)^(-1/2).

This module evaluates f and its derivatives in closed form and exposes the
scalar quantities that organize its stationary structure:

* the alignment polynomial
      P(r) = r2 (r3 - r1)^3 - r1 (r3 + r2)^3 - r3 (r1 + r2)^3,
  whose sign decides whether the collinear configuration (a, b) = (pi, 0)
  is the global minimizer (homogeneous of degree 4 in the radii);
* the threshold radius phi(r1, r2), the unique root in r3 of P, with
  P(r) >= 0 exactly when r3 >= phi(r1, r2);
* the four corner energies f(0,0), f(0,pi), f(pi,0), f(pi,pi), of which
  f(pi,0) is always the smallest for strictly ordered radii;
* the pairwise derivative profile g(t) = -F'(t) together with its critical
  angle, used when bracketing implicit stationary curves.

Angles are canonicalized to [-pi, pi).  The public functions take plain
floats; they and the minimizer evaluate through one set of private array
helpers, so a scalar call is a batch of one.  Energies, P, phi (with its
partials, for the counterexample tail) and the g profile are computed on
the radii divided by a power of two near the largest and rescaled, so no
scale from subnormal to near-overflow loses digits or raises.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRadii, EqualRadii, InvalidRadii, SingularConfiguration

__all__ = [
    "Radii",
    "AngularConfig",
    "CostBreakdown",
    "CornerValues",
    "canonical_angle",
    "torus_distance",
    "pair_distance_sq",
    "full_cost",
    "grad_hess",
    "alignment_condition",
    "phi_threshold",
    "c_pi",
    "c_delta",
    "corner_values",
    "g_profile",
]

_TWO_PI = 2.0 * math.pi

# Equilateral angles used by c_delta: charges at 0, 2pi/3, 4pi/3.
_DELTA_ALPHA = _TWO_PI / 3.0
_DELTA_BETA = 2.0 * _TWO_PI / 3.0


def canonical_angle(t: float) -> float:
    """Wrap an angle (or an array of angles) to the canonical interval
    [-pi, pi)."""
    return (t + math.pi) % _TWO_PI - math.pi


def torus_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Max-norm distance between two angle pairs on the flat torus.

    Uses IEEE remainder per coordinate, which is exactly antisymmetric,
    so the distance is exactly symmetric in its arguments."""
    da = abs(math.remainder(a[0] - b[0], _TWO_PI))
    db = abs(math.remainder(a[1] - b[1], _TWO_PI))
    return max(da, db)


@dataclass(frozen=True)
class Radii:
    """An ordered triple of circle radii.

    Validation is weak on purpose: radii must be finite and nonnegative,
    but ties and unordered triples are allowed here because several
    operations (homogeneity and symmetry checks, the angular minimizer)
    are total in that regime.  Operations needing strict order check it
    themselves.
    """

    r1: float
    r2: float
    r3: float

    def __post_init__(self) -> None:
        vals = (self.r1, self.r2, self.r3)
        # floats first, the common case; numpy numbers are Real, a bool no radius
        if not all(isinstance(v, float) for v in vals) and not all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) for v in vals
        ):
            raise InvalidRadii(f"radii must be numbers, got {vals!r}")
        try:
            if not all(math.isfinite(v) and v >= 0.0 for v in vals):
                raise InvalidRadii(f"radii must be finite and >= 0, got {vals!r}")
        except OverflowError:  # an int beyond the float range
            raise InvalidRadii("radii must be finite, got one beyond floats") from None
        object.__setattr__(self, "r1", float(self.r1))
        object.__setattr__(self, "r2", float(self.r2))
        object.__setattr__(self, "r3", float(self.r3))

    @classmethod
    def of(cls, r: "Radii | tuple[float, float, float]") -> "Radii":
        if isinstance(r, Radii):
            return r
        return cls(*r)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.r1, self.r2, self.r3)

    def scaled(self, lam: float) -> "Radii":
        return Radii(lam * self.r1, lam * self.r2, lam * self.r3)

    @property
    def strictly_ordered(self) -> bool:
        return self.r1 < self.r2 < self.r3

    def require_strictly_ordered(self) -> None:
        if not self.strictly_ordered:
            raise DegenerateRadii(
                f"operation requires 0 <= r1 < r2 < r3, got {self.as_tuple()}"
            )


@dataclass(frozen=True)
class AngularConfig:
    """Angle pair (alpha, beta) stored as canonical representatives in [-pi, pi).

    alpha is the angle of the second charge, beta of the third; the first
    charge sits at angle 0.  Construction canonicalizes, so two configs
    describing the same torus point compare equal.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidRadii(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, canonical_angle(float(v)))

    def as_tuple(self) -> tuple[float, float]:
        return (self.alpha, self.beta)

    def distance_to(self, other: "AngularConfig | tuple[float, float]") -> float:
        o = other.as_tuple() if isinstance(other, AngularConfig) else other
        return torus_distance(self.as_tuple(), o)


@dataclass(frozen=True)
class CostBreakdown:
    """Pairwise interaction terms and their sum at one configuration."""

    f12: float
    f13: float
    f23: float
    total: float


@dataclass(frozen=True)
class CornerValues:
    """The four corner energies of f on [0, pi]^2 in the order listed."""

    f00: float
    f0pi: float
    fpi0: float
    fpipi: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.f00, self.f0pi, self.fpi0, self.fpipi)

    def minimum(self) -> float:
        return min(self.as_tuple())


def _distance_sq(ri, rj, c):
    """ri^2 + rj^2 - 2 ri rj c for c = cos(theta), clipped at zero, where
    cos rounding can push an exact zero slightly negative."""
    return np.maximum(ri * ri + rj * rj - 2.0 * ri * rj * c, 0.0)


def pair_distance_sq(ri: float, rj: float, theta):
    """Squared chord distance ri^2 + rj^2 - 2 ri rj cos(theta).

    Accepts scalar or array angles.  Nonnegative by the law of cosines;
    zero exactly when ri == rj and theta == 0 mod 2pi.
    """
    if ri < 0.0 or rj < 0.0:
        raise InvalidRadii(f"radii must be >= 0, got ({ri}, {rj})")
    return _distance_sq(ri, rj, np.cos(theta))


# Private pair terms on numpy arrays: angles are arrays, radii floats or
# arrays of the same shape.  numpy's array functions give the same bits at
# every array length, so a batch of one agrees with any row of a batch.
# Callers choose how floating-point warnings are handled.


def _inv_dist(ri, rj, theta):
    """F(theta) = 1/sqrt(D); +inf on coincidence."""
    return _distance_sq(ri, rj, np.cos(theta)) ** -0.5


def _inv_dist_derivs(ri, rj, theta):
    """F'(theta) = -ri rj sin(theta) / D^(3/2) and F''(theta) =
    -ri rj Q(cos theta) / D^(5/2), with Q(t) = ri rj t^2 + (ri^2 + rj^2) t
    - 3 ri rj."""
    t = np.cos(theta)
    d = _distance_sq(ri, rj, t)
    q = ri * rj * t * t + (ri * ri + rj * rj) * t - 3.0 * ri * rj
    return -ri * rj * np.sin(theta) * d ** -1.5, -ri * rj * q * d ** -2.5


def _energy_terms(r1, r2, r3, a, b):
    """F12(a), F13(b), F23(a - b) at arrays of angles; +inf on coincidence."""
    return _inv_dist(r1, r2, a), _inv_dist(r1, r3, b), _inv_dist(r2, r3, a - b)


def _pairs(r1, r2, r3, a, b):
    """(ri, rj, theta) of the pairs 12, 13, 23 stacked on a first axis, for
    radii floats or 1-D arrays and angles 1-D arrays: one pass of a pair term."""
    ri, rj = np.array([r1, r1, r2, r2, r3, r3]).reshape(2, 3, -1)
    return ri, rj, np.array([a, b, a - b])


def _grad_hess_arrays(r1, r2, r3, a, b):
    """Gradient (g1, g2) and Hessian entries (h11, h12, h22) of f at 1-D arrays
    of angles, in one :func:`_pairs` pass; infinite or NaN where a pair coincides."""
    p, s = _inv_dist_derivs(*_pairs(r1, r2, r3, a, b))
    return p[0] + p[2], p[1] - p[2], s[0] + s[2], -s[2], s[1] + s[2]


def _unit_scale(top: float) -> float:
    """The power of two s with top / s in [1/2, 1) (in [1, 2) near the
    largest float; 1 at top = 0): dividing radii by it is exact."""
    return math.ldexp(1.0, min(math.frexp(top)[1], 1023))


def _unit_scales(top):
    """:func:`_unit_scale` of each element of an array, by the same rule."""
    return np.ldexp(1.0, np.minimum(np.frexp(top)[1], 1023))


def _alignment_terms(r1, r2, r3):
    """The three terms of P, cubes written as products so that floats and
    arrays give the same bits."""
    d, e, g = r3 - r1, r3 + r2, r1 + r2
    return r2 * (d * d * d), r1 * (e * e * e), r3 * (g * g * g)


# forward rounding-error bound of the computed P relative to the sum of
# its terms' magnitudes (about 8 roundings, with a factor 2 to spare)
_P_ROUNDING = 8.0 * sys.float_info.epsilon


def _alignment_margin(u):
    """Scale-free alignment margin of each row of u, an (m, 3) array of
    radius triples sorted ascending and divided by :func:`_unit_scales` of
    their largest radius: P over the sum of its terms' magnitudes.

    The margin lies in [-1, 1] and has the sign of P at every scale.  The
    computed margin is within _P_ROUNDING of the exact one, so P > 0 is
    certain where it exceeds _P_ROUNDING and P < 0 where it is below
    -_P_ROUNDING.  0/0 where two radii vanish: callers choose how that
    floating-point warning is handled.
    """
    t1, t2, t3 = _alignment_terms(u[:, 0], u[:, 1], u[:, 2])
    return (t1 - t2 - t3) / (t1 + t2 + t3)


def full_cost(r: Radii | tuple, config: AngularConfig | tuple) -> CostBreakdown:
    """Total Coulomb energy and its pairwise breakdown at one configuration.

    Evaluated on the radii divided by a power of two near the largest, so
    extreme scales neither overflow nor lose digits to subnormals.
    Infinite terms are returned as float('inf') rather than raised: a
    coincident pair is a legitimate (infinitely expensive) configuration.
    """
    r = Radii.of(r)
    if not isinstance(config, AngularConfig):
        config = AngularConfig(*config)
    s = _unit_scale(max(r.as_tuple()))
    a, b = np.array([config.alpha]), np.array([config.beta])
    with np.errstate(divide="ignore"):
        terms = _energy_terms(r.r1 / s, r.r2 / s, r.r3 / s, a, b)
    f12, f13, f23 = (float(v[0]) for v in terms)
    return CostBreakdown(f12 / s, f13 / s, f23 / s, (f12 + f13 + f23) / s)


def grad_hess(
    r: Radii | tuple, config: AngularConfig | tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of f at a configuration, both in closed form.

    Returns (grad, hess) with shapes (2,) and (2, 2), evaluated at unit
    scale as :func:`full_cost` is.  Raises :class:`SingularConfiguration`
    where a term is not finite there: where a pair distance vanishes (or
    underflows), since the derivatives are unbounded.
    """
    r = Radii.of(r)
    if not isinstance(config, AngularConfig):
        config = AngularConfig(*config)
    s = _unit_scale(max(r.as_tuple()))
    a, b = np.array([config.alpha]), np.array([config.beta])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        terms = _grad_hess_arrays(r.r1 / s, r.r2 / s, r.r3 / s, a, b)
    unit = [float(v[0]) for v in terms]
    if not all(map(math.isfinite, unit)):
        raise SingularConfiguration(
            f"a pair distance vanishes at radii {r.as_tuple()}, angles {config}"
        )
    g1, g2, h11, h12, h22 = (v / s for v in unit)
    return np.array([g1, g2]), np.array([[h11, h12], [h12, h22]])


def alignment_condition(r: Radii | tuple) -> float:
    """Alignment polynomial P(r) = r2 (r3-r1)^3 - r1 (r3+r2)^3 - r3 (r1+r2)^3.

    Nonnegative P certifies that the collinear corner (pi, 0) is the global
    minimizer of f over the torus.  Homogeneous of degree 4: evaluated on
    the radii divided by a power of two near the largest and rescaled, so
    it overflows to +-inf instead of raising.
    """
    r = Radii.of(r)
    s = _unit_scale(max(r.as_tuple()))
    t1, t2, t3 = _alignment_terms(r.r1 / s, r.r2 / s, r.r3 / s)
    return (t1 - t2 - t3) * s * s * s * s


# phi and its partials are homogeneous (of degrees 1 and 0) and computed
# on a and b divided by the unit scale of b; for b within these bounds no
# intermediate result leaves the normal range either way, so the division
# cannot change a bit and is skipped
_PHI_EXACT_LO, _PHI_EXACT_HI = 2.0**-400, 2.0**400


def _phi_partials(a, b):
    """phi(a, b) and its two first partial derivatives for 0 <= a < b,
    elementwise, in closed form at unit scale."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    s = np.where((_PHI_EXACT_LO <= b) & (b <= _PHI_EXACT_HI), 1.0, _unit_scales(b))
    a, b = a / s, b / s
    # disc = b^2 + 4 a (3 b - a) > 0 on the admissible wedge
    root = np.sqrt(b * b + 12.0 * a * b - 4.0 * a * a)
    num = 5.0 * a * b + b * b + (a + b) * root
    gap = b - a
    da_num = 5.0 * b + root + (a + b) * (12.0 * b - 8.0 * a) / (2.0 * root)
    db_num = 5.0 * a + 2.0 * b + root + (a + b) * (2.0 * b + 12.0 * a) / (2.0 * root)
    da = (da_num * gap + num) / (2.0 * gap * gap)
    db = (db_num * gap - num) / (2.0 * gap * gap)
    return num / (2.0 * gap) * s, da, db


def phi_threshold(r1: float, r2: float) -> float:
    """Unique r3-root of the alignment polynomial for fixed 0 <= r1 < r2.

    Closed form:

        phi = (5 r1 r2 + r2^2 + (r1 + r2) sqrt(r2^2 + 12 r1 r2 - 4 r1^2))
              / (2 (r2 - r1))

    P(r1, r2, r3) >= 0 exactly when r3 >= phi.  phi(0, r2) = r2, and phi is
    strictly increasing in r1 on [0, r2).  Evaluated at unit scale, so
    phi(2^k r1, 2^k r2) = 2^k phi(r1, r2) wherever the result is a normal
    float.
    """
    if not 0.0 <= r1 < r2 < math.inf:
        if not (math.isfinite(r1) and math.isfinite(r2)) or r1 < 0.0 or r2 < 0.0:
            raise InvalidRadii(f"need finite radii >= 0, got ({r1}, {r2})")
        raise DegenerateRadii(
            f"phi_threshold needs 0 <= r1 < r2 strictly, got ({r1}, {r2})"
        )
    if _PHI_EXACT_LO <= r2 <= _PHI_EXACT_HI:
        # the value alone, as _phi_partials computes it: this is the hot
        # path of callers that scan phi over grids
        root = math.sqrt(r2 * r2 + 12.0 * r1 * r2 - 4.0 * r1 * r1)
        return (5.0 * r1 * r2 + r2 * r2 + (r1 + r2) * root) / (2.0 * (r2 - r1))
    return float(_phi_partials(r1, r2)[0])


def c_pi(r: Radii | tuple) -> float:
    """Energy of the collinear configuration: charges 2 and 3 opposite charge 1.

    Evaluates full_cost(r, (pi, 0)).total in the order given; inf when r1 == r3.
    """
    return full_cost(r, (math.pi, 0.0)).total


def c_delta(r: Radii | tuple) -> float:
    """Energy of the equilateral-angle configuration (0, 2pi/3, 4pi/3).

    Upper bound for the minimal energy; equals sqrt(3)/l for equal radii l.
    Infinite only when all radii vanish.
    """
    return full_cost(r, (_DELTA_ALPHA, _DELTA_BETA)).total


def corner_values(r: Radii | tuple) -> CornerValues:
    """Energies at the four corners of [0, pi]^2.

    For strictly ordered radii the chain f(pi,0) < f(0,pi) < f(0,0) and
    f(pi,0) < f(pi,pi) holds regardless of the alignment condition, so the
    collinear corner is always the cheapest of the four.
    """
    r = Radii.of(r)
    s = _unit_scale(max(r.as_tuple()))
    # the four corners at their canonical angles, pi being -pi in [-pi, pi)
    a, b = np.array([[0.0, 0.0, -math.pi, -math.pi], [0.0, -math.pi, 0.0, -math.pi]])
    with np.errstate(divide="ignore"):
        f12, f13, f23 = _energy_terms(r.r1 / s, r.r2 / s, r.r3 / s, a, b)
    return CornerValues(*(v / s for v in (f12 + f13 + f23).tolist()))


def _critical_angle(ri: float, rj: float) -> float:
    """:func:`g_profile`'s theta_crit for 0 < ri <= rj, at the unit scale of
    rj; 0 where nearly equal radii round its cosine to 1."""
    s = _unit_scale(rj)
    ri, rj = ri / s, rj / s
    q, p = ri * ri + rj * rj, ri * rj
    # nearly equal radii can round the cosine a few ulps above 1
    return math.acos(min(6.0 * p / (q + math.sqrt(q * q + 12.0 * p * p)), 1.0))


def g_profile(ri: float, rj: float, theta):
    """Pairwise attraction profile g = -F' and its derivative, plus the
    critical angle where g peaks.

    g(t) = ri rj sin(t) / D(t)^(3/2) is positive on (0, pi), increases up to

        cos(theta_crit) = 6 ri rj / (q + sqrt(q^2 + 12 ri^2 rj^2)),
                          q = ri^2 + rj^2

    and decreases after it (this form of the root does not cancel as
    ri/rj -> 0).  Requires 0 < ri < rj strictly; equal radii make
    the profile singular at 0 (raises :class:`EqualRadii`).

    Returns (g, g_prime, theta_crit); g and g_prime follow the shape of
    the theta argument.  Evaluated on the radii divided by a power of two
    near rj, with g and g_prime (homogeneous of degree -1) rescaled.
    """
    if not (math.isfinite(ri) and math.isfinite(rj)) or ri <= 0.0 or rj <= 0.0:
        raise InvalidRadii(f"need finite radii > 0, got ({ri}, {rj})")
    if ri == rj:
        raise EqualRadii(f"g profile needs distinct radii, got ri == rj == {ri}")
    if ri > rj:
        raise DegenerateRadii(f"g profile expects ri < rj, got ({ri}, {rj})")
    s = _unit_scale(rj)
    ri, rj = ri / s, rj / s
    d1, d2 = _inv_dist_derivs(ri, rj, theta)
    g, gp = -d1 / s, -d2 / s
    theta_crit = _critical_angle(ri, rj)
    if np.isscalar(theta):
        return float(g), float(gp), theta_crit
    return g, gp, theta_crit
