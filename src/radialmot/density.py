"""Radial probability densities built from explicit segments.

A density is a finite ordered list of disjoint segments on [0, inf), each
knowing its own mass, pointwise values, partial masses and inner quantiles.
Three segment kinds cover everything the package needs:

* polynomial pieces of low degree (closed-form antiderivatives),
* tabulated pieces interpolated monotonically (shape-preserving cubic),
* a pushforward tail: the image of an earlier piece under an increasing
  map with known derivative, which represents an unbounded smooth tail
  exactly, with forward quantiles and root-found inverse values.

One SegmentStack assembles the cumulative mass segment by segment, for
whole densities and for the partial stacks of the tail builder alike.  The
quantile is the lower generalized inverse inf{x : F(x) >= p}, so a mass
sitting exactly at a gap boundary resolves to the left endpoint of the
gap.  A RadialDensity adds validation on top: total mass must be 1 within
1e-10 at construction time.

Polynomial pieces are evaluated on plain floats by a scalar Horner loop,
the density in x and its antiderivative in t = x - lo, the piece's own
left end (the pp-form), so a partial mass never cancels against anti(lo).

Quantiles of constant and linear pieces are closed form; higher degrees,
table pieces and the tail inverse share one Brent solve, ``_brent``, at
one tolerance.  Segments reject non-finite inputs and any mass that is
not finite and positive, so a NaN never reaches the cumulative stack.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateTertile, DensityError

__all__ = [
    "PolySegment",
    "TableSegment",
    "PushforwardTailSegment",
    "RadialDensity",
    "Tertiles",
    "uniform_density",
    "block_density",
]

_MASS_TOL = 1e-10
_QUANTILE_XTOL = 1e-14


@dataclass(frozen=True)
class Tertiles:
    """The two mass boundaries splitting a density into thirds."""

    s1: float
    s2: float


def _real_roots_in(coeffs_poly: np.polynomial.Polynomial, lo: float, hi: float):
    if coeffs_poly.degree() < 1:
        return []
    out = []
    for root in np.atleast_1d(coeffs_poly.roots()):
        if abs(complex(root).imag) < 1e-9:
            x = complex(root).real
            if lo <= x <= hi:
                out.append(x)
    return out


def _brent(f: Callable[[float], float], target: float, lo: float, hi: float) -> float:
    """The root of f(x) = target on [lo, hi] by Brent's method, to the
    quantile tolerance; f must be monotone and bracket target."""
    from scipy.optimize import brentq
    return float(
        brentq(lambda x: f(x) - target, lo, hi, xtol=_QUANTILE_XTOL, rtol=8.9e-16)
    )


def _horner(coeffs: tuple[float, ...], x: float) -> float:
    """The polynomial with ascending coefficients coeffs at x."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = c + acc * x
    return acc


class PolySegment:
    """Polynomial density piece on a bounded interval [lo, hi].

    coeffs are ascending power-basis coefficients of the density itself.
    The piece must be nonnegative on its interval; this is verified at the
    endpoints and at all interior critical points of the polynomial, and
    the smallest of those values is kept as ``minimum``.

    The density (in x) and its antiderivative (in t = x - lo, zero at
    t = 0) are coefficient tuples evaluated by the scalar Horner loop;
    numpy's Polynomial only supplies the shifted antiderivative and the
    critical points at construction.

    quantile_within inverts mass_below: a constant piece by division, a
    linear piece by the quadratic root t = 2m / (p + sqrt(p^2 + 2qm))
    with p the density at lo and q the slope (no cancellation, and it
    covers q = 0 and p = 0), and higher degrees by Brent followed by two
    Newton polish steps against mass_below.
    """

    kind = "poly"

    def __init__(self, lo: float, hi: float, coeffs: Sequence[float]):
        if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
            raise DensityError(f"bad interval [{lo}, {hi}] for poly segment")
        if len(coeffs) == 0:
            raise DensityError("poly segment needs at least one coefficient")
        self.lo = float(lo)
        self.hi = float(hi)
        self.coeffs = tuple(float(c) for c in coeffs)
        if not all(math.isfinite(c) for c in self.coeffs):
            raise DensityError(f"non-finite poly coefficients {self.coeffs}")
        poly = np.polynomial.Polynomial(self.coeffs)
        local = poly(np.polynomial.Polynomial([self.lo, 1.0]))
        self._anti = tuple(float(c) for c in local.integ().coef)
        self.mass = _horner(self._anti, self.hi - self.lo)
        crit = _real_roots_in(poly.deriv(), self.lo, self.hi)
        vals = [_horner(self.coeffs, x) for x in [self.lo, self.hi, *crit]]
        self.minimum = min(vals)
        if self.minimum < -1e-12 * max(1.0, max(abs(v) for v in vals)):
            raise DensityError(
                f"poly segment dips negative on [{self.lo}, {self.hi}] "
                f"(min value {self.minimum:.3e})"
            )
        if not 0.0 < self.mass < math.inf:
            raise DensityError(
                f"poly segment mass {self.mass!r} is not finite and positive"
            )

    def pdf(self, x: float) -> float:
        return max(_horner(self.coeffs, x), 0.0)

    def mass_below(self, x: float) -> float:
        if x <= self.lo:
            return 0.0
        if x >= self.hi:
            return self.mass
        return min(max(_horner(self._anti, x - self.lo), 0.0), self.mass)

    def quantile_within(self, m: float) -> float:
        m = min(max(m, 0.0), self.mass)
        if m == 0.0:
            return self.lo
        if m == self.mass:
            return self.hi
        if len(self.coeffs) == 1:
            return self.lo + m / self.coeffs[0]
        if len(self.coeffs) == 2:
            # p*t + q*t^2/2 = m in t = x - lo, by the root that does not cancel
            p, q = _horner(self.coeffs, self.lo), self.coeffs[1]
            t = 2.0 * m / (p + math.sqrt(max(p * p + 2.0 * q * m, 0.0)))
            return min(max(self.lo + t, self.lo), self.hi)
        x = _brent(self.mass_below, m, self.lo, self.hi)
        # two Newton polish steps where the density is bounded away from 0
        for _ in range(2):
            d = self.pdf(x)
            if d > 1e-12:
                x = min(max(x - (self.mass_below(x) - m) / d, self.lo), self.hi)
        return x


class TableSegment:
    """Tabulated density piece, interpolated with a shape-preserving cubic.

    The interpolant preserves nonnegativity of the tabulated values, and
    its exact antiderivative supplies partial masses.
    """

    kind = "table"

    def __init__(self, x: Sequence[float], density: Sequence[float]):
        xs = np.asarray(x, dtype=float)
        ds = np.asarray(density, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or xs.shape != ds.shape:
            raise DensityError("table segment needs matching 1-d x and density")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ds))):
            raise DensityError("table segment x and density must be finite")
        if not np.all(np.diff(xs) > 0):
            raise DensityError("table segment x grid must be strictly increasing")
        if np.any(ds < 0):
            raise DensityError("table segment density values must be >= 0")
        self.lo = float(xs[0])
        self.hi = float(xs[-1])
        self.x = xs
        self.density = ds
        from scipy.interpolate import PchipInterpolator
        self._interp = PchipInterpolator(xs, ds, extrapolate=False)
        self._anti = self._interp.antiderivative()
        # the antiderivative is 0 at the first knot
        self.mass = float(self._anti(self.hi))
        if not 0.0 < self.mass < math.inf:
            raise DensityError(
                f"table segment mass {self.mass!r} is not finite and positive"
            )

    def pdf(self, x: float) -> float:
        if x < self.lo or x > self.hi:
            return 0.0
        return max(float(self._interp(x)), 0.0)

    def mass_below(self, x: float) -> float:
        if x <= self.lo:
            return 0.0
        if x >= self.hi:
            return self.mass
        return min(max(float(self._anti(x)), 0.0), self.mass)

    def quantile_within(self, m: float) -> float:
        m = min(max(m, 0.0), self.mass)
        if m == 0.0:
            return self.lo
        if m == self.mass:
            return self.hi
        return _brent(self.mass_below, m, self.lo, self.hi)


class PushforwardTailSegment:
    """Unbounded tail equal to the image of a source piece under an
    increasing map.

    forward maps the source variable x in [0, x_hi) to the tail variable
    y in [lo, inf), strictly increasing with forward(x) -> inf as
    x -> x_hi.  source_mass_below and source_quantile describe the source
    mass being pushed (total source_mass).  Tail values follow from the
    change of variables pdf(y) = source_pdf(x) / forward'(x) at
    x = forward^{-1}(y); quantiles are forward images of source quantiles,
    which keeps them exact.
    """

    kind = "pushforward-tail"

    def __init__(
        self,
        *,
        lo: float,
        source_mass: float,
        x_hi: float,
        forward: Callable[[float], float],
        forward_prime: Callable[[float], float],
        source_pdf: Callable[[float], float],
        source_mass_below: Callable[[float], float],
        source_quantile: Callable[[float], float],
    ):
        self.lo = float(lo)
        self.hi = math.inf
        self.mass = float(source_mass)
        self._x_hi = float(x_hi)
        self._forward = forward
        self._forward_prime = forward_prime
        self._source_pdf = source_pdf
        self._source_mass_below = source_mass_below
        self._source_quantile = source_quantile
        if not 0.0 < self.mass < math.inf:
            raise DensityError(
                f"tail segment mass {self.mass!r} is not finite and positive"
            )

    def inverse(self, y: float) -> float:
        """Source point mapping to tail point y; bracketed bisection plus
        Brent refinement against the increasing forward map."""
        if y <= self.lo:
            return 0.0
        lo_x, hi_x = 0.0, self._x_hi
        width = self._x_hi / 2.0
        # walk the bracket toward the blow-up end until forward exceeds y
        for _ in range(200):
            cand = self._x_hi - width
            f = self._forward(cand)
            if f >= y:
                hi_x = cand
                break
            lo_x = cand
            width /= 2.0
        else:
            raise DensityError(f"tail inverse failed to bracket y={y!r}")
        return _brent(self._forward, y, lo_x, hi_x)

    def pdf(self, y: float) -> float:
        if y < self.lo:
            return 0.0
        x = self.inverse(y)
        dp = self._forward_prime(x)
        if dp <= 0.0:
            raise DensityError("pushforward map is not increasing at the probe")
        return self._source_pdf(x) / dp

    def mass_below(self, y: float) -> float:
        if y <= self.lo:
            return 0.0
        return min(max(self._source_mass_below(self.inverse(y)), 0.0), self.mass)

    def quantile_within(self, m: float) -> float:
        m = min(max(m, 0.0), self.mass)
        if m == 0.0:
            return self.lo
        if m == self.mass:
            return math.inf
        return float(self._forward(self._source_quantile(m)))


class SegmentStack:
    """Cumulative mass over ordered disjoint segments: pointwise density,
    mass below a point and the lower mass quantile.

    Segments must come sorted by their left ends; gaps between them carry
    no mass.  The total is whatever the segments carry, so a stack may
    hold only part of a density (the tail builder stacks the first two
    pieces this way).
    """

    def __init__(self, segments: Sequence):
        self.segments = tuple(segments)
        # plain floats summed in order, bit for bit numpy's cumsum; a list,
        # so that RadialDensity can pin the total to exactly 1
        self._cum = [0.0, *accumulate(s.mass for s in self.segments)]
        self._los = [s.lo for s in self.segments]

    @property
    def total(self) -> float:
        return self._cum[-1]

    def pdf(self, x: float) -> float:
        x = float(x)
        i = bisect_right(self._los, x) - 1
        if i < 0:
            return 0.0
        seg = self.segments[i]
        if x > seg.hi:
            return 0.0
        return seg.pdf(x)

    def mass_below(self, x: float) -> float:
        i = bisect_right(self._los, x) - 1
        if i < 0:
            return 0.0
        return self._cum[i] + self.segments[i].mass_below(x)

    def mass_quantile(self, m: float) -> float:
        """Lower quantile of mass m, clamped to [0, total]."""
        m = min(max(m, 0.0), self.total)
        i = min(bisect_left(self._cum, m, 1) - 1, len(self.segments) - 1)
        return self.segments[i].quantile_within(m - self._cum[i])


class RadialDensity(SegmentStack):
    """Probability density on [0, inf) given by ordered disjoint segments.

    Gaps between segments are allowed (zero density there).  Total mass
    must be 1 within 1e-10; only the last segment may be unbounded.
    """

    def __init__(self, segments: Sequence):
        segs = sorted(segments, key=lambda s: s.lo)
        if not segs:
            raise DensityError("density needs at least one segment")
        if segs[0].lo < 0.0:
            raise DensityError("radial density lives on [0, inf)")
        for a, b in zip(segs, segs[1:]):
            if not math.isfinite(a.hi):
                raise DensityError("only the last segment may be unbounded")
            if b.lo < a.hi - 1e-12:
                raise DensityError(
                    f"segments overlap near [{b.lo}, {a.hi}]"
                )
        total = sum(s.mass for s in segs)
        if not abs(total - 1.0) <= _MASS_TOL:  # NaN-safe
            raise DensityError(
                f"segment masses sum to {total!r}, expected 1 within {_MASS_TOL}"
            )
        super().__init__(segs)
        self._cum[-1] = 1.0

    @property
    def support_lo(self) -> float:
        return self.segments[0].lo

    @property
    def support_hi(self) -> float:
        return self.segments[-1].hi

    def cdf(self, x: float) -> float:
        return min(self.mass_below(float(x)), 1.0)

    def quantile(self, p: float) -> float:
        """Lower quantile inf{x : F(x) >= p}; p=0 gives the support's left
        endpoint, p=1 its essential supremum (inf for unbounded tails)."""
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise DensityError(f"quantile needs p in [0, 1], got {p!r}")
        if p == 1.0:
            return self.support_hi
        return self.mass_quantile(p)

    def tertiles(self) -> Tertiles:
        s1 = self.quantile(1.0 / 3.0)
        s2 = self.quantile(2.0 / 3.0)
        if not s1 < s2:
            raise DegenerateTertile(
                f"tertile boundaries collapse: s1={s1!r}, s2={s2!r}"
            )
        return Tertiles(s1=s1, s2=s2)

    def total_mass(self, quadrature: bool = False) -> float:
        """Sum of segment masses; with quadrature=True, an independent
        adaptive-quadrature evaluation of the density instead."""
        if not quadrature:
            return self.total
        from scipy.integrate import quad

        total = 0.0
        for seg in self.segments:
            hi = seg.hi
            if math.isinf(hi):
                # integrate the tail in its source variable: exact mass
                # there is the source mass; quadrature goes over a long
                # but finite window plus the analytic remainder
                far = seg.quantile_within(seg.mass * (1.0 - 1e-9))
                val, _ = quad(seg.pdf, seg.lo, far, limit=200)
                total += val + seg.mass * 1e-9
            else:
                val, _ = quad(seg.pdf, seg.lo, hi, limit=200)
                total += val
        return total


def uniform_density(lo: float = 0.0, hi: float = 1.0) -> RadialDensity:
    """Uniform density on [lo, hi]."""
    return RadialDensity([PolySegment(lo, hi, [1.0 / (hi - lo)])])


def block_density(blocks: Sequence[tuple[float, float]]) -> RadialDensity:
    """Equal-mass constant blocks, e.g. thirds on [0,1], [2,3], [15,16]."""
    if not blocks:
        raise DensityError("need at least one block")
    w = 1.0 / len(blocks)
    segs = [PolySegment(lo, hi, [w / (hi - lo)]) for lo, hi in blocks]
    return RadialDensity(segs)
