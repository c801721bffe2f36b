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

Segments and stacks work elementwise on float64 arrays, and a float
argument gives a float; each stack method evaluates every segment once, on
the lanes it holds.  RadialDensity's ``pdf``, ``cdf`` and ``quantile`` take
and return one float; array callers use ``mass_below`` and
``mass_quantile``.  Polynomial pieces are evaluated by Horner's rule, the
density in x and its antiderivative in t = x - lo, the piece's own left
end (the pp-form), so a partial mass never cancels against anti(lo);
table pieces hold one such cubic per interval, summed power by power.

Quantiles of constant and linear pieces are closed form; higher degrees,
table pieces, the tail inverse and ``minimize``'s curve tracer share one
root solver, ``_solve_increasing``: lockstep safeguarded Newton steps,
each lane stopping at the forward-error floor of its function.  Each
root here is bracketed from a table: 17 knots of a bounded segment's
mass, made at construction, or the tail's forward map and its slope at
the source quantiles of 128 equal masses and at x_hi (1 - 2^-k), made on
the first inverse, which starts Newton at a cubic Hermite point.
Segments reject non-finite inputs and any mass that is not finite and
positive, so a NaN never reaches the cumulative stack.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
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
# relative rounding of f(x) and of x itself: a root is resolved once a
# Newton step is below this times |x| + |target| / f'(x)
_ROUNDING = 8.9e-16
_MAX_STEPS = 200


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


def _size(n, what: str, least: int = 1) -> int:
    """Sample count n as an int; ValueError for a bool, a fraction or n < least."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
        raise ValueError(f"{what} must be an integer of at least {least}, got {n!r}")
    return int(n)


def _result(a):
    """a, or a float where a is 0-d: a float argument gives a float."""
    return float(a) if np.ndim(a) == 0 else a


def _horner(coeffs: tuple[float, ...], x):
    """The polynomial with ascending coefficients coeffs at each x."""
    if len(coeffs) == 1:
        return np.full(np.shape(x), coeffs[0])
    acc = coeffs[-2] + coeffs[-1] * x
    for c in coeffs[-3::-1]:
        acc = c + acc * x
    return acc


def _power_sum(coeffs, t):
    """coeffs[0] + coeffs[1] t + coeffs[2] t^2 + ..., summed from the
    constant up with each power a running product of t, not by Horner."""
    acc, z = coeffs[0], 1.0
    for c in coeffs[1:]:
        z = z * t
        acc = acc + c * z
    return acc


def _pchip_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Monotone PCHIP knot slopes on spacings h and secant slopes m: the
    weighted harmonic mean of the secants inside (Fritsch & Butland 1984),
    0 where they differ in sign or vanish; shape-limited one-sided
    three-point ends; the secant at both knots of a two-knot table."""
    if m.size == 1:
        return np.array([m[0], m[0]])
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        inner = np.where(flat, 0.0, 1.0 / mean)
        d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        clipped = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
        ends = np.where(np.sign(d) != np.sign(m0), 0.0, np.where(clipped, 3.0 * m0, d))
    return np.concatenate([ends[:1], inner, ends[1:]])


def _solve_increasing(f, target, lo, hi, start) -> np.ndarray:
    """The x in [lo, hi] with f(x) = target, for each lane of the arrays
    target, lo, hi and start, where f is increasing with
    f(lo) <= target <= f(hi); f returns its values and slopes f'.  It
    solves the quantiles here and each branch of ``trace_implicit_curves``.

    Newton steps run in lockstep over the lanes still active, from start;
    a step that leaves its lane's bracket, or meets a slope that is not
    positive, is a bisection instead.  A lane stops when its Newton step
    is within the forward-error floor _ROUNDING * (|x| + |target| / f'(x)),
    or when it stops moving.
    """
    target = np.asarray(target, dtype=float)
    lo = np.full(target.shape, lo, dtype=float)
    hi = np.full(target.shape, hi, dtype=float)
    x = np.array(start, dtype=float)
    act = np.arange(target.size)
    for _ in range(_MAX_STEPS):
        xa, ta = x[act], target[act]
        r, d = f(xa)
        r = r - ta
        la = lo[act] = np.where(r < 0.0, xa, lo[act])
        ha = hi[act] = np.where(r > 0.0, xa, hi[act])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = r / d
            floor = _ROUNDING * (np.abs(xa) + np.abs(ta) / d)
        xn = xa - step
        newton = (d > 0.0) & (la <= xn) & (xn <= ha)
        xn = x[act] = np.where(r == 0.0, xa, np.where(newton, xn, (la + ha) / 2.0))
        act = act[~((xn == xa) | (newton & (np.abs(step) <= floor)))]
        if act.size == 0:
            break
    return x


def _quantile_within(seg, m, root):
    """The lower quantile inside a segment of each mass m, clamped to
    [0, seg.mass]: seg.lo at 0, seg.hi at the full mass, root(m) between."""
    m = np.asarray(m, dtype=float).clip(0.0, seg.mass)
    x = np.where(m == 0.0, seg.lo, seg.hi)
    inner = (m > 0.0) & (m < seg.mass)
    if inner.any():
        x[inner] = root(m[inner])
    return _result(x)


def _mass_table(seg) -> tuple[np.ndarray, np.ndarray]:
    """17 equally spaced knots of a bounded segment, from lo to hi, and
    the mass below each."""
    xs = np.linspace(seg.lo, seg.hi, 17)
    return xs, seg.mass_below(xs)


def _table_root(f, y, xs, fs, dfs=None) -> np.ndarray:
    """The root of the increasing f at each y, bracketed by the first knot
    of xs where the running maximum of the values fs reaches y and the last
    knot before it where that maximum was reached, so that knots whose
    values are not finite (stored as -inf) or fall below an earlier value
    bracket nothing.  Newton starts at the secant point between the two
    values (the knot itself where y is its value); given the knot slopes
    dfs, at the cubic Hermite interpolant of the inverse, with slopes
    1/dfs, where both slopes are finite and positive and it stays in the
    bracket.  Needs fs[0] finite and fs[0] < y <= max(fs)."""
    top = np.maximum.accumulate(fs)
    # index of the knot where the running maximum was last reached
    last = np.maximum.accumulate(np.where(fs == top, np.arange(fs.size), 0))
    j = np.searchsorted(top, y)
    i = last[j - 1]
    lo, hi, f_lo, f_hi = xs[i], xs[j], fs[i], fs[j]
    with np.errstate(all="ignore"):
        t = (y - f_lo) / (f_hi - f_lo)
        start = lo + t * (hi - lo)
        if dfs is not None:
            m_lo, m_hi = (f_hi - f_lo) / dfs[i], (f_hi - f_lo) / dfs[j]
            cubic = (
                lo + (hi - lo) * t * t * (3.0 - 2.0 * t)
                + t * (1.0 - t) * ((1.0 - t) * m_lo - t * m_hi)
            )
            ok = (m_lo > 0.0) & (m_lo < np.inf) & (m_hi > 0.0) & (m_hi < np.inf)
            start = np.where(ok & (lo <= cubic) & (cubic <= hi), cubic, start)
    return _solve_increasing(f, y, lo, hi, np.where(y < f_hi, start, hi))


class PolySegment:
    """Polynomial density piece on a bounded interval [lo, hi].

    coeffs are ascending power-basis coefficients of the density itself.
    The piece must be nonnegative on its interval; this is verified at the
    endpoints and at all interior critical points of the polynomial, and
    the smallest of those values is kept as ``minimum``.

    The density (in x) and its antiderivative (in t = x - lo, zero at
    t = 0) are coefficient tuples evaluated by Horner's rule; numpy's
    Polynomial only supplies the shifted antiderivative and the critical
    points at construction.

    quantile_within inverts mass_below: a constant piece by division, a
    linear piece by the quadratic root t = 2m / (p + sqrt(p^2 + 2qm))
    with p the density at lo and q the slope (no cancellation, and it
    covers q = 0 and p = 0), and higher degrees by ``_solve_increasing``
    with the density as the slope and the residual in extended precision
    (np.longdouble, plain float64 where the platform has nothing wider).
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
        # near the float limit these overflow, and are rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            local = poly(np.polynomial.Polynomial([self.lo, 1.0]))
            self._anti = tuple(float(c) for c in local.integ().coef)
            slope = poly.deriv()
            if not np.all(np.isfinite([*self._anti, *slope.coef])):
                raise DensityError(f"poly segment coefficients {self.coeffs} overflow")
            crit = _real_roots_in(slope, self.lo, self.hi)
            self.mass = float(_horner(self._anti, self.hi - self.lo))
            vals = _horner(self.coeffs, np.array([self.lo, self.hi, *crit]))
            self.minimum = float(vals.min())
            top = float(np.abs(vals).max())
        if self.minimum < -1e-12 * max(1.0, top):
            raise DensityError(
                f"poly segment dips negative on [{self.lo}, {self.hi}] "
                f"(min value {self.minimum:.3e})"
            )
        if not 0.0 < self.mass < math.inf:
            raise DensityError(
                f"poly segment mass {self.mass!r} is not finite and positive"
            )
        self._table = _mass_table(self)

    def pdf(self, x):
        v = _horner(self.coeffs, np.asarray(x, dtype=float))
        return _result(np.where(v < 0.0, 0.0, v))

    def mass_below(self, x):
        # at lo the antiderivative is exactly 0 and at hi exactly the mass
        t = np.asarray(x, dtype=float).clip(self.lo, self.hi) - self.lo
        return _result(_horner(self._anti, t).clip(0.0, self.mass))

    def quantile_within(self, m):
        return _quantile_within(self, m, self._root)

    def _root(self, m):
        if len(self.coeffs) == 1:
            return self.lo + m / self.coeffs[0]
        if len(self.coeffs) == 2:
            # p*t + q*t^2/2 = m in t = x - lo, by the root that does not cancel
            p, q = float(_horner(self.coeffs, self.lo)), self.coeffs[1]
            t = 2.0 * m / (p + np.sqrt(np.maximum(p * p + 2.0 * q * m, 0.0)))
            return (self.lo + t).clip(self.lo, self.hi)
        # the residual in extended precision where the platform has it, so
        # that the rounding of mass_below does not limit the root
        def f(x):
            return _horner(self._anti, x.astype(np.longdouble) - self.lo), self.pdf(x)

        return _table_root(f, m, *self._table)


class TableSegment:
    """Tabulated density piece, interpolated with a shape-preserving cubic.

    The monotone PCHIP knot slopes keep the interpolant nonnegative.  Each
    interval k holds its own cubic in t = x - x[k] (the pp-form), and its
    antiderivative a constant chained from the interval before, zero at the
    first knot.  Both are power sums in PPoly's order, so every value equals
    PchipInterpolator's bit for bit.
    """

    kind = "table"

    def __init__(self, x: Sequence[float], density: Sequence[float]):
        xs = np.asarray(x, dtype=float)
        ds = np.asarray(density, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or xs.shape != ds.shape:
            raise DensityError("table segment needs matching 1-d x and density")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ds))):
            raise DensityError("table segment x and density must be finite")
        h = np.diff(xs)
        if not np.all(h > 0):
            raise DensityError("table segment x grid must be strictly increasing")
        if np.any(ds < 0):
            raise DensityError("table segment density values must be >= 0")
        with np.errstate(over="ignore"):
            slopes = np.diff(ds) / h
        if not np.all(np.isfinite(slopes)):
            raise DensityError("table segment secant slopes overflow")
        self.lo = float(xs[0])
        self.hi = float(xs[-1])
        self.x = xs
        self.density = ds
        d = _pchip_slopes(h, slopes)
        # near the float limit these overflow, and the mass is rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            t = (d[:-1] + d[1:] - 2.0 * slopes) / h
            self._cubic = np.array([ds[:-1], d[:-1], (slopes - d[:-1]) / h - t, t / h])
            terms = self._cubic / np.array([[1.0], [2.0], [3.0], [4.0]])
        # the mass below x[k + 1]: the power sum of interval k at its width
        anti = [0.0]
        for col, width in zip(terms.T.tolist(), h.tolist()):
            anti.append(_power_sum([anti[-1], *col], width))
        self.mass = anti[-1]
        if not 0.0 < self.mass < math.inf:
            raise DensityError(
                f"table segment mass {self.mass!r} is not finite and positive"
            )
        self._anti = np.concatenate([[anti[:-1]], terms])
        self._table = _mass_table(self)

    def _eval(self, coeffs, x):
        """The pp-form with ascending coefficient rows coeffs at each x in
        [lo, hi]; x = hi belongs to the last interval."""
        k = np.minimum(np.searchsorted(self.x, x, "right") - 1, self.x.size - 2)
        with np.errstate(over="ignore", invalid="ignore"):
            return _power_sum(coeffs[:, k], x - self.x[k])

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        v = self._eval(self._cubic, x.clip(self.lo, self.hi))
        return _result(np.where((x < self.lo) | (x > self.hi) | (v < 0.0), 0.0, v))

    def mass_below(self, x):
        x = np.asarray(x, dtype=float).clip(self.lo, self.hi)
        return _result(self._eval(self._anti, x).clip(0.0, self.mass))

    def quantile_within(self, m):
        def f(x):
            return self.mass_below(x), self.pdf(x)

        return _quantile_within(self, m, lambda mi: _table_root(f, mi, *self._table))


class PushforwardTailSegment:
    """Unbounded tail equal to the image of a source stack under an
    increasing map.

    source is the SegmentStack whose mass is pushed: the tail's mass is
    its total, and its last segment ends at x_hi.  forward_and_prime
    returns the forward map and its derivative, elementwise on arrays:
    forward maps the source variable x in [0, x_hi) to the tail variable
    y in [lo, inf), strictly increasing with forward(x) -> inf as
    x -> x_hi.  Tail values follow from the change of variables
    pdf(y) = source.pdf(x) / forward'(x) at x = forward^{-1}(y);
    quantiles are forward images of source quantiles, which keeps them
    exact.

    The inverse is bracketed from forward_and_prime tabulated once, on the
    first inverse, at 0, at the source quantiles of 128 equally spaced
    source masses and at x_hi (1 - 2^-k) for k = 1, 2, ... below x_hi: y
    falls between the first point whose running maximum reaches y and the
    last point before it where that maximum was reached, and Newton starts
    at the cubic Hermite interpolant of the inverse there.  y above the
    largest finite table value cannot be bracketed.
    """

    kind = "pushforward-tail"

    def __init__(self, lo: float, source: SegmentStack, forward_and_prime: Callable):
        self.lo = float(lo)
        self.hi = math.inf
        self.mass = source.total
        self._source = source
        self._forward_and_prime = forward_and_prime
        if not 0.0 < self.mass < math.inf:
            raise DensityError(
                f"tail segment mass {self.mass!r} is not finite and positive"
            )
        self._x_hi = source.segments[-1].hi

    @cached_property
    def _table(self):
        """The knots, and forward's values and slopes there; forward may
        overflow or cancel next to x_hi, and such values bracket nothing."""
        walk = self._x_hi - np.ldexp(self._x_hi, -np.arange(1, 64))
        quantiles = self._source.mass_quantile(self.mass * np.arange(1, 128) / 128.0)
        xs = np.unique(np.concatenate([[0.0], quantiles, walk[walk < self._x_hi]]))
        with np.errstate(all="ignore"):
            fs, dfs = (np.asarray(v, dtype=float) for v in self._forward_and_prime(xs))
        fs = np.where(np.isfinite(fs), fs, -np.inf)
        return xs, np.concatenate([[self.lo], fs[1:]]), dfs

    def inverse(self, y):
        """Source point mapping to each tail point y, 0 at or below lo;
        bracketed from the table and solved by ``_solve_increasing``."""
        y = np.asarray(y, dtype=float)
        inner = ~(y <= self.lo)
        bad = inner & ~(y <= self._table[1].max())
        if bad.any():
            raise DensityError(
                f"tail inverse failed to bracket y={float(y[bad].flat[0])!r}"
            )
        x = np.zeros(y.shape)
        if inner.any():
            x[inner] = _table_root(self._forward_and_prime, y[inner], *self._table)
        return _result(x)

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        x = self.inverse(y)
        dp = self._forward_and_prime(x)[1]
        if not np.all(dp > 0.0):
            raise DensityError("pushforward map is not increasing at the probe")
        return _result(np.where(y < self.lo, 0.0, self._source.pdf(x) / dp))

    def mass_below(self, y):
        m = self._source.mass_below(self.inverse(y))
        return _result(np.asarray(m).clip(0.0, self.mass))

    def quantile_within(self, m):
        def root(mi):
            return self._forward_and_prime(self._source.mass_quantile(mi))[0]

        return _quantile_within(self, m, root)


class SegmentStack:
    """Cumulative mass over ordered disjoint segments: pointwise density,
    mass below a point and the lower mass quantile, elementwise.

    Segments must come sorted by their left ends; gaps between them carry
    no mass.  The total is whatever the segments carry, so a stack may
    hold only part of a density (the tail builder stacks the first two
    pieces this way).
    """

    def __init__(self, segments: Sequence):
        self.segments = tuple(segments)
        # summed in order, so RadialDensity can pin the last entry to 1
        self._cum = np.concatenate([[0.0], np.cumsum([s.mass for s in self.segments])])
        self._los = np.array([s.lo for s in self.segments])

    @property
    def total(self) -> float:
        return float(self._cum[-1])

    def _lanes(self, index):
        """Each segment with the mask of the lanes index assigns to it."""
        for k, seg in enumerate(self.segments):
            lanes = index == k
            if lanes.any():
                yield k, seg, lanes

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for _, seg, lanes in self._lanes(np.searchsorted(self._los, x, "right") - 1):
            lanes &= ~(x > seg.hi)
            out[lanes] = seg.pdf(x[lanes])
        return _result(out)

    def mass_below(self, x):
        """Mass below each x, at most the total."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for k, seg, lanes in self._lanes(np.searchsorted(self._los, x, "right") - 1):
            out[lanes] = self._cum[k] + seg.mass_below(x[lanes])
        return _result(np.minimum(out, self._cum[-1]))

    def mass_quantile(self, m):
        """Lower quantile of each mass m, clamped to [0, total]: the first
        segment whose cumulative mass reaches m answers it."""
        m = np.asarray(m, dtype=float).clip(0.0, self._cum[-1])
        index = np.minimum(
            np.maximum(np.searchsorted(self._cum, m), 1) - 1, len(self.segments) - 1
        )
        out = np.empty(m.shape)
        for k, seg, lanes in self._lanes(index):
            out[lanes] = seg.quantile_within(m[lanes] - self._cum[k])
        return _result(out)


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

    def pdf(self, x: float) -> float:
        return float(super().pdf(float(x)))

    def cdf(self, x: float) -> float:
        return float(self.mass_below(float(x)))

    def quantile(self, p: float) -> float:
        """Lower quantile inf{x : F(x) >= p}; p=0 gives the support's left
        endpoint, p=1 its essential supremum (inf for unbounded tails)."""
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise DensityError(f"quantile needs p in [0, 1], got {p!r}")
        return float(self.mass_quantile(p))

    def mass_quantile(self, m):
        """Lower quantile of each mass m, clamped to [0, 1]; a mass of 1
        gives the support's right end (inf for an unbounded tail)."""
        m = np.asarray(m, dtype=float)
        top = m >= 1.0
        q = super().mass_quantile(np.where(top, 0.0, m))
        return _result(np.where(top, self.support_hi, q))

    def tertiles(self) -> Tertiles:
        s1, s2 = self.mass_quantile([1.0 / 3.0, 2.0 / 3.0]).tolist()
        if not s1 < s2:
            raise DegenerateTertile(
                f"tertile boundaries collapse: s1={s1!r}, s2={s2!r}"
            )
        return Tertiles(s1=s1, s2=s2)

    def total_mass(self) -> float:
        """Sum of the segment masses, not the total pinned to 1."""
        return math.fsum(s.mass for s in self.segments)


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
