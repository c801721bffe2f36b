import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from scipy.optimize import brentq

from radialmot import (
    DensityError,
    PolySegment,
    PushforwardTailSegment,
    RadialDensity,
    TableSegment,
    block_density,
    example_piece_specs,
    uniform_density,
)
from radialmot import density
from radialmot.density import SegmentStack


class TestPolySegment:
    def test_constant_piece(self):
        seg = PolySegment(0.0, 2.0, [0.5])
        assert seg.mass == pytest.approx(1.0, abs=1e-15)
        assert seg.pdf(1.3) == 0.5
        assert seg.mass_below(0.5) == pytest.approx(0.25, abs=1e-15)
        assert seg.quantile_within(0.25) == pytest.approx(0.5, abs=1e-15)

    def test_linear_piece_quantile_roundtrip(self):
        seg = PolySegment(0.0, 1.0, [0.5, 1.0])  # density 1/2 + x, mass 1
        for m in np.linspace(0.0, seg.mass, 17):
            x = seg.quantile_within(m)
            assert seg.mass_below(x) == pytest.approx(m, abs=1e-12)

    def test_negative_polynomial_rejected(self):
        # 1 - 3x dips below zero inside [0, 1]
        with pytest.raises(DensityError):
            PolySegment(0.0, 1.0, [1.0, -3.0])

    def test_interior_dip_detected(self):
        # positive at both endpoints, negative at the vertex
        with pytest.raises(DensityError):
            PolySegment(0.0, 1.0, [0.2, -2.0, 2.0])

    def test_bad_interval_rejected(self):
        with pytest.raises(DensityError):
            PolySegment(1.0, 1.0, [1.0])


class _NumpyPolySegment:
    """The earlier PolySegment written with np.polynomial.Polynomial: the
    antiderivative in global x minus anti(lo), Brent plus polish for every
    degree above 0.  The reference that pdf must equal bit for bit and
    that masses and quantiles must be no farther from the oracle than."""

    def __init__(self, lo, hi, coeffs):
        self.lo, self.hi = lo, hi
        self.poly = np.polynomial.Polynomial(coeffs)
        self.anti = self.poly.integ()
        self.anti_lo = float(self.anti(lo))
        self.mass = float(self.anti(hi)) - self.anti_lo

    def pdf(self, x):
        return max(float(self.poly(x)), 0.0)

    def mass_below(self, x):
        if x <= self.lo:
            return 0.0
        if x >= self.hi:
            return self.mass
        return min(max(float(self.anti(x)) - self.anti_lo, 0.0), self.mass)

    def quantile_within(self, m):
        m = min(max(m, 0.0), self.mass)
        if m == 0.0:
            return self.lo
        if m == self.mass:
            return self.hi
        if self.poly.degree() == 0:
            return self.lo + m / self.poly.coef[0]
        x = float(
            brentq(
                lambda t: self.mass_below(t) - m,
                self.lo,
                self.hi,
                xtol=1e-14,
                rtol=8.9e-16,
            )
        )
        for _ in range(2):
            d = self.pdf(x)
            if d > 1e-12:
                x = min(max(x - (self.mass_below(x) - m) / d, self.lo), self.hi)
        return x


def _random_pieces(degree):
    """Twelve seeded pieces of one degree, positive on their intervals."""
    rng = np.random.default_rng(100 + degree)
    pieces = []
    for _ in range(12):
        lo = float(rng.choice([0.0, -1.0, rng.uniform(0.0, 5.0)]))
        hi = lo + float(rng.uniform(0.01, 3.0))
        coeffs = rng.normal(size=degree + 1)
        # lift the constant term until the piece is positive on [lo, hi]
        reach = max(abs(lo), abs(hi))
        coeffs[0] = 0.1 + sum(abs(c) * reach**j for j, c in enumerate(coeffs))
        pieces.append((lo, hi, [float(c) for c in coeffs]))
    return pieces


def _example_pieces(index):
    """Piece `index` of the built-in rho1 + rho2 over s1 in 0.8935..0.98
    and boundary ratio 3.6..8: 0 the cubic, 1 the constant, 2 rho2."""
    pieces = []
    for s1 in np.linspace(0.8935, 0.98, 7):
        for ratio in np.linspace(3.6, 8.0, 8):
            rho1, rho2 = example_piece_specs(float(s1), 1.0, float(ratio))
            pieces.append([*rho1, *rho2][index])
    return pieces


_PIECE_FAMILIES = {
    **{f"degree{d}": (lambda d=d: _random_pieces(d)) for d in range(5)},
    "rho1_cubic": lambda: _example_pieces(0),
    "rho1_constant": lambda: _example_pieces(1),
    "rho2_linear": lambda: _example_pieces(2),
}


@pytest.mark.parametrize("family", sorted(_PIECE_FAMILIES))
def test_poly_segment_pdf_bitwise_masses_and_quantiles_near_oracle(family):
    """pdf equals numpy's Polynomial bit for bit, ±0.0 included, and so
    does a constant piece's quantile for a given mass.  mass,
    mass_below and quantiles are measured against a 60-digit oracle of
    the piece's exact antiderivative: masses within 32 ulps of the
    piece's mass, and mean errors no worse than the numpy reference,
    which integrates in global x and subtracts anti(lo)."""
    rng = np.random.default_rng(7)
    mass_ulps, below, quant = [], {"new": [], "ref": []}, {"new": [], "ref": []}
    for lo, hi, coeffs in _PIECE_FAMILIES[family]():
        seg, ref = PolySegment(lo, hi, coeffs), _NumpyPolySegment(lo, hi, coeffs)
        oracle = _Oracle(lo, hi, coeffs)
        mass_ulps.append(oracle.mass_ulps(seg.mass))
        xs = [lo, hi, -0.0, 0.0, lo - 1.0, hi + 1.0, float(np.nextafter(lo, hi))]
        xs += rng.uniform(lo, hi, 40).tolist()
        for x in xs:
            assert seg.pdf(x).hex() == ref.pdf(x).hex(), (coeffs, lo, hi, x)
            if x <= lo:
                assert seg.mass_below(x) == 0.0
            elif x >= hi:
                assert seg.mass_below(x) == seg.mass
            else:
                below["new"].append(oracle.mass_ulps(seg.mass_below(x), x))
                below["ref"].append(oracle.mass_ulps(ref.mass_below(x), x))
        assert [seg.quantile_within(m) for m in (0.0, -0.1)] == [lo, lo]
        assert [seg.quantile_within(m) for m in (seg.mass, 1.1 * seg.mass)] == [hi, hi]
        ms = rng.uniform(0.0, seg.mass, 12).tolist() + [seg.mass_below(0.5 * (lo + hi))]
        for m in ms:
            q, q_ref = seg.quantile_within(m), ref.quantile_within(m)
            if len(coeffs) == 1:  # lo + m / c0 has nothing to integrate
                assert q == q_ref
            quant["new"].append(oracle.root_ulps(m, q))
            quant["ref"].append(oracle.root_ulps(m, q_ref))
    assert max(mass_ulps) <= 32.0
    assert max(below["new"]) <= 32.0
    assert np.mean(below["new"]) <= np.mean(below["ref"])
    assert np.mean(quant["new"]) <= np.mean(quant["ref"])
    # at the rounding floor of a few ulps the larger of two maxima is a
    # coin toss, so the max must be no worse than the reference's or
    # within that floor; the rho2 pieces must reach the floor
    assert max(quant["new"]) <= max(*quant["ref"], 4.0)
    if family == "rho2_linear":
        assert max(quant["new"]) <= 4.0


class _Oracle:
    """A piece's exact antiderivative at 60 digits: partial masses in
    ulps of the piece's mass, and quantiles as the distance to the exact
    root in ulps of the interval scale max(|lo|, |hi|), the resolution of
    a float x on the interval."""

    def __init__(self, lo, hi, coeffs):
        self.lo = lo
        with localcontext() as ctx:
            ctx.prec = 60
            self.c = [Decimal(c) for c in coeffs]
            self.mass = self.below(hi)
        self.mass_unit = Decimal(math.ulp(float(self.mass)))
        self.x_unit = Decimal(math.ulp(max(abs(lo), abs(hi))))

    def _anti(self, x):
        return sum(c * x ** (j + 1) / (j + 1) for j, c in enumerate(self.c))

    def below(self, x):
        return self._anti(Decimal(x)) - self._anti(Decimal(self.lo))

    def mass_ulps(self, got, x=None):
        with localcontext() as ctx:
            ctx.prec = 60
            exact = self.mass if x is None else self.below(x)
            return float(abs(Decimal(got) - exact) / self.mass_unit)

    def root_ulps(self, m, x):
        with localcontext() as ctx:
            ctx.prec = 60
            r = Decimal(x)
            for _ in range(8):
                pdf = sum(c * r**j for j, c in enumerate(self.c))
                r -= (self.below(r) - Decimal(m)) / pdf
            return float(abs(Decimal(x) - r) / self.x_unit)


class TestSegmentStack:
    def test_cumulative_mass_matches_numpy_cumsum(self):
        segs = [
            PolySegment(0.0, 0.3, [1.1, 0.2]),
            PolySegment(0.3, 0.7, [0.7]),
            PolySegment(1.0, 2.5, [0.1, 0.3, 0.05]),
        ]
        stack = SegmentStack(segs)
        cum = np.concatenate([[0.0], np.cumsum([s.mass for s in segs])])
        assert list(stack._cum) == cum.tolist()
        assert stack.total == float(cum[-1])

    def test_mass_at_a_cumulative_boundary_resolves_left(self):
        # the lower quantile of a mass that ends a segment is that
        # segment's right end, not the next segment's left end
        segs = [
            PolySegment(0.0, 1.0, [0.25]),
            PolySegment(2.0, 3.0, [0.5]),
            PolySegment(5.0, 6.0, [0.25]),
        ]
        stack = SegmentStack(segs)
        assert list(stack._cum) == [0.0, 0.25, 0.75, 1.0]
        assert stack.mass_quantile(0.25) == 1.0
        assert stack.mass_quantile(0.75) == 3.0
        assert stack.mass_quantile(np.nextafter(0.25, 1.0)) == 2.0
        assert stack.mass_quantile(0.0) == 0.0
        assert stack.mass_quantile(2.0) == 6.0


class TestStackArrays:
    """mass_below and mass_quantile on arrays mixing segment kinds and
    gaps: elementwise equal to one call per lane, with the lower-inverse
    rule at every cumulative boundary."""

    @pytest.fixture(scope="class")
    def rho(self):
        return RadialDensity(
            [
                PolySegment(0.0, 1.0, [0.25]),
                TableSegment([2.0, 2.5, 3.0], [0.25, 0.5, 0.75]),
                # 0.75 (x - 5)^2, which vanishes at its left end
                PolySegment(5.0, 6.0, [18.75, -7.5, 0.75]),
            ]
        )

    def test_mass_quantile(self, rho):
        cum = [float(c) for c in rho._cum]
        ms = [0.0, 1.0, 0.1, 0.5, 0.9, *cum]
        ms += [float(np.nextafter(c, d)) for c in cum[1:-1] for d in (0.0, 1.0)]
        ms += [float(np.nextafter(0.0, 1.0)), float(np.nextafter(1.0, 0.0))]
        got = rho.mass_quantile(ms)
        assert got.tolist() == [rho.mass_quantile(m) for m in ms]
        assert got.tolist() == [rho.quantile(m) for m in ms]
        assert got[:2].tolist() == [0.0, 6.0]
        # a mass that ends a segment resolves to that segment's right end,
        # the next float up to the next segment
        for k, seg in enumerate(rho.segments[:-1]):
            assert rho.mass_quantile(cum[k + 1]) == seg.hi
            above = rho.mass_quantile(np.nextafter(cum[k + 1], 1.0))
            assert rho.segments[k + 1].lo <= above < rho.segments[k + 1].hi
        # the Galois inequality F(Q(m)) >= m, up to the rounding of F
        assert np.all(rho.mass_below(got) >= np.array(ms) - 1e-15)

    def test_mass_below(self, rho):
        xs = [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.2, 2.5, 3.0, 4.0, 5.0, 5.5, 6.0, 7.0]
        xs += [float(np.nextafter(x, d)) for x in (1.0, 2.0, 3.0, 5.0) for d in (0.0, 9.0)]
        got = rho.mass_below(xs)
        assert got.tolist() == [rho.mass_below(x) for x in xs]
        assert got.tolist() == [rho.cdf(x) for x in xs]
        assert np.all(np.diff(rho.mass_below(sorted(xs))) >= 0.0)
        assert rho.mass_below([-1.0, 1.5, 4.0, 7.0]).tolist() == [0.0, 0.25, 0.75, 1.0]


def _blow_up(x):
    """An increasing map of [0, 1) onto [1, inf), elementwise."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(x < 1.0, 1.0 + x / (1.0 - x), math.inf)


def _blow_up_prime(x):
    return 1.0 / (1.0 - x) ** 2


def _nan_at(f, knot):
    """f, but NaN at the knot alone."""

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x - knot) < 1e-9, math.nan, f(x))

    return g


def _tail(forward, prime=_blow_up_prime):
    src = SegmentStack([PolySegment(0.0, 1.0, [1.0 / 3.0])])
    return PushforwardTailSegment(1.0, src, lambda x: (forward(x), prime(x)))


def _spy_starts(monkeypatch):
    """Record the brackets and starts of each ``_solve_increasing`` call."""
    starts = []
    solve = density._solve_increasing

    def spy(f, target, lo, hi, start):
        starts.append((lo, hi, start))
        return solve(f, target, lo, hi, start)

    monkeypatch.setattr(density, "_solve_increasing", spy)
    return starts


_WALK = [1.0 - 0.5**k for k in range(1, 40)]
_WALK_POINTS = [
    *_WALK,
    *(0.5 * (a + b) for a, b in zip(_WALK, _WALK[1:])),
    *(0.002, 0.37, 1.0 - 1e-13, 1.0 - 3e-15),
]


class TestTailInverse:
    def test_inverts_at_and_between_walk_points(self):
        seg = _tail(_blow_up)
        for x in _WALK_POINTS:
            assert seg.inverse(_blow_up(x)) == pytest.approx(x, rel=1e-14)

    def test_root_below_a_non_finite_knot(self):
        """forward is NaN at the knot 97/128 alone: a root just below it is
        bracketed from 96/128, where the running maximum was last reached,
        and not answered by the NaN knot itself."""
        seg = _tail(_nan_at(_blow_up, 97.0 / 128.0))
        assert seg.inverse(_blow_up(0.755)) == pytest.approx(0.755, rel=1e-14)

    def test_non_finite_knot_brackets_from_the_last_maximum(self, monkeypatch):
        """forward is NaN at the knot 97/128 alone: the bracket of a root
        above it starts at 96/128, Newton starts at the cubic Hermite point
        of the inverse, 1000x nearer the root than the secant point, and
        the walk points still invert."""
        starts = _spy_starts(monkeypatch)
        seg = _tail(_nan_at(_blow_up, 97.0 / 128.0))
        xs = np.array([0.76, 0.3])
        assert seg.inverse(_blow_up(xs)) == pytest.approx(xs, rel=1e-14)
        for lo, hi, start, x in zip(*starts[-1], xs):
            assert lo < x < hi
            assert hi - lo == pytest.approx(2.0 / 128.0 if x == 0.76 else 1.0 / 128.0)
            f_lo, f_hi = _blow_up(lo), _blow_up(hi)
            secant = lo + (_blow_up(x) - f_lo) / (f_hi - f_lo) * (hi - lo)
            assert abs(start - x) < 1e-3 * abs(secant - x)
        for x in _WALK_POINTS:
            assert seg.inverse(_blow_up(x)) == pytest.approx(x, rel=1e-14)

    def test_non_finite_slope_falls_back_to_the_secant_start(self, monkeypatch):
        """forward' is NaN at the knot 97/128 alone: Newton starts at the
        secant point in the two brackets that end there, at the cubic
        Hermite point elsewhere."""
        knot = 97.0 / 128.0
        starts = _spy_starts(monkeypatch)
        seg = _tail(_blow_up, _nan_at(_blow_up_prime, knot))
        xs = np.array([0.755, 0.76, 0.3])
        assert seg.inverse(_blow_up(xs)) == pytest.approx(xs, rel=1e-14)
        for lo, hi, start, x in zip(*starts[-1], xs):
            assert lo < x < hi
            f_lo, f_hi = _blow_up(lo), _blow_up(hi)
            secant = lo + (_blow_up(x) - f_lo) / (f_hi - f_lo) * (hi - lo)
            if min(abs(lo - knot), abs(hi - knot)) < 1e-9:
                assert start == secant
            else:
                assert abs(start - x) < 1e-3 * abs(secant - x)

    def test_at_or_below_lo_is_zero(self):
        seg = _tail(_blow_up)
        assert seg.inverse(1.0) == 0.0
        assert seg.inverse(0.5) == 0.0

    def test_nan_is_rejected(self):
        seg = _tail(_blow_up)
        with pytest.raises(DensityError, match="bracket"):
            seg.inverse(math.nan)


class _ScipyTable(TableSegment):
    """The table piece as scipy's monotone PCHIP evaluates it: pdf and
    mass_below from ``PchipInterpolator`` and its antiderivative, and
    quantile_within by the segment's own root finder over those two."""

    def __init__(self, x, density):
        from scipy.interpolate import PchipInterpolator

        self.interp = PchipInterpolator(x, density, extrapolate=False)
        self.integral = self.interp.antiderivative()
        super().__init__(x, density)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        v = self.interp(x.clip(self.lo, self.hi))
        return np.where((x < self.lo) | (x > self.hi) | (v < 0.0), 0.0, v)

    def mass_below(self, x):
        x = np.asarray(x, dtype=float).clip(self.lo, self.hi)
        return self.integral(x).clip(0.0, self.mass)


def _random_tables(rng, count):
    """Seeded tables of 2 to 8 knots, unevenly spaced, with values drawn
    log-uniform in [1e-10, 1e10], uniform with zeros, or from {0, 1, 2}
    (flat runs); an all-zero table gets one value of 1."""
    for i in range(count):
        n = int(rng.integers(2, 9))
        x = rng.uniform(0.0, 10.0) + np.cumsum(10.0 ** rng.uniform(-2.0, 2.0, n))
        if i % 3 == 0:
            y = 10.0 ** rng.uniform(-10.0, 10.0, n)
        elif i % 3 == 1:
            y = np.where(rng.uniform(size=n) < 0.3, 0.0, rng.uniform(0.0, 3.0, n))
        else:
            y = rng.integers(0, 3, n).astype(float)
        if not y.any():
            y[0] = 1.0
        yield x, y


class TestTableSegment:
    # the density_io and stack tests' tables
    FIXED_TABLES = [
        (np.linspace(0.0, 2.0, 31), np.full(31, 0.5)),
        (np.linspace(2.0, 3.0, 5), np.full(5, 0.5)),
        (np.linspace(2.0, 3.0, 11), np.full(11, 0.5)),
        ([2.0, 2.5, 3.0], [0.25, 0.5, 0.75]),
        ([0.0, 1.0, 2.0], [10.0, 11.0, 1.0]),  # left end slope clipped to 3 m0
    ]

    def test_bitwise_equal_to_scipy_pchip(self, rng):
        """mass, pdf, mass_below and quantile_within equal scipy's PCHIP
        bit for bit, inside and outside [lo, hi], on 1,200 seeded tables
        that cover each branch of the knot slopes."""
        seen = dict.fromkeys(["two knots", "flat run", "sign change", "zero", "clipped end"], 0)
        tables = [*self.FIXED_TABLES, *_random_tables(rng, 1200)]
        for x, y in tables:
            x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
            seg, ref = TableSegment(x, y), _ScipyTable(x, y)
            assert seg.mass == float(ref.integral(ref.hi))
            inside = np.concatenate([x, (x[1:] + x[:-1]) / 2.0, rng.uniform(x[0], x[-1], 8)])
            width = x[-1] - x[0]
            outside = [x[0] - width, np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf), x[-1] + 1.0]
            probes = np.concatenate([inside, outside])
            assert seg.pdf(probes).tolist() == ref.pdf(probes).tolist()
            assert seg.mass_below(probes).tolist() == ref.mass_below(probes).tolist()
            masses = seg.mass * np.concatenate([[-0.1, 0.0, 1.0, 1.1], rng.uniform(0.0, 1.0, 6)])
            assert seg.quantile_within(masses).tolist() == ref.quantile_within(masses).tolist()
            m = np.diff(y) / np.diff(x)
            slopes = ref.interp.c[2]
            seen["two knots"] += x.size == 2
            seen["flat run"] += bool(np.any(m == 0.0))
            seen["sign change"] += bool(np.any((m[1:] * m[:-1] < 0.0) & (slopes[1:] == 0.0)))
            seen["zero"] += bool(np.any(y == 0.0))
            seen["clipped end"] += bool(m[0] != 0.0 and slopes[0] == 3.0 * m[0])
        assert min(seen.values()) > 0, seen
        span = np.ptp(np.log10([v for _, y in tables for v in np.asarray(y) if v > 0.0]))
        assert span > 19.0

    def test_pchip_matches_linear_data(self):
        xs = np.linspace(0.0, 1.0, 21)
        seg = TableSegment(xs, 2.0 * xs)  # density 2x, mass 1
        assert seg.mass == pytest.approx(1.0, abs=1e-12)
        assert seg.pdf(0.4) == pytest.approx(0.8, abs=1e-12)
        assert seg.quantile_within(0.25) == pytest.approx(0.5, abs=1e-9)

    def test_monotone_grid_required(self):
        with pytest.raises(DensityError):
            TableSegment([0.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0, 1.0])

    def test_huge_values_raise_a_typed_error(self):
        # the secant slope 2e308 overflows; no RuntimeWarning may escape
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DensityError, match="slope"):
                TableSegment([0.0, 0.5, 1.0], [1.0, 1e308, 1.0])

    def test_huge_span_raises_a_typed_error(self):
        # the powers of the width 2^400 overflow in the mass; no
        # RuntimeWarning may escape
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DensityError, match="mass"):
                TableSegment([0.0, 2.0**400], [1.0, 2.0])

    def test_negative_values_rejected(self):
        with pytest.raises(DensityError):
            TableSegment([0.0, 1.0], [1.0, -0.1])


def _mixed_density():
    """A constant piece and a table piece, each of mass 1/2."""
    xs = np.linspace(2.0, 3.0, 11)
    return RadialDensity([PolySegment(0.0, 1.0, [0.5]), TableSegment(xs, np.full(11, 0.5))])


class TestRadialDensity:
    def test_uniform_basics(self, uniform):
        assert uniform.pdf(0.5) == 1.0
        assert uniform.pdf(1.5) == 0.0
        assert uniform.cdf(0.25) == pytest.approx(0.25, abs=1e-15)
        assert uniform.quantile(0.25) == pytest.approx(0.25, abs=1e-15)
        t = uniform.tertiles()
        assert t.s1 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert t.s2 == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_blocks_tertiles_at_block_edges(self, blocks):
        t = blocks.tertiles()
        assert t.s1 == pytest.approx(1.0, abs=1e-12)
        assert t.s2 == pytest.approx(3.0, abs=1e-12)

    def test_blocks_gap_has_zero_density(self, blocks):
        assert blocks.pdf(1.5) == 0.0
        assert blocks.cdf(1.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
        # lower quantile jumps across the gap
        assert blocks.quantile(1.0 / 3.0) == pytest.approx(1.0, abs=1e-12)
        assert blocks.quantile(1.0 / 3.0 + 1e-9) > 2.0 - 1e-6

    def test_quantile_cdf_galois(self, blocks, rng):
        for p in rng.uniform(0.0, 1.0, 200):
            x = blocks.quantile(float(p))
            assert blocks.cdf(x) >= p - 1e-10

    def test_quantile_range_validation(self, uniform):
        with pytest.raises(DensityError):
            uniform.quantile(-0.1)
        with pytest.raises(DensityError):
            uniform.quantile(1.1)

    def test_mass_must_be_one(self):
        with pytest.raises(DensityError):
            RadialDensity([PolySegment(0.0, 1.0, [0.9])])

    def test_overlap_rejected(self):
        with pytest.raises(DensityError):
            RadialDensity(
                [PolySegment(0.0, 1.0, [0.5]), PolySegment(0.5, 1.5, [0.5])]
            )

    def test_negative_support_rejected(self):
        with pytest.raises(DensityError):
            RadialDensity([PolySegment(-0.5, 0.5, [1.0])])

    def test_mixed_segments(self):
        rho = _mixed_density()
        assert rho.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert rho.cdf(2.5) == pytest.approx(0.75, abs=1e-9)

    def test_total_mass_sums_the_segments(self):
        # the cumulative stack pins its last entry to 1; total_mass does not
        rho = RadialDensity([PolySegment(0.0, 1.0, [1.0 - 5e-11])])
        assert rho.total == 1.0
        assert rho.total_mass() == 1.0 - 5e-11

    def test_quadrature_cross_check(self, uniform, blocks):
        """Adaptive quadrature of each segment's pdf gives its mass."""
        from scipy.integrate import quad

        for rho in (uniform, blocks, _mixed_density()):
            for seg in rho.segments:
                assert quad(seg.pdf, seg.lo, seg.hi, limit=200)[0] == pytest.approx(
                    seg.mass, abs=1e-12
                )
            assert rho.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_support_endpoints(self, blocks):
        assert blocks.support_lo == 0.0
        assert blocks.support_hi == 16.0
        assert blocks.quantile(0.0) == 0.0
        assert blocks.quantile(1.0) == 16.0


class TestFactories:
    def test_uniform_window(self):
        rho = uniform_density(2.0, 4.0)
        assert rho.pdf(3.0) == 0.5
        assert rho.tertiles().s1 == pytest.approx(2.0 + 2.0 / 3.0, abs=1e-12)

    def test_block_masses_equal(self):
        rho = block_density([(0.0, 1.0), (2.0, 4.0)])
        assert rho.cdf(1.0) == pytest.approx(0.5, abs=1e-12)
        assert rho.pdf(3.0) == pytest.approx(0.25, abs=1e-12)

    def test_empty_blocks_rejected(self):
        with pytest.raises(DensityError):
            block_density([])
