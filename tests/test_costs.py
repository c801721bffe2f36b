"""Closed-form cost layer: pairwise terms, corners, alignment polynomial."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from radialmot import (
    AngularConfig,
    DegenerateRadii,
    EqualRadii,
    InvalidRadii,
    Radii,
    SingularConfiguration,
    alignment_condition,
    c_delta,
    c_pi,
    canonical_angle,
    corner_values,
    full_cost,
    g_profile,
    grad_hess,
    phi_threshold,
    torus_distance,
)

PI = math.pi


class TestAngles:
    def test_canonical_range(self):
        for t in (-7.0, -PI, 0.0, 1.0, PI, 9.4, 100.0):
            c = canonical_angle(t)
            assert -PI <= c < PI
            # same point on the circle
            assert abs(math.sin(c) - math.sin(t)) < 1e-12
            assert abs(math.cos(c) - math.cos(t)) < 1e-12

    def test_canonical_idempotent(self):
        for t in np.linspace(-10, 10, 37):
            assert canonical_angle(canonical_angle(t)) == canonical_angle(t)

    def test_torus_distance_wraps(self):
        assert torus_distance((0.0, 0.0), (2 * PI, 2 * PI)) < 1e-12
        d = torus_distance((PI - 0.1, 0.0), (-PI + 0.1, 0.0))
        assert abs(d - 0.2) < 1e-12

    def test_torus_distance_symmetric(self):
        a, b = (0.3, 1.1), (2.9, -0.4)
        assert torus_distance(a, b) == torus_distance(b, a)

    def test_angular_config_distance(self):
        cfg = AngularConfig(PI, 0.0)
        assert cfg.distance_to((PI, 2 * PI)) < 1e-12


class TestRadii:
    def test_negative_rejected(self):
        with pytest.raises(InvalidRadii):
            Radii(1.0, -2.0, 3.0)

    def test_nan_rejected(self):
        with pytest.raises(InvalidRadii):
            Radii(1.0, float("nan"), 3.0)

    def test_scaled(self):
        r = Radii(1.0, 2.0, 3.0).scaled(2.0)
        assert r.as_tuple() == (2.0, 4.0, 6.0)

    @pytest.mark.parametrize(
        "v", [np.int64(1), np.int32(1), np.float32(1.0), np.float64(1.0), 1]
    )
    def test_numpy_and_python_numbers_accepted(self, v):
        assert Radii(v, 2, 3).as_tuple() == (1.0, 2.0, 3.0)
        assert all(type(x) is float for x in Radii(v, v, v).as_tuple())

    @pytest.mark.parametrize("v", [True, np.bool_(True), "1", None])
    def test_non_numbers_rejected(self, v):
        # bool is an int, but True is no radius
        with pytest.raises(InvalidRadii, match="radii must be numbers"):
            Radii(v, 2.0, 3.0)

    def test_ordering_predicate(self):
        assert Radii(1.0, 2.0, 3.0).strictly_ordered
        assert not Radii(1.0, 1.0, 3.0).strictly_ordered
        with pytest.raises(DegenerateRadii):
            Radii(1.0, 1.0, 3.0).require_strictly_ordered()


class TestFullCost:
    def test_corner_values_123(self):
        # hand-computed pair distances for radii (1, 2, 3):
        # (0,0): 1, 2, 1   (0,pi): 1, 4, 5   (pi,0): 3, 2, 5   (pi,pi): 3, 4, 1
        cv = corner_values((1.0, 2.0, 3.0))
        assert cv.f00 == pytest.approx(2.5, abs=1e-14)
        assert cv.f0pi == pytest.approx(1.45, abs=1e-14)
        assert cv.fpi0 == pytest.approx(31.0 / 30.0, abs=1e-14)
        assert cv.fpipi == pytest.approx(19.0 / 12.0, abs=1e-14)
        assert cv.minimum() == cv.fpi0

    def test_collinear_corner_cheapest(self, rng):
        for _ in range(50):
            r = np.sort(rng.uniform(0.2, 5.0, 3))
            if r[0] == r[1] or r[1] == r[2]:
                continue
            cv = corner_values(tuple(r))
            assert cv.fpi0 < cv.f0pi < cv.f00
            assert cv.fpi0 < cv.fpipi

    def test_breakdown_sums(self):
        b = full_cost((1.0, 2.0, 3.0), (0.7, 2.1))
        assert b.total == pytest.approx(b.f12 + b.f13 + b.f23, abs=1e-15)

    def test_coincident_pair_is_infinite(self):
        b = full_cost((1.0, 1.0, 3.0), (0.0, 1.0))
        assert math.isinf(b.f12)
        assert math.isinf(b.total)

    def test_c_pi_values(self):
        assert c_pi((1.0, 2.0, 15.0)) == pytest.approx(
            1.0 / 3.0 + 1.0 / 14.0 + 1.0 / 17.0, abs=1e-14
        )
        assert math.isinf(c_pi((1.0, 2.0, 1.0)))

    def test_c_delta_equilateral(self):
        for ell in (0.5, 1.0, 3.0):
            assert c_delta((ell, ell, ell)) == pytest.approx(
                math.sqrt(3.0) / ell, rel=1e-14
            )

    def test_c_delta_is_full_cost_at_delta_angles(self):
        r = (1.0, 2.0, 3.0)
        direct = full_cost(r, (2 * PI / 3, 4 * PI / 3)).total
        assert c_delta(r) == pytest.approx(direct, abs=1e-15)


class TestAlignment:
    def test_reference_values(self):
        assert alignment_condition((1.0, 2.0, 15.0)) == 170.0
        assert alignment_condition((1.0, 2.0, 14.0)) == -80.0
        assert alignment_condition((1.0, 2.0, 20.0)) == 2530.0

    def test_homogeneous_degree_four(self, rng):
        for _ in range(40):
            r = np.sort(rng.uniform(0.3, 4.0, 3))
            lam = rng.uniform(0.5, 3.0)
            p = alignment_condition(tuple(r))
            ps = alignment_condition(tuple(lam * r))
            assert ps == pytest.approx(lam**4 * p, rel=1e-10, abs=1e-10)

    def test_phi_root_and_sign_change(self):
        phi = phi_threshold(1.0, 2.0)
        assert phi == pytest.approx((14.0 + 3.0 * math.sqrt(24.0)) / 2.0, rel=1e-15)
        assert alignment_condition((1.0, 2.0, phi)) == pytest.approx(0.0, abs=1e-9)
        h = 1e-4
        assert alignment_condition((1.0, 2.0, phi - h)) < 0.0
        assert alignment_condition((1.0, 2.0, phi + h)) > 0.0

    def test_phi_limit_at_zero(self):
        for b in (0.5, 1.0, 7.0):
            assert phi_threshold(0.0, b) == pytest.approx(b, rel=1e-14)

    def test_phi_increasing_in_first_argument(self):
        vals = [phi_threshold(a, 2.0) for a in np.linspace(0.0, 1.9, 20)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_phi_rejects_bad_order(self):
        with pytest.raises(DegenerateRadii):
            phi_threshold(2.0, 2.0)
        with pytest.raises(InvalidRadii):
            phi_threshold(-1.0, 2.0)


    def test_phi_value_path_matches_partials(self, rng):
        # phi_threshold computes the value alone in the normal range; it must
        # agree bit for bit with the value _phi_partials returns
        from radialmot.costs import _phi_partials

        r2 = 10.0 ** rng.uniform(-150, 150, 500)
        r1 = r2 * rng.uniform(0.0, 1.0, 500)
        for a, b in zip(r1.tolist(), r2.tolist()):
            assert phi_threshold(a, b) == _phi_partials(a, b)[0]

    @pytest.mark.parametrize("k", [-600, 700])
    @pytest.mark.parametrize("r", [(0.0, 1.0), (1.0, 2.0), (0.3, 0.31), (2.5, 40.0)])
    def test_phi_is_scale_free(self, k, r):
        # phi is homogeneous of degree 1 and evaluated at unit scale, where
        # scaling by a power of two is exact
        s = 2.0**k
        assert phi_threshold(s * r[0], s * r[1]) == s * phi_threshold(*r)


SCALES = [1e-160, 1e-100, 1e-60, 1.0, 1e60, 1e100, 1e155]


@pytest.mark.parametrize("scale", SCALES)
def test_closed_forms_are_scale_free(scale):
    # energies and their derivatives are homogeneous of degree -1 and P of
    # degree 4; all are evaluated at unit scale, so no scale overflows or
    # goes subnormal (and pytest's filterwarnings fails any RuntimeWarning);
    # abs=0 keeps approx's absolute 1e-12 from passing tiny values
    for r in ((1.0, 2.0, 30.0), (1.0, 2.0, 14.0), (3.0, 0.5, 2.0)):
        rs = tuple(scale * v for v in r)
        gs, hs = grad_hess(rs, (0.7, -1.3))
        g, h = grad_hess(r, (0.7, -1.3))
        assert gs * scale == pytest.approx(g, rel=1e-14, abs=0.0)
        assert hs * scale == pytest.approx(h, rel=1e-14, abs=0.0)
        assert c_pi(rs) == pytest.approx(c_pi(r) / scale, rel=1e-14, abs=0.0)
        assert c_delta(rs) == pytest.approx(c_delta(r) / scale, rel=1e-14, abs=0.0)
        for got, want in zip(
            corner_values(rs).as_tuple(), corner_values(r).as_tuple()
        ):
            assert got == pytest.approx(want / scale, rel=1e-14, abs=0.0)
        p, ps = alignment_condition(r), alignment_condition(rs)
        # rescaled by multiplication: +-inf on overflow, a signed zero on
        # underflow, never an OverflowError
        assert math.copysign(1.0, ps) == math.copysign(1.0, p)
        want = p * scale * scale * scale * scale
        if abs(want) > 1e-300:
            assert ps == pytest.approx(want, rel=1e-13)
        else:
            assert abs(ps) <= 1e-300


class TestGradHess:
    def test_gradient_vanishes_at_corners(self):
        r = (1.0, 2.0, 15.0)
        for cfg in ((0.0, 0.0), (0.0, PI), (PI, 0.0), (PI, PI)):
            g, _ = grad_hess(r, cfg)
            assert np.max(np.abs(g)) < 1e-14

    def test_hessian_closed_form_at_collinear_corner(self):
        r1, r2, r3 = 1.0, 2.0, 15.0
        _, h = grad_hess((r1, r2, r3), (PI, 0.0))
        s12 = r1 * r2 / (r1 + r2) ** 3
        s23 = r2 * r3 / (r2 + r3) ** 3
        s13 = -r1 * r3 / (r3 - r1) ** 3
        assert h[0, 0] == pytest.approx(s12 + s23, rel=1e-12)
        assert h[0, 1] == pytest.approx(-s23, rel=1e-12)
        assert h[1, 0] == h[0, 1]
        assert h[1, 1] == pytest.approx(s13 + s23, rel=1e-12)

    def test_det_sign_matches_alignment(self):
        for r in ((1.0, 2.0, 15.0), (1.0, 2.0, 14.0), (1.0, 2.0, 20.0), (2.0, 3.0, 9.0)):
            _, h = grad_hess(r, (PI, 0.0))
            det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
            assert math.copysign(1.0, det) == math.copysign(
                1.0, alignment_condition(r)
            )

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    def test_extreme_scales_are_finite_and_quiet(self, scale):
        # evaluated at the raw scale, these radii gave NaN, a spurious
        # SingularConfiguration or an overflow RuntimeWarning
        r = (1.0, 2.0, 30.0)
        gs, hs = grad_hess(tuple(scale * v for v in r), (PI, 0.0))
        g, h = grad_hess(r, (PI, 0.0))
        assert np.all(np.isfinite(gs)) and np.all(np.isfinite(hs))
        assert hs * scale == pytest.approx(h, rel=1e-14, abs=0.0)

    def test_singular_configuration_raises(self):
        with pytest.raises(SingularConfiguration):
            grad_hess((1.0, 1.0, 3.0), (0.0, 1.0))


class TestGProfile:
    def test_peak_location(self):
        g, gp, th = g_profile(1.0, 3.0, 1.0)
        assert g > 0.0
        _, gp_at_peak, _ = g_profile(1.0, 3.0, th)
        assert abs(gp_at_peak) < 1e-12
        # strictly rising before, falling after
        _, gp_lo, _ = g_profile(1.0, 3.0, th - 0.3)
        _, gp_hi, _ = g_profile(1.0, 3.0, th + 0.3)
        assert gp_lo > 0.0 > gp_hi

    def test_vector_argument(self):
        ts = np.linspace(0.1, 3.0, 11)
        g, gp, th = g_profile(1.0, 2.0, ts)
        assert g.shape == ts.shape
        assert np.all(g > 0.0)

    def test_equal_radii_rejected(self):
        with pytest.raises(EqualRadii):
            g_profile(2.0, 2.0, 1.0)

    def test_order_enforced(self):
        with pytest.raises(DegenerateRadii):
            g_profile(3.0, 1.0, 1.0)

    # rj is the unit-scale r3 of `sweep --what curves --r1 5e-324 --r2
    # 2.5368574515085826e-162 --r3 5.244783272764405e-78`; written as
    # -q + sqrt(...), the root of cos(theta_crit) cancels for small ri/rj
    # and, where rj^4 rounds, leaves a cosine far above 1
    _RJ = 0.6073044127503193

    @pytest.mark.parametrize("ratio", [1e-300, 1e-80, 1e-10, 1e-5, 0.3])
    def test_critical_angle_within_an_ulp(self, ratio):
        ri = ratio * self._RJ
        theta = g_profile(ri, self._RJ, 1.0)[2]
        exact = _acos50(_crit_cos50(ri, self._RJ))
        assert abs(Decimal(theta) - exact) <= Decimal(math.ulp(theta))

    @pytest.mark.parametrize("ratio", [0.999, 1.0 - 2.0**-26, math.nextafter(1.0, 0.0)])
    def test_critical_cosine_near_equal_radii(self, ratio):
        # acos is ill-conditioned near 1, so the cosine is what is checked;
        # it must not round above 1 (math domain error)
        ri = ratio * self._RJ
        theta = g_profile(ri, self._RJ, 1.0)[2]
        with localcontext() as ctx:
            ctx.prec = 50
            err = abs(_cos50(Decimal(theta)) - _crit_cos50(ri, self._RJ))
        assert err <= Decimal(math.ulp(1.0))

    @pytest.mark.parametrize("k", [-600, 600])
    def test_scale_free(self, k):
        # g and g' are homogeneous of degree -1, theta_crit of degree 0;
        # at 1e100, ri ** 4 overflows unless evaluated at unit scale
        s = 2.0**k
        ts = np.linspace(0.1, 3.0, 7)
        g, gp, th = g_profile(1.0, 3.0, ts)
        gs, gps, ths = g_profile(s * 1.0, s * 3.0, ts)
        assert ths == th
        assert np.array_equal(gs, g / s) and np.array_equal(gps, gp / s)
        assert math.isfinite(g_profile(1e100, 2e100, 1.0)[2])

    def test_matches_numeric_derivative_of_inverse_distance(self):
        # g = -d/dt (1/dist); central difference at a generic angle
        ri, rj, t, h = 1.0, 2.5, 1.3, 1e-6

        def inv(u):
            return full_cost((ri, rj, 10.0), (u, 5.0)).f12

        fd = -(inv(t + h) - inv(t - h)) / (2 * h)
        g, _, _ = g_profile(ri, rj, t)
        assert g == pytest.approx(fd, rel=1e-8)


def _crit_cos50(ri, rj):
    """cos(theta_crit) of g_profile at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        ri, rj = Decimal(ri), Decimal(rj)
        q = ri * ri + rj * rj
        return 6 * ri * rj / (q + (q * q + 12 * ri * ri * rj * rj).sqrt())


def _cos50(x):
    """cos(x) at 50 digits by its Taylor series."""
    with localcontext() as ctx:
        ctx.prec = 55
        total, term, k = Decimal(0), Decimal(1), 0
        while abs(term) > Decimal(10) ** -54:
            total += term
            k += 2
            term *= -x * x / (k * (k - 1))
        return +total


def _acos50(c):
    """acos(c) at 50 digits, by Newton's method on cos from math.acos."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(math.acos(float(c)))
        for _ in range(3):
            sin = (1 - _cos50(x) ** 2).sqrt()
            x += (_cos50(x) - c) / sin
        return x
