"""Invariance and scaling properties under randomized inputs."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialmot import (
    alignment_condition,
    c_delta,
    c_pi,
    canonical_angle,
    full_cost,
    grad_hess,
    lift_radial_triple,
    radial_cost,
    torus_distance,
)
from radialmot.minimize import _radial_cost_batch

PI = math.pi

finite_angle = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


class TestAngleAlgebra:
    @given(finite_angle)
    def test_canonical_in_range(self, t):
        c = canonical_angle(t)
        assert -PI <= c < PI

    @given(finite_angle)
    def test_canonical_preserves_point(self, t):
        c = canonical_angle(t)
        assert abs(math.cos(c) - math.cos(t)) < 1e-9
        assert abs(math.sin(c) - math.sin(t)) < 1e-9

    @given(finite_angle, finite_angle, finite_angle, finite_angle)
    @settings(max_examples=60)
    def test_torus_metric_axioms(self, a1, a2, b1, b2):
        a, b = (a1, a2), (b1, b2)
        d = torus_distance(a, b)
        assert d >= 0.0
        assert torus_distance(b, a) == d
        assert torus_distance(a, a) == 0.0
        # wrap invariance in both coordinates
        shifted = (b1 + 2 * PI, b2 - 4 * PI)
        assert torus_distance(a, shifted) == pytest.approx(d, abs=1e-9)


class TestScalingLaws:
    def test_cost_inverse_homogeneity(self, rng):
        # c(lambda r) = c(r) / lambda
        for _ in range(60):
            r = np.sort(rng.uniform(0.3, 4.0, 3))
            if r[1] - r[0] < 1e-6 or r[2] - r[1] < 1e-6:
                continue
            lam = rng.uniform(0.5, 3.0)
            base = radial_cost(tuple(r)).value
            scaled = radial_cost(tuple(lam * r)).value
            assert scaled == pytest.approx(base / lam, rel=1e-10)

    def test_collinear_and_equilateral_scaling(self, rng):
        for _ in range(40):
            r = np.sort(rng.uniform(0.3, 4.0, 3))
            if r[2] - r[0] < 1e-6:
                continue
            lam = rng.uniform(0.4, 2.5)
            assert c_pi(tuple(lam * r)) == pytest.approx(
                c_pi(tuple(r)) / lam, rel=1e-12
            )
            assert c_delta(tuple(lam * r)) == pytest.approx(
                c_delta(tuple(r)) / lam, rel=1e-12
            )

    @given(
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.25, max_value=4.0),
    )
    @settings(max_examples=80)
    def test_alignment_degree_four(self, r1, r2, r3, lam):
        p = alignment_condition((r1, r2, r3))
        ps = alignment_condition((lam * r1, lam * r2, lam * r3))
        assert ps == pytest.approx(lam**4 * p, rel=1e-9, abs=1e-9)

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=1.25, max_value=4.0),
        st.floats(min_value=1.25, max_value=4.0),
        st.floats(min_value=-PI, max_value=PI),
        st.floats(min_value=-PI, max_value=PI),
        st.integers(min_value=-997, max_value=996),
    )
    @settings(max_examples=80)
    def test_grad_hess_degree_minus_one(self, r1, q2, q3, a, b, k):
        # lam = 2^k spans 1e-300..1e300 and scales the radii exactly: a
        # decimal lam moves them by an ulp, which the Hessian's closed form
        # magnifies near the inflection angle of a pair term.  Gradient and
        # Hessian share a unit, so both are measured against the largest
        # entry of either: a gradient at a corner is rounding noise
        lam = 2.0**k
        r = (r1, q2 * r1, q3 * q2 * r1)
        g, h = grad_hess(r, (a, b))
        gs, hs = grad_hess(tuple(lam * v for v in r), (a, b))
        top = max(np.max(np.abs(g)), np.max(np.abs(h)))
        assert np.max(np.abs(gs * lam - g)) <= 1e-13 * top
        assert np.max(np.abs(hs * lam - h)) <= 1e-13 * top


class TestPermutationSymmetry:
    def test_value_is_permutation_invariant(self, rng):
        for _ in range(20):
            r = np.sort(rng.uniform(0.3, 3.0, 3))
            if r[1] - r[0] < 1e-6 or r[2] - r[1] < 1e-6:
                continue
            base = radial_cost(tuple(r)).value
            for perm in itertools.permutations(r):
                assert radial_cost(perm).value == pytest.approx(base, rel=1e-10)

    def test_full_cost_swap_symmetry(self, rng):
        # swapping charges 2 and 3 mirrors the angles (alpha, beta) -> (beta, alpha)
        for _ in range(30):
            r1, r2, r3 = rng.uniform(0.3, 3.0, 3)
            a, b = rng.uniform(-PI, PI, 2)
            lhs = full_cost((r1, r2, r3), (a, b)).total
            rhs = full_cost((r1, r3, r2), (b, a)).total
            if math.isinf(lhs) or math.isinf(rhs):
                continue
            assert lhs == pytest.approx(rhs, rel=1e-12)


# radius triples (1, q2, q3) in any order, q log-uniform on [1, 1e12]
log_ratio = st.floats(min_value=0.0, max_value=12.0)
log_scale = st.floats(min_value=-150.0, max_value=150.0)


@st.composite
def unit_triples(draw):
    r = (1.0, 10.0 ** draw(log_ratio), 10.0 ** draw(log_ratio))
    return tuple(r[i] for i in draw(st.permutations(range(3))))


def _scaled(r, log_s):
    s = 10.0**log_s
    return s, tuple(s * v for v in r)


class TestKernelProperties:
    @given(unit_triples(), log_scale)
    @settings(max_examples=80, deadline=None)
    def test_closed_form_hits_are_c_pi_at_a_collinear_argmin(self, r, log_s):
        _, r = _scaled(r, log_s)
        res = radial_cost(r)
        if res.candidates > 0:
            return
        assert res.iterations == 0 and res.grid_value == res.value
        assert math.copysign(1.0, alignment_condition(tuple(sorted(r)))) > 0.0
        assert res.value == c_pi(tuple(sorted(r)))
        # the middle radius sits opposite the other two
        angles = (0.0, res.argmin.alpha, res.argmin.beta)
        middle = sorted(range(3), key=r.__getitem__)[1]
        outer = [angles[i] for i in range(3) if i != middle]
        assert outer[0] == outer[1]
        assert abs(math.remainder(angles[middle] - outer[0], 2 * PI)) == PI

    @given(unit_triples(), log_scale)
    @settings(max_examples=60, deadline=None)
    def test_inverse_homogeneity_at_every_scale(self, r, log_s):
        s, rs = _scaled(r, log_s)
        assert radial_cost(rs).value * s == pytest.approx(
            radial_cost(r).value, rel=1e-13
        )

    @given(unit_triples(), log_scale)
    @settings(max_examples=30, deadline=None)
    def test_value_is_permutation_invariant(self, r, log_s):
        # exact for closed-form hits; elsewhere every ordering descends to
        # a global minimum, so the values agree to rounding
        _, r = _scaled(r, log_s)
        base = radial_cost(r)
        for perm in itertools.permutations(r):
            value = radial_cost(perm).value
            if base.candidates == 0:
                assert value == base.value
            assert value == pytest.approx(base.value, rel=1e-12)

    @given(st.lists(st.tuples(unit_triples(), log_scale), min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_batch_rows_equal_batches_of_one(self, rows):
        radii = [_scaled(r, log_s)[1] for r, log_s in rows]
        batch = _radial_cost_batch(radii)
        for i, r in enumerate(radii):
            one = _radial_cost_batch([r])
            for got, want in zip(batch, one):
                assert got[i : i + 1].tobytes() == want.tobytes()


class TestRotationLift:
    def test_planar_costs_match_angular_minimum(self, rng):
        for _ in range(15):
            r = np.sort(rng.uniform(0.4, 3.5, 3))
            if r[1] - r[0] < 1e-3 or r[2] - r[1] < 1e-3:
                continue
            lift = lift_radial_triple(tuple(r), n_rotations=8)
            assert lift.max_cost_deviation < 1e-9


class TestQuantileGalois:
    def test_cdf_quantile_inverse_pair(self, uniform, blocks, rng):
        for rho in (uniform, blocks):
            for p in rng.uniform(0.001, 0.999, 150):
                x = rho.quantile(float(p))
                # lower quantile: F(x) >= p, and F(y) < p strictly below x
                assert rho.cdf(x) >= p - 1e-10
                assert rho.cdf(x - 1e-7) <= rho.cdf(x) + 1e-12

    def test_monotone(self, blocks, rng):
        ps = np.sort(rng.uniform(0.0, 1.0, 60))
        xs = [blocks.quantile(float(p)) for p in ps]
        assert all(a <= b + 1e-12 for a, b in zip(xs, xs[1:]))
