"""Global torus minimization, stationary sweep, implicit curve tracing."""

import itertools
import math

import numpy as np
import pytest

from radialmot import (
    AllInfinite,
    DegenerateRadii,
    alignment_condition,
    c_delta,
    c_pi,
    find_stationary_points,
    radial_cost,
    torus_distance,
    trace_implicit_curves,
)
from radialmot.minimize import _newton_lanes

PI = math.pi

# independent oracle: 1200x1200 grid scan + Nelder-Mead polish
BRUTE_1_2_14 = 0.4727546331949144


class TestRadialCost:
    def test_aligned_triple_hits_collinear_corner(self):
        res = radial_cost((1.0, 2.0, 15.0))
        assert res.value == c_pi((1.0, 2.0, 15.0))
        assert torus_distance(res.argmin.as_tuple(), (PI, 0.0)) < 1e-9

    def test_unaligned_triple_beats_collinear(self):
        res = radial_cost((1.0, 2.0, 14.0))
        assert res.value == pytest.approx(BRUTE_1_2_14, rel=1e-12)
        assert res.value < c_pi((1.0, 2.0, 14.0)) - 1e-8
        # interior minimum, clearly off the corner
        assert torus_distance(res.argmin.as_tuple(), (PI, 0.0)) > 0.2

    def test_equal_radii_equilateral(self):
        res = radial_cost((1.0, 1.0, 1.0))
        assert res.value == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert res.argmin.distance_to((-2 * PI / 3, 2 * PI / 3)) < 1e-9

    def test_deterministic_tie_break(self):
        a = radial_cost((1.0, 1.0, 1.0))
        b = radial_cost((1.0, 1.0, 1.0))
        assert a.argmin.as_tuple() == b.argmin.as_tuple()
        assert a.value == b.value

    def test_zero_radius_collinear(self):
        # one charge at the origin: distances 1, 2, 3 in the aligned layout
        res = radial_cost((0.0, 1.0, 2.0))
        assert res.value == pytest.approx(11.0 / 6.0, rel=1e-13)

    def test_all_zero_radii_rejected(self):
        with pytest.raises(AllInfinite):
            radial_cost((0.0, 0.0, 0.0))

    def test_two_zero_radii_rejected(self):
        # two charges pinned at the origin can never separate
        with pytest.raises(AllInfinite):
            radial_cost((0.0, 0.0, 1.0))

    def test_upper_bounds(self, rng):
        for _ in range(25):
            r = np.sort(rng.uniform(0.3, 4.0, 3))
            res = radial_cost(tuple(r))
            assert res.value <= c_delta(tuple(r)) + 1e-12
            assert res.value <= c_pi(tuple(r)) + 1e-12
            assert res.value <= res.grid_value + 1e-12


# radial_cost outputs pinned bit for bit: value, argmin, seed-node value as
# float.hex, then candidates and Newton iterations
KERNEL_PINS = {
    # closed form: P = 170 clears its rounding bound
    "aligned": (
        (1.0, 2.0, 15.0),
        ("0x1.dab623dab623ep-2", "-0x1.921fb54442d18p+1", "0x0.0p+0"),
        "0x1.dab623dab623ep-2",
        0,
        0,
    ),
    "unaligned": (
        (1.0, 2.0, 14.0),
        ("0x1.e419ca626b24fp-2", "-0x1.8f6ae828f55d4p+1", "0x1.004e3c84f28e8p-2"),
        "0x1.e41a41a41a41ap-2",
        1,
        5,
    ),
    # P = +6.6e-4 next to the threshold: a closed-form hit at c_pi
    "saddle_adjacent": (
        (0.0665, 0.0718, 5.503),
        ("0x1.e603be626c37cp+2", "-0x1.921fb54442d18p+1", "0x0.0p+0"),
        "0x1.e603be626c37cp+2",
        0,
        0,
    ),
    # the middle radius is the third, so charges 1 and 2 share an angle
    "overflow_1e-102": (
        (7.9263306018765e-102, 3.99493811827473e-105, 5.846079755145051e-105),
        ("0x1.6bdae351cbee2p+345", "0x0.0p+0", "-0x1.921fb54442d18p+1"),
        "0x1.6bdae351cbee2p+345",
        0,
        0,
    ),
    # computed at unit scale: the same Newton path as (1, 2, 14); the value
    # is the true minimum correctly rounded (a 40-digit stationary point)
    "scale_1e140": (
        (1e140, 2e140, 1.4e141),
        ("0x1.cd31aff0b2b62p-467", "-0x1.8f6ae828f55d4p+1", "0x1.004e3c84f28d0p-2"),
        "0x1.cd32218dc7b77p-467",
        1,
        5,
    ),
}


@pytest.mark.parametrize("case", sorted(KERNEL_PINS))
def test_radial_cost_bitwise_pin(case):
    r, (value, alpha, beta), grid_value, candidates, iterations = KERNEL_PINS[case]
    res = radial_cost(r)
    got = (res.value.hex(), res.argmin.alpha.hex(), res.argmin.beta.hex())
    assert got == (value, alpha, beta)
    assert res.grid_value.hex() == grid_value
    assert (res.candidates, res.iterations) == (candidates, iterations)


@pytest.mark.parametrize(
    "case, scale", [("overflow_1e-102", 1e-102), ("scale_1e140", 1e140)]
)
def test_extreme_scale_matches_unit_scale(case, scale):
    # the cost is homogeneous of degree -1
    r = KERNEL_PINS[case][0]
    unit = radial_cost(tuple(v / scale for v in r)).value / scale
    assert radial_cost(r).value == pytest.approx(unit, rel=1e-13)


def test_aligned_large_ratio_argmin_collinear():
    # `radialmot cost 1 2 1e6`: P ~ 1e18, so the value is c_pi in closed form
    r = (1.0, 2.0, 1e6)
    assert alignment_condition(r) > 1e17
    res = radial_cost(r)
    assert torus_distance(res.argmin.as_tuple(), (PI, 0.0)) <= 1e-6
    assert res.value == c_pi(r)


def test_descent_leaves_the_saddle_corner():
    # P = -80 makes the collinear corner a saddle with a vanishing
    # gradient; a lane seeded exactly there steps off along the negative
    # curvature into a basin
    r = (1.0, 2.0, 14.0)
    assert alignment_condition(r) == -80.0
    value, alpha, beta, iters = _newton_lanes(
        *(np.array([v]) for v in r), np.array([-PI]), np.array([0.0])
    )
    assert value[0] == pytest.approx(BRUTE_1_2_14, rel=1e-12)
    assert value[0] < c_pi(r)
    assert iters[0] > 0


def test_flat_basin_permutations_agree():
    # P = -134 puts this triple just below the threshold phi(1, 1.596) =
    # 17.35, where the basins next to the saddle corner are flat
    r = (1.0, 1.5958550820613697, 17.32032150984716)
    values = [radial_cost(p).value for p in itertools.permutations(r)]
    assert max(values) == pytest.approx(min(values), rel=1e-12)


# independent oracle for the flat-basin triple below: 1200x1200 grid scan +
# Nelder-Mead polish from the 50 lowest nodes
BRUTE_FLAT_BASIN = 0.49936597148398515


def test_flat_basin_reaches_the_minimum():
    r = (1.0, 1.5958550820613697, 17.32032150984716)
    assert radial_cost(r).value == pytest.approx(BRUTE_FLAT_BASIN, rel=1e-10)


# cost-scalar workload triples in flat basins, where a descent that stalls
# is left 1.0e-6 and 4.5e-6 relative high, each with an independent
# oracle: 1200x1200 grid scan + Nelder-Mead polish from the 50 lowest nodes
WORKLOAD_PINS = {
    "small_radii": (
        (0.023621655488605703, 0.03770472855508446, 0.41495016672935053),
        21.070755196854723,
    ),
    "middle_last": (
        (2.8151217682845022, 54.752025312888385, 4.1088404069995565),
        0.1806681651391046,
    ),
}


@pytest.mark.parametrize("case", sorted(WORKLOAD_PINS))
def test_workload_triple_reaches_the_minimum(case):
    r, oracle = WORKLOAD_PINS[case]
    assert radial_cost(r).value == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("scale", [1e9, 1e12])
def test_scaled_radii_reach_the_minimum(scale):
    # the cost is homogeneous of degree -1 and is computed at unit scale,
    # so Newton runs the same way at every scale
    base = radial_cost((1.0, 2.0, 14.0)).value
    res = radial_cost((1.0 * scale, 2.0 * scale, 14.0 * scale))
    assert res.iterations > 0
    assert res.value * scale == pytest.approx(base, rel=1e-10)


class TestStationaryPoints:
    def test_aligned_only_corners(self):
        rep = find_stationary_points((1.0, 2.0, 15.0))
        assert rep.only_corner_points
        assert len(rep.points) == 4
        assert rep.max_grad_norm < 1e-9
        kinds = sorted(p.classification for p in rep.points)
        assert kinds == ["max", "min", "saddle", "saddle"]

    def test_unaligned_gains_interior_pair(self):
        rep = find_stationary_points((1.0, 2.0, 14.0))
        assert not rep.only_corner_points
        assert len(rep.points) == 6
        interior = [
            p
            for p in rep.points
            if torus_distance(p.config.as_tuple(), (PI, 0.0)) > 1e-3
            and min(
                torus_distance(p.config.as_tuple(), c)
                for c in ((0.0, 0.0), (0.0, PI), (PI, PI))
            )
            > 1e-3
        ]
        assert len(interior) == 2
        assert all(p.classification == "min" for p in interior)
        # mirror symmetry (alpha, beta) -> (-alpha, -beta)
        c0 = interior[0].config.as_tuple()
        c1 = interior[1].config.as_tuple()
        assert torus_distance(c0, (-c1[0], -c1[1])) < 1e-6

    def test_collinear_corner_flips_class_with_alignment(self):
        def class_at_corner(r):
            rep = find_stationary_points(r)
            for p in rep.points:
                if torus_distance(p.config.as_tuple(), (PI, 0.0)) < 1e-9:
                    return p.classification
            raise AssertionError("collinear corner missing from sweep")

        assert class_at_corner((1.0, 2.0, 15.0)) == "min"
        assert class_at_corner((1.0, 2.0, 14.0)) == "saddle"

    def test_scale_free(self):
        # the sweep runs at unit scale, where its absolute tolerances hold
        base = find_stationary_points((1.0, 2.0, 14.0))
        for s in (2.0**-600, 2.0**600):
            rep = find_stationary_points((s * 1.0, s * 2.0, s * 14.0))
            assert rep.configs() == base.configs()
            assert [p.classification for p in rep.points] == [
                p.classification for p in base.points
            ]
            assert rep.max_grad_norm == base.max_grad_norm / s

    def test_convergence_bookkeeping(self):
        rep = find_stationary_points((1.0, 2.0, 15.0))
        assert rep.n_starts == 128 * 128
        assert rep.n_converged > 0


class TestImplicitCurves:
    def test_exact_slopes(self):
        cb = trace_implicit_curves((1.0, 2.0, 15.0))
        assert cb.slope_alpha_pi == pytest.approx(405.0 / 5488.0, rel=1e-14)
        assert cb.slope_alpha_hat_pi == pytest.approx(575.0 / 5488.0, rel=1e-14)

    def test_slopes_match_sampled_tangent(self):
        cb = trace_implicit_curves((1.0, 2.0, 15.0), n_beta=721)
        db = cb.beta[1] - cb.beta[0]
        fd_pi = (cb.alpha_pi[1] - cb.alpha_pi[0]) / db
        fd_hat = (cb.alpha_hat_pi[1] - cb.alpha_hat_pi[0]) / db
        assert fd_pi == pytest.approx(cb.slope_alpha_pi, rel=0.05)
        assert fd_hat == pytest.approx(cb.slope_alpha_hat_pi, rel=0.05)

    def test_confinement_between_chords(self):
        cb = trace_implicit_curves((1.0, 2.0, 15.0))
        assert cb.confinement_ok
        assert cb.max_confinement_violation < 1e-9
        assert np.all(cb.alpha_pi >= PI - 1e-12)
        assert np.all(cb.alpha_pi <= PI + cb.slope_alpha_pi * cb.beta + 1e-12)
        assert np.all(cb.alpha_hat_pi >= PI + cb.slope_alpha_hat_pi * cb.beta - 1e-12)
        assert np.all(cb.alpha_hat_pi <= PI + cb.beta + 1e-12)

    def test_endpoints(self):
        cb = trace_implicit_curves((1.0, 2.0, 15.0))
        assert cb.alpha_pi[0] == pytest.approx(PI, abs=1e-12)
        assert cb.alpha_0[0] == pytest.approx(2 * PI, abs=1e-12)
        assert cb.alpha_hat_0[0] == pytest.approx(0.0, abs=1e-12)
        assert cb.alpha_hat_pi[0] == pytest.approx(PI, abs=1e-12)

    def test_curves_on_stationary_locus(self):
        # every sampled point of alpha_pi solves g12(a) = -g13(b)
        from radialmot.minimize import _inv_dist_d1

        cb = trace_implicit_curves((1.0, 2.0, 15.0), n_beta=61)
        for b, a in zip(cb.beta[1:-1], cb.alpha_pi[1:-1]):
            res = -_inv_dist_d1(1.0, 2.0, a) - _inv_dist_d1(1.0, 15.0, b)
            assert abs(res) < 1e-10

    @pytest.mark.parametrize("k", [-600, 600])
    def test_scale_free(self, k):
        s = 2.0**k
        base = trace_implicit_curves((1.0, 2.0, 15.0), n_beta=9)
        cb = trace_implicit_curves((s * 1.0, s * 2.0, s * 15.0), n_beta=9)
        for name in ("beta", "alpha_pi", "alpha_0", "alpha_hat_pi", "alpha_hat_0"):
            assert np.array_equal(getattr(cb, name), getattr(base, name))
        assert cb.slope_alpha_pi == base.slope_alpha_pi
        assert cb.slope_alpha_hat_pi == base.slope_alpha_hat_pi

    def test_input_validation(self):
        with pytest.raises(DegenerateRadii):
            trace_implicit_curves((0.0, 2.0, 15.0))
        with pytest.raises(DegenerateRadii):
            trace_implicit_curves((2.0, 1.0, 15.0))
        with pytest.raises(ValueError):
            trace_implicit_curves((1.0, 2.0, 15.0), n_beta=1)
