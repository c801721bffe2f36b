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

    def test_finer_grid_agrees(self):
        # the interior basin near (1, 2, 14) is ~2e-6 deep; a 64-point grid
        # lands on the corner saddle instead, so only test grids fine enough
        # to seed polishing inside the basin
        res = radial_cost((1.0, 2.0, 14.0), grid=512)
        assert res.value == pytest.approx(BRUTE_1_2_14, rel=1e-10)

    def test_coarse_grid_reports_corner(self):
        # below the resolution limit the corner value is the honest answer
        res = radial_cost((1.0, 2.0, 14.0), grid=64)
        assert res.value <= c_pi((1.0, 2.0, 14.0)) + 1e-12


# radial_cost outputs pinned bit for bit: value, argmin, grid value as
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
        ("0x1.e419ca626b24fp-2", "-0x1.8f6ae83278dedp+1", "0x1.004e38fffd820p-2"),
        "0x1.e419d5c163b1ep-2",
        6,
        22,
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
    # computed at unit scale: the same Newton path as (1, 2, 14)
    "scale_1e140": (
        (1e140, 2e140, 1.4e141),
        ("0x1.cd31aff0b2b61p-467", "-0x1.8f6ae83278dedp+1", "0x1.004e38fffd840p-2"),
        "0x1.cd31bac5ed85fp-467",
        6,
        22,
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


@pytest.mark.xfail(
    strict=True,
    reason="an 8-node grid seeds only the corner saddle, which Newton keeps",
)
def test_coarse_grid_leaves_saddle_corner():
    # `radialmot cost 1 2 14 --grid 8` returns c_pi although P = -80 makes
    # the collinear corner a saddle
    r = (1.0, 2.0, 14.0)
    assert alignment_condition(r) == -80.0
    res = radial_cost(r, grid=8)
    assert res.value < c_pi(r)


@pytest.mark.xfail(
    strict=True,
    reason="descent steps on the saddle side of a flat basin stall at the "
    "Newton iteration cap",
)
def test_flat_basin_permutations_agree():
    # P = -134 puts this triple just below the threshold phi(1, 1.596) =
    # 17.35; every refined lane of every ordering ends at the 80-iteration
    # cap, and the orderings disagree by 8.6e-8
    r = (1.0, 1.5958550820613697, 17.32032150984716)
    values = [radial_cost(p).value for p in itertools.permutations(r)]
    assert max(values) == pytest.approx(min(values), rel=1e-12)


# independent oracle for the flat-basin triple below: 1200x1200 grid scan +
# Nelder-Mead polish from the 50 lowest nodes
BRUTE_FLAT_BASIN = 0.49936597148398515


@pytest.mark.xfail(
    strict=True,
    reason="every lane seeded by the 256-node grid stalls at the Newton "
    "iteration cap 2.5e-6 relative above the minimum",
)
def test_flat_basin_reaches_the_minimum():
    # the six orderings return 0.49936720 to 0.49936725 at grids 64 to
    # 256, every refined lane at the iteration cap; grids 512 and 1024
    # reach the oracle
    r = (1.0, 1.5958550820613697, 17.32032150984716)
    assert radial_cost(r).value == pytest.approx(BRUTE_FLAT_BASIN, rel=1e-10)


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

    def test_input_validation(self):
        with pytest.raises(DegenerateRadii):
            trace_implicit_curves((0.0, 2.0, 15.0))
        with pytest.raises(DegenerateRadii):
            trace_implicit_curves((2.0, 1.0, 15.0))
        with pytest.raises(ValueError):
            trace_implicit_curves((1.0, 2.0, 15.0), n_beta=1)
