"""Global torus minimization, stationary sweep, implicit curve tracing."""

import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radialmot
from radialmot import (
    AllInfinite,
    DegenerateRadii,
    RadialMotError,
    RootNotBracketed,
    alignment_condition,
    c_delta,
    c_pi,
    find_stationary_points,
    full_cost,
    grad_hess,
    phi_threshold,
    radial_cost,
    torus_distance,
    trace_implicit_curves,
)
from radialmot import costs, minimize
from radialmot.costs import (
    _energy_terms,
    _grad_hess_arrays,
    _inv_dist,
    _inv_dist_derivs,
    _pairs,
    _unit_scale,
    _unit_scales,
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

    @pytest.mark.xfail(
        strict=True,
        raises=AllInfinite,
        reason="at unit scale the squared distance of the two small radii "
        "underflows to 0, so every configuration reads as coincident",
    )
    def test_two_tiny_radii_are_finite(self):
        # P > 0, so the minimum is c_pi, about 3.3e199
        r1, r2, r3 = 1e-200, 2e-200, 1.0
        expected = 1.0 / (r1 + r2) + 1.0 / (r3 - r1) + 1.0 / (r2 + r3)
        assert radial_cost((r1, r2, r3)).value == pytest.approx(expected, rel=1e-12)

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


def test_seed_grid_matches_the_direct_sum_bitwise(rng, monkeypatch):
    # the kernel builds the grid from per-pair tables; the reference is the
    # direct sum over all 36 nodes, in the order of the builtin sum; the
    # seeded rows span two chunks
    base = np.sort(rng.uniform(0.3, 4.0, size=(8000, 3)), axis=1)
    special = [
        (1.0, 2.0, 15.0),  # aligned
        (0.0, 1.0, 2.0),  # r1 = 0, aligned
        (0.0, 1.0, 1.0),  # r1 = 0, P = 0
        (0.0, 0.0, 1.0),  # two zero radii
        (1.0, 1.0, 1.0),
        (1.0, 1.0, 3.0),
        (1.0, 1.0 + 1e-12, 1.0 + 2e-12),
        (1.0, 1.0000000001, 5.0),
    ]
    r = np.vstack([special, base])
    r *= 10.0 ** rng.uniform(-150.0, 150.0, size=(len(r), 1))
    r = rng.permuted(r, axis=1)
    seeds = []

    def spy(r1, r2, r3, a, b, fval):
        seeds.append((a, b, fval))
        return _newton_lanes(r1, r2, r3, a, b, fval)

    monkeypatch.setattr(minimize, "_newton_lanes", spy)
    value, _, _, grid_value, candidates, _ = minimize._radial_cost_batch(r)
    seeded = np.flatnonzero(candidates == 1)
    assert seeded.size > minimize._ROW_CHUNK and len(seeds) > 1
    s = np.array([_unit_scale(top) for top in r.max(axis=1)])
    q = r[seeded] / s[seeded, None]
    with np.errstate(divide="ignore"):
        terms = _energy_terms(
            q[:, :1], q[:, 1:2], q[:, 2:], minimize._SEED_A, minimize._SEED_B
        )
    f = sum(terms)
    node = np.argmin(f, axis=1)
    start = f[np.arange(seeded.size), node]
    assert grid_value[seeded].tobytes() == (start / s[seeded]).tobytes()
    # Newton starts from the grid's energy at the chosen node, unscaled
    a, b, fval = (np.concatenate(v) for v in zip(*seeds))
    assert a.tobytes() == minimize._SEED_A[node].tobytes()
    assert b.tobytes() == minimize._SEED_B[node].tobytes()
    assert fval.tobytes() == start.tobytes()
    closed = np.flatnonzero(candidates == 0)
    assert np.array_equal(grid_value[closed], value[closed])

    tops = np.array([0.0, 5e-324, 1.0, sys.float_info.max])
    want = np.array([_unit_scale(t) for t in tops])
    assert _unit_scales(tops).tobytes() == want.tobytes()


def test_stacked_pair_pass_matches_per_pair_calls(rng):
    # the descent evaluates the three pairs in one stacked pass; each pair's
    # terms are bitwise those of its own call, inf and NaN included
    m = 400
    r1, r2, r3 = np.sort(rng.uniform(0.01, 1.0, size=(3, m)), axis=0)
    a, b = rng.uniform(-PI, PI, size=(2, m))
    r2[:40], a[:20] = r1[:40], 0.0  # pair 12 coincident at 0 on 20 lanes
    r3[40:80], b[40:60] = r2[40:80] * (1.0 + 1e-15), a[40:60]  # pair 23
    b[60:80] = a[60:80] + 1e-9
    r3[80:100], b[80:100] = r1[80:100], 1e-300  # pair 13 within rounding of 0
    pairs = tuple(zip((0, 0, 1), (1, 2, 2), (a, b, a - b)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for radii in ((r1, r2, r3), (0.3, 0.3, 0.9)):
            single = [(radii[i], radii[j], t) for i, j, t in pairs]
            p, h = _inv_dist_derivs(*_pairs(*radii, a, b))
            f = _inv_dist(*_pairs(*radii, a, b))
            for k, args in enumerate(single):
                want_p, want_h = _inv_dist_derivs(*args)
                assert p[k].tobytes() == want_p.tobytes()
                assert h[k].tobytes() == want_h.tobytes()
                assert f[k].tobytes() == _inv_dist(*args).tobytes()
            (p12, s12), (p13, s13), (p23, s23) = (_inv_dist_derivs(*x) for x in single)
            want = (p12 + p23, p13 - p23, s12 + s23, -s23, s13 + s23)
            got = _grad_hess_arrays(*radii, a, b)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
            energy = sum(_energy_terms(*radii, a, b))
            assert sum(f).tobytes() == energy.tobytes()
            assert np.isinf(energy).any() and np.isnan(got[0]).any()


def test_chunked_batch_matches_any_split(rng, monkeypatch):
    # a batch over two chunks equals, bitwise, the same rows split at a
    # boundary that is no chunk's, and sampled rows run as batches of one;
    # a chunk makes one descent, and a batch with no seeded row none
    n = 2 * minimize._ROW_CHUNK
    q = 10.0 ** rng.uniform(0.0, 1.4, size=(n, 2))
    r = np.column_stack([np.ones(n), q]) * 10.0 ** rng.uniform(-150, 150, (n, 1))
    r = rng.permuted(r, axis=1)
    descents = []

    def spy(*args):
        descents.append(args[0].size)
        return _newton_lanes(*args)

    monkeypatch.setattr(minimize, "_newton_lanes", spy)
    whole = minimize._radial_cost_batch(r)
    seeded, chunk = np.count_nonzero(whole[4]), minimize._ROW_CHUNK
    assert descents == [chunk, seeded - chunk] and seeded < n - 100
    minimize._radial_cost_batch(r[whole[4] == 0])
    assert len(descents) == 2
    head, tail = (minimize._radial_cost_batch(part) for part in (r[:5000], r[5000:]))
    for got, x, y in zip(whole, head, tail):
        assert got.tobytes() == np.concatenate([x, y]).tobytes()
    for i in rng.choice(n, 20, replace=False):
        for got, one in zip(whole, minimize._radial_cost_batch(r[i : i + 1])):
            assert got[i : i + 1].tobytes() == one.tobytes()


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
    q1, q2, q3 = (np.array([v]) for v in r)
    a, b = np.array([-PI]), np.array([0.0])
    fval = sum(_energy_terms(q1, q2, q3, a, b))
    value, alpha, beta, iters = _newton_lanes(q1, q2, q3, a, b, fval)
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


# recorded from the 128 x 128 multistart sweep that the torque census
# replaced: the census test triples and the CI smoke triples, each mapped to
# its interior minimum with alpha > 0 (None where the corners are all there is)
CENSUS_PINS = {
    (1.0, 2.0, 15.0): None,
    (1.0, 2.0, 14.0): (3.1204500433393516, -0.2502983957523437),
    (1.0, 1.5, 20.0): None,
    (0.3, 1.0, 9.0): None,
    (1.0, 2.0, 3.0): (2.325976586629345, -1.9166509607975104),
    (1.0, 2.0, 16.5): None,
    (1.0, 2.0, 30.0): None,
    (1e-150, 2e-150, 3e-150): (2.325976586629345, -1.9166509607975104),
    (1e-150, 2e-150, 1.65e-149): None,
    (1e-150, 2e-150, 3e-149): None,
    (1.0, 2.0, 100000.0): None,
    (1.0, 2.0, 100000000.0): None,
    (1.0, 1.000001, 3.0): (2.594182164911693, -1.8445013116946676),
    (1.0, 1.000001, 16.5): (3.1124542318948, -1.585363013391693),
    (1.0, 1.000001, 30.0): (3.132722712536557, -1.575226521246597),
}


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
        # the sweep runs at unit scale, so points and classes do not move
        base = find_stationary_points((1.0, 2.0, 14.0))
        for s in (2.0**-600, 2.0**600):
            rep = find_stationary_points((s * 1.0, s * 2.0, s * 14.0))
            assert rep.configs() == base.configs()
            assert [p.classification for p in rep.points] == [
                p.classification for p in base.points
            ]
            assert rep.max_grad_norm == base.max_grad_norm / s

    @pytest.mark.parametrize("r", list(CENSUS_PINS))
    def test_census_matches_pins(self, r):
        # the collinear corner (pi, 0) is a minimum where no interior pair
        # exists and a saddle between the pair's two minima where one does
        interior = CENSUS_PINS[r]
        rep = find_stationary_points(r)
        pinned = [((0.0, 0.0), "max"), ((0.0, PI), "saddle"), ((PI, PI), "saddle")]
        pinned.append(((PI, 0.0), "min" if interior is None else "saddle"))
        if interior is not None:
            pinned += [(interior, "min"), ((-interior[0], -interior[1]), "min")]
        assert len(rep.points) == len(pinned)
        for config, kind in pinned:
            near = [p for p in rep.points if p.config.distance_to(config) <= 1e-9]
            assert [p.classification for p in near] == [kind]

    @pytest.mark.parametrize(
        "r", [(1e-160, 3e-160, 1.0), (1.31e-115, 3.9e-19, 4.6e139), (1.0, 1 + 1e-13, 3.0)]
    )
    def test_lost_corner_is_typed(self, r):
        # a pair distance the unit scale cannot resolve hides a corner from
        # the sweep; this used to warn and return a census without corners
        # (a leaked RuntimeWarning fails the test)
        with pytest.raises(DegenerateRadii, match="stationary sweep lost a corner"):
            find_stationary_points(r)

    @pytest.mark.parametrize("d", [0.0, 1e-12, -1e-12, 1e-8, -1e-8])
    def test_census_near_the_threshold_is_small(self, d):
        # at r3 = phi(1, 2) the collinear corner is a pitchfork; absolute
        # gradient tolerances used to leave a cloud of 68-78 points here
        rep = find_stationary_points((1.0, 2.0, phi_threshold(1.0, 2.0) + d))
        assert len(rep.points) <= 6


def _census_triples():
    """Three families of strictly ordered triples: ratio at most 20.8, r3/r2
    up to 1e8 with r2 up to 1e3, and a pair with relative gap 1e-6..1e-1."""
    u = st.floats(0.05, 1.0)
    small = st.tuples(u, u, u).map(lambda t: tuple(sorted((t[0], t[1], 20.8 * t[2]))))
    wide = st.tuples(st.floats(0.01, 3.0), st.floats(0.5, 8.0)).map(
        lambda e: (1.0, 10.0 ** e[0], 10.0 ** (e[0] + e[1]))
    )
    tied = st.tuples(st.floats(-6.0, -1.0), st.floats(0.5, 2.0)).map(
        lambda e: (1.0, 1.0 + 10.0 ** e[0], 10.0 ** e[1])
    )
    return small.filter(lambda r: 0.0 < r[0] < r[1] < r[2]) | wide | tied


@given(r=_census_triples())
@settings(max_examples=40, deadline=None)
def test_census_obeys_the_morse_relation(r):
    """On the torus #min - #saddle + #max = 0; every census has the four
    corners and at most one mirrored pair more, none of them degenerate.
    Scale-dependent tolerances used to break this where a pair is stiff."""
    kinds = [p.classification for p in find_stationary_points(r).points]
    assert "degenerate" not in kinds
    assert len(kinds) in (4, 6)
    assert kinds.count("min") - kinds.count("saddle") + kinds.count("max") == 0


@given(r=_census_triples())
@settings(max_examples=40, deadline=None)
def test_census_minima_are_the_kernel_argmin(r):
    """Where P < 0 the census's minima are the kernel's argmin and its
    mirror, at its value; where P > 0 the census holds only the corners
    and the kernel closes the triple in form.  The kernel stops where its
    Newton model decrease is at most 1e-15 of the value, so on a flat
    minimum its argmin can lie 4e-5 away: the distance e is measured by
    e H e / 2 against that rule."""
    rep, res = find_stationary_points(r), radial_cost(r)
    if alignment_condition(r) > 0.0:
        assert rep.only_corner_points
        assert res.candidates == 0
        return
    m = res.argmin.as_tuple()
    mins = [p.config.as_tuple() for p in rep.points if p.classification == "min"]
    assert len(mins) == 2
    for c in mins:
        e = min(
            (np.array([math.remainder(x - sign * y, 2 * PI) for x, y in zip(c, m)])
             for sign in (1.0, -1.0)),
            key=lambda v: np.abs(v).max(),
        )
        assert 0.5 * e @ grad_hess(r, c)[1] @ e <= 1e-15 * res.value
        assert full_cost(r, c).total == pytest.approx(res.value, rel=1e-13)


class TestImplicitCurves:
    @pytest.mark.parametrize("n_beta", [2.5, True, 1])
    def test_sample_count_is_an_integer_of_at_least_two(self, n_beta):
        # 2.5 used to end in an untyped TypeError from linspace
        with pytest.raises(ValueError, match="n_beta must be an integer of at least 2"):
            trace_implicit_curves((1.0, 2.0, 15.0), n_beta=n_beta)

    def test_near_equal_radii_trace_without_warning(self):
        # curves or a typed error, with no floating-point warning on the way
        try:
            trace_implicit_curves((1.0, 1.0000000001, 5.0), n_beta=5)
        except RadialMotError:
            pass

    @pytest.mark.parametrize("r2", [1.000001, 1.0000001])
    def test_near_equal_radii_trace(self, r2):
        # g12 is exactly 0 at the bracket end 2 pi: the rounded sin(2 pi)
        # times D^(-3/2) read -1959 there at r2 = 1.000001 and hid the root
        cb = trace_implicit_curves((1.0, r2, 5.0))
        assert cb.confinement_ok
        assert np.all((PI <= cb.alpha_pi) & (cb.alpha_pi <= cb.alpha_0))
        assert np.all(cb.alpha_0 <= 2 * PI)

    def test_far_apart_radii_trace_without_warning(self):
        # curves or a typed error, with no floating-point warning on the way:
        # at the triple's unit scale r1 and r2 are near 3e-255 and 8e-159,
        # so their squared distance is subnormal, and D ** -1.5 overflowed
        # before g was evaluated at the pair's own scale
        try:
            trace_implicit_curves((1.31e-115, 3.9e-19, 4.6e139))
        except RadialMotError:
            pass

    def test_subnormal_pair_traces_on_the_locus(self):
        # at the triple's unit scale r1 and r2 are subnormal, near 1.6e-317
        # and 1.1e-313, so g12 there overflows; evaluated that way it warned
        # and put alpha_0 at 6.185 for every interior beta.  Residuals are
        # taken at each pair's own unit scale, where g12 is of order 1e-4
        r = (2.0966e-223, 1.4195e-219, 1.2695e94)
        try:
            cb = trace_implicit_curves(r)
        except RootNotBracketed:
            return
        u = [v / _unit_scale(r[2]) for v in r]

        def g(ri, rj, t):
            s = _unit_scale(rj)
            return -_inv_dist_derivs(ri / s, rj / s, t)[0], s

        g13 = g(u[0], u[2], cb.beta)[0]
        for a in (cb.alpha_pi, cb.alpha_0):
            g12, s12 = g(u[0], u[1], a)
            assert np.max(np.abs(g12 + s12 * g13)) < 1e-12
        for a in (cb.alpha_hat_pi, cb.alpha_hat_0):
            g23, s23 = g(u[1], u[2], a - cb.beta)
            assert np.max(np.abs(g23 - s23 * g13)) < 1e-12

    @pytest.mark.parametrize(
        "r, bracket",
        [((1.0, 1.0000000001, 5.0), "alpha_0: no sign change on [6.28319, 6.28319]"),
         ((1.0, 4.9999999999, 5.0), "alpha_hat_0: no sign change on [0, 0]")],
    )
    def test_empty_bracket_is_typed(self, r, bracket):
        # a critical angle that rounds to 0 leaves a one-point bracket at a
        # multiple of pi, where g is 0 and is not evaluated
        with pytest.raises(RootNotBracketed, match=re.escape(bracket)):
            trace_implicit_curves(r)

    def test_lane_without_sign_change_is_typed(self, monkeypatch):
        # a critical angle of 1e-3 cuts the alpha_0 bracket to [2 pi - 1e-3,
        # 2 pi], where g12 stays above -g13(beta) for the larger targets; the
        # message names the first such lane, with f = g12(alpha) + g13(beta)
        # at the bracket ends and g12(2 pi) = 0
        monkeypatch.setattr(costs, "_critical_angle", lambda ri, rj: 1e-3)
        g12_lo = -_inv_dist_derivs(1 / 16, 2 / 16, 2 * PI - 1e-3)[0]
        g13 = -_inv_dist_derivs(1 / 16, 15 / 16, np.linspace(0.0, PI, 181))[0]
        k = np.argmax(g12_lo + g13 > 0.0)
        msg = "alpha_0: no sign change on [6.28219, 6.28319] "
        msg += f"(f(lo)={g12_lo + g13[k]:.3e}, f(hi)={g13[k]:.3e})"
        with pytest.raises(RootNotBracketed, match=re.escape(msg)):
            trace_implicit_curves((1.0, 2.0, 15.0))

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
        # every sampled point solves g12(a) = -g13(b) (alpha branches) or
        # g23(a - b) = g13(b) (alpha_hat branches), at unit scale
        def g(ri, rj, t):
            return -_inv_dist_derivs(ri / 16.0, rj / 16.0, t)[0]

        cb = trace_implicit_curves((1.0, 2.0, 15.0), n_beta=61)
        g13 = g(1.0, 15.0, cb.beta)
        for a in (cb.alpha_pi, cb.alpha_0):
            assert np.max(np.abs(g(1.0, 2.0, a) + g13)) < 1e-12
        for a in (cb.alpha_hat_pi, cb.alpha_hat_0):
            assert np.max(np.abs(g(2.0, 15.0, a - cb.beta) - g13)) < 1e-12

    @pytest.mark.parametrize("k", [-600, 600])
    def test_scale_free(self, k):
        s = 2.0**k
        base = trace_implicit_curves((1.0, 2.0, 15.0), n_beta=9)
        cb = trace_implicit_curves((s * 1.0, s * 2.0, s * 15.0), n_beta=9)
        for name in ("beta", "alpha_pi", "alpha_0", "alpha_hat_pi", "alpha_hat_0"):
            assert np.array_equal(getattr(cb, name), getattr(base, name))
        assert cb.slope_alpha_pi == base.slope_alpha_pi
        assert cb.slope_alpha_hat_pi == base.slope_alpha_hat_pi

    def test_tracer_and_census_leave_scipy_optimize_unloaded(self):
        src = str(Path(radialmot.__file__).resolve().parents[1])
        code = (
            "import sys, radialmot as r; r.trace_implicit_curves((1, 2, 15)); "
            "r.find_stationary_points((1, 2, 14)); "
            "print('scipy.optimize' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"

    def test_input_validation(self):
        with pytest.raises(DegenerateRadii):
            trace_implicit_curves((0.0, 2.0, 15.0))
        with pytest.raises(DegenerateRadii):
            trace_implicit_curves((2.0, 1.0, 15.0))
        with pytest.raises(ValueError):
            trace_implicit_curves((1.0, 2.0, 15.0), n_beta=1)
