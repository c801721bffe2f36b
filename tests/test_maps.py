"""Branch maps for the four tertile patterns and their diagnostics."""

import math

import pytest

from radialmot import (
    PATTERNS,
    SeidlMap,
    build_map,
    check_map,
    example_counterexample_density,
)


class TestPatternTable:
    def test_pattern_constants(self):
        assert set(PATTERNS) == {"III", "DDI", "DID", "IDD"}

    def test_unknown_pattern_rejected(self, uniform):
        with pytest.raises(ValueError):
            build_map(uniform, "IID")


class TestUniformOrbits:
    """On the uniform density the CDF is the identity, so the branch
    formulas act on points directly."""

    def test_ddi_orbit(self, uniform):
        T = build_map(uniform, "DDI")
        x = 0.1
        tx = T(x)
        t2x = T(tx)
        assert tx == pytest.approx(2.0 / 3.0 - 0.1, abs=1e-12)
        assert t2x == pytest.approx(2.0 / 3.0 + 0.1, abs=1e-12)
        assert T(t2x) == pytest.approx(x, abs=1e-12)

    def test_iii_orbit_translates(self, uniform):
        T = build_map(uniform, "III")
        assert T(0.2) == pytest.approx(0.2 + 1.0 / 3.0, abs=1e-12)
        assert T(0.5) == pytest.approx(0.5 + 1.0 / 3.0, abs=1e-12)
        assert T(0.9) == pytest.approx(0.9 - 2.0 / 3.0, abs=1e-12)

    def test_did_orbit(self, uniform):
        T = build_map(uniform, "DID")
        # branch 0 decreasing onto the middle third
        assert T(0.1) == pytest.approx(2.0 / 3.0 - 0.1, abs=1e-12)
        # branch 1 increasing onto the last third
        assert T(0.5) == pytest.approx(0.5 + 1.0 / 3.0, abs=1e-12)
        # branch 2 decreasing back onto the first third
        assert T(5.0 / 6.0) == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_branch_index(self, uniform):
        T = build_map(uniform, "DDI")
        assert T.branch_index(0.2) == 0
        assert T.branch_index(0.5) == 1
        assert T.branch_index(0.9) == 2

    def test_three_cycle(self, uniform):
        for pattern in PATTERNS:
            T = build_map(uniform, pattern)
            for x in (0.05, 0.21, 0.48, 0.77, 0.93):
                assert T.iterate(x, 3) == pytest.approx(x, abs=1e-10)


class TestBlockOrbits:
    def test_ddi_center_orbit(self, blocks):
        T = build_map(blocks, "DDI")
        x, tx, t2x = T.orbit(0.5)
        assert (x, tx, t2x) == pytest.approx((0.5, 2.5, 15.5), abs=1e-9)

    def test_mass_coordinates(self, blocks):
        # branch maps reduce to u -> 2/3 - u -> 2/3 + u on masses
        T = build_map(blocks, "DDI")
        for u in (0.05, 0.15, 0.30):
            x = blocks.quantile(u)
            assert blocks.cdf(T(x)) == pytest.approx(2.0 / 3.0 - u, abs=1e-9)


    def test_orbit_of_mass_matches_point_orbit(self, blocks):
        # the mass orbit takes no cdf, so it agrees with the point orbit
        # up to the cdf-quantile round trip
        for pattern in PATTERNS:
            T = build_map(blocks, pattern)
            for m in (0.05, 0.15, 0.30):
                got = T.orbit_of_mass(m)
                assert got == pytest.approx(T.orbit(blocks.quantile(m)), abs=1e-12)

    def test_orbit_of_mass_endpoints(self, blocks):
        # m = 0 continues the DDI orbit to the tertile boundaries
        T = build_map(blocks, "DDI")
        assert T.orbit_of_mass(0.0) == (0.0, 3.0, 3.0)


class TestDiagnostics:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_uniform_all_patterns_pass(self, uniform, pattern):
        diag = check_map(build_map(uniform, pattern), n_probe=301)
        assert diag.ok
        assert diag.max_cycle_error < 1e-9
        assert diag.max_pushforward_error < 1e-9
        assert diag.violations == ()

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_blocks_all_patterns_pass(self, blocks, pattern):
        diag = check_map(build_map(blocks, pattern), n_probe=301)
        assert diag.ok

    def test_monotone_directions_follow_letters(self, uniform):
        for pattern in PATTERNS:
            diag = check_map(build_map(uniform, pattern), n_probe=120)
            assert diag.monotone_ok == (True, True, True)

    def test_probe_count_recorded(self, uniform):
        diag = check_map(build_map(uniform, "DDI"), n_probe=55)
        assert diag.n_probes == 55


class TestCycleToleranceRelative:
    """The cycle check scales with max(1, |x|).  With 4000 probes the
    far-tail probes of this counterexample reach x = 4025, where the three
    quantile inversions of a cycle leave absolute errors of 3.3e-9 to
    3.6e-9 (about 1e-12 relative)."""

    @pytest.fixture(scope="class")
    def far_tail(self):
        return example_counterexample_density(s1=0.9573, s2=1.0, ratio=4.697, k=1)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_far_tail_probes_pass(self, far_tail, pattern):
        assert far_tail.quantile(3999.5 / 4000) == pytest.approx(4024.8, abs=0.1)
        diag = check_map(build_map(far_tail, pattern), n_probe=4000)
        assert diag.max_cycle_error > 1e-9
        assert diag.ok, diag.violations

    def test_perturbed_map_still_fails(self, far_tail):
        class Perturbed(SeidlMap):
            def __call__(self, x):
                return super().__call__(x) * (1.0 + 1e-9)

        smap = build_map(far_tail, "III")
        broken = Perturbed(smap.density, smap.pattern, smap.tertiles)
        diag = check_map(broken, n_probe=300)
        assert not diag.cycle_ok
        assert not diag.ok
