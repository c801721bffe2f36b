"""Discrete multi-marginal solver, Monge couplings, line reduction, lift."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from radialmot import mot
from radialmot.costs import _unit_scale
from radialmot import (
    DiscreteProblem,
    InfeasibleCost,
    LpCertificate,
    MongeCertificate,
    MongeTriple,
    ReflectedLineDensity,
    SizeExceeded,
    block_density,
    build_map,
    c_1d,
    c_pi,
    discretize,
    example_counterexample_density,
    graph_triples,
    lift_radial_triple,
    monge_cost,
    one_d_increasing_map_check,
    probe_cyclical_monotonicity,
    solve_exact,
)


class TestC1d:
    def test_block_orbit_reflected(self):
        # points -2.5, 0.5, 15.5: gaps 3, 18, 15
        assert c_1d(-2.5, 0.5, 15.5) == pytest.approx(
            1.0 / 3.0 + 1.0 / 18.0 + 1.0 / 15.0, abs=1e-15
        )

    def test_symmetric_in_arguments(self):
        # summation order differs by a ulp between permutations
        assert c_1d(1.0, 5.0, -2.0) == pytest.approx(c_1d(5.0, -2.0, 1.0), rel=1e-15)

    def test_coincidence_infinite(self):
        assert math.isinf(c_1d(1.0, 1.0, 2.0))

    def test_matches_collinear_radial_value(self):
        # reflected middle charge: same chord lengths as the angular corner
        assert c_1d(-2.5, 0.5, 15.5) == pytest.approx(
            c_pi((0.5, 2.5, 15.5)), abs=1e-15
        )


class TestDiscretize:
    def test_block_atoms_at_quantile_midpoints(self, blocks):
        prob = discretize(blocks, 3)
        assert prob.n == 3
        assert prob.atoms == pytest.approx([0.5, 2.5, 15.5], abs=1e-9)

    def test_cost_tensor_symmetric(self, blocks):
        prob = discretize(blocks, 3)
        c = prob.cost
        for p in ((0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0)):
            assert np.allclose(np.transpose(c, p), c, atol=1e-12)

    def test_rejects_empty(self, blocks):
        with pytest.raises(ValueError):
            discretize(blocks, 0)

    def test_rejects_fractional_size(self, blocks):
        # int(2.5) atoms would end at mass 1.0, the support's end
        with pytest.raises(ValueError, match="n must be an integer"):
            discretize(blocks, 2.5)

    def test_rejects_values_of_wrong_length(self):
        # two atoms have C(4, 3) = 4 sorted triples
        with pytest.raises(ValueError, match="need 4 costs"):
            DiscreteProblem(np.array([1.0, 2.0]), values=np.ones(3))


class TestSolveExact:
    def test_lp_certificate_blocks(self, blocks):
        prob = discretize(blocks, 3)
        res = solve_exact(prob, method="lp")
        cert = res.certificate
        assert isinstance(cert, LpCertificate)
        assert cert.certified
        assert cert.marginal_residual <= 1e-9
        assert cert.max_dual_violation <= 1e-9
        assert abs(cert.duality_gap) <= 1e-9
        assert res.coupling.marginal_residual() <= 1e-9
        # value is reproduced by the coupling itself
        assert res.coupling.cost_against(prob.cost) == pytest.approx(
            res.value, abs=1e-9
        )

    def test_brute_agrees_with_lp(self, blocks):
        prob = discretize(blocks, 3)
        lp = solve_exact(prob, method="lp")
        br = solve_exact(prob, method="brute")
        assert br.value == pytest.approx(lp.value, abs=1e-9)
        assert isinstance(br.certificate, MongeCertificate)

    def test_brute_monge_alias(self, blocks):
        prob = discretize(blocks, 2)
        a = solve_exact(prob, method="brute")
        b = solve_exact(prob, method="brute-monge")
        assert a.value == b.value
        assert a.certificate.sigma == b.certificate.sigma

    def test_brute_deterministic(self, blocks):
        prob = discretize(blocks, 3)
        a = solve_exact(prob, method="brute")
        b = solve_exact(prob, method="brute")
        assert a.certificate.sigma == b.certificate.sigma
        assert a.certificate.tau == b.certificate.tau

    def test_brute_size_cap(self, blocks):
        prob = discretize(blocks, 9)
        with pytest.raises(SizeExceeded):
            solve_exact(prob, method="brute")

    def test_unknown_method(self, blocks):
        prob = discretize(blocks, 2)
        with pytest.raises(ValueError):
            solve_exact(prob, method="annealing")


def _full_lp_value(problem) -> float:
    """Reference optimum: the LP over every finite entry of the n^3 tensor
    with the three uniform marginals as 3n rows."""
    n = problem.n
    c = problem.cost.reshape(-1)
    idx = np.flatnonzero(np.isfinite(c))
    ii, jj, kk = np.unravel_index(idx, (n, n, n))
    m = idx.size
    rows = np.concatenate([ii, n + jj, 2 * n + kk])
    cols = np.concatenate([np.arange(m)] * 3)
    a_eq = csr_matrix((np.ones(rows.size), (rows, cols)), shape=(3 * n, m))
    res = linprog(
        c[idx],
        A_eq=a_eq,
        b_eq=np.full(3 * n, 1.0 / n),
        bounds=(0, None),
        method="highs",
        options={
            "dual_feasibility_tolerance": 1e-10,
            "primal_feasibility_tolerance": 1e-10,
        },
    )
    assert res.status == 0
    return float(res.fun)


@pytest.fixture(scope="module")
def tail_k1():
    return example_counterexample_density(s1=0.9, s2=1.0, ratio=4.0, k=1)


class TestSymmetricLp:
    @pytest.mark.parametrize("n", [6, 9])
    @pytest.mark.parametrize("density", ["blocks", "tail_k1"])
    def test_matches_full_lp(self, request, density, n):
        prob = discretize(request.getfixturevalue(density), n)
        res = solve_exact(prob, method="lp")
        assert res.value == pytest.approx(_full_lp_value(prob), rel=1e-12, abs=1e-12)
        if n <= 8:
            brute = solve_exact(prob, method="brute")
            assert brute.value == pytest.approx(res.value, abs=1e-9)

        # the returned duals are feasible for the full n^3 problem, and the
        # coupling has uniform marginals and reproduces the value
        c = prob.cost
        fin = np.isfinite(c)
        u, v, w = res.certificate.duals
        slack = c - (u[:, None, None] + v[None, :, None] + w[None, None, :])
        assert slack[fin].min() >= -1e-9
        assert (u.sum() + v.sum() + w.sum()) / n == pytest.approx(res.value, abs=1e-9)
        assert res.coupling.weights.shape == (n, n, n)
        assert res.coupling.marginal_residual() <= 1e-9
        assert res.coupling.cost_against(c) == pytest.approx(res.value, abs=1e-9)
        weights = res.coupling.weights
        assert np.allclose(np.transpose(weights, (1, 0, 2)), weights, atol=1e-15)
        assert np.allclose(np.transpose(weights, (2, 1, 0)), weights, atol=1e-15)

    def test_seed1_block_density_certifies(self):
        # with HiGHS at its default 1e-7 tolerances the full LP failed its
        # certificate here with a dual violation near 1e-7
        rho = block_density([(0.650, 1.921), (2.366, 3.451), (94.128, 94.695)])
        res = solve_exact(discretize(rho, 27), method="lp")
        assert res.certificate.certified


def _exhaustive_lp(problem):
    """Reference optimum: the symmetric LP with every finite sorted triple
    as a column and one uniform-marginal row per atom, in one HiGHS call.
    Returns its value and the sorted triples its solution charges."""
    n = problem.n
    finite = np.isfinite(problem.values)
    t = problem.triples[finite]
    m = t.shape[0]
    a_eq = csr_matrix(
        (np.ones(3 * m), (t.T.ravel(), np.tile(np.arange(m), 3))), shape=(n, m)
    )
    res = linprog(
        problem.values[finite],
        A_eq=a_eq / 3.0,
        b_eq=np.full(n, 1.0 / n),
        bounds=(0, None),
        method="highs",
        options={
            "dual_feasibility_tolerance": 1e-10,
            "primal_feasibility_tolerance": 1e-10,
        },
    )
    assert res.status == 0
    return float(res.fun), t[res.x != 0.0]


class TestColumnGeneration:
    """The LP solves restricted programs over a column subset; pricing every
    finite column makes its value that of the exhaustive LP."""

    @pytest.mark.parametrize("n", [1, 2, 4, 5, 7, 27, 54])
    @pytest.mark.parametrize("density", ["blocks", "tail_k1"])
    def test_matches_exhaustive_lp(self, request, density, n):
        # below 3 atoms the pattern seed is empty, below 9 it is partial
        prob = discretize(request.getfixturevalue(density), n)
        res = solve_exact(prob)
        value, charged = _exhaustive_lp(prob)
        assert res.value == pytest.approx(value, rel=1e-12)
        assert np.array_equal(res.coupling.triples, charged)
        cert = res.certificate
        assert cert.certified
        assert res.coupling.mass.size <= n
        assert 1 <= cert.columns <= np.count_nonzero(np.isfinite(prob.values))
        assert cert.rounds >= 1
        assert cert.simplex_iterations >= 1
        # the k = 1 example at 27 and 54 atoms takes several rounds, each
        # re-solved from the last optimal basis
        if density == "tail_k1" and n >= 27:
            assert cert.rounds >= 2

    def test_infeasible_program_raises(self):
        # at two atoms only (0, 0, 1) is finite: it puts 2/3 of its mass on
        # atom 0 and 1/3 on atom 1, so no mass meets the uniform marginals
        atoms = np.array([1.0, 2.0])
        triples = mot._sorted_triples(2)
        values = np.where((triples == [0, 0, 1]).all(axis=1), 1.0, math.inf)
        prob = DiscreteProblem(atoms=atoms, values=values)
        with pytest.raises(InfeasibleCost, match="linear program failed: Infeasible"):
            solve_exact(prob)

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 27, 54])
    def test_rank_is_the_row_number(self, n):
        triples = mot._sorted_triples(n)
        assert np.array_equal(mot._rank(triples, n), np.arange(len(triples)))

    def test_pricing_alone_reaches_the_optimum(self, monkeypatch, tail_k1):
        prob = discretize(tail_k1, 27)
        monkeypatch.setattr(
            mot, "_lp_seed", lambda n: np.repeat(np.arange(n)[:, None], 3, axis=1)
        )
        res = solve_exact(prob)
        assert res.value == pytest.approx(_exhaustive_lp(prob)[0], rel=1e-12)
        assert res.certificate.certified
        # the diagonal alone is not optimal, so pricing added columns
        assert res.certificate.rounds > 1
        assert res.certificate.columns > 27

    def test_blocks_seed_is_optimal_in_one_round(self, blocks):
        # DDI is optimal on the blocks, and its support is in the seed, so
        # the subset stays the seed: 532 of the 3,654 columns
        res = solve_exact(discretize(blocks, 27))
        assert res.certificate.rounds == 1
        assert res.certificate.columns == len(np.unique(mot._lp_seed(27), axis=0))

    def test_infinite_diagonal_column_starts_from_every_column(self, blocks):
        # without (0, 0, 0) the seed of two atoms, the diagonal, would leave
        # atom 0 uncovered and the restricted program infeasible
        base = discretize(blocks, 2)
        values = base.values.copy()
        values[0] = math.inf
        prob = DiscreteProblem(atoms=base.atoms, values=values)
        res = solve_exact(prob)
        assert res.certificate.certified
        assert res.certificate.columns == 3
        assert res.certificate.exact_columns == 3
        assert res.certificate.rounds == 1
        assert res.value == pytest.approx(_exhaustive_lp(prob)[0], rel=1e-12)


# a radius as a fraction of the largest: zero, a tie with it, or a ratio
# of up to 1e6
_FRACTION = st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-6, 1.0))


def _assert_same_solution(a, b):
    assert a.value == b.value
    assert np.array_equal(a.coupling.triples, b.coupling.triples)
    assert np.array_equal(a.coupling.mass, b.coupling.mass)
    ca, cb = a.certificate, b.certificate
    for u, v in zip(ca.duals, cb.duals):
        assert np.array_equal(u, v)
    fields = (
        "marginal_residual",
        "max_dual_violation",
        "duality_gap",
        "columns",
        "rounds",
        "simplex_iterations",
    )
    assert [getattr(ca, f) for f in fields] == [getattr(cb, f) for f in fields]


@pytest.fixture()
def kernel_rows(monkeypatch):
    """The row count of each kernel call mot makes while the test runs."""
    rows = []
    kernel = mot._radial_cost_batch

    def counting(radii):
        rows.append(len(radii))
        return kernel(radii)

    monkeypatch.setattr(mot, "_radial_cost_batch", counting)
    return rows


class TestLazyCosts:
    """discretize evaluates no cost.  The LP evaluates the kernel on the
    columns it needs and prices the others by the chord bound
    sum 1/(r_i + r_j), which lies below every cost."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(_FRACTION, _FRACTION, _FRACTION),
        st.sampled_from(["", "low", "high"]),
        st.integers(-1000, 1000),
    )
    # with r1 = 0 the bound is the cost: 1/r2 + 1/r3 + 1/(r2 + r3)
    @example((0.0, 0.5, 1.0), "", 0)
    @example((0.0, 1.0, 1.0), "", -1000)
    @example((0.0, 0.0, 1.0), "", 1000)
    @example((0.0, 0.0, 0.0), "", 0)
    @example((1.0, 1.0, 1.0), "", 0)
    def test_chord_bound_below_kernel(self, fractions, tie, e):
        f = sorted(fractions)
        if tie == "low":
            f[1] = f[0]
        elif tie == "high":
            f[1] = f[2]
        r = np.ldexp(np.array([f]), e)
        bound = mot._chord_bound(r)[0]
        value = mot._radial_cost_batch(r)[0][0]
        assert bound <= value
        assert math.isinf(bound) == math.isinf(value)

    @pytest.mark.parametrize("n", [1, 2, 4, 5, 7, 27, 54])
    @pytest.mark.parametrize("density", ["blocks", "tail_k1"])
    def test_solve_does_not_depend_on_values_read(self, request, density, n):
        rho = request.getfixturevalue(density)
        fresh, read = discretize(rho, n), discretize(rho, n)
        read.values
        res, again = solve_exact(fresh), solve_exact(read)
        _assert_same_solution(res, again)
        # the read problem holds every finite column at its exact cost
        fin = np.isfinite(read.values)
        assert again.certificate.exact_columns == np.count_nonzero(fin)
        assert np.array_equal(fresh.values, read.values)
        # the dual violation is the one of exact pricing on every finite
        # column, at the scale of the largest cost
        s = _unit_scale(float(read.values[fin].max()))
        third = res.certificate.duals[0] / s
        i, j, k = read.triples[fin].T
        slack = read.values[fin] / s - (third[i] + third[j] + third[k])
        assert res.certificate.max_dual_violation == max(0.0, -slack.min())

    @pytest.mark.parametrize("n", [27, 54])
    def test_one_kernel_call_per_round(self, kernel_rows, tail_k1, n):
        # one call for the seed, then at most one per round, on the columns
        # whose bound prices below zero (none are left in the last round at
        # 54 atoms); the columns a round appends are among those, so adding
        # them evaluates nothing more
        res = solve_exact(discretize(tail_k1, n))
        assert res.certificate.rounds >= 2
        assert len(kernel_rows) <= res.certificate.rounds + 1
        assert res.certificate.exact_columns == sum(kernel_rows)

    def test_multi_round_value_pinned(self, tail_k1):
        # the k = 1 example at 54 atoms takes several rounds; each round
        # appends the columns priced below zero and re-solves warm
        res = solve_exact(discretize(tail_k1, 54))
        assert res.certificate.certified
        assert res.certificate.rounds >= 2
        assert res.value == float.fromhex("0x1.dd8d42c277dd5p+0")

    def test_underflowing_kernel_rows_leave_the_subset(self):
        # two atoms near 1e-200 beside one near 1 underflow to a coincidence
        # in the kernel (a known defect), while their chord bound is finite
        rho = block_density([(1e-200, 2e-200), (1.0, 2.0), (15.0, 16.0)])
        prob = discretize(rho, 6)
        res = solve_exact(prob)
        bound = mot._chord_bound(prob.atoms[prob.triples])
        assert np.count_nonzero(np.isinf(prob.values) & np.isfinite(bound)) == 12
        assert res.certificate.certified
        assert res.value == pytest.approx(_exhaustive_lp(prob)[0], rel=1e-12)

    def test_blocks_kernel_rows(self, kernel_rows, blocks):
        prob = discretize(blocks, 27)
        assert kernel_rows == []
        res = solve_exact(prob)
        # every row evaluated before this change: 3,654
        assert sum(kernel_rows) <= 1100
        assert res.certificate.exact_columns == sum(kernel_rows)
        # reading the costs evaluates the remaining rows, once
        assert np.isfinite(prob.values).all()
        assert sum(kernel_rows) == 3654
        with pytest.raises(ValueError):
            prob.values[0] = 0.0


def _dense_marginal_residual(weights) -> float:
    """Largest deviation of any of the three axis marginals from 1/n."""
    n = weights.shape[0]
    return max(
        float(np.max(np.abs(weights.sum(axis=axes) - 1.0 / n)))
        for axes in ((1, 2), (0, 2), (0, 1))
    )


def _assert_symmetric(weights):
    for p in ((1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0)):
        assert np.array_equal(np.transpose(weights, p), weights)


class TestDataModel:
    def test_sorted_triples(self, blocks):
        prob = discretize(blocks, 4)
        assert prob.triples.shape == (20, 3)
        assert np.all(prob.triples[:, 0] <= prob.triples[:, 1])
        assert np.all(prob.triples[:, 1] <= prob.triples[:, 2])
        assert len({tuple(t) for t in prob.triples.tolist()}) == 20
        i, j, k = prob.triples.T
        assert np.array_equal(prob.cost[i, j, k], prob.values)

    def test_lp_path_builds_no_dense_tensor(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense n^3 tensor built")

        monkeypatch.setattr(mot, "_symmetric_tensor", refuse)
        rho = block_density([(0.650, 1.921), (2.366, 3.451), (94.128, 94.695)])
        res = solve_exact(discretize(rho, 27), method="lp")
        assert res.certificate.certified
        # pinned bit for bit; the exhaustive LP gave 0x1.09b73d3502a3ep-2
        assert res.value == float.fromhex("0x1.09b73d3502a39p-2")
        # a basic solution charges at most one column per marginal row
        assert res.coupling.mass.size <= 27

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("density", ["blocks", "tail_k1"])
    def test_brute_coupling_is_symmetrized(self, request, density, n):
        prob = discretize(request.getfixturevalue(density), n)
        res = solve_exact(prob, method="brute")
        weights = res.coupling.weights
        _assert_symmetric(weights)
        assert weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert res.coupling.marginal_residual() <= 1e-15
        assert _dense_marginal_residual(weights) <= 1e-15
        assert res.coupling.cost_against(prob.cost) == pytest.approx(
            res.value, rel=1e-14
        )
        # the certificate's permutations give the same value
        cert = res.certificate
        orbit_cost = sum(prob.cost[i, cert.sigma[i], cert.tau[i]] for i in range(n))
        assert orbit_cost / n == pytest.approx(res.value, rel=1e-14)

    @pytest.mark.parametrize("n", [6, 9])
    @pytest.mark.parametrize("density", ["blocks", "tail_k1"])
    def test_marginal_residual_matches_dense(self, request, density, n):
        res = solve_exact(discretize(request.getfixturevalue(density), n))
        weights = res.coupling.weights
        _assert_symmetric(weights)
        assert res.coupling.marginal_residual() == pytest.approx(
            _dense_marginal_residual(weights), abs=1e-16
        )


# brute-monge values pinned bit for bit
BRUTE_PINS = {
    ("blocks", 3): "0x1.d27d27d27d27cp-2",
    ("blocks", 4): "0x1.0c6be8c627e96p-1",
    ("blocks", 5): "0x1.c7551c6991ec8p-2",
    ("blocks", 6): "0x1.d27d27d27d27dp-2",
    ("tail_k1", 3): "0x1.183b9a3b6b5e7p+1",
    ("tail_k1", 4): "0x1.f7d774f241857p+0",
    ("tail_k1", 5): "0x1.ef8c3f4516096p+0",
    ("tail_k1", 6): "0x1.ed4447f40e16fp+0",
}


@pytest.mark.parametrize("density, n", sorted(BRUTE_PINS))
def test_brute_value_bitwise_pin(request, density, n):
    res = solve_exact(discretize(request.getfixturevalue(density), n), method="brute")
    assert res.value.hex() == BRUTE_PINS[density, n]


def _scaled_blocks(lam: float):
    return block_density([(0.0, lam), (2.0 * lam, 3.0 * lam), (15.0 * lam, 16.0 * lam)])


class TestScaleFree:
    """The cost is homogeneous of degree -1 in the radii, so every exact
    solver value times the scale is the same at every scale."""

    @pytest.fixture(scope="class")
    def base(self, blocks):
        return discretize(blocks, 27)

    @pytest.mark.parametrize("lam", [1e-100, 1e-20, 1e-9, 1e9, 1e12, 1e100])
    def test_lp_value(self, base, lam):
        scaled = DiscreteProblem(atoms=base.atoms * lam, values=base.values / lam)
        res = solve_exact(scaled)
        assert res.certificate.certified
        assert res.value * lam == pytest.approx(solve_exact(base).value, rel=1e-12)

    def test_lp_value_of_scaled_density(self, base):
        # raw costs near 1e-12 lie below HiGHS's absolute tolerances
        lam = 1e12
        res = solve_exact(discretize(_scaled_blocks(lam), 27))
        assert res.certificate.certified
        assert res.value * lam == pytest.approx(solve_exact(base).value, rel=1e-12)

    @pytest.mark.parametrize("n", [7, 8])
    def test_brute_at_tiny_scale(self, blocks, n):
        # finite costs near 5e30 at this scale
        lam = 1e-31
        got = solve_exact(discretize(_scaled_blocks(lam), n), method="brute")
        want = solve_exact(discretize(blocks, n), method="brute")
        assert got.value * lam == pytest.approx(want.value, rel=1e-12)


class TestMongeCost:
    def test_blocks_lp_equals_ddi_monge(self, blocks):
        ddi = build_map(blocks, "DDI")
        for n in (3, 5):
            lp = solve_exact(discretize(blocks, 3 * n), method="lp")
            mc = monge_cost(ddi, n=n)
            assert abs(lp.value - mc.value) < 1e-6

    def test_rejects_empty_sample(self, blocks):
        # n = 0 would average no orbit, nan with a warning
        with pytest.raises(ValueError, match="n must be an integer of at least 1"):
            monge_cost(build_map(blocks, "DDI"), n=0)

    def test_triples_start_in_first_tertile(self, blocks):
        ddi = build_map(blocks, "DDI")
        for t in graph_triples(ddi, 8):
            assert t.x < ddi.tertiles.s1
            assert ddi.tertiles.s1 <= t.tx <= ddi.tertiles.s2
            assert t.t2x >= ddi.tertiles.s2


class TestCyclicalMonotonicityProbe:
    def test_block_coupling_passes(self, blocks):
        ddi = build_map(blocks, "DDI")
        triples = graph_triples(ddi, 6)

        from radialmot import radial_cost

        def cost(a, b, c):
            return radial_cost((a, b, c)).value

        assert probe_cyclical_monotonicity(cost, triples) == ()

    def test_detects_planted_violation(self):
        def cost(a, b, c):
            return (a - b) ** 2 + (a - c) ** 2

        vs = probe_cyclical_monotonicity(cost, [(0.0, 1.0, 1.0), (1.0, 0.0, 0.0)])
        assert vs
        v = vs[0]
        assert v.template == "first"
        assert v.gap == pytest.approx(4.0, abs=1e-12)


class TestReflectedLine:
    def test_pdf_placement(self, blocks):
        line = ReflectedLineDensity(blocks)
        third = 1.0 / 3.0
        assert line.pdf(0.5) == pytest.approx(third, abs=1e-12)
        assert line.pdf(-2.5) == pytest.approx(third, abs=1e-12)
        assert line.pdf(2.5) == 0.0
        assert line.pdf(15.5) == pytest.approx(third, abs=1e-12)
        assert line.pdf(-0.5) == 0.0

    def test_total_mass_preserved(self, blocks):
        line = ReflectedLineDensity(blocks)
        assert line.interval_mass(-20.0, 20.0) == pytest.approx(1.0, abs=1e-12)
        assert line.interval_mass(-20.0, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_one_d_check_blocks(self, blocks):
        ddi = build_map(blocks, "DDI")
        res = one_d_increasing_map_check(ddi, n=16)
        assert res.max_identity_discrepancy < 1e-12
        assert res.max_discrepancy < 1e-9
        assert res.excluded == ()
        assert res.n_checked == 16

    def test_one_d_check_excludes_underflowing_unaligned_orbit(
        self, blocks, monkeypatch
    ):
        # P(1, 2, 14) = -80; at scale 1e-100 the raw P underflows to -0.0
        t = MongeTriple(1e-100, 2e-100, 1.4e-99)
        monkeypatch.setattr(mot, "graph_triples", lambda seidl_map, n: (t,))
        res = one_d_increasing_map_check(build_map(blocks, "DDI"), n=1)
        assert res.n_checked == 0
        assert res.excluded == (t,)


class TestLift:
    def test_rotation_invariance(self):
        lift = lift_radial_triple((1.0, 2.0, 15.0), n_rotations=16)
        assert lift.max_cost_deviation < 1e-9
        assert lift.points.shape == (16, 3, 2)
        # every rotation realizes the angular minimum exactly
        assert np.max(np.abs(lift.costs - lift.value)) < 1e-9

    def test_rejects_empty_rotation_grid(self):
        with pytest.raises(ValueError, match="n_rotations must be an integer"):
            lift_radial_triple((1.0, 2.0, 15.0), n_rotations=0)

    def test_points_on_their_circles(self):
        lift = lift_radial_triple((1.0, 2.0, 15.0), n_rotations=8)
        radii = np.hypot(lift.points[..., 0], lift.points[..., 1])
        assert np.allclose(radii, [1.0, 2.0, 15.0], atol=1e-12)
