"""Constructed density with a heavy tail and its monotonicity refutations."""

import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from radialmot import (
    BOUNDARY_RATIO_THRESHOLD,
    RATIO_THRESHOLD,
    DensityError,
    EpsMInfeasible,
    GateFailed,
    JetNotPositive,
    MongeTriple,
    RegionEmpty,
    ViolationNotFound,
    alignment_condition,
    block_density,
    boundary_ratio_gate,
    build_counterexample_density,
    c_pi,
    check_graph_condition,
    example_counterexample_density,
    example_piece_specs,
    find_eps_M,
    find_violation,
    limit_margin,
    radial_cost,
    ratio_gate,
    refute_class_T,
    uniform_density,
)
import radialmot
from radialmot import counterexample
from radialmot.counterexample import _certify, _choose_delta, _region_violations
from radialmot.density import PushforwardTailSegment


class TestGates:
    def test_threshold_value(self):
        assert RATIO_THRESHOLD == pytest.approx(
            (1.0 + 2.0 * math.sqrt(3.0)) / 5.0, rel=1e-15
        )
        assert RATIO_THRESHOLD == pytest.approx(0.8928203230275509, rel=1e-15)
        assert BOUNDARY_RATIO_THRESHOLD == 3.5

    def test_ratio_gate(self):
        assert ratio_gate(0.9, 1.0)
        assert not ratio_gate(0.8, 1.0)
        # sitting exactly on the threshold fails the strict inequality
        assert not ratio_gate(RATIO_THRESHOLD, 1.0)
        assert ratio_gate(RATIO_THRESHOLD + 1e-9, 1.0)

    def test_ratio_gate_validates_order(self):
        with pytest.raises(GateFailed):
            ratio_gate(1.0, 0.9)
        with pytest.raises(GateFailed):
            ratio_gate(0.0, 1.0)

    def test_boundary_gate(self):
        assert boundary_ratio_gate(4.0)
        assert not boundary_ratio_gate(3.5)
        assert not boundary_ratio_gate(3.0)
        with pytest.raises(GateFailed):
            boundary_ratio_gate(float("inf"))

    def test_limit_margin_sign_tracks_gate(self):
        assert limit_margin(0.9, 1.0) > 0.0
        assert limit_margin(0.8, 1.0) < 0.0
        # zero exactly at the threshold ratio
        assert limit_margin(RATIO_THRESHOLD, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_limit_margin_frozen_value(self):
        assert limit_margin(0.9, 1.0) == pytest.approx(
            0.01994354714569191, rel=1e-12
        )


class TestEpsM:
    def test_window_parameters(self):
        em = find_eps_M(0.9, 1.0)
        assert 0.0 < em.eps < (1.0 - 0.9) / 2.0 + 1e-15
        assert em.M > em.eps
        assert em.margin > 0.0
        assert em.limit == pytest.approx(limit_margin(0.9, 1.0), rel=1e-15)

    def test_full_inequality_holds_at_output(self):
        em = find_eps_M(0.9, 1.0)
        s1, s2, eps, M = 0.9, 1.0, em.eps, em.M
        lhs = 2.0 / (s2 + eps) + 1.0 / (2.0 * s2 + eps) + 1.0 / (2.0 * s1 + eps)
        rhs = math.sqrt(3.0) / (s1 - eps) + 1.0 / s1 + 1.0 / (M - eps)
        assert lhs > rhs

    def test_deterministic(self):
        a = find_eps_M(0.9, 1.0)
        b = find_eps_M(0.9, 1.0)
        assert (a.eps, a.M, a.margin) == (b.eps, b.M, b.margin)

    def test_infeasible_below_threshold(self):
        with pytest.raises(EpsMInfeasible):
            find_eps_M(0.8, 1.0)


class TestGraphCondition:
    def test_uniform_fails_with_stable_margin(self, uniform):
        rep = check_graph_condition(uniform, n=64)
        assert not rep.holds
        # endpoint orbit (1/3, 1/3, 1): exact rational margin -80/81
        assert rep.worst_margin == pytest.approx(-80.0 / 81.0, abs=1e-12)
        rep2 = check_graph_condition(uniform, n=128)
        assert rep2.worst_margin == pytest.approx(rep.worst_margin, abs=1e-12)

    def test_counterexample_holds(self, cex):
        rep = check_graph_condition(cex, n=64)
        assert rep.holds
        assert rep.worst_margin == pytest.approx(0.0, abs=1e-9)

    def test_bounded_support_fails_at_boundary(self, blocks):
        # any bounded third tertile fails: the mass-1/3 orbit has its first
        # two points coincident at the tertile edge, (1, 1, 16) here, and
        # the polynomial is negative whenever the lower radii are equal
        rep = check_graph_condition(blocks, n=64)
        assert not rep.holds
        assert rep.worst_margin == -1666.0  # integer arithmetic, exact
        assert rep.worst_x == 1.0

    @pytest.mark.parametrize("lam", [1e-100, 1e-3, 1.0, 1e100])
    def test_uniform_fails_at_every_scale(self, lam):
        # P is homogeneous of degree 4, so its raw worst value is -80/81
        # times lam^4; neither the verdict nor the worst orbit, (1/3, 1/3,
        # 1) times lam, may depend on lam
        rep = check_graph_condition(uniform_density(0.0, lam))
        assert not rep.holds
        assert rep.worst_x == pytest.approx(lam / 3.0, rel=1e-12, abs=0.0)

    def test_probe_count_validation(self, uniform):
        with pytest.raises(ValueError):
            check_graph_condition(uniform, n=1)


class TestConstruction:
    def test_example_piece_masses(self):
        rho1, rho2 = example_piece_specs()
        m1 = sum(
            np.polynomial.Polynomial(c).integ()(hi)
            - np.polynomial.Polynomial(c).integ()(lo)
            for lo, hi, c in rho1
        )
        m2 = sum(
            np.polynomial.Polynomial(c).integ()(hi)
            - np.polynomial.Polynomial(c).integ()(lo)
            for lo, hi, c in rho2
        )
        assert m1 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert m2 == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_density_global_shape(self, cex):
        assert cex.s1 == pytest.approx(0.9, abs=1e-12)
        assert cex.s2 == pytest.approx(1.0, abs=1e-12)
        assert cex.boundary_ratio == pytest.approx(4.0, rel=1e-12)
        assert cex.total_mass() == pytest.approx(1.0, abs=1e-10)
        t = cex.tertiles()
        assert t.s1 == pytest.approx(0.9, abs=1e-9)
        assert t.s2 == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.xfail(
        strict=True,
        raises=DensityError,
        reason="psi cancels to -1.8e15 just below s1, so the tail inverse "
        "never brackets y = 1e17",
    )
    def test_far_tail_cdf_is_nearly_one(self):
        # the tail's mass beyond y decays like 1/y; at 1e17 the cdf is 1.0
        # to double precision
        assert example_counterexample_density().cdf(1e17) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_tail_jet_identities(self, cex):
        ts = cex.tail_spec
        # first-order data forced by mass preservation at the boundary
        assert ts.t_taylor[1] == pytest.approx(-4.0, rel=1e-9)
        assert ts.psi_taylor[1] == pytest.approx(4.0, rel=1e-9)
        assert ts.h_taylor[0] == pytest.approx(0.0, abs=1e-12)
        assert ts.h_taylor[1] == pytest.approx(2.0 * 4.0 - 7.0, rel=1e-9)
        assert ts.order == 4
        assert len(ts.h_taylor) == 6

    def test_density_continuous_at_s2(self, cex):
        jump = abs(cex.pdf(1.0 + 1e-12) - cex.pdf(1.0 - 1e-12))
        assert jump < 1e-8

    def test_psi_starts_at_s2_and_increases(self, cex):
        assert cex.psi(0.0) == pytest.approx(1.0, abs=1e-12)
        xs = np.linspace(1e-6, 0.9 * (1 - 1e-6), 500)
        vals = [cex.psi(float(x)) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert min(cex.psi_prime(float(x)) for x in xs) > 0.0

    def test_psi_diverges_at_tertile(self, cex):
        assert cex.psi(0.9 * (1 - 1e-12)) > 1e6

    def test_tail_is_pushforward_of_first_tertile(self, cex):
        # F(psi(x)) = 2/3 + F(x) on the first tertile
        for m in (0.01, 0.05, 0.1, 0.2, 0.3):
            x = cex.quantile(m)
            y = cex.psi(x)
            assert cex.cdf(y) == pytest.approx(2.0 / 3.0 + m, abs=1e-9)

    def test_quantile_roundtrip_through_tail(self, cex):
        for p in (0.7, 0.8, 0.9, 0.99):
            x = cex.quantile(p)
            assert cex.cdf(x) == pytest.approx(p, abs=1e-9)

    def test_t_map_matches_quantile_transport(self, cex):
        for m in (0.02, 0.1, 0.25):
            x = cex.quantile(m)
            assert cex.t_map(x) == pytest.approx(
                cex.quantile(2.0 / 3.0 - m), abs=1e-9
            )

    def test_gate_failures_rejected(self):
        rho1, rho2 = example_piece_specs(s1=0.8, s2=1.0)
        with pytest.raises(GateFailed):
            build_counterexample_density(rho1, rho2)

    def test_order_bounds(self):
        rho1, rho2 = example_piece_specs()
        with pytest.raises(ValueError):
            build_counterexample_density(rho1, rho2, k=5)
        with pytest.raises(ValueError):
            build_counterexample_density(rho1, rho2, k=-1)

    def test_low_order_build(self):
        rho = example_counterexample_density(k=1)
        assert rho.tail_spec.order == 1
        assert rho.total_mass() == pytest.approx(1.0, abs=1e-10)
        assert abs(rho.pdf(1.0 + 1e-12) - rho.pdf(1.0 - 1e-12)) < 1e-8

    def test_plateau_onset_jet_guard(self):
        # a jet that is negative on every plateau candidate exhausts the
        # halving budget
        with pytest.raises(JetNotPositive):
            _choose_delta((0.0, -1.0, 0.0), s1=0.9)

    def test_plateau_onset_matches_the_halving_loop(self):
        # one root solve and one pass over the widths against the loop
        # that solved for the roots at every width
        def loop(derivs, s1):
            poly = np.polynomial.Polynomial(
                [d / math.factorial(j) for j, d in enumerate(derivs)]
            )
            delta = s1 / 2.0
            for _ in range(counterexample._DELTA_HALVINGS):
                roots = [
                    complex(z).real
                    for z in np.atleast_1d(poly.roots())
                    if abs(complex(z).imag) < 1e-10 and 1e-300 < complex(z).real <= delta
                ]
                if not roots and poly(delta) > 0.0 and poly(delta / 2.0) > 0.0:
                    return delta
                delta /= 2.0
            return None

        rng = np.random.default_rng(7)
        jets = [_H_TAYLOR_K4[: k + 2] for k in range(5)]
        for _ in range(300):
            tail = rng.normal(size=rng.integers(1, 5)) * 10.0 ** rng.uniform(-2, 6)
            jets.append((0.0, rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 2), *tail))
        for derivs in jets:
            s1 = float(rng.uniform(0.5, 1.0))
            want = loop(derivs, s1)
            if want is None:
                with pytest.raises(JetNotPositive):
                    _choose_delta(derivs, s1)
            else:
                assert _choose_delta(derivs, s1) == want


# h_taylor of example_counterexample_density(0.9, 1.0, 4.0, k) is the first
# k + 2 entries of this jet; the values were frozen from the symbolic
# differentiation the power series replaced
_H_TAYLOR_K4 = (
    0.0,
    1.0,
    -103.2427983539094,
    836884.3804298134,
    -64759161.85540825,
    1022926782555.4731,
)


class TestJets:
    @pytest.mark.parametrize("k", range(5))
    def test_h_taylor_frozen(self, k):
        got = example_counterexample_density(0.9, 1.0, 4.0, k).tail_spec.h_taylor
        want = _H_TAYLOR_K4[: k + 2]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a == pytest.approx(b, rel=1e-14, abs=0.0)

    def test_import_leaves_sympy_unloaded(self):
        src = str(Path(radialmot.__file__).resolve().parents[1])
        code = "import sys, radialmot; print('sympy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"

    def test_build_and_map_check_leave_scipy_optimize_unloaded(self):
        src = str(Path(radialmot.__file__).resolve().parents[1])
        code = (
            "import sys, radialmot as r; rho = r.example_counterexample_density(k=1); "
            "[r.check_map(r.build_map(rho, p), 300) for p in r.PATTERNS]; "
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


class TestBuildPins:
    """Tail builds of the seed-1 cex-build benchmark round.  delta, plateau,
    h_taylor and the k=3 message are bit for bit as recorded before the
    density layer moved to scalar Horner evaluation.  The tail quantiles
    are recorded after the density layer moved to arrays, with
    extended-precision residuals for cubic quantiles, and the tail pdf and
    cdf after the Newton tail inverse started from a cubic Hermite
    interpolant, which lands elsewhere within the forward-error floor (the
    pdf at 1.001 moved 7 ulps); pdf and cdf must still agree within 1e-12
    relative with the values before linear pieces got their closed-form
    quantile, and quantiles within 1e-12 relative with a 60-digit oracle."""

    def test_k2_tail(self):
        rho = example_counterexample_density(
            s1=0.926193142634143, s2=1.0, ratio=3.732988291532693, k=2
        )
        spec = rho.tail_spec
        assert spec.delta.hex() == "0x1.da35fcd2c9456p-10"
        assert spec.plateau.hex() == "0x1.803b9b9056406p-11"
        assert [v.hex() for v in spec.h_taylor] == [
            "0x0.0p+0",
            "0x1.dd28f723dee20p-2",
            "-0x1.74edec02279a0p+6",
            "0x1.59f9ad856a7d1p+21",
        ]
        # y: (pdf, cdf) now, then (pdf, cdf) before the closed form
        tail = {
            1.001: ("0x1.cf6682ea1ff76p-1", "0x1.55d22b8765ce3p-1",
                    "0x1.cf6682ea2195bp-1", "0x1.55d22b8765c80p-1"),
            1.1: ("0x1.e8b8ce4994aefp-2", "0x1.73f299969487ap-1",
                  "0x1.e8b8ce4994b55p-2", "0x1.73f2999694840p-1"),
            2.0: ("0x1.5c4fc4f9299ccp-5", "0x1.c6e05d535dbc3p-1",
                  "0x1.5c4fc4f9299e5p-5", "0x1.c6e05d535db94p-1"),
            10.0: ("0x1.b31306cca8e88p-9", "0x1.e78285d8bc3bep-1",
                   "0x1.b31306cca8ebfp-9", "0x1.e78285d8bc390p-1"),
            100.0: ("0x1.0821431bc39b3p-14", "0x1.fca400fe57fa1p-1",
                    "0x1.0821431bc3980p-14", "0x1.fca400fe57f75p-1"),
        }
        for y, (pdf, cdf, pdf_before, cdf_before) in tail.items():
            got = (rho.pdf(y), rho.cdf(y))
            assert (got[0].hex(), got[1].hex()) == (pdf, cdf)
            assert got[0] == pytest.approx(float.fromhex(pdf_before), rel=1e-12)
            assert got[1] == pytest.approx(float.fromhex(cdf_before), rel=1e-12)
        quantiles = {
            0.7: "0x1.0c9424c505ff3p+0",
            0.9: "0x1.3863ac651ecd9p+1",
            0.99: "0x1.00ab9eb65ea25p+6",
            0.999: "0x1.53a9d82ee61f5p+9",
        }
        for p, q in quantiles.items():
            got = rho.quantile(p)
            assert got.hex() == q
            assert got == pytest.approx(_tail_quantile_oracle(rho, p), rel=1e-12)

    def test_k3_density_error(self):
        with pytest.raises(DensityError) as err:
            example_counterexample_density(
                s1=0.961492451625062, s2=1.0, ratio=6.27870189758566, k=3
            )
        assert str(err.value) == (
            "pushforward map fails to increase near x=4.35712e-20 "
            "(psi'=-4.479e+00); adjust the pieces or the bump"
        )

    def test_k4_density_error(self):
        with pytest.raises(DensityError) as err:
            example_counterexample_density(
                s1=0.9140145442943428, s2=1.0, ratio=7.080474589924133, k=4
            )
        assert str(err.value) == (
            "pushforward map fails to increase near x=6.62716e-19 "
            "(psi'=-6.782e+00); adjust the pieces or the bump"
        )


def _count_calls(monkeypatch, owner, name):
    """Patch owner.name to record each call; returns the record."""
    calls = []
    inner = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_failing_build_tries_its_widths_in_seven_graph_passes(monkeypatch):
    """The k=3 build of TestBuildPins tries all 60 bump widths in batches
    of 1, 2, 4, ... widths: one graph pass on the fixed probes and six on
    the seams, where one pass per width made 61."""
    calls = _count_calls(monkeypatch, counterexample, "_phi_partials")
    with pytest.raises(DensityError):
        example_counterexample_density(
            s1=0.961492451625062, s2=1.0, ratio=6.27870189758566, k=3
        )
    assert len(calls) <= 7, len(calls)


def test_k2_build_finds_its_width_in_five_graph_passes(monkeypatch):
    """The k=2 build of TestBuildPins takes its ninth width, found in the
    fourth batch, where one pass per width made 10 graph passes."""
    calls = _count_calls(monkeypatch, counterexample, "_phi_partials")
    example_counterexample_density(
        s1=0.926193142634143, s2=1.0, ratio=3.732988291532693, k=2
    )
    assert len(calls) <= 5, len(calls)


@pytest.mark.parametrize("k", [1, 2])
def test_refutation_inverts_the_tail_at_most_three_times(monkeypatch, k):
    """The three shrinking regions share each step's tail inverse, and one
    more inverse gives all their level masses (7 inverses one pattern at a
    time)."""
    rho = example_counterexample_density(k=k)
    calls = _count_calls(monkeypatch, PushforwardTailSegment, "inverse")
    refute_class_T(rho)
    assert len(calls) <= 3, len(calls)


@pytest.mark.parametrize("k", [1, 2])
def test_refutation_prices_in_one_kernel_call(monkeypatch, k):
    """refute_class_T prices the four certificates' sixteen triples in one
    batch (one call per certificate made 4), and find_violation its four."""
    rho = example_counterexample_density(k=k)
    calls = _count_calls(monkeypatch, counterexample, "_radial_cost_batch")
    refute_class_T(rho)
    assert [len(rows) for rows, in calls] == [16]
    find_violation(rho)
    assert [len(rows) for rows, in calls] == [16, 4]


@pytest.mark.parametrize("k", [1, 2])
def test_tail_inverse_within_forward_error_floor(k):
    """inverse(psi(x)) lands on x to the resolution the float psi allows:
    within 4 spacings of y over psi'(x), plus 4 spacings of x, at 25
    source points from 1e-6 up to s1 (1 - 1e-6)."""
    rho = example_counterexample_density(k=k)
    tail, s1 = rho.segments[-1], rho.s1
    xs = np.concatenate(
        [np.geomspace(1e-6, s1 / 2.0, 12), s1 * (1.0 - np.geomspace(0.5, 1e-6, 13))]
    )
    ys = np.array([float(rho.psi(x)) for x in xs])
    slopes = np.array([float(rho.psi_prime(x)) for x in xs])
    floor = 4.0 * np.spacing(ys) / slopes + 4.0 * np.spacing(xs)
    got = np.array([float(tail.inverse(y)) for y in ys])
    assert np.all(np.abs(got - xs) <= floor), np.max(np.abs(got - xs) / floor)


def test_tail_inverse_calls_psi_at_most_four_times():
    """The 100 third-tertile probes of check_map(n_probe=300) invert in at
    most 4 evaluations of psi and psi', once the knot table is built."""
    rho = example_counterexample_density(k=1)
    tail = rho.segments[-1]
    p = (np.arange(300) + 0.5) / 300
    ys = rho.mass_quantile(p[p >= 2.0 / 3.0])
    tail.inverse(ys[0])  # builds the knot table
    calls = []
    forward_and_prime = tail._forward_and_prime

    def counted(x):
        calls.append(np.size(x))
        return forward_and_prime(x)

    tail._forward_and_prime = counted
    x = tail.inverse(ys)
    assert ys.size == 100 and calls[0] == 100
    assert len(calls) <= 4, calls
    np.testing.assert_allclose(rho.psi(x), ys, rtol=1e-15)


def _piece_below(seg, x):
    """Exact mass of a float polynomial piece on [lo, x]."""
    c = [Decimal(v) for v in seg.coeffs]

    def anti(y):
        return sum(cj * y ** (j + 1) / (j + 1) for j, cj in enumerate(c))

    return anti(Decimal(x)) - anti(Decimal(seg.lo))


def _pieces_quantile(segs, m):
    """Exact root of mass m over contiguous float polynomial pieces."""
    for seg in segs:
        mass = _piece_below(seg, seg.hi)
        if m <= mass:
            break
        m -= mass
    r = Decimal(seg.quantile_within(float(m)))
    for _ in range(8):
        pdf = sum(Decimal(c) * r**j for j, c in enumerate(seg.coeffs))
        r -= (_piece_below(seg, r) - m) / pdf
    return r


def _tail_quantile_oracle(rho, p):
    """The tail quantile psi(x) at 60 digits: x and T(x) are exact roots
    of the float pieces' exact masses, phi is evaluated in Decimal, and
    h(x) is the float plateau, which requires x >= delta."""
    with localcontext() as ctx:
        ctx.prec = 60
        rho1, rho2 = list(rho.segments[:-1]), []
        while rho1[-1].lo >= rho.s1:
            rho2.insert(0, rho1.pop())
        m = Decimal(p) - sum(_piece_below(s, s.hi) for s in rho1 + rho2)
        a = _pieces_quantile(rho1, m)
        b = _pieces_quantile(rho1 + rho2, Decimal(2) / 3 - m)
        assert a >= Decimal(rho.tail_spec.delta)
        root = (b * b + 12 * a * b - 4 * a * a).sqrt()
        phi = (5 * a * b + b * b + (a + b) * root) / (2 * (b - a))
        return float(phi + Decimal(rho.tail_spec.plateau))


class TestViolation:
    def test_certificate_windows(self, cex):
        cert = find_violation(cex)
        a, b = cert.triple_a, cert.triple_b
        eps, M = cert.metadata["eps"], cert.metadata["M"]
        assert 0.0 < a.x < eps
        assert 1.0 - eps < a.tx < 1.0
        assert 1.0 < a.t2x < 1.0 + eps
        assert 0.9 - eps < b.x < 0.9
        assert 0.9 < b.tx < 0.9 + eps
        assert b.t2x > M

    def test_certificate_costs_exact(self, cex):
        cert = find_violation(cex)
        assert cert.cost_a == pytest.approx(
            radial_cost(cert.triple_a.as_tuple()).value, rel=1e-12
        )
        assert cert.cost_swapped_a == pytest.approx(
            radial_cost(cert.swapped_a).value, rel=1e-12
        )
        total = cert.cost_a + cert.cost_b
        swapped = cert.cost_swapped_a + cert.cost_swapped_b
        assert cert.gap == pytest.approx(total - swapped, abs=1e-15)
        assert cert.gap > 0.0

    def test_swap_template_first_coordinates(self, cex):
        cert = find_violation(cex)
        assert cert.template == "first"
        a, b = cert.triple_a, cert.triple_b
        assert cert.swapped_a == (b.x, a.tx, a.t2x)
        assert cert.swapped_b == (a.x, b.tx, b.t2x)

    def test_gap_frozen(self, cex):
        cert = find_violation(cex)
        assert cert.gap == pytest.approx(0.15221737209602626, rel=1e-9)

    def test_blocks_have_no_violation(self, blocks):
        with pytest.raises(ViolationNotFound):
            find_violation(blocks)

    def test_deterministic(self, cex):
        a = find_violation(cex)
        b = find_violation(cex)
        assert a.triple_a.as_tuple() == b.triple_a.as_tuple()
        assert a.gap == b.gap


@pytest.fixture(scope="module")
def certs(cex):
    return refute_class_T(cex)


class TestRefutation:
    def test_all_patterns_refuted(self, certs):
        assert set(certs) == {"III", "DDI", "DID", "IDD"}
        for pattern, cert in certs.items():
            assert cert.pattern == pattern
            assert cert.gap > 0.0

    def test_frozen_gaps(self, certs):
        assert certs["DDI"].gap == pytest.approx(0.15221737209602626, rel=1e-6)
        assert certs["DID"].gap == pytest.approx(1.6652138280308648e-3, rel=1e-4)
        assert certs["III"].gap == pytest.approx(1.287936918648036e-5, rel=1e-4)
        assert certs["IDD"].gap == pytest.approx(1.5245727260579933e-3, rel=1e-4)

    def test_templates(self, certs):
        assert certs["DDI"].template == "first"
        assert certs["DID"].template == "third"
        assert certs["III"].template == "second"
        assert certs["IDD"].template == "first"
        assert not certs["DDI"].template_extrapolated
        assert not certs["DID"].template_extrapolated
        assert certs["III"].template_extrapolated
        assert certs["IDD"].template_extrapolated

    def test_collinear_gap_agreement(self, certs):
        # on the shrinking-region certificates the kernel closes every
        # triple in form, so the gap is a difference of collinear values
        for pattern in ("DID", "III", "IDD"):
            cert = certs[pattern]
            assert cert.collinear_gap == cert.gap
            for t in (cert.triple_a.as_tuple(), cert.triple_b.as_tuple()):
                assert alignment_condition(t) >= 0.0
                assert radial_cost(t).value == pytest.approx(c_pi(t), rel=1e-12)

    def test_underflowing_unaligned_triple_has_no_collinear_gap(self):
        # P(1, 2, 14) = -80; at scale 1e-100 the raw P underflows to -0.0.
        # The swap makes (1, 2, 14) e-100 from two aligned orbits, and the
        # other swapped triple is aligned too.
        ta = MongeTriple(1e-102, 2e-100, 1.4e-99)
        tb = MongeTriple(1e-100, 2e-99, 2e-98)
        cert = _certify({"DDI": ("first", ta, tb, False, {})})["DDI"]
        assert cert.swapped_a == (1e-100, 2e-100, 1.4e-99)
        assert alignment_condition(cert.swapped_a) == 0.0
        assert cert.gap > 0.0
        assert cert.collinear_gap is None

    def test_ddi_collinear_gap_suppressed(self, certs):
        # swapped triples break the alignment condition there
        assert certs["DDI"].collinear_gap is None

    def test_region_line_ordering(self, certs):
        for pattern in ("DID", "III", "IDD"):
            md = certs[pattern].metadata
            assert md["line_strictly_ordered"] is True
            pts = md["line_points"]
            assert all(x < y for x, y in zip(pts, pts[1:]))


@pytest.mark.parametrize("k", [1, 2])
def test_certificate_costs_equal_the_scalar_kernel_bitwise(k):
    # _certify evaluates all the certificates' triples in one kernel batch
    for cert in refute_class_T(example_counterexample_density(k=k)).values():
        triples = (
            cert.triple_a.as_tuple(),
            cert.triple_b.as_tuple(),
            cert.swapped_a,
            cert.swapped_b,
        )
        got = (cert.cost_a, cert.cost_b, cert.cost_swapped_a, cert.cost_swapped_b)
        assert [v.hex() for v in got] == [radial_cost(t).value.hex() for t in triples]


class TestRegionFailures:
    """Texts of the shrinking-region failures, recorded when each pattern
    shrank on its own."""

    @pytest.mark.parametrize(
        "pattern, threshold",
        [("DID", 1.288155835601994), ("III", 5.362244272500795), ("IDD", 1.0833344166666665)],
    )
    def test_uniform_region_empties(self, uniform, pattern, threshold):
        with pytest.raises(RegionEmpty) as err:
            _region_violations(uniform, (pattern,))
        assert str(err.value) == (
            f"{pattern}: no first-tertile mass clears threshold {threshold!r}"
        )

    @pytest.mark.parametrize(
        "pattern, levels",
        [
            ("DID", (0.0, 0.3333333333333333)),
            ("III", (0.3333333333333333, 0.3333333333333333)),
            ("IDD", (0.0, 0.3333333333333333)),
        ],
    )
    def test_blocks_level_masses_leave_the_tertile(self, blocks, pattern, levels):
        with pytest.raises(RegionEmpty) as err:
            _region_violations(blocks, (pattern,))
        assert str(err.value) == (
            f"{pattern}: level masses {levels!r} left the first tertile"
        )

    @pytest.mark.parametrize("rho", ["uniform", "blocks"])
    def test_lockstep_raises_the_first_pattern(self, request, rho):
        rho = request.getfixturevalue(rho)
        with pytest.raises(RegionEmpty) as alone:
            _region_violations(rho, ("DID",))
        with pytest.raises(RegionEmpty) as err:
            _region_violations(rho, ("DID", "III", "IDD"))
        assert str(err.value) == str(alone.value)


class TestClassRefutationNegative:
    def test_uniform_not_refutable_by_windows(self, uniform):
        # gate fails: 1/3 over 2/3 is far below the threshold
        with pytest.raises(ViolationNotFound):
            find_violation(uniform)
