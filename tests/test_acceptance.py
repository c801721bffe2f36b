"""Acceptance gate: each test checks one numbered criterion at its stated
tolerance and records a single pass/fail line for the terminal summary."""

import math
import time

import numpy as np
import pytest

from radialmot import (
    EpsMInfeasible,
    alignment_condition,
    block_density,
    build_map,
    c_1d,
    c_pi,
    check_graph_condition,
    check_map,
    discretize,
    example_counterexample_density,
    find_eps_M,
    find_stationary_points,
    find_violation,
    full_cost,
    grad_hess,
    lift_radial_triple,
    monge_cost,
    phi_threshold,
    radial_cost,
    ratio_gate,
    refute_class_T,
    solve_exact,
    torus_distance,
    uniform_density,
)

PI = math.pi


def test_01_alignment_polynomial_reference_points(record_criterion):
    p15 = alignment_condition((1.0, 2.0, 15.0))
    p14 = alignment_condition((1.0, 2.0, 14.0))
    phi = phi_threshold(1.0, 2.0)
    h = 1e-5
    bracketed = (
        alignment_condition((1.0, 2.0, phi - h)) < 0.0
        and alignment_condition((1.0, 2.0, phi + h)) > 0.0
    )
    ok = (
        p15 == 170.0
        and p14 == -80.0
        and abs(phi - 14.348469) < 1e-5
        and bracketed
    )
    detail = (
        f"P(1,2,15)={p15:g}, P(1,2,14)={p14:g}, phi(1,2)={phi:.6f} "
        f"(+-1e-5, sign change bracketed)"
    )
    record_criterion(1, ok, detail)
    assert ok, detail


def test_02_argmin_collinear_iff_condition_on_grid(record_criterion):
    t0 = time.perf_counter()
    r1s = np.linspace(1.0, 2.0, 10)
    m2s = np.linspace(1.15, 3.2, 10)
    m3s = np.linspace(1.15, 6.5, 10)
    n_pos = n_neg = 0
    worst_dist = 0.0
    min_gap = math.inf
    for r1 in r1s:
        for m2 in m2s:
            for m3 in m3s:
                r = (float(r1), float(r1 * m2), float(r1 * m2 * m3))
                res = radial_cost(r)
                if alignment_condition(r) >= 0.0:
                    n_pos += 1
                    worst_dist = max(
                        worst_dist,
                        torus_distance(res.argmin.as_tuple(), (PI, 0.0)),
                    )
                else:
                    n_neg += 1
                    min_gap = min(min_gap, c_pi(r) - res.value)
    elapsed = time.perf_counter() - t0
    ok = (
        n_pos > 0
        and n_neg > 0
        and worst_dist <= 1e-6
        and min_gap > 1e-8
        and elapsed < 60.0
    )
    detail = (
        f"1000 triples (ratio up to {m2s[-1] * m3s[-1]:.1f}): {n_pos} aligned "
        f"(max argmin dist {worst_dist:.2e} <= 1e-6), {n_neg} not "
        f"(min gap {min_gap:.2e} > 1e-8), {elapsed:.1f}s"
    )
    record_criterion(2, ok, detail)
    assert ok, detail


def test_03_stationary_point_census(record_criterion):
    t0 = time.perf_counter()
    aligned = find_stationary_points((1.0, 2.0, 15.0))
    split = find_stationary_points((1.0, 2.0, 14.0))
    elapsed = time.perf_counter() - t0

    def non_corner(rep):
        corners = ((0.0, 0.0), (0.0, PI), (PI, 0.0), (PI, PI))
        return [
            p
            for p in rep.points
            if min(torus_distance(p.config.as_tuple(), c) for c in corners) > 1e-6
        ]

    ok = (
        len(aligned.points) == 4
        and aligned.only_corner_points
        and aligned.max_grad_norm < 1e-9
        and len(non_corner(split)) >= 1
        and elapsed < 30.0
    )
    detail = (
        f"(1,2,15): {len(aligned.points)} corner points, max |grad| "
        f"{aligned.max_grad_norm:.1e} < 1e-9; (1,2,14): "
        f"{len(non_corner(split))} non-corner points; {elapsed:.1f}s"
    )
    record_criterion(3, ok, detail)
    assert ok, detail


def test_04_derivatives_match_finite_differences(record_criterion):
    rng = np.random.default_rng(40)
    h = 1e-6
    worst_g = worst_h = 0.0
    n_cfg = 0
    while n_cfg < 100:
        r = np.sort(rng.uniform(0.4, 3.0, 3))
        if r[1] - r[0] < 1e-3 or r[2] - r[1] < 1e-3:
            continue
        a, b = rng.uniform(-PI, PI, 2)
        rt = tuple(float(v) for v in r)
        g, H = grad_hess(rt, (a, b))
        fd_g = np.array(
            [
                (full_cost(rt, (a + h, b)).total - full_cost(rt, (a - h, b)).total)
                / (2 * h),
                (full_cost(rt, (a, b + h)).total - full_cost(rt, (a, b - h)).total)
                / (2 * h),
            ]
        )
        worst_g = max(
            worst_g,
            float(np.max(np.abs(fd_g - g))) / max(1.0, float(np.max(np.abs(g)))),
        )
        ga_p, _ = grad_hess(rt, (a + h, b))
        ga_m, _ = grad_hess(rt, (a - h, b))
        gb_p, _ = grad_hess(rt, (a, b + h))
        gb_m, _ = grad_hess(rt, (a, b - h))
        fd_H = np.column_stack([(ga_p - ga_m) / (2 * h), (gb_p - gb_m) / (2 * h)])
        worst_h = max(
            worst_h,
            float(np.max(np.abs(fd_H - H))) / max(1.0, float(np.max(np.abs(H)))),
        )
        n_cfg += 1

    sign_fail = 0
    n_sign = 0
    while n_sign < 1000:
        r = np.sort(rng.uniform(0.3, 6.0, 3))
        if r[1] - r[0] < 1e-9 or r[2] - r[1] < 1e-9:
            continue
        rt = tuple(float(v) for v in r)
        _, H = grad_hess(rt, (PI, 0.0))
        det = H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]
        if math.copysign(1.0, det) != math.copysign(
            1.0, alignment_condition(rt)
        ):
            sign_fail += 1
        n_sign += 1

    ok = worst_g < 1e-6 and worst_h < 1e-6 and sign_fail == 0
    detail = (
        f"100 configs: grad rel err {worst_g:.1e}, hess rel err {worst_h:.1e} "
        f"(< 1e-6); det-sign agreement 1000/1000"
        if sign_fail == 0
        else f"det-sign failures: {sign_fail}/1000"
    )
    record_criterion(4, ok, detail)
    assert ok, detail


def test_05_branch_map_identities_all_patterns(record_criterion):
    densities = {
        "uniform": uniform_density(),
        "blocks": block_density([(0.0, 1.0), (2.0, 3.0), (15.0, 16.0)]),
    }
    worst_cycle = worst_push = 0.0
    all_ok = True
    for rho in densities.values():
        for pattern in ("III", "DDI", "DID", "IDD"):
            diag = check_map(build_map(rho, pattern), n_probe=1000)
            worst_cycle = max(worst_cycle, diag.max_cycle_error)
            worst_push = max(worst_push, diag.max_pushforward_error)
            all_ok = all_ok and diag.ok
    ok = all_ok and worst_cycle < 1e-9 and worst_push < 1e-9
    detail = (
        f"8 maps x 1000 probes: max cycle err {worst_cycle:.1e}, "
        f"max pushforward err {worst_push:.1e} (< 1e-9)"
    )
    record_criterion(5, ok, detail)
    assert ok, detail


def test_06_block_density_lp_matches_monge(record_criterion):
    t0 = time.perf_counter()
    blocks = block_density([(0.0, 1.0), (2.0, 3.0), (15.0, 16.0)])
    ddi = build_map(blocks, "DDI")
    worst = 0.0
    for n in (3, 5, 6):
        lp = solve_exact(discretize(blocks, 3 * n), method="lp")
        mc = monge_cost(ddi, n=n)
        worst = max(worst, abs(lp.value - mc.value))
    # the far block must clear the pairwise threshold of the first two
    aa, bb = np.meshgrid(
        np.linspace(0.0, 1.0, 101), np.linspace(2.0, 3.0, 101), indexing="ij"
    )
    phi_max = max(
        phi_threshold(float(a), float(b)) for a, b in zip(aa.ravel(), bb.ravel())
    )
    elapsed = time.perf_counter() - t0
    ok = (
        worst < 1e-6
        and abs(phi_max - phi_threshold(1.0, 2.0)) < 1e-9
        and 15.0 > phi_max
        and elapsed < 60.0
    )
    detail = (
        f"n in (3,5,6): max |lp - monge| {worst:.1e} < 1e-6; "
        f"max phi over blocks {phi_max:.4f} < 15; {elapsed:.1f}s"
    )
    record_criterion(6, ok, detail)
    assert ok, detail


def test_07_collinear_cost_equals_reflected_line(record_criterion):
    blocks = block_density([(0.0, 1.0), (2.0, 3.0), (15.0, 16.0)])
    T = build_map(blocks, "DDI")
    worst = 0.0
    for j in range(100):
        m = (j + 0.5) / 300.0
        x, tx, t2x = T.orbit(blocks.quantile(m))
        worst = max(worst, abs(c_pi((x, tx, t2x)) - c_1d(-tx, x, t2x)))
    ok = worst < 1e-12
    detail = f"100 first-tertile orbits: max |c_pi - c_1d| = {worst:.1e} < 1e-12"
    record_criterion(7, ok, detail)
    assert ok, detail


def test_08_window_parameters_and_infeasibility(record_criterion):
    em = find_eps_M(0.9, 1.0)
    infeasible = False
    try:
        find_eps_M(0.8, 1.0)
    except EpsMInfeasible:
        infeasible = True
    ok = (
        abs(em.limit - 0.0199431) < 1e-6
        and em.margin > 0.0
        and em.M > em.eps > 0.0
        and infeasible
    )
    detail = (
        f"limit margin {em.limit:.7f} within 1e-6 of 0.0199431, "
        f"eps={em.eps:g}, M={em.M:.1f}; s1=0.8 infeasible: {infeasible}"
    )
    record_criterion(8, ok, detail)
    assert ok, detail


def test_09_counterexample_end_to_end(record_criterion):
    t0 = time.perf_counter()
    rho = example_counterexample_density(s1=0.9, s2=1.0, ratio=4.0, k=4)
    gates_ok = ratio_gate(0.9, 1.0) and rho.boundary_ratio > 3.5
    graph = check_graph_condition(rho, n=64)
    cert = find_violation(rho)
    certs = refute_class_T(rho)
    refuted = all(c.gap > 0.0 for c in certs.values())

    lp = solve_exact(discretize(rho, 18), method="lp")
    monges = {
        pattern: monge_cost(build_map(rho, pattern), n=6).value
        for pattern in ("III", "DDI", "DID", "IDD")
    }
    lp_below = all(lp.value < v - 1e-8 for v in monges.values())
    elapsed = time.perf_counter() - t0

    ok = (
        gates_ok
        and graph.holds
        and cert.gap > 0.0
        and refuted
        and lp_below
        and elapsed < 120.0
    )
    detail = (
        f"gates ok, graph condition holds (worst {graph.worst_margin:.1e}), "
        f"DDI gap {cert.gap:.4f}, all 4 patterns refuted, "
        f"n=6 LP {lp.value:.6f} below monge min {min(monges.values()):.6f} "
        f"by > 1e-8; {elapsed:.0f}s"
    )
    record_criterion(9, ok, detail)
    assert ok, detail


def test_10_tail_first_order_smoothness(record_criterion, cex):
    s2 = 1.0

    def one_sided(sign):
        def deriv(h):
            return sign * (cex.pdf(s2 + sign * h) - cex.pdf(s2)) / h

        # one-step Richardson extrapolation from steps 1e-4 and 1e-5
        return (10.0 * deriv(1e-5) - deriv(1e-4)) / 9.0

    d_right = one_sided(+1.0)
    d_left = one_sided(-1.0)
    jump = abs(cex.pdf(s2 + 1e-12) - cex.pdf(s2 - 1e-12))
    # mass preservation across the boundary ties the one-sided slopes of
    # the transport maps to the density values
    ma_resid = abs(
        cex.psi_prime(0.0) * cex.pdf(s2 + 1e-12)
        - 4.0 * cex.pdf(s2 - 1e-12)
    )
    ok = abs(d_right - d_left) < 1e-6 and jump < 1e-6 and ma_resid < 1e-6
    detail = (
        f"one-sided Richardson derivatives at s2: right {d_right:.8f}, "
        f"left {d_left:.8f}, |diff| {abs(d_right - d_left):.1e} < 1e-6; "
        f"value jump {jump:.1e}; boundary transport identity residual "
        f"{ma_resid:.1e}"
    )
    record_criterion(10, ok, detail)
    assert ok, detail


def test_11_invariance_property_suites(record_criterion):
    rng = np.random.default_rng(11)

    def draw_triple():
        while True:
            r = np.sort(rng.uniform(0.3, 4.0, 3))
            if r[1] - r[0] > 1e-4 and r[2] - r[1] > 1e-4:
                return tuple(float(v) for v in r)

    worst_hom = 0.0
    for _ in range(200):
        r = draw_triple()
        lam = float(rng.uniform(0.5, 3.0))
        base = radial_cost(r).value
        scaled = radial_cost(tuple(lam * v for v in r)).value
        worst_hom = max(worst_hom, abs(scaled - base / lam) / abs(base / lam))

    worst_perm = 0.0
    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    for _ in range(200):
        r = draw_triple()
        base = radial_cost(r).value
        p = perms[int(rng.integers(len(perms)))]
        permuted = radial_cost((r[p[0]], r[p[1]], r[p[2]])).value
        worst_perm = max(worst_perm, abs(permuted - base) / abs(base))

    worst_lift = 0.0
    for _ in range(200):
        lift = lift_radial_triple(draw_triple(), n_rotations=16)
        worst_lift = max(worst_lift, lift.max_cost_deviation)

    ok = worst_hom < 1e-9 and worst_perm < 1e-9 and worst_lift < 1e-9
    detail = (
        f"200 cases each: homogeneity rel err {worst_hom:.1e}, permutation "
        f"rel err {worst_perm:.1e}, lift deviation {worst_lift:.1e} (< 1e-9)"
    )
    record_criterion(11, ok, detail)
    assert ok, detail
