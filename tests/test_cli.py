"""Command line interface: outputs, exit codes, file artifacts."""

import copy
import json
import math
import re
import warnings
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from radialmot import (
    PolySegment,
    RadialDensity,
    TableSegment,
    block_density,
    example_counterexample_density,
    load,
    phi_threshold,
    save,
    to_dict,
)
from radialmot.cli import main


@pytest.fixture()
def blocks_file(tmp_path, blocks):
    p = tmp_path / "blocks.json"
    save(blocks, p)
    return str(p)


@pytest.fixture()
def uniform_file(tmp_path, uniform):
    p = tmp_path / "uniform.json"
    save(uniform, p)
    return str(p)


@pytest.fixture(scope="module")
def tail_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("tail") / "tail_k1.json"
    save(example_counterexample_density(s1=0.9, s2=1.0, ratio=4.0, k=1), p)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCost:
    def test_aligned_triple(self, capsys):
        code, out, _ = run(capsys, ["cost", "1", "2", "15"])
        assert code == 0
        assert "argmin collinear = yes" in out
        assert "phi(r1, r2)" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, ["cost", "1", "2", "15", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["command"] == "cost"
        assert doc["value"] == pytest.approx(
            1.0 / 3.0 + 1.0 / 14.0 + 1.0 / 17.0, rel=1e-12
        )
        assert doc["alignment"] == 170.0
        assert doc["argmin_collinear"] is True

    def test_unaligned_triple(self, capsys):
        code, out, _ = run(capsys, ["cost", "1", "2", "14", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["argmin_collinear"] is False
        assert doc["value"] < doc["c_pi"]

    @pytest.mark.parametrize("radii", [["1", "15", "2"], ["2", "1", "15"]])
    def test_unsorted_triple_reports_the_sorted_verdict(self, capsys, radii):
        # the diagnostics are those of the sorted triple (1, 2, 15), whose
        # collinear minimum the kernel closes in form; radii echo as typed
        code, out, _ = run(capsys, ["cost", *radii, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["radii"] == [float(v) for v in radii]
        assert doc["argmin_collinear"] is True
        assert doc["value"] == doc["c_pi"]
        assert doc["alignment"] == 170.0
        assert doc["phi_threshold"] == phi_threshold(1.0, 2.0)

    def test_explicit_angles(self, capsys):
        code, out, _ = run(
            capsys,
            ["cost", "1", "2", "3", "--angles", str(math.pi), "0", "--json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["at_angles"]["total"] == pytest.approx(31.0 / 30.0, rel=1e-12)

    def test_invalid_radii_usage_error(self, capsys):
        code, _, err = run(capsys, ["cost", "-1", "2", "3"])
        assert code == 2
        assert "error" in err

    def test_degenerate_cost_failure(self, capsys):
        # two charges pinned at the origin: mathematically infeasible
        code, _, err = run(capsys, ["cost", "0", "0", "1"])
        assert code == 1
        assert "error" in err

    def test_extreme_scale_is_scale_free(self, capsys):
        # P ~ 1e607 overflows to inf; the costs are computed at unit scale
        code, out, err = run(capsys, ["cost", "1e150", "2e150", "3e151", "--json"])
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["alignment"] == "inf"
        assert doc["argmin_collinear"] is True
        assert doc["value"] == doc["c_pi"]
        assert doc["value"] * 1e150 == pytest.approx(
            1.0 / 3.0 + 1.0 / 29.0 + 1.0 / 32.0, rel=1e-14
        )

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the two tiny radii read as coincident: AllInfinite, exit 1",
    )
    def test_two_tiny_radii(self, capsys):
        code, _, _ = run(capsys, ["cost", "1e-200", "2e-200", "1"])
        assert code == 0


    @pytest.mark.parametrize(
        "radii", [["1e200", "2e200", "3e201"], ["1e-200", "2e-200", "3e-199"]]
    )
    def test_phi_at_extreme_scales(self, capsys, radii):
        # r2 * r2 overflows at 1e200 and underflows at 1e-200; phi is
        # evaluated at unit scale, where neither happens
        code, out, _ = run(capsys, ["cost", *radii, "--json"])
        assert code == 0
        phi = json.loads(out)["phi_threshold"]
        assert math.isfinite(phi) and phi > 0.0


class TestMap:
    def test_table_output(self, capsys, blocks_file):
        code, out, _ = run(capsys, ["map", blocks_file, "--samples", "4"])
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "x,t_x,t2_x"
        assert len(lines) == 1 + 4  # header + one orbit row per sampled start

    def test_check_passes(self, capsys, blocks_file):
        code, out, _ = run(
            capsys, ["map", blocks_file, "--check", "--probes", "99", "--json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["check"]["ok"] is True
        assert doc["check"]["max_cycle_error"] < 1e-9

    def test_pattern_choice_validated(self, blocks_file):
        with pytest.raises(SystemExit):
            main(["map", blocks_file, "--pattern", "XYZ"])

    def test_csv_file_with_config_echo(self, tmp_path, capsys, blocks_file):
        out_file = tmp_path / "map.csv"
        code, _, _ = run(
            capsys,
            ["map", blocks_file, "--samples", "3", "--out", str(out_file)],
        )
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("#")
        assert "pattern=DDI" in text
        assert "x,t_x,t2_x" in text

    def test_malformed_density_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema_version\": 1, \"segments\": []}")
        code, _, err = run(capsys, ["map", str(bad)])
        assert code == 2
        assert "error" in err

    def test_missing_density_file(self, tmp_path, capsys):
        code, _, err = run(capsys, ["map", str(tmp_path / "none.json")])
        assert code == 2


class TestSolve:
    def test_blocks_monge_optimal(self, capsys, blocks_file):
        code, out, _ = run(capsys, ["solve", blocks_file, "--n", "2", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "monge-optimal"
        assert abs(doc["exact_value"] - doc["monge_value"]) <= doc["tol"]
        cert = doc["lp_certificate"]
        assert cert["marginal_residual"] <= 1e-9
        assert cert["max_dual_violation"] <= 1e-9
        assert abs(cert["duality_gap"]) <= 1e-9
        # the LP's column subset and its rounds: at most all 56 sorted
        # triples of six atoms
        assert 1 <= cert["columns"] <= 56
        # the columns priced at their exact cost hold the final subset
        assert cert["columns"] <= cert["exact_columns"] <= 56
        assert cert["rounds"] >= 1
        # HiGHS starts from no basis, where no mass meets the marginals
        assert cert["simplex_iterations"] >= 1
        # six atoms is inside the brute cross-check budget
        assert doc["brute_value"] == pytest.approx(doc["exact_value"], abs=1e-9)

    def test_brute_method(self, capsys, blocks_file):
        code, out, _ = run(
            capsys, ["solve", blocks_file, "--n", "2", "--method", "brute", "--json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "brute"

    def test_blocks_text_report(self, capsys, blocks_file):
        code, out, err = run(capsys, ["solve", blocks_file, "--n", "2"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n per tertile  = 2 (6 atoms)"
        assert [l.split("=")[0] for l in lines[1:]] == [
            "lp value       ",
            "brute value    ",
            "monge (DDI)    ",
            "difference     ",
            "verdict        ",
        ]
        assert lines[-1] == "verdict        = monge-optimal"
        assert err == ""

    def test_tail_text_report_is_suboptimal(self, capsys, tail_file):
        # nine atoms is past the brute cross-check, so no brute line
        code, out, _ = run(capsys, ["solve", tail_file, "--n", "3"])
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "n per tertile  = 3 (9 atoms)"
        lp, monge, diff = (float(l.split("=")[1]) for l in lines[1:4])
        assert lines[1].startswith("lp value       = ")
        assert lines[2].startswith("monge (DDI)    = ")
        assert diff == monge - lp > 1e-3
        assert lines[4:] == ["verdict        = monge-suboptimal"]

    def test_brute_size_cap_is_failure_exit(self, capsys, blocks_file):
        code, _, err = run(
            capsys, ["solve", blocks_file, "--n", "3", "--method", "brute"]
        )
        assert code == 1
        assert "error" in err


class TestCounterexample:
    def test_end_to_end_artifacts(self, tmp_path, capsys):
        rho_file = tmp_path / "cex.json"
        certs_file = tmp_path / "certs.json"
        code, out, _ = run(
            capsys,
            [
                "counterexample",
                "--k",
                "1",
                "--graph-probes",
                "32",
                "--out",
                str(rho_file),
                "--certs",
                str(certs_file),
                "--json",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["gates"]["ratio_gate"] is True
        assert doc["gates"]["boundary_gate"] is True
        assert doc["gates"]["graph_condition_worst"] >= -1e-9
        for pattern in ("III", "DDI", "DID", "IDD"):
            assert doc["certificates"][pattern]["gap"] > 0.0

        # density artifact loads back
        from radialmot import load

        rho = load(rho_file)
        assert rho.total_mass() == pytest.approx(1.0, abs=1e-10)

        # certificates artifact carries the documented record shape
        certs = json.loads(certs_file.read_text())
        ddi = certs["certificates"]["DDI"]
        for key in (
            "pattern",
            "l",
            "r",
            "triples",
            "swap_triples",
            "costs",
            "gap",
            "eps",
            "M",
            "gates",
        ):
            assert key in ddi
        assert ddi["gap"] > 0.0
        assert len(ddi["triples"]) == 2
        assert len(ddi["swap_triples"]) == 2

    def test_text_report_and_artifacts(self, tmp_path, capsys):
        # the README's example, line by line; numbers within 1e-9 relative
        rho_file, certs_file = tmp_path / "cex.json", tmp_path / "certs.json"
        argv = ["counterexample", "--s1", "0.9", "--s2", "1.0", "--ratio", "4"]
        argv += ["--k", "2", "--out", str(rho_file), "--certs", str(certs_file)]
        code, out, err = run(capsys, argv)
        assert code == 0
        assert err == ""
        readme = [
            "s1=0.90000000000000002 s2=1 ratio=4 k=2",
            "gates: ratio ok, boundary ratio 4 > 7/2 ok",
            "graph condition worst margin = 0",
            "eps = 0.0031250000000000305  M = 379.90092954357311",
            "DDI: swap first coordinates, gap = 0.15221738140065755",
            "DID: swap third coordinates, gap = 0.0016651326895487095",
            "III: swap second coordinates, gap = 1.2879333715076768e-05 "
            "(template extrapolated)",
            "IDD: swap first coordinates, gap = 0.0015244351597032413 "
            "(template extrapolated)",
            f"density written to {rho_file}",
            f"certificates written to {certs_file}",
        ]
        lines = out.splitlines()
        assert len(lines) == len(readme)
        number = r"-?\d[\d.e+-]*"
        for got, want in zip(lines, readme):
            assert re.sub(number, "#", got) == re.sub(number, "#", want)
            for a, b in zip(re.findall(number, got), re.findall(number, want)):
                assert float(a) == pytest.approx(float(b), rel=1e-9)
        assert load(rho_file).tail_spec.order == 2
        certs = json.loads(certs_file.read_text())["certificates"]
        assert set(certs) == {"III", "DDI", "DID", "IDD"}

    @pytest.mark.parametrize("s1, ratio", [("0.9", "4"), ("0.95", "4.5")])
    def test_window_is_the_ddi_certificates(self, capsys, s1, ratio):
        # one window per document: the top-level eps and M are those the
        # DDI certificate located its orbits with (the density's tertiles)
        argv = ["counterexample", "--s1", s1, "--ratio", ratio, "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        doc = json.loads(out)
        ddi = doc["certificates"]["DDI"]
        assert (doc["eps"], doc["M"]) == (ddi["eps"], ddi["M"])

    def test_failed_gate_exits_one(self, capsys):
        code, _, err = run(capsys, ["counterexample", "--s1", "0.8"])
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--ratio", "inf"],
            ["--ratio", "1e300"],
            ["--s1", "1e-300", "--s2", "1.1e-300"],
        ],
        ids=["ratio-inf", "ratio-1e300", "widths-underflow"],
    )
    def test_degenerate_example_parameters_exit_one(self, capsys, argv):
        # a non-finite ratio, or piece widths whose square or cube underflows
        code, out, err = run(capsys, ["counterexample", *argv])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestSweep:
    def test_condition_sweep_brackets_threshold(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "sweep",
                "--what",
                "condition",
                "--r3-min",
                "14",
                "--r3-max",
                "15",
                "--steps",
                "3",
            ],
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "r3,alignment,phi_gap"
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first[1] < 0.0 < last[1]

    def test_curves_sweep_config_echo(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--what", "curves", "--r3", "15", "--steps", "5"],
        )
        assert code == 0
        assert "slope_alpha_pi=" in out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "beta,alpha_pi,alpha_0,alpha_hat_pi,alpha_hat_0"
        assert len(lines) == 6

    def test_stationary_sweep_counts(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "sweep",
                "--what",
                "stationary",
                "--r3-min",
                "14",
                "--r3-max",
                "15",
                "--steps",
                "2",
                "--json",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        cols = doc["columns"]
        rows = doc["rows"]
        i_pts = cols.index("n_points")
        i_corners = cols.index("only_corners")
        assert rows[0][i_pts] == 6
        assert rows[-1][i_pts] == 4
        assert rows[-1][i_corners] is True

    def test_empty_range_gives_header_only(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--what", "condition", "--r3-min", "14", "--r3-max", "15", "--steps", "0"],
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines == ["r3,alignment,phi_gap"]


    def test_overflowing_range_names_the_first_radius(self, capsys):
        # the width 2e308 overflows; the grid must not, so the first radius
        # is the one rejected, without numpy warnings or NaN rows
        argv = ["sweep", "--what", "condition", "--r3-min=-1e308", "--r3-max=1e308"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, [*argv, "--steps", "3"])
        assert code == 2
        assert out == ""
        assert err == "error: radii must be finite and >= 0, got (1.0, 2.0, -1e+308)\n"
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_curves_with_radii_far_apart(self, capsys):
        # the critical angle of (5e-324, 5e-78) used to be acos of a
        # cosine far above 1
        argv = ["sweep", "--what", "curves", "--r1", "5e-324"]
        argv += ["--r2", "2.5368574515085826e-162", "--r3", "5.244783272764405e-78"]
        code, out, err = run(capsys, [*argv, "--steps", "2"])
        assert code == 0
        assert err == ""
        assert len([l for l in out.splitlines() if not l.startswith("#")]) == 3


class TestTopLevel:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "DENSITY", "--n", "0"],
            ["counterexample", "--k", "7"],
            ["map", "DENSITY", "--check", "--probes", "0"],
            ["map", "DENSITY", "--check", "--probes", "-3"],
            ["solve", "DENSITY", "--tol", "nan"],
            ["solve", "DENSITY", "--tol", "-0.5"],
            ["solve", "DENSITY", "--tol", "inf"],
        ],
        ids=[
            "solve-n",
            "counterexample-k",
            "map-probes-0",
            "map-probes-negative",
            "solve-tol-nan",
            "solve-tol-negative",
            "solve-tol-inf",
        ],
    )
    def test_bad_option_value_is_usage_error(self, capsys, blocks_file, argv):
        argv = [blocks_file if a == "DENSITY" else a for a in argv]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_removed_grid_option_is_rejected(self, capsys):
        # the angular kernel has no grid knob: argparse rejects the option
        with pytest.raises(SystemExit) as exc:
            main(["cost", "1", "2", "3", "--grid", "4"])
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# no option value ends in a traceback

_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]),
    st.builds(
        lambda sign, e: sign * 10.0**e,
        st.sampled_from([1.0, -1.0]),
        st.floats(-300.0, 300.0),
    ),
)
_PROPERTY = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _arg(x: float) -> str:
    """x as a value argparse accepts in a value position: negative numbers
    in exact fixed-point notation, which it does not take for an option."""
    return format(Decimal(x), "f") if x < 0.0 else repr(x)


def _assert_clean_exit(capsys, argv) -> str:
    """Run argv; the exit code must be 0, 1 or 2 and stderr hold no
    traceback.  Returns stderr."""
    try:
        code = main(argv)
    except SystemExit as e:  # argparse's own rejection, e.g. of "-Infinity"
        code = e.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    return err


@given(
    r=st.tuples(_EDGE_FLOATS, _EDGE_FLOATS, _EDGE_FLOATS),
    angles=st.none() | st.tuples(_EDGE_FLOATS, _EDGE_FLOATS),
)
@example(r=(1e200, 2e200, 3e201), angles=None)
@example(r=(1e-200, 2e-200, 3e-199), angles=(math.pi, 0.0))
@_PROPERTY
def test_cost_exits_cleanly(capsys, r, angles):
    opts = [] if angles is None else ["--angles", *map(_arg, angles)]
    _assert_clean_exit(capsys, ["cost", *opts, "--", *map(_arg, r)])


@given(
    what=st.sampled_from(["condition", "curves", "stationary"]),
    r=st.tuples(_EDGE_FLOATS, _EDGE_FLOATS, _EDGE_FLOATS, _EDGE_FLOATS),
    steps=st.integers(0, 2),
)
@example(what="stationary", r=(1e200, 2e200, 14e200, 30e200), steps=2)
@example(what="curves", r=(1e100, 2e100, 3e101, 0.0), steps=2)
@example(what="curves", r=(1.0, 1.0000000001, 5.0, 0.0), steps=2)
@example(what="condition", r=(1.0, 2.0, -1e308, 1e308), steps=3)
@_PROPERTY
def test_sweep_exits_cleanly(capsys, what, r, steps):
    """r holds r1, r2 and then r3 (curves) or the r3 range.  Without a NaN
    among the inputs, no NaN reaches the error message."""
    ends = {"--r3": r[2]} if what == "curves" else {"--r3-min": r[2], "--r3-max": r[3]}
    opts = {"--r1": r[0], "--r2": r[1], **ends}
    argv = ["sweep", "--what", what, f"--steps={steps}"]
    err = _assert_clean_exit(capsys, [*argv, *(f"{k}={v!r}" for k, v in opts.items())])
    if not any(math.isnan(v) for v in r):
        assert "nan" not in err


def _cli_documents():
    xs = [2.0, 2.25, 2.5, 2.75, 3.0]
    return [
        to_dict(block_density([(0.0, 1.0), (2.0, 3.0), (15.0, 16.0)])),
        to_dict(RadialDensity([PolySegment(0.0, 1.0, [0.5, 1.0])])),
        to_dict(
            RadialDensity([PolySegment(0.0, 1.0, [0.5]), TableSegment(xs, [0.5] * 5)])
        ),
        to_dict(example_counterexample_density(s1=0.9, s2=1.0, ratio=4.0, k=1)),
        to_dict(example_counterexample_density(s1=0.926, s2=1.0, ratio=3.73, k=2)),
    ]


_CLI_DOCUMENTS = _cli_documents()


def _number_sites(node, path=()):
    """The path of every number in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _number_sites(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,)


@st.composite
def _density_files(draw):
    """A valid density document, one with a number replaced, or a tail
    whose smoothness order k is out of range or of the wrong type."""
    doc = copy.deepcopy(draw(st.sampled_from(_CLI_DOCUMENTS)))
    how = draw(st.sampled_from(["valid", "mutated", "tail-k"]))
    if how == "mutated":
        *path, last = draw(st.sampled_from(list(_number_sites(doc))))
        node = doc
        for key in path:
            node = node[key]
        node[last] = draw(st.sampled_from([math.nan, -math.inf, -1.0, 0.0, 1e308, "x"]))
    elif how == "tail-k" and doc["segments"][-1]["kind"] == "pushforward-tail":
        k = draw(st.sampled_from([0, 1, 2, 3, 4, 5, -1, 1.5, "1", True, None]))
        doc["segments"][-1]["data"]["k"] = k
    return json.dumps(doc)


_CLI_PROPERTY = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
_OPT_INTS = st.integers(-2, 40)


@given(
    text=_density_files(),
    pattern=st.sampled_from(["III", "DDI", "DID", "IDD", "XYZ"]),
    samples=_OPT_INTS,
    probes=_OPT_INTS,
    check=st.booleans(),
    as_json=st.booleans(),
)
@_CLI_PROPERTY
def test_map_exits_cleanly(capsys, tmp_path, text, pattern, samples, probes, check, as_json):
    path = tmp_path / "density.json"
    path.write_text(text)
    argv = ["map", str(path), f"--pattern={pattern}", f"--samples={samples}"]
    argv += [f"--probes={probes}", *(["--check"] if check else [])]
    _assert_clean_exit(capsys, [*argv, *(["--json"] if as_json else [])])


def _mostly(*values):
    """One of values two times in three, else an edge float."""
    return st.one_of(st.sampled_from(values), st.sampled_from(values), _EDGE_FLOATS)


@given(
    text=_density_files(),
    n=st.one_of(st.integers(1, 3), st.integers(1, 3), st.integers(-1, 0)),
    tol=_mostly(0.0, 1e-6, 1.0),
    method=st.sampled_from(["lp", "brute"]),
)
@_CLI_PROPERTY
def test_solve_exits_cleanly(capsys, tmp_path, text, n, tol, method):
    path = tmp_path / "density.json"
    path.write_text(text)
    argv = ["solve", str(path), f"--n={n}", f"--tol={tol!r}", f"--method={method}"]
    _assert_clean_exit(capsys, argv)


@given(
    s1=_mostly(0.8935, 0.9, 0.93, 0.95, 0.98),
    s2=_mostly(1.0),
    ratio=_mostly(3.6, 4.0, 5.0, 8.0),
    k=st.integers(-1, 6),
)
@_CLI_PROPERTY
def test_counterexample_exits_cleanly(capsys, s1, s2, ratio, k):
    opts = {"--s1": s1, "--s2": s2, "--ratio": ratio, "--k": k}
    _assert_clean_exit(capsys, ["counterexample", *(f"{o}={v!r}" for o, v in opts.items())])
