"""JSON serialization of densities, including the reconstructed tail."""

import copy
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radialmot
from radialmot import (
    DensityFormatError,
    PolySegment,
    RadialDensity,
    RadialMotError,
    TableSegment,
    block_density,
    example_counterexample_density,
    example_piece_specs,
    from_dict,
    load,
    save,
    to_dict,
)
from radialmot.density_io import SCHEMA_VERSION


def _same_density(a, b, points):
    for x in points:
        assert b.pdf(x) == pytest.approx(a.pdf(x), rel=1e-12, abs=1e-15)
        assert b.cdf(x) == pytest.approx(a.cdf(x), rel=1e-12, abs=1e-15)


class TestRoundTrip:
    def test_uniform(self, uniform):
        doc = to_dict(uniform)
        assert doc["schema_version"] == SCHEMA_VERSION
        again = from_dict(doc)
        _same_density(uniform, again, np.linspace(0.0, 1.0, 13))

    def test_blocks(self, blocks):
        again = from_dict(to_dict(blocks))
        _same_density(blocks, again, [0.2, 0.9, 1.5, 2.4, 14.0, 15.5, 16.0])

    def test_table_segment(self):
        from radialmot import RadialDensity, TableSegment

        xs = np.linspace(0.0, 2.0, 31)
        rho = RadialDensity([TableSegment(xs, np.full(31, 0.5))])
        again = from_dict(to_dict(rho))
        _same_density(rho, again, np.linspace(0.0, 2.0, 11))

    def test_counterexample_tail(self, cex):
        doc = to_dict(cex)
        kinds = [s["kind"] for s in doc["segments"]]
        assert kinds[-1] == "pushforward-tail"
        assert doc["segments"][-1]["data"]["k"] == 4
        again = from_dict(doc)
        _same_density(cex, again, [0.05, 0.5, 0.95, 0.9999, 1.0001, 1.5, 3.0])
        # loaded density carries the rebuilt tail machinery
        assert again.tail_spec.order == 4
        assert again.psi(0.1) == pytest.approx(cex.psi(0.1), rel=1e-12)

    def test_file_round_trip(self, tmp_path, blocks):
        p = tmp_path / "rho.json"
        save(blocks, p)
        again = load(p)
        _same_density(blocks, again, [0.5, 2.5, 15.5])
        # on-disk document is plain JSON
        doc = json.loads(p.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION

    # sha256 of the saved built-in counterexample for each k; the tail
    # record follows the segments before it, written as plain poly pieces
    SAVED_DIGESTS = {
        1: "fbfc65dbb3afd65c30617d1a69adcdf89d7c20ac13966f11f11cfaef5447c87d",
        2: "8ac65d0bc4940b590940507535740d0e9534630fadc22671bb520d201d5de766",
        3: "ddf985219db764d1dfab50185535b4949b51c247ea0c81ad49f70afe132037e4",
        4: "cb85f31366fa782927e1f1e8b7ca92c3b40d9b74a1a705972938c0e47ab61a0b",
    }

    @pytest.mark.parametrize("k", sorted(SAVED_DIGESTS))
    def test_saved_counterexample_bytes_pinned(self, tmp_path, k):
        path = tmp_path / f"cex_k{k}.json"
        save(example_counterexample_density(k=k), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.SAVED_DIGESTS[k]

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load(tmp_path / "nope.json")

    def test_table_load_and_map_check_leave_scipy_unloaded(self, tmp_path):
        """Loading a table density, its tertiles and the map check of every
        pattern run on numpy alone."""
        blocks = [(0.0, 1.0), (2.0, 3.0), (15.0, 16.0)]
        path = tmp_path / "t.json"
        save(
            RadialDensity([TableSegment(np.linspace(a, b, 3), [1.0 / 3.0] * 3) for a, b in blocks]),
            path,
        )
        code = (
            "import sys, radialmot as r; rho = r.load(sys.argv[1]); rho.tertiles(); "
            "assert all(r.check_map(r.build_map(rho, p), 300).ok for p in r.PATTERNS); "
            "print([m for m in ('scipy.interpolate', 'scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules])"
        )
        src = str(Path(radialmot.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code, str(path)],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "[]"


class TestValidation:
    def _base(self, blocks):
        return to_dict(blocks)

    def test_not_a_mapping(self):
        with pytest.raises(DensityFormatError):
            from_dict([1, 2, 3])

    def test_wrong_schema_version(self, blocks):
        doc = self._base(blocks)
        doc["schema_version"] = 99
        with pytest.raises(DensityFormatError, match="schema_version"):
            from_dict(doc)

    def test_unknown_kind_names_segment(self, blocks):
        doc = self._base(blocks)
        doc["segments"][1]["kind"] = "spline"
        with pytest.raises(DensityFormatError, match="segment 1"):
            from_dict(doc)

    def test_poly_degree_cap(self, blocks):
        doc = self._base(blocks)
        doc["segments"][0]["data"]["coeffs"] = [0.2, 0.1, 0.0, 0.0, 0.1]
        with pytest.raises(DensityFormatError, match="degree"):
            from_dict(doc)

    def test_interval_must_be_ordered(self, blocks):
        doc = self._base(blocks)
        doc["segments"][0]["interval"] = [1.0, 0.0]
        with pytest.raises(DensityFormatError):
            from_dict(doc)

    def test_tail_must_be_last(self, cex):
        doc = to_dict(cex)
        doc["segments"] = [doc["segments"][-1], *doc["segments"][:-1]]
        with pytest.raises(DensityFormatError):
            from_dict(doc)

    def test_tail_order_range(self, cex):
        doc = to_dict(cex)
        doc["segments"][-1]["data"]["k"] = 9
        with pytest.raises(DensityFormatError):
            from_dict(doc)

    def test_tail_integrity_cross_check(self, cex):
        doc = copy.deepcopy(to_dict(cex))
        stored = doc["segments"][-1]["data"]["h_taylor"]
        stored[1] *= 1.5
        with pytest.raises(DensityFormatError, match="h_taylor"):
            from_dict(doc)

    def test_missing_coeffs(self, blocks):
        doc = self._base(blocks)
        del doc["segments"][0]["data"]["coeffs"]
        with pytest.raises(DensityFormatError, match="segment 0"):
            from_dict(doc)

    def test_mass_sum_is_a_document_error(self, blocks):
        doc = self._base(blocks)
        doc["segments"][0]["data"]["coeffs"] = [1.0 / 3.0 + 1e-6]
        with pytest.raises(DensityFormatError, match="document: segment masses sum"):
            from_dict(doc)

    @pytest.mark.parametrize(
        "ratio, k, n_pieces, match",
        [
            (3.2, 1, 3, "segment 3: boundary ratio"),  # the builder's GateFailed
            (6.0, 3, 3, "segment 3: pushforward map fails"),  # its DensityError
            (4.0, 1, 2, "segment 2: rho2 needs"),  # no second piece group
        ],
        ids=["boundary-gate", "non-monotone-tail", "one-piece-group"],
    )
    def test_tail_rebuild_errors_name_the_tail(self, ratio, k, n_pieces, match):
        rho1, rho2 = example_piece_specs(0.95, 1.0, ratio)
        segs = [
            {"interval": [lo, hi], "kind": "poly", "data": {"coeffs": list(c)}}
            for lo, hi, c in (*rho1, *rho2)[:n_pieces]
        ]
        tail = {"interval": [1.0, None], "kind": "pushforward-tail", "data": {"k": k}}
        segs.append(tail)
        with pytest.raises(DensityFormatError, match=match):
            from_dict({"schema_version": 1, "segments": segs})


class TestNonFiniteNumbers:
    """Python's json reads NaN and Infinity; neither may reach a density."""

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_poly_coefficient(self, bad):
        text = (
            '{"schema_version": 1, "segments": [{"kind": "poly", '
            f'"interval": [0, 1], "data": {{"coeffs": [{bad}]}}}}]}}'
        )
        with pytest.raises(DensityFormatError, match="segment 0"):
            from_dict(json.loads(text))

    def test_table_value(self):
        doc = {
            "schema_version": 1,
            "segments": [
                {
                    "kind": "table",
                    "interval": [0.0, 1.0],
                    "data": {"x": [0.0, 0.5, 1.0], "density": [1.0, math.nan, 1.0]},
                }
            ],
        }
        with pytest.raises(DensityFormatError, match="segment 0"):
            from_dict(doc)

    @pytest.mark.parametrize("delta", ["x", [1], {}, math.nan, math.inf])
    def test_tail_delta(self, delta):
        doc = to_dict(example_counterexample_density(s1=0.9, s2=1.0, ratio=4.0, k=1))
        doc["segments"][-1]["data"]["delta"] = delta
        with pytest.raises(DensityFormatError, match="delta"):
            from_dict(doc)

    def test_segments_reject_non_finite_inputs(self):
        with pytest.raises(RadialMotError):
            PolySegment(0.0, 1.0, [math.nan])
        with pytest.raises(RadialMotError):
            PolySegment(0.0, 1.0, [1.0, math.inf])
        with pytest.raises(RadialMotError):
            TableSegment([0.0, 1.0], [1.0, math.nan])
        with pytest.raises(RadialMotError):
            TableSegment([0.0, math.inf], [1.0, 1.0])

    def test_nan_total_mass_rejected(self):
        class NanMass:
            lo, hi, mass = 0.0, 1.0, math.nan

        with pytest.raises(RadialMotError, match="sum"):
            RadialDensity([NanMass()])


def _valid_documents():
    xs = np.linspace(2.0, 3.0, 5)
    return [
        to_dict(block_density([(0.0, 1.0), (2.0, 3.0), (15.0, 16.0)])),
        to_dict(RadialDensity([PolySegment(0.0, 1.0, [0.5, 1.0])])),
        to_dict(
            RadialDensity(
                [PolySegment(0.0, 1.0, [0.5]), TableSegment(xs, np.full(5, 0.5))]
            )
        ),
        to_dict(example_counterexample_density(s1=0.9, s2=1.0, ratio=4.0, k=1)),
    ]


_DOCUMENTS = _valid_documents()


def _sites(node, path=()):
    """(path, is_number) for every number leaf and every dict key: the
    numbers get replaced, the keys dropped."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,), False
            yield from _sites(value, path + (key,))
    elif isinstance(node, list):
        for j, value in enumerate(node):
            yield from _sites(value, path + (j,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, True


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_documents_load_or_raise_typed(data):
    """A valid document with one number replaced by NaN, +-Infinity, a
    string, a list or null, or with one key dropped, either loads as a
    density with a finite total and finite pdf values or raises a
    RadialMotError; never a silent non-finite value, never a traceback."""
    doc = copy.deepcopy(data.draw(st.sampled_from(_DOCUMENTS)))
    path, is_number = data.draw(st.sampled_from(list(_sites(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if is_number:
        parent[path[-1]] = data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf, "x", [1.0], None])
        )
    else:
        del parent[path[-1]]
    try:
        rho = from_dict(json.loads(json.dumps(doc)))
    except RadialMotError:
        return
    assert math.isfinite(rho.total_mass())
    for x in (0.0, 0.5, 1.0, 1.5, 2.5, 15.5, 100.0):
        assert math.isfinite(rho.pdf(x))
