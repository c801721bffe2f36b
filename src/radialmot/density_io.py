"""Reading and writing radial densities as JSON documents.

Schema (version 1):

    {
      "schema_version": 1,
      "segments": [
        {"interval": [lo, hi], "kind": "poly",
         "data": {"coeffs": [c0, c1, ...]}},
        {"interval": [lo, hi], "kind": "table",
         "data": {"x": [...], "density": [...]}},
        {"interval": [lo, null], "kind": "pushforward-tail",
         "data": {"k": 1, "h_taylor": [...], "delta": ...}}
      ]
    }

Rules: intervals are increasing and contiguous within a density; "poly"
coefficients are in the power basis, degree at most 3; "table" lists
sample points and nonnegative values, interpolated monotonically; a
"pushforward-tail" segment must come last with an unbounded interval
(hi = null) and is reconstructed by re-running the tail construction on
the bounded polynomial pieces, which must split into two mass-1/3
groups.  The stored h_taylor and delta act as an integrity check against
the rebuilt tail.  Total mass must be 1 within 1e-10 (enforced by the
density constructor on load).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .density import PolySegment, RadialDensity, TableSegment
from .errors import DensityError, DensityFormatError, GateFailed

__all__ = ["load", "save", "from_dict", "to_dict"]

SCHEMA_VERSION = 1
_MAX_POLY_DEGREE = 3


def _fail(i: int | None, msg: str) -> DensityFormatError:
    where = "document" if i is None else f"segment {i}"
    return DensityFormatError(f"{where}: {msg}")


def _is_number(v) -> bool:
    """A finite JSON number; Python's json also reads NaN, Infinity and
    integers beyond the float range."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _float_list(i: int, name: str, raw, min_len: int = 1) -> list[float]:
    if not isinstance(raw, list) or len(raw) < min_len:
        raise _fail(i, f"{name} must be a list of at least {min_len} numbers")
    for v in raw:
        if not _is_number(v):
            raise _fail(i, f"{name} contains a non-number: {v!r}")
    return [float(v) for v in raw]


def _parse_interval(i: int, raw, allow_unbounded: bool) -> tuple[float, float | None]:
    if not isinstance(raw, list) or len(raw) != 2:
        raise _fail(i, "interval must be a [lo, hi] pair")
    lo, hi = raw
    if not _is_number(lo):
        raise _fail(i, f"interval lower end must be a number, got {lo!r}")
    if hi is None:
        if not allow_unbounded:
            raise _fail(i, "only pushforward-tail segments may be unbounded")
        return float(lo), None
    if not _is_number(hi):
        raise _fail(i, f"interval upper end must be a number or null, got {hi!r}")
    return float(lo), float(hi)


def from_dict(doc) -> RadialDensity:
    """Parse a schema-version-1 density document; see the module docstring.

    Raises DensityFormatError for every malformed document: with the
    offending segment index for a segment's own problems and for a tail
    whose rebuild fails, and at document level for the density
    constructor's mass and overlap checks.
    """
    if not isinstance(doc, dict):
        raise _fail(None, f"expected a JSON object, got {type(doc).__name__}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise _fail(None, f"unsupported schema_version {version!r}")
    raw_segments = doc.get("segments")
    if not isinstance(raw_segments, list) or not raw_segments:
        raise _fail(None, "segments must be a non-empty list")

    segments = []
    tail_request = None
    for i, raw in enumerate(raw_segments):
        if not isinstance(raw, dict):
            raise _fail(i, "segment must be an object")
        kind = raw.get("kind")
        data = raw.get("data")
        if not isinstance(data, dict):
            raise _fail(i, "data must be an object")
        if kind == "poly":
            lo, hi = _parse_interval(i, raw.get("interval"), allow_unbounded=False)
            coeffs = _float_list(i, "coeffs", data.get("coeffs"))
            if len(coeffs) > _MAX_POLY_DEGREE + 1:
                raise _fail(
                    i, f"poly degree {len(coeffs) - 1} exceeds {_MAX_POLY_DEGREE}"
                )
            try:
                segments.append(PolySegment(lo, hi, coeffs))
            except DensityError as e:
                raise _fail(i, str(e)) from e
        elif kind == "table":
            lo, hi = _parse_interval(i, raw.get("interval"), allow_unbounded=False)
            xs = _float_list(i, "x", data.get("x"), min_len=2)
            ds = _float_list(i, "density", data.get("density"), min_len=2)
            if len(xs) != len(ds):
                raise _fail(i, "x and density must have equal length")
            if abs(xs[0] - lo) > 1e-12 or abs(xs[-1] - hi) > 1e-12:
                raise _fail(i, "table x range must match the interval")
            try:
                segments.append(TableSegment(xs, ds))
            except DensityError as e:
                raise _fail(i, str(e)) from e
        elif kind == "pushforward-tail":
            if i != len(raw_segments) - 1:
                raise _fail(i, "pushforward-tail must be the last segment")
            lo, hi = _parse_interval(i, raw.get("interval"), allow_unbounded=True)
            if hi is not None:
                raise _fail(i, "pushforward-tail interval must be unbounded")
            k = data.get("k")
            if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= 4:
                raise _fail(i, f"k must be an integer in [0, 4], got {k!r}")
            delta = data.get("delta")
            if delta is not None and not _is_number(delta):
                raise _fail(i, f"delta must be a number or null, got {delta!r}")
            tail_request = {
                "index": i,
                "lo": lo,
                "k": k,
                "h_taylor": _float_list(i, "h_taylor", data.get("h_taylor"))
                if data.get("h_taylor") is not None
                else None,
                "delta": delta,
            }
        else:
            raise _fail(i, f"unknown kind {kind!r}")

    if tail_request is not None:
        return _rebuild_with_tail(segments, tail_request)
    try:
        return RadialDensity(segments)
    except DensityError as e:
        raise _fail(None, str(e)) from e


def _rebuild_with_tail(segments, req) -> RadialDensity:
    """Re-run the tail construction on the bounded pieces and validate it
    against the stored record."""
    from .counterexample import build_counterexample_density

    i = req["index"]
    if not segments or not all(isinstance(s, PolySegment) for s in segments):
        raise _fail(i, "pushforward-tail needs preceding poly segments only")
    third = 1.0 / 3.0
    cum = 0.0
    split = None
    for j, seg in enumerate(segments):
        cum += seg.mass
        if abs(cum - third) < 1e-9:
            split = j + 1
            break
        if cum > third:
            break
    if split is None:
        raise _fail(i, "bounded pieces do not split into mass-1/3 groups")
    try:
        rebuilt = build_counterexample_density(
            segments[:split], segments[split:], req["k"]
        )
    except (DensityError, GateFailed) as e:
        raise _fail(i, str(e)) from e
    if abs(rebuilt.s2 - req["lo"]) > 1e-9:
        raise _fail(i, "tail must start at the end of the bounded pieces")
    stored = req["h_taylor"]
    if stored is not None:
        got = rebuilt.tail_spec.h_taylor
        if len(stored) != len(got) or any(
            abs(a - b) > 1e-8 * max(1.0, abs(b)) for a, b in zip(stored, got)
        ):
            raise _fail(i, f"stored h_taylor {stored} disagrees with rebuilt {got}")
    if req["delta"] is not None:
        if abs(req["delta"] - rebuilt.tail_spec.delta) > 1e-12:
            raise _fail(i, "stored delta disagrees with rebuilt profile")
    return rebuilt


def to_dict(rho: RadialDensity) -> dict:
    """Serialize a density to the schema; see the module docstring.

    Pushforward tails serialize only when the density carries its
    construction record (densities built by the counterexample builder
    do); a bare tail segment has no finite description and is rejected.
    """
    from .counterexample import CounterexampleDensity

    segs = []
    for seg in rho.segments:
        if isinstance(seg, PolySegment):
            segs.append(
                {
                    "interval": [seg.lo, seg.hi],
                    "kind": "poly",
                    "data": {"coeffs": list(seg.coeffs)},
                }
            )
        elif isinstance(seg, TableSegment):
            segs.append(
                {
                    "interval": [seg.lo, seg.hi],
                    "kind": "table",
                    "data": {
                        "x": [float(v) for v in seg.x],
                        "density": [float(v) for v in seg.density],
                    },
                }
            )
        elif isinstance(rho, CounterexampleDensity) and seg is rho.segments[-1]:
            spec = rho.tail_spec
            segs.append(
                {
                    "interval": [rho.s2, None],
                    "kind": "pushforward-tail",
                    "data": {
                        "k": spec.order,
                        "h_taylor": list(spec.h_taylor),
                        "delta": spec.delta,
                    },
                }
            )
        else:
            raise DensityFormatError(
                f"segment of kind {getattr(seg, 'kind', type(seg).__name__)!r} "
                "has no serializable construction record"
            )
    return {"schema_version": SCHEMA_VERSION, "segments": segs}


def load(path) -> RadialDensity:
    """Read a density document from a JSON file."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise DensityFormatError(f"{p}: not valid JSON ({e})") from e
    return from_dict(doc)


def save(rho: RadialDensity, path) -> None:
    """Write a density document to a JSON file."""
    p = Path(path)
    p.write_text(json.dumps(to_dict(rho), indent=2) + "\n")
