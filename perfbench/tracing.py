"""Spans around calls into radialmot, recorded from outside the package.

Only the traced run installs these wrappers; the untraced run calls the
package unchanged.  Wrapping replaces module attributes and class methods
(``radialmot.mot.radial_cost``, ``RadialDensity.quantile`` and so on) and
restores them afterwards, so no source file of the package is edited.
Spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from statistics import median

import radialmot.costs
import radialmot.counterexample
import radialmot.density
import radialmot.density_io
import radialmot.maps
import radialmot.minimize
import radialmot.mot

# (owner, attribute, span name).  Three modules hold their own reference to
# radial_cost; wrapping all three nests kernel spans under discretize,
# monge_cost and the certificates.  build_counterexample_density is reached
# through the counterexample module by both the example builder and
# density_io.load, so its span nests under load too.
_TARGETS = (
    (radialmot.minimize, "radial_cost", "minimize.radial_cost"),
    (radialmot.mot, "radial_cost", "minimize.radial_cost"),
    (radialmot.counterexample, "radial_cost", "minimize.radial_cost"),
    (radialmot.costs, "alignment_condition", "costs.alignment_condition"),
    (radialmot.costs, "c_pi", "costs.c_pi"),
    (radialmot.costs, "phi_threshold", "costs.phi_threshold"),
    (radialmot.mot, "discretize", "mot.discretize"),
    (radialmot.mot, "solve_exact", "mot.solve_exact"),
    (radialmot.mot, "monge_cost", "mot.monge_cost"),
    (radialmot.maps, "build_map", "maps.build_map"),
    (radialmot.maps, "check_map", "maps.check_map"),
    (radialmot.maps.SeidlMap, "orbit", "maps.orbit"),
    (radialmot.density, "block_density", "density.block_density"),
    (radialmot.density.RadialDensity, "quantile", "density.quantile"),
    (radialmot.density.RadialDensity, "cdf", "density.cdf"),
    (radialmot.density_io, "load", "density_io.load"),
    (radialmot.density_io, "save", "density_io.save"),
    (
        radialmot.counterexample,
        "build_counterexample_density",
        "counterexample.build",
    ),
    (
        radialmot.counterexample,
        "check_graph_condition",
        "counterexample.check_graph_condition",
    ),
    (radialmot.counterexample, "find_eps_M", "counterexample.find_eps_M"),
    (radialmot.counterexample, "refute_class_T", "counterexample.refute"),
)

LAYERS = (
    "costs",
    "minimize",
    "density",
    "density_io",
    "maps",
    "mot",
    "counterexample",
    "bench",
)

# span record fields
NAME, START, END, PARENT, ARGS, RESULT = range(6)


class Tracer:
    """In-memory span log with a parent stack; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, args, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            rec[RESULT] = out
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name in _TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def root(self, name: str):
        """Span around one benchmark task, so its calls nest under it."""
        return _Root(self, name)

    def write(self, path) -> None:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start", "end", "parent"],
            "names": names,
            "spans": [
                [index[s[NAME]], s[START], s[END], s[PARENT]] for s in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _Root:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.rec = [name, 0.0, 0.0, -1, (), None]

    def __enter__(self):
        t = self.tracer
        self.rec[PARENT] = t._stack[-1] if t._stack else -1
        t._stack.append(len(t.spans))
        t.spans.append(self.rec)
        self.rec[START] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[END] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def _segment_kind(rho, x: float) -> str:
    """Kind of the segment that holds x, by the density's own lookup rule."""
    segs = rho.segments
    i = max(bisect_right([s.lo for s in segs], x) - 1, 0)
    return "tail" if segs[i].kind == "pushforward-tail" else "poly"


def _sorted_alignment(r) -> float:
    t = r.as_tuple() if hasattr(r, "as_tuple") else tuple(r)
    return radialmot.costs.alignment_condition(tuple(sorted(t)))


def _us(values) -> float:
    return median(values) * 1e6 if values else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer busy, self and per-call figures from one run's spans."""
    children = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]] += s[END] - s[START]
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for s, child in zip(spans, children):
        d = s[END] - s[START]
        busy[s[NAME]] = busy.get(s[NAME], 0.0) + d
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        self_by_layer[s[NAME].split(".")[0]] += d - child

    aligned, unaligned = [], []
    iters = cands = 0
    triples = 0
    disc_kernel = 0.0
    per_kind = {
        ("density.quantile", "poly"): [],
        ("density.quantile", "tail"): [],
        ("density.cdf", "poly"): [],
        ("density.cdf", "tail"): [],
    }
    for s in spans:
        name = s[NAME]
        if name == "minimize.radial_cost":
            res = s[RESULT]
            if res is None:  # raised
                continue
            iters += res.iterations
            cands += res.candidates
            try:
                p = _sorted_alignment(s[ARGS][0])
            except OverflowError:
                p = float("nan")
            (aligned if p >= 0.0 else unaligned).append(s[END] - s[START])
            parent = s[PARENT]
            if parent >= 0 and spans[parent][NAME] == "mot.discretize":
                triples += 1
                disc_kernel += s[END] - s[START]
        elif name == "density.quantile" and s[RESULT] is not None:
            kind = _segment_kind(s[ARGS][0], s[RESULT])
            per_kind[(name, kind)].append(s[END] - s[START])
        elif name == "density.cdf" and s[RESULT] is not None:
            kind = _segment_kind(s[ARGS][0], float(s[ARGS][1]))
            per_kind[(name, kind)].append(s[END] - s[START])

    n_eval = len(aligned) + len(unaligned)
    out = {
        "costs.aligned_frac": len(aligned) / n_eval if n_eval else 0.0,
        "minimize.radial_cost.calls": calls.get("minimize.radial_cost", 0),
        "minimize.radial_cost.busy_s": busy.get("minimize.radial_cost", 0.0),
        "minimize.radial_cost.aligned_us": _us(aligned),
        "minimize.radial_cost.unaligned_us": _us(unaligned),
        "minimize.radial_cost.newton_iters": iters,
        "minimize.radial_cost.candidates": cands,
        "mot.triples": triples,
        "mot.discretize.busy_s": busy.get("mot.discretize", 0.0),
        "mot.discretize.self_s": busy.get("mot.discretize", 0.0) - disc_kernel,
        "mot.solve_exact.busy_s": busy.get("mot.solve_exact", 0.0),
        "mot.monge_cost.busy_s": busy.get("mot.monge_cost", 0.0),
        "density.quantile.calls": calls.get("density.quantile", 0),
        "density.cdf.calls": calls.get("density.cdf", 0),
        "density.quantile.poly_us": _us(per_kind[("density.quantile", "poly")]),
        "density.quantile.tail_us": _us(per_kind[("density.quantile", "tail")]),
        "density.cdf.poly_us": _us(per_kind[("density.cdf", "poly")]),
        "density.cdf.tail_us": _us(per_kind[("density.cdf", "tail")]),
        "maps.check_map.busy_s": busy.get("maps.check_map", 0.0),
        "maps.orbit.calls": calls.get("maps.orbit", 0),
        "counterexample.build.busy_s": busy.get("counterexample.build", 0.0),
        "counterexample.refute.busy_s": busy.get("counterexample.refute", 0.0),
        "density_io.load.busy_s": busy.get("density_io.load", 0.0),
        "density_io.save.busy_s": busy.get("density_io.save", 0.0),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer]
    return out
