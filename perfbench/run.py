"""Benchmark of the radialmot package on four seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-blocks --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for the inputs and checks):

    solve-blocks  `solve` on three-block densities where DDI is optimal
    solve-cex     `solve` on counterexample tail files, where no map is
    cex-build     `counterexample` for k = 1..4, then `map --check`
    cost-scalar   thousands of one-triple `cost` evaluations

The package is imported from ``src/`` of the checkout.  Inputs are made
from ``--seed``; each run sets them up several times and reports the
median set-up time, then runs every round once and further whole rounds
while they fit in ``--seconds``.  Every task's outputs are checked; a task
fails when it raises or a check does not hold.  ``attempted`` and
``failed`` count each distinct task once, at its first run, so they depend
on the seed alone and not on how many rounds fit; a repeated task whose
outcome differs from its first run makes the run report ``correct`` false.

All reported times are seconds at a reference machine speed: each raw time
is divided by the speed index sampled while it ran (see speed.py).  The
raw figures are printed on the ``# raw`` line.  ``wall_s`` is the mean
time of one round (the sum of its tasks' run times, checks excluded),
``task_p50_ms`` the median task time, ``import_s`` the best of three fresh
``import radialmot`` and ``setup_s`` the median of the set-up repeats
(at least nine, or three on solve-cex, and at least one second of them).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics instead.  The traced run executes every round twice, once plain
and once with spans around each call into the package, in alternating
order, and reports the ratio of the two as the tracing overhead.  Spans
are written to ``.perfbench_out/`` in the checkout.

The process pins itself, its threads and its children to one CPU and caps
the BLAS and OpenMP pools at one thread; everything runs in this process
except the fresh interpreters that time ``import radialmot``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
IMPORT_REPEATS = 3
IMPORT_TIMEOUT_S = 60
FIRST_TASKS_SHOWN = 8  # tasks listed with raw time and outcome on `# run`
SPEED_INTERVAL_S = 0.25  # between speed samples while work runs
# set-up repeats per run; solve-cex builds its tail files in set-up
SETUP_REPEATS = {"solve-cex": 3}
SETUP_REPEATS_DEFAULT = 9
# set-ups of a few milliseconds repeat until this much time has passed, so
# their median spans several speed samples rather than one
SETUP_MIN_S = 1.0

# a fresh interpreter times its own import with the speed monitor running
_IMPORT_SNIPPET = """\
import sys, time
sys.path.insert(0, {bench!r})
from speed import SpeedMonitor
with SpeedMonitor({interval!r}) as monitor:
    t0 = time.perf_counter()
    import radialmot
    t1 = time.perf_counter()
print(t1 - t0, monitor.adjust(t0, t1))
"""
IMPORT_SPEED_INTERVAL_S = 0.1


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_seconds(env) -> tuple[float, float]:
    """Best time of `import radialmot` over fresh interpreters, at the
    reference speed, and the raw median.  Interference only ever adds to a
    one-shot cost like this, so the best of several is the steady figure."""
    snippet = _IMPORT_SNIPPET.format(
        bench=str(Path(__file__).resolve().parent), interval=IMPORT_SPEED_INTERVAL_S
    )
    raw, ref = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", snippet],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=IMPORT_TIMEOUT_S,
            check=True,
        )
        seconds, at_ref = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        ref.append(at_ref)
    return min(ref), statistics.median(raw)


def _environment(cpu: int) -> dict:
    import numpy
    import scipy
    import sympy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "radialmot").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "cpu": model,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "thread_cap": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile; with one value, that value."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def _execute(task, tracer=None) -> tuple[float, float, list]:
    """Run and check one task; returns the start and end of its run and
    the failures found.

    With a tracer, the package calls of the run sit under one root span;
    the check runs after the wrappers are removed, so it stays out of the
    trace and out of the task's time.
    """
    from workloads import Failure

    fails = []
    if tracer is not None:
        tracer.install()
    try:
        with tracer.root("bench.task") if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            try:
                out = task.run()
            except Exception as e:  # a task that raises is a counted failure
                out = None
                first = (str(e).splitlines() or [""])[0][:200]
                fails.append(Failure(f"{task.stage}:{type(e).__name__}", first))
            t1 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not fails:
        try:
            fails = task.check(out)
        except Exception as e:  # a check that cannot evaluate an output
            first = (str(e).splitlines() or [""])[0][:200]
            fails = [Failure(f"check:{type(e).__name__}", first)]
    return t0, t1, fails


def _tally(task, fails, seconds: float, known: dict, record: dict) -> None:
    """Count a task's outcome at its first run; at a later run, report an
    outcome that differs from the first as an unknown failure."""
    names = sorted(f.name for f in fails)
    first = record["outcome"].get(id(task))
    if first is not None:
        if names != first:
            record["unknown"].append(
                f"{task.label}: outcome {names} on a repeat, {first} at first run"
            )
        return
    record["outcome"][id(task)] = names
    record["attempted"] += 1
    if len(record["first"]) < FIRST_TASKS_SHOWN:
        record["first"].append([task.label, seconds, names])
    if fails:
        record["failed"] += 1
        for f in fails:
            record["causes"][f.name] = record["causes"].get(f.name, 0) + 1
            if f.name not in known:
                record["unknown"].append(f"{task.label}: {f}")
            elif f.name not in record["examples"]:
                record["examples"][f.name] = f"{task.label}: {f.detail}"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "radialmot" / "__init__.py").is_file():
        print(f"error: no radialmot package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    # one CPU for this process, its threads and its children, so the speed
    # monitor measures the CPU the work runs on; one thread per pool
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    child_env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))

    import radialmot

    if Path(radialmot.__file__).resolve().parent != (SRC / "radialmot").resolve():
        print(f"error: imported radialmot from {radialmot.__file__}", file=sys.stderr)
        return 2

    import workloads

    setup = workloads.WORKLOADS.get(args.workload)
    if setup is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    known = workloads.KNOWN_DEFECTS

    from speed import SpeedMonitor

    import_s, import_raw = _import_seconds(child_env)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    record = {
        "attempted": 0,
        "failed": 0,
        "outcome": {},  # id(task) -> failure names at its first run
        "causes": {},
        "unknown": [],
        "examples": {},
        "first": [],
    }
    setups: list[tuple[float, float]] = []
    # (round, traced, start, end) of every task run
    entries: list[tuple[int, bool, float, float]] = []
    traced_tasks = []
    try:
        with SpeedMonitor(SPEED_INTERVAL_S) as monitor:
            repeats = SETUP_REPEATS.get(args.workload, SETUP_REPEATS_DEFAULT)
            setup_start = time.perf_counter()
            while len(setups) < repeats or setups[-1][1] - setup_start < SETUP_MIN_S:
                t0 = time.perf_counter()
                rounds = setup(args.seed, workdir)
                setups.append((t0, time.perf_counter()))

            start = time.perf_counter()
            r = 0
            while True:
                tasks = rounds[r % len(rounds)]
                if tracer is None:
                    passes = (False,)
                else:
                    # plain and traced passes over the same round, order alternating
                    passes = (False, True) if r % 2 == 0 else (True, False)
                for traced in passes:
                    for t in tasks:
                        t0, t1, fails = _execute(t, tracer if traced else None)
                        _tally(t, fails, t1 - t0, known, record)
                        entries.append((r, traced, t0, t1))
                    if traced:
                        traced_tasks.extend(tasks)
                r += 1
                elapsed = time.perf_counter() - start
                if r >= len(rounds) and elapsed * (r + 1) / r > args.seconds:
                    break  # every round ran; the next would not end in time
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = statistics.median(monitor.adjust(a, b) for a, b in setups)
    setup_raw = statistics.median(b - a for a, b in setups)
    latencies, raw_latencies = [], []
    walls: dict[tuple[int, bool], float] = {}
    for rnd, traced, t0, t1 in entries:
        ref = monitor.adjust(t0, t1)
        walls[(rnd, traced)] = walls.get((rnd, traced), 0.0) + ref
        if not traced:
            latencies.append(ref)
            raw_latencies.append(t1 - t0)
    round_walls = [w for (_, traced), w in walls.items() if not traced]
    traced_walls = [w for (_, traced), w in walls.items() if traced]

    attempted, failed = record["attempted"], record["failed"]
    print("# env " + json.dumps(_environment(cpu)))
    print(
        "# run "
        + json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "rounds": r,
                "tasks": attempted,
                "failed": failed,
                "failure_causes": record["causes"],
                "failure_examples": record["examples"],
                "unknown_failures": record["unknown"][:20],
                "first_tasks_raw_s": record["first"],
            }
        )
    )

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "import_s": (import_s, "s"),
            "wall_s": (statistics.fmean(round_walls), "s"),
            "task_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
        }
        print(
            "# latency "
            + json.dumps(
                {
                    "samples": len(latencies),
                    "p50_ms": statistics.median(latencies) * 1e3,
                    "p90_ms": _quantile(latencies, 0.9) * 1e3,
                }
            )
        )
        print(
            "# raw "
            + json.dumps(
                {
                    "speed_index_median": statistics.median(monitor.index),
                    "speed_samples": len(monitor.index),
                    "setup_s": setup_raw,
                    "import_s": import_raw,
                    "task_p50_ms": statistics.median(raw_latencies) * 1e3,
                }
            )
        )
    else:
        spans = tracer.spans
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        layer = tracing.layer_metrics(spans)
        counts: dict[str, int] = {}
        lp: dict[str, float] = {}
        for t in traced_tasks:
            for key, v in t.counts.items():
                counts[key] = max(counts.get(key, 0), v)
            for key, v in t.lp.items():
                lp[key] = max(lp.get(key, 0.0), v)
        layer.update(
            {
                "mot.lp.rows": lp.get("rows", 0),
                "mot.lp.columns": lp.get("columns", 0),
                "mot.lp.cert_residual": lp.get("cert_residual", 0.0),
                "counterexample.delta_halvings": counts.get("delta_halvings", 0),
                "counterexample.eps_halvings": counts.get("eps_halvings", 0),
                "counterexample.near_bisect_steps": counts.get("near_bisect_steps", 0),
                "counterexample.far_bisect_steps": counts.get("far_bisect_steps", 0),
                "trace.overhead_frac": sum(traced_walls) / sum(round_walls) - 1.0,
                "trace.spans": len(spans),
                "bench.failed_frac": failed / attempted,
                "bench.task_p90_ms": _quantile(latencies, 0.9) * 1e3,
            }
        )
        units = _per_layer_units()
        metrics = {name: (layer[name], units[name]) for name in units}

    result = {
        "correct": not record["unknown"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _per_layer_units() -> dict[str, str]:
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
