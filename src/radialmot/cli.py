"""Command-line interface.

Subcommands:

    cost            angular minimum and collinear diagnostics for a triple
    map             tertile branch map table and verification for a density
    solve           discrete three-marginal solve vs. the branch-map cost
    counterexample  generate a gate-passing density and refute all patterns
    sweep           CSV grids (condition region, stationary sets, curves)

Densities travel as JSON files in the schema of density_io.  Reports are
human-readable by default; --json switches to a stable JSON document
with a schema_version field.  CSV output starts with "# key=value"
config-echo lines.

Exit codes: 0 success; 1 mathematical failure (failed gate, failed map
check, non-optimal verdict, infeasible search); 2 usage or input-format
errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import density_io
from .costs import (
    AngularConfig,
    Radii,
    alignment_condition,
    c_delta,
    c_pi,
    full_cost,
    phi_threshold,
)
from .counterexample import (
    ViolationCertificate,
    boundary_ratio_gate,
    check_graph_condition,
    example_counterexample_density,
    limit_margin,
    ratio_gate,
    refute_class_T,
)
from .density_io import SCHEMA_VERSION
from .errors import DegenerateRadii, DensityFormatError, InvalidRadii, RadialMotError
from .maps import PATTERNS, build_map, check_map
from .minimize import (
    find_stationary_points,
    radial_cost,
    trace_implicit_curves,
)
from .mot import LpCertificate, discretize, graph_triples, monge_cost, solve_exact


class _UsageError(Exception):
    """Input problems that should exit with code 2."""


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)  # JSON has no inf/nan; keep them readable
    return v


def _print_json(command: str, payload: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "command": command}
    doc.update(_jsonable(payload))
    print(json.dumps(doc, indent=2))


def _write_csv(out, config: dict, columns, rows) -> None:
    lines = [f"# {k}={_fmt(v)}" for k, v in config.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_density(path):
    try:
        return density_io.load(path)
    except FileNotFoundError as e:
        raise _UsageError(f"density file not found: {path}") from e
    except RadialMotError as e:
        raise _UsageError(str(e)) from e


# ---------------------------------------------------------------------------
# cost


def cmd_cost(args) -> int:
    r = Radii(args.r1, args.r2, args.r3)
    res = radial_cost(r)
    argmin = res.argmin.as_tuple()
    # the sorted triple's diagnostics; the kernel closes it where P > 0 is certain
    v = Radii(*sorted(r.as_tuple()))
    p = alignment_condition(v)
    try:
        phi = phi_threshold(v.r1, v.r2)
    except DegenerateRadii:
        phi = None
    collinear = res.candidates == 0
    payload = {
        "radii": [args.r1, args.r2, args.r3],
        "value": res.value,
        "argmin": list(argmin),
        "grid_value": res.grid_value,
        "c_pi": c_pi(v),
        "c_delta": c_delta(v),
        "alignment": p,
        "phi_threshold": phi,
        "argmin_collinear": collinear,
    }
    if args.angles is not None:
        bd = full_cost(r, AngularConfig(args.angles[0], args.angles[1]))
        payload["at_angles"] = {
            "angles": list(args.angles),
            "f12": bd.f12,
            "f13": bd.f13,
            "f23": bd.f23,
            "total": bd.total,
        }
    if args.json:
        _print_json("cost", payload)
    else:
        print(f"value          = {_fmt(res.value)}")
        print(f"argmin         = ({_fmt(argmin[0])}, {_fmt(argmin[1])})")
        print(f"argmin collinear = {'yes' if collinear else 'no'}")
        print(f"c_pi           = {_fmt(payload['c_pi'])}")
        print(f"c_delta        = {_fmt(payload['c_delta'])}")
        print(f"alignment P    = {_fmt(p)}")
        if phi is not None:
            print(f"phi(r1, r2)    = {_fmt(phi)}")
        if args.angles is not None:
            print(f"cost at angles = {_fmt(payload['at_angles']['total'])}")
    return 0


# ---------------------------------------------------------------------------
# map


def cmd_map(args) -> int:
    rho = _load_density(args.density)
    smap = build_map(rho, args.pattern)
    t = smap.tertiles
    rows = [o.as_tuple() for o in graph_triples(smap, args.samples)]
    diag = None
    if args.check:
        diag = check_map(smap, n_probe=args.probes)
    config = {
        "command": "map",
        "density": args.density,
        "pattern": args.pattern,
        "samples": args.samples,
        "s1": t.s1,
        "s2": t.s2,
    }
    if args.json:
        payload = {
            "density": args.density,
            "pattern": args.pattern,
            "s1": t.s1,
            "s2": t.s2,
            "columns": ["x", "t_x", "t2_x"],
            "rows": [list(r) for r in rows],
        }
        if diag is not None:
            payload["check"] = {
                "ok": diag.ok,
                "n_probes": diag.n_probes,
                "max_cycle_error": diag.max_cycle_error,
                "max_pushforward_error": diag.max_pushforward_error,
                "monotone_ok": list(diag.monotone_ok),
            }
        _print_json("map", payload)
    else:
        _write_csv(args.out, config, ["x", "t_x", "t2_x"], rows)
        if diag is not None:
            print(
                f"# check ok={_fmt(diag.ok)} cycle_err={_fmt(diag.max_cycle_error)} "
                f"pushforward_err={_fmt(diag.max_pushforward_error)}",
                file=sys.stderr,
            )
    if diag is not None and not diag.ok:
        return 1
    return 0


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    if not 0.0 <= args.tol < math.inf:
        raise _UsageError(f"--tol must be finite and >= 0, got {args.tol!r}")
    rho = _load_density(args.density)
    n_atoms = 3 * args.n
    problem = discretize(rho, n_atoms)
    exact = solve_exact(problem, method=args.method)
    brute_value = None
    if args.method == "brute":
        brute_value = exact.value
    elif n_atoms <= 8:
        brute_value = solve_exact(problem, method="brute").value
    ddi = build_map(rho, "DDI")
    monge = monge_cost(ddi, n=args.n)
    diff = monge.value - exact.value
    optimal = abs(diff) <= args.tol
    payload = {
        "density": args.density,
        "n": args.n,
        "n_atoms": n_atoms,
        "method": args.method,
        "exact_value": exact.value,
        "brute_value": brute_value,
        "monge_value": monge.value,
        "monge_minus_exact": diff,
        "tol": args.tol,
        "verdict": "monge-optimal" if optimal else "monge-suboptimal",
    }
    if isinstance(exact.certificate, LpCertificate):
        payload["lp_certificate"] = {
            "marginal_residual": exact.certificate.marginal_residual,
            "max_dual_violation": exact.certificate.max_dual_violation,
            "duality_gap": exact.certificate.duality_gap,
            "columns": exact.certificate.columns,
            "exact_columns": exact.certificate.exact_columns,
            "rounds": exact.certificate.rounds,
            "simplex_iterations": exact.certificate.simplex_iterations,
        }
    if args.json:
        _print_json("solve", payload)
    else:
        print(f"n per tertile  = {args.n} ({n_atoms} atoms)")
        print(f"{args.method} value       = {_fmt(exact.value)}")
        if brute_value is not None and args.method != "brute":
            print(f"brute value    = {_fmt(brute_value)}")
        print(f"monge (DDI)    = {_fmt(monge.value)}")
        print(f"difference     = {_fmt(diff)}")
        print(f"verdict        = {payload['verdict']}")
    return 0 if optimal else 1


# ---------------------------------------------------------------------------
# counterexample


def _certificate_doc(cert: ViolationCertificate, gates: dict) -> dict:
    meta = cert.metadata
    return {
        "pattern": cert.pattern,
        "l": cert.triple_a.x,
        "r": cert.triple_b.x,
        "triples": [list(cert.triple_a.as_tuple()), list(cert.triple_b.as_tuple())],
        "swap_triples": [list(cert.swapped_a), list(cert.swapped_b)],
        "costs": [
            cert.cost_a,
            cert.cost_b,
            cert.cost_swapped_a,
            cert.cost_swapped_b,
        ],
        "gap": cert.gap,
        "collinear_gap": cert.collinear_gap,
        "template": cert.template,
        "template_extrapolated": cert.template_extrapolated,
        "eps": meta.get("eps"),
        "M": meta.get("M"),
        "gates": gates,
    }


def cmd_counterexample(args) -> int:
    rho = example_counterexample_density(
        s1=args.s1, s2=args.s2, ratio=args.ratio, k=args.k
    )
    graph = check_graph_condition(rho, n=args.graph_probes)
    certs = refute_class_T(rho)
    # the window the DDI certificate used, from the density's own tertiles
    window = certs["DDI"].metadata
    gates = {
        "ratio_gate": ratio_gate(args.s1, args.s2),
        "boundary_ratio": rho.boundary_ratio,
        "boundary_gate": boundary_ratio_gate(rho.boundary_ratio),
        "graph_condition_worst": graph.worst_margin,
    }
    payload = {
        "s1": args.s1,
        "s2": args.s2,
        "ratio": args.ratio,
        "k": args.k,
        "gates": gates,
        "eps": window["eps"],
        "M": window["M"],
        "window_margin": window["window_margin"],
        "limit_margin": limit_margin(args.s1, args.s2),
        "h_taylor": list(rho.tail_spec.h_taylor),
        "certificates": {
            pat: _certificate_doc(c, gates) for pat, c in certs.items()
        },
    }
    if args.out:
        density_io.save(rho, args.out)
        payload["density_file"] = args.out
    if args.certs:
        Path(args.certs).write_text(
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "certificates": _jsonable(payload["certificates"]),
                },
                indent=2,
            )
            + "\n"
        )
        payload["certificates_file"] = args.certs
    if args.json:
        _print_json("counterexample", payload)
    else:
        print(f"s1={_fmt(args.s1)} s2={_fmt(args.s2)} ratio={_fmt(args.ratio)} k={args.k}")
        print(f"gates: ratio ok, boundary ratio {_fmt(rho.boundary_ratio)} > 7/2 ok")
        print(f"graph condition worst margin = {_fmt(graph.worst_margin)}")
        print(f"eps = {_fmt(window['eps'])}  M = {_fmt(window['M'])}")
        for pat, cert in certs.items():
            extra = " (template extrapolated)" if cert.template_extrapolated else ""
            print(
                f"{pat}: swap {cert.template} coordinates, "
                f"gap = {_fmt(cert.gap)}{extra}"
            )
        if args.out:
            print(f"density written to {args.out}")
        if args.certs:
            print(f"certificates written to {args.certs}")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_grid(lo: float, hi: float, steps: int) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _UsageError(f"sweep range must be finite, got [{lo!r}, {hi!r}]")
    if steps <= 0:
        return []
    if steps == 1:
        return [lo]
    if math.isinf(hi - lo):
        # halving is exact and keeps the step finite; doubling undoes it
        return (2.0 * np.linspace(lo / 2.0, hi / 2.0, steps)).tolist()
    return np.linspace(lo, hi, steps).tolist()


def cmd_sweep(args) -> int:
    config = {"command": "sweep", "what": args.what}
    if args.what == "condition":
        if args.r3_min is None or args.r3_max is None:
            raise _UsageError("condition sweep needs --r3-min and --r3-max")
        steps = 31 if args.steps is None else args.steps
        phi = phi_threshold(args.r1, args.r2)
        config.update(r1=args.r1, r2=args.r2, steps=steps, phi=phi)
        columns = ["r3", "alignment", "phi_gap"]
        rows = [
            (r3, alignment_condition((args.r1, args.r2, r3)), r3 - phi)
            for r3 in _sweep_grid(args.r3_min, args.r3_max, steps)
        ]
    elif args.what == "stationary":
        if args.r3_min is None or args.r3_max is None:
            raise _UsageError("stationary sweep needs --r3-min and --r3-max")
        steps = 7 if args.steps is None else args.steps
        config.update(r1=args.r1, r2=args.r2, steps=steps)
        kinds = ("min", "max", "saddle", "degenerate")
        columns = ["r3", "n_points", *(f"n_{k}" for k in kinds), "only_corners"]
        rows = []
        for r3 in _sweep_grid(args.r3_min, args.r3_max, steps):
            rep = find_stationary_points(Radii(args.r1, args.r2, r3))
            found = [p.classification for p in rep.points]
            counts = (found.count(k) for k in kinds)
            rows.append((r3, len(found), *counts, rep.only_corner_points))
    elif args.what == "curves":
        if args.r3 is None:
            raise _UsageError("curves sweep needs --r3")
        steps = 181 if args.steps is None else args.steps
        config.update(r1=args.r1, r2=args.r2, r3=args.r3, steps=steps)
        columns = ["beta", "alpha_pi", "alpha_0", "alpha_hat_pi", "alpha_hat_0"]
        if steps <= 0:
            rows = []
        else:
            bundle = trace_implicit_curves(
                Radii(args.r1, args.r2, args.r3), n_beta=max(steps, 2)
            )
            config.update(
                slope_alpha_pi=bundle.slope_alpha_pi,
                slope_alpha_hat_pi=bundle.slope_alpha_hat_pi,
                confinement_ok=bundle.confinement_ok,
            )
            rows = list(zip(*(getattr(bundle, c) for c in columns)))
    else:  # pragma: no cover - argparse restricts choices
        raise _UsageError(f"unknown sweep {args.what!r}")

    if args.json:
        _print_json(
            "sweep",
            {
                "config": {k: v for k, v in config.items() if k != "command"},
                "columns": columns,
                "rows": [list(r) for r in rows],
            },
        )
    else:
        _write_csv(args.out, config, columns, rows)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radialmot",
        description="Radial three-marginal Coulomb transport toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("cost", help="angular minimum for one radius triple")
    p.add_argument("r1", type=float)
    p.add_argument("r2", type=float)
    p.add_argument("r3", type=float)
    p.add_argument(
        "--angles",
        type=float,
        nargs=2,
        metavar=("ALPHA", "BETA"),
        help="also evaluate the cost at these angles",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("map", help="tertile branch map table for a density file")
    p.add_argument("density", help="density JSON file")
    p.add_argument("--pattern", choices=PATTERNS, default="DDI")
    p.add_argument("--check", action="store_true", help="run map verification")
    p.add_argument("--samples", type=int, default=25, help="table rows")
    p.add_argument("--probes", type=int, default=999, help="verification probes")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("solve", help="discrete solve vs. branch-map cost")
    p.add_argument("density", help="density JSON file")
    p.add_argument("--n", type=int, default=5, help="atoms per tertile")
    p.add_argument("--method", choices=("lp", "brute"), default="lp")
    p.add_argument("--tol", type=float, default=1e-6, help="verdict tolerance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "counterexample", help="generate a counterexample density and certificates"
    )
    p.add_argument("--s1", type=float, default=0.9)
    p.add_argument("--s2", type=float, default=1.0)
    p.add_argument("--ratio", type=float, default=4.0, help="rho(0)/rho(s2)")
    p.add_argument("--k", type=int, default=1, help="smoothness order at s2")
    p.add_argument("--graph-probes", type=int, default=64)
    p.add_argument("--out", help="write the density JSON here")
    p.add_argument("--certs", help="write the certificates JSON here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("sweep", help="CSV grids for plotting")
    p.add_argument("--what", choices=("condition", "stationary", "curves"), required=True)
    p.add_argument("--r1", type=float, default=1.0)
    p.add_argument("--r2", type=float, default=2.0)
    p.add_argument("--r3", type=float, help="fixed r3 (curves sweep)")
    p.add_argument("--r3-min", type=float, help="range start (condition/stationary)")
    p.add_argument("--r3-max", type=float, help="range end (condition/stationary)")
    p.add_argument("--steps", type=int, help="grid points (0 gives an empty table)")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, DensityFormatError, InvalidRadii) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RadialMotError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        # bad option values (--n, --k) reach the library as
        # ValueError; DegenerateRadii is a ValueError too but is caught
        # above as a mathematical failure
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
