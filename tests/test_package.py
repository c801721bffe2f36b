"""The public names: each module's __all__ is their one list, and the
package's __all__ is the union of those lists."""

import importlib
import pkgutil

import radialmot

PUBLIC = [
    "AllInfinite",
    "AngularConfig",
    "BOUNDARY_RATIO_THRESHOLD",
    "CertificationError",
    "CornerValues",
    "CostBreakdown",
    "CounterexampleDensity",
    "Coupling",
    "CurveBundle",
    "DegenerateRadii",
    "DegenerateTertile",
    "DensityError",
    "DensityFormatError",
    "DiscreteProblem",
    "EpsM",
    "EpsMInfeasible",
    "EqualRadii",
    "GateFailed",
    "GraphConditionReport",
    "InfeasibleCost",
    "InvalidRadii",
    "JetNotPositive",
    "LiftResult",
    "LpCertificate",
    "MapDiagnostics",
    "MongeCertificate",
    "MongeCostResult",
    "MongeTriple",
    "OneDCheckResult",
    "PATTERNS",
    "PolySegment",
    "PushforwardTailSegment",
    "RATIO_THRESHOLD",
    "RadialCostResult",
    "RadialDensity",
    "RadialMotError",
    "Radii",
    "ReflectedLineDensity",
    "RegionEmpty",
    "RootNotBracketed",
    "SeidlMap",
    "SingularConfiguration",
    "SizeExceeded",
    "SolveResult",
    "StationaryPoint",
    "StationaryReport",
    "TableSegment",
    "TailSpec",
    "Tertiles",
    "Violation",
    "ViolationCertificate",
    "ViolationNotFound",
    "__version__",
    "alignment_condition",
    "block_density",
    "boundary_ratio_gate",
    "build_counterexample_density",
    "build_map",
    "c_1d",
    "c_delta",
    "c_pi",
    "canonical_angle",
    "check_graph_condition",
    "check_map",
    "corner_values",
    "discretize",
    "example_counterexample_density",
    "example_piece_specs",
    "find_eps_M",
    "find_stationary_points",
    "find_violation",
    "from_dict",
    "full_cost",
    "g_profile",
    "grad_hess",
    "graph_triples",
    "lift_radial_triple",
    "limit_margin",
    "load",
    "monge_cost",
    "one_d_increasing_map_check",
    "pair_distance_sq",
    "phi_threshold",
    "probe_cyclical_monotonicity",
    "radial_cost",
    "ratio_gate",
    "refute_class_T",
    "save",
    "solve_exact",
    "to_dict",
    "torus_distance",
    "trace_implicit_curves",
    "uniform_density",
]


def test_public_names_are_pinned():
    assert sorted(radialmot.__all__) == PUBLIC
    assert all(hasattr(radialmot, name) for name in PUBLIC)


def test_module_lists_feed_the_package():
    listed = set()
    for info in pkgutil.iter_modules(radialmot.__path__):
        module = importlib.import_module(f"radialmot.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert getattr(radialmot, name) is getattr(module, name)
            listed.add(name)
    assert listed | {"__version__"} == set(radialmot.__all__)
