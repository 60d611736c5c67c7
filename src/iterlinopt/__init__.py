"""Fixed-point iteration of linear maximization over convex bodies.

The map sends a point to the domain's maximizer of the linear functional it
defines; iterating it climbs the squared norm and settles on distinguished
boundary points. The package provides closed-form oracles for balls,
ellipsoids, polytopes and cones, a coordinate-ascent oracle for the
unit-diagonal PSD body with an algebraic fixed-point certificate, fixed
point catalogs and classification, and a deterministic max-cut rounding
pipeline built on the iteration.

Importing the package loads none of its modules: each exported name loads
its home module the first time it is used (PEP 562), so that a command of
the CLI, which runs in a fresh interpreter, compiles only what it uses.
"""

import importlib

__version__ = "0.1.0"

# The exported names, under the module that defines each
_EXPORTS = {
    "classify": (
        "ClassificationResult",
        "EscapeWitness",
        "ExactClassification",
        "classify_elliptope_fixed_point",
        "classify_empirical",
    ),
    "domains": (
        "BallDomain",
        "ConeDomain",
        "ConvexDomain",
        "DomainError",
        "EllipsoidDomain",
        "PolytopeDomain",
        "load_domain",
    ),
    "elliptope": (
        "CensusPoint",
        "DiagonalCertificate",
        "ElliptopeDomain",
        "ElliptopeError",
        "FixedPointReport",
        "OracleConfig",
        "OracleResult",
        "analyze_fixed_point",
        "default_rank_budget",
        "elliptope_oracle",
        "enumerate_vertices",
        "escape_curve",
        "escape_pair",
        "fixed_point_certificate",
        "gram_factor",
        "gram_to_matrix",
        "is_in_elliptope",
        "l3_census",
        "l4_family",
        "read_matrix_text",
        "sign_kernel_census",
        "sign_kernel_fixed_point",
        "write_matrix_text",
    ),
    "engine": (
        "InfeasibleStartError",
        "IterationConfig",
        "MonotoneReport",
        "Trajectory",
        "check_monotone",
        "iterate",
    ),
    "maxcut": (
        "GraphFormatError",
        "MaxcutReport",
        "RoundingReport",
        "WeightedGraph",
        "brute_force_maxcut",
        "cut_value",
        "gw_hyperplane_round",
        "load_graph",
        "maxcut_pipeline",
        "relaxation_cost",
        "round_by_iteration",
        "solve_relaxation",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __name__), name)
            globals()[name] = value  # later lookups skip this function
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
