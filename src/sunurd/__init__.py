"""Uniformly resolvable decompositions of K_v into perfect matchings and
sun-graph factors: spectrum arithmetic, constructions, and an independent
verifier.

Public names load on first use (PEP 562): ``import sunurd`` imports no
submodule, and ``sunurd.verify`` imports only the modules ``verify`` needs.
"""

import importlib

# The public names, by the module that defines them.
_EXPORTS = {
    "base_designs": ("UrgddKind", "one_factorization", "urd6_h3", "urd12_h3", "urgdd_ch2"),
    "builder": (
        "BuildPlan", "InadmissibleTuple", "Route", "build", "build_all", "build_with_plan",
        "inflate_cycle", "plan",
    ),
    "core": (
        "CycleFactorization", "Decomposition", "Edge", "Finding", "HostGraph", "ParallelClass",
        "Sun", "VerificationReport", "canonical_cycle", "canonical_decomposition",
        "canonicalize_sun", "edge", "host_edges", "host_vertices", "sun_edges",
        "validate_cycle_factorization", "verify", "vertex_profile",
    ),
    "factorizations": (
        "IngredientSource", "IngredientUnavailable", "SearchResult", "SeedCatalogError",
        "cycle_factorization_minus_f", "cycle_factorization_odd", "load_seed_catalog",
        "search_cycle_factorization",
    ),
    "serialization": (
        "Document", "DocumentFormatError", "dumps_document", "from_document", "loads_document",
        "to_document",
    ),
    "spectrum": (
        "Admissibility", "ParamTuple", "Reason", "SpectrumPair", "admissible_pairs",
        "check_necessary", "enumerate_by_counting", "inadmissibility_reason",
    ),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
