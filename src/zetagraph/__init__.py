"""Zeta functions of finite weighted graphs along independent determinant
routes, cross-validated against brute-force cycle enumeration.

Importing the package loads none of its layers: each public name, and each
submodule, is imported on first access (PEP 562), so a program that uses the
graph layer alone never loads the operator and route layers, or scipy.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "cycles": ("CycleRecord", "closed_sequences", "compute_Nm", "edge_sequence_label",
               "euler_product", "prime_cycles", "tail_mode_report"),
    "errors": ("GraphFormatError", "GraphValidationError", "ResourceCapError"),
    "families": ("GraphSource", "convergence_study", "make_source", "truncate_source"),
    "graph": ("GraphStats", "ValidationReport", "WeightedGraph", "graph_stats", "make_graph",
              "parse_graph", "serialize_graph", "validate"),
    "operators": ("LinearOperator", "anchored_path_matrix", "incidence_maps",
                  "transfer_matrix", "zigzag_matrix"),
    "routes": ("DiscrepancyReport", "RouteResult", "backtrack_weight_constant",
               "cross_validate", "spectrum_poles", "sunada_point_value", "zeta_bass",
               "zeta_classical", "zeta_fredholm", "zeta_partial_formula", "zeta_sunada"),
    "series": ("MatrixSeries", "Series", "coeffs_agree", "fredholm_det", "max_deviation"),
    "twist": ("LocalSystem", "gauge_transform", "lfunction", "make_local_system",
              "trivial_system", "validate_local_system"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules reachable as attributes: those that define public names and
# the two they import, as when the package imported its layers eagerly
_SUBMODULES = frozenset({"blas", "route_table", *_EXPORTS})

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
