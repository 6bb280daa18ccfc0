"""Zeta functions of finite weighted graphs along independent determinant
routes, cross-validated against brute-force cycle enumeration."""

from .cycles import (
    CycleRecord,
    closed_sequences,
    compute_Nm,
    edge_sequence_label,
    euler_product,
    prime_cycles,
    tail_mode_report,
)
from .errors import GraphFormatError, GraphValidationError, ResourceCapError
from .families import GraphSource, convergence_study, make_source, truncate_source
from .graph import (
    GraphStats,
    ValidationReport,
    WeightedGraph,
    graph_stats,
    make_graph,
    parse_graph,
    serialize_graph,
    validate,
)
from .operators import (
    LinearOperator,
    anchored_path_matrix,
    incidence_maps,
    transfer_matrix,
    zigzag_matrix,
)
from .routes import (
    DiscrepancyReport,
    RouteResult,
    backtrack_weight_constant,
    cross_validate,
    spectrum_poles,
    sunada_point_value,
    zeta_bass,
    zeta_classical,
    zeta_fredholm,
    zeta_partial_formula,
    zeta_sunada,
)
from .series import MatrixSeries, Series, coeffs_agree, fredholm_det, max_deviation
from .twist import (
    LocalSystem,
    gauge_transform,
    lfunction,
    make_local_system,
    trivial_system,
    validate_local_system,
)

__version__ = "0.1.0"

__all__ = [
    "CycleRecord",
    "DiscrepancyReport",
    "GraphFormatError",
    "GraphSource",
    "GraphStats",
    "GraphValidationError",
    "LinearOperator",
    "LocalSystem",
    "MatrixSeries",
    "ResourceCapError",
    "RouteResult",
    "Series",
    "ValidationReport",
    "WeightedGraph",
    "anchored_path_matrix",
    "backtrack_weight_constant",
    "closed_sequences",
    "coeffs_agree",
    "compute_Nm",
    "convergence_study",
    "cross_validate",
    "edge_sequence_label",
    "euler_product",
    "fredholm_det",
    "gauge_transform",
    "graph_stats",
    "incidence_maps",
    "lfunction",
    "make_graph",
    "make_local_system",
    "make_source",
    "max_deviation",
    "parse_graph",
    "prime_cycles",
    "serialize_graph",
    "spectrum_poles",
    "sunada_point_value",
    "tail_mode_report",
    "transfer_matrix",
    "trivial_system",
    "truncate_source",
    "validate",
    "validate_local_system",
    "zeta_bass",
    "zeta_classical",
    "zeta_fredholm",
    "zeta_partial_formula",
    "zeta_sunada",
    "zigzag_matrix",
]
