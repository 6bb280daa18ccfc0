"""Determinant routes to the reciprocal zeta function, cross-validated
against the cycle oracle.

Every route returns Z(u)^{-1} as a truncated series.  The Fredholm route
det(1 - uT) is normative; the factorization, block-determinant, partial
product, and unit-weight routes are independent computations checked
against it coefficient by coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycles import euler_product
from .errors import ResourceCapError
from .graph import WeightedGraph, canonical_order
from .operators import (
    adjacency_matrix,
    excess_matrix,
    incidence_maps,
    roundtrip_product,
    transfer_matrix,
    vertex_series,
    zigzag_matrix,
)
from .series import MatrixSeries, Series, coeffs_agree, fredholm_det, max_deviation


@dataclass(frozen=True)
class RouteResult:
    route: str
    series: Series
    metadata: dict

    def __post_init__(self):
        if abs(self.series.coefficient(0) - 1.0) > 1e-12:
            raise ArithmeticError(f"route {self.route}: constant coefficient is not 1")


@dataclass(frozen=True)
class PairVerdict:
    route_a: str
    route_b: str
    max_dev: float
    agree: bool


@dataclass(frozen=True)
class DiscrepancyReport:
    order: int
    tolerance: float
    pairs: tuple[PairVerdict, ...]
    flags: tuple[str, ...]

    @property
    def all_agree(self) -> bool:
        return all(p.agree for p in self.pairs)

    def csv_lines(self) -> list[str]:
        lines = ["routeA,routeB,max_dev,verdict"]
        for p in self.pairs:
            verdict = "agree" if p.agree else "disagree"
            lines.append(f"{p.route_a},{p.route_b},{p.max_dev!r},{verdict}")
        return lines


def _require_no_flags(g: WeightedGraph, route: str) -> None:
    if g.backtrack:
        raise ValueError(f"route {route} requires an empty backtrack set")


def has_unit_weights(g: WeightedGraph) -> bool:
    """Every oriented weight within 1e-12 of 1: where the classical route applies."""
    return all(abs(w - 1.0) <= 1e-12 for w in g.weight.values())


def zeta_fredholm(g: WeightedGraph, M: int, system=None) -> RouteResult:
    """Z^{-1} = det(1 - uT) via power traces.  Works for any backtrack set.

    With a local system T is twisted and the result is the reciprocal
    L-series; the zeta function is the trivial one-dimensional case."""
    T = transfer_matrix(g, system)
    return RouteResult("fredholm", fredholm_det(T.mat, M), {"dimension": T.mat.shape[0]})


def zeta_sunada(g: WeightedGraph, M: int, system=None) -> RouteResult:
    """Factorization route: det of the vertex-space series times the
    roundtrip product over unoriented edges.  Empty backtrack set only.

    With a local system of dimension d the incidence maps are twisted and
    each roundtrip factor is raised to the power d."""
    _require_no_flags(g, "sunada")
    ms = vertex_series(*incidence_maps(g, system), M)
    dim = 1 if system is None else system.dim
    series = ms.det() * roundtrip_product(g, M, dim=dim)
    return RouteResult("sunada", series.truncate(M), {"vertex_dimension": ms.dim})


def sunada_point_value(g: WeightedGraph, u0: complex) -> complex:
    """Exact value of Z^{-1}(u0) from the closed-form vertex matrix.

    Entries: diagonal 1 + sum_{x'} u0^2 W/(1 - u0^2 W), off-diagonal
    -u0 w(x,x')/(1 - u0^2 W(x,x')).  Valid strictly inside the disc of
    radius min_e 1/sqrt(W(e)); raises outside or on the boundary."""
    _require_no_flags(g, "sunada")
    verts, _ = canonical_order(g)
    vi = {x: i for i, x in enumerate(verts)}
    Ws = [g.weight[(u, v)] * g.weight[(v, u)] for u, v in g.edges]
    if Ws:
        radius = 1.0 / np.sqrt(max(Ws))
        if abs(u0) >= radius:
            raise ValueError(
                f"|u0|={abs(u0):.6g} is not inside the convergence disc of radius {radius:.6g}"
            )
    B = np.eye(len(verts), dtype=np.complex128)
    u2 = u0 * u0
    for x in verts:
        for y in g.neighbors(x):
            W = g.weight[(x, y)] * g.weight[(y, x)]
            B[vi[x], vi[x]] += u2 * W / (1 - u2 * W)
            B[vi[y], vi[x]] += -u0 * g.weight[(x, y)] / (1 - u2 * W)
    value = np.linalg.det(B)
    for W in Ws:
        value *= 1 - u2 * W
    return complex(value)


def zeta_bass(g: WeightedGraph, M: int, variant: str = "corrected") -> RouteResult:
    """Block determinant on vertex-plus-edge space.

    The matrix is [[1 - uA + u^2 B_2, u^2 tau flip^k], [u sigma, 1 + u flip]]
    with k = 2 for the corrected variant (the block forced by multiplying
    the factorization's own L and M matrices) and k = 1 as the source
    theorem displays it.  The corrected variant matches the Fredholm route;
    the as-printed one is retained to document the discrepancy."""
    _require_no_flags(g, "bass")
    if variant not in ("corrected", "as-printed"):
        raise ValueError(f"unknown variant {variant!r}")
    s_d, t_d, j_d = (op.dense() for op in incidence_maps(g))
    A = adjacency_matrix(g).dense()
    nv, ne = A.shape[0], j_d.shape[0]
    k = 2 if variant == "corrected" else 1
    c1 = np.block([[-A, np.zeros((nv, ne))], [s_d, j_d]])
    c2 = np.zeros_like(c1)
    c2[:nv] = np.hstack([zigzag_matrix(g, 2).dense(), t_d @ np.linalg.matrix_power(j_d, k)])
    series = MatrixSeries([np.eye(nv + ne), c1, c2], M).det()
    return RouteResult("bass", series, {"variant": variant, "block_sizes": (nv, ne)})


def backtrack_weight_constant(g: WeightedGraph, variant: str = "W") -> float:
    """The exponential correction constant for the partial product formula.

    Sums over ordered adjacent pairs with departure unflagged and return
    flagged.  The W variant uses the roundtrip weight (forced by the trace
    identity behind the formula); the w-squared variant uses the squared
    departure weight as the source displays it.  Symmetric flag sets make
    the sum empty, so the constant is exactly 0.
    """
    if variant not in ("W", "w-squared"):
        raise ValueError(f"unknown alpha variant {variant!r}")
    total = 0.0
    for x in g.vertices:
        for y in g.neighbors(x):
            if (x, y) in g.backtrack or (y, x) not in g.backtrack:
                continue
            if variant == "W":
                total += g.weight[(x, y)] * g.weight[(y, x)]
            else:
                total += g.weight[(x, y)] ** 2
    return 0.5 * total


def zeta_partial_formula(g: WeightedGraph, M: int, alpha_variant: str = "W") -> RouteResult:
    """Product formula for graphs with backtrack flags:
    det(vertex series) * prod over unflagged unoriented edges (1 - u^2 W)
    * exp(-alpha u^2).  Exact for symmetric flag sets; for asymmetric ones
    it is known to deviate from the Fredholm determinant and the result is
    flagged, not fixed."""
    alpha = backtrack_weight_constant(g, alpha_variant)
    head = vertex_series(*incidence_maps(g), M).coeffs
    # orders 1-2 are the zigzag walks, which filter only flagged departures
    zigzag = [-zigzag_matrix(g, 1).dense(), zigzag_matrix(g, 2).dense()]
    det = MatrixSeries([head[0], *zigzag, *head[3:]], M).det()
    flagged = {frozenset(e) for e in g.backtrack}
    series = det * roundtrip_product(g, M, skip=flagged)
    if alpha != 0.0:
        series = series * Series([0.0, 0.0, -alpha], order=M).exp()
    return RouteResult(
        "partial",
        series.truncate(M),
        {
            "alpha": alpha,
            "alpha_variant": alpha_variant,
            "symmetric_flags": g.has_symmetric_backtrack(),
        },
    )


def zeta_classical(g: WeightedGraph, M: int) -> RouteResult:
    """Unit-weight specialization (1-u^2)^{-chi} det(1 - uA + u^2 Q) with
    chi the Euler number; valid only when every weight is 1."""
    _require_no_flags(g, "classical")
    if not has_unit_weights(g):
        raise ValueError("classical route requires unit weights")
    A = adjacency_matrix(g).dense()
    det = MatrixSeries([np.eye(A.shape[0]), -A, excess_matrix(g).dense()], M).det()
    chi = len(g.vertices) - len(g.edges)
    base = Series([1.0, 0.0, -1.0], order=M)
    factor = base.invert() if chi > 0 else base
    series = det
    for _ in range(abs(chi)):
        series = series * factor
    return RouteResult("classical", series.truncate(M), {"euler_number": chi})


ROUTE_BUILDERS = {
    "fredholm": zeta_fredholm,
    "sunada": zeta_sunada,
    "bass": zeta_bass,
    "partial": zeta_partial_formula,
    "classical": zeta_classical,
}


def cross_validate(
    g: WeightedGraph, M: int, include_experimental: bool = False, tol: float = 1e-9
) -> DiscrepancyReport:
    """Run the oracle plus every applicable route and compare pairwise.

    Applicability: fredholm always; sunada and bass need no flags;
    classical additionally needs unit weights; the partial formula runs for
    symmetric flag sets, and for asymmetric ones only on request (it is
    then marked experimental, since it provably deviates there).  tol must
    be a finite number >= 0.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    series: dict[str, Series] = {}
    series["oracle"] = euler_product(g, M)
    series["fredholm"] = zeta_fredholm(g, M).series
    flags: list[str] = []
    if not g.backtrack:
        series["sunada"] = zeta_sunada(g, M).series
        series["bass"] = zeta_bass(g, M).series
        if has_unit_weights(g):
            series["classical"] = zeta_classical(g, M).series
    else:
        if g.has_symmetric_backtrack():
            series["partial"] = zeta_partial_formula(g, M).series
        else:
            flags.append("asymmetric-backtrack-set")
            if include_experimental:
                series["partial"] = zeta_partial_formula(g, M).series
                flags.append("experimental:partial")
    names = sorted(series)
    pairs = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            dev = max_deviation(series[a], series[b])
            pairs.append(PairVerdict(a, b, dev, coeffs_agree(series[a], series[b], tol)))
    return DiscrepancyReport(M, tol, tuple(pairs), tuple(flags))


POLE_DIMENSION_CAP = 2000


def spectrum_poles(g: WeightedGraph) -> list[tuple[complex, int]]:
    """Poles of Z as reciprocal eigenvalues of the transfer operator,
    clustered into multiplicities, sorted by modulus then argument."""
    T = transfer_matrix(g)
    if len(T.rows) > POLE_DIMENSION_CAP:
        raise ResourceCapError(
            f"edge dimension {len(T.rows)} exceeds pole cap {POLE_DIMENSION_CAP}"
        )
    eig = np.linalg.eigvals(T.dense())
    # rounding keeps equal-modulus poles adjacent despite float noise
    poles = sorted(
        (1.0 / lam for lam in eig if abs(lam) > 1e-12),
        key=lambda p: (round(abs(p), 9), round(float(np.angle(p)), 9)),
    )
    clustered: list[tuple[complex, int]] = []
    for p in poles:
        if clustered and abs(p - clustered[-1][0]) <= 1e-8 * max(1.0, abs(clustered[-1][0])):
            clustered[-1] = (clustered[-1][0], clustered[-1][1] + 1)
        else:
            clustered.append((p, 1))
    return clustered


def poles_csv_lines(poles: list[tuple[complex, int]]) -> list[str]:
    from .series import _fmt

    lines = ["re,im,multiplicity"]
    for p, mult in poles:
        lines.append(f"{_fmt(p.real)},{_fmt(p.imag)},{mult}")
    return lines
