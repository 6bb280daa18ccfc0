"""Determinant routes to the reciprocal zeta function, cross-validated
against the cycle oracle.

Every route returns Z(u)^{-1} as a truncated series.  The Fredholm route
det(1 - uT) is normative; the factorization, block-determinant, partial
product, and unit-weight routes are independent computations checked
against it coefficient by coefficient.  Their matrices, and those of
spectrum_poles, are built on the graph's leafless core (WeightedGraph.core),
which has the same zeta and L-functions; applicability is judged on the
graph itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cycles import euler_product
from .errors import ResourceCapError
from .graph import WeightedGraph, canonical_order
from .operators import (
    incidence_maps,
    roundtrip_product,
    transfer_matrix,
    vertex_series,
    zigzag_matrix,
)
from .series import MatrixSeries, Series, coeffs_agree, fredholm_det, max_deviation, times_sparse


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
    L-series; the zeta function is the trivial one-dimensional case.  T is
    built on g.core, which has the same determinant."""
    T = transfer_matrix(g.core, system)
    return RouteResult("fredholm", fredholm_det(T.mat, M), {"dimension": T.mat.shape[0]})


def _factorization(g: WeightedGraph, M: int, system=None) -> tuple[Series, int]:
    """det of the vertex-space series times the roundtrip product, and the
    vertex dimension.  Equals det(1 - uT) for every backtrack set.

    With a local system of dimension d the incidence maps are twisted and
    each roundtrip factor is raised to the power d.  Both factors are built
    on g.core, so the pendant trees' roundtrip factors, which would cancel
    against the vertex series, never enter."""
    g = g.core
    ms = vertex_series(*incidence_maps(g, system), M)
    dim = 1 if system is None else system.dim
    return ms.det() * roundtrip_product(g, M, dim=dim), ms.dim


def zeta_sunada(g: WeightedGraph, M: int, system=None) -> RouteResult:
    """Factorization route: det of the vertex-space series times the
    roundtrip product over unoriented edges.  Empty backtrack set only; with
    a local system the result is the reciprocal L-series."""
    _require_no_flags(g, "sunada")
    series, vertex_dim = _factorization(g, M, system)
    return RouteResult("sunada", series.truncate(M), {"vertex_dimension": vertex_dim})


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


def _pencil_det(d: int, band, M: int) -> Series:
    """det(I + u C_1 + u^2 C_2) of dimension d as det(1 - uL), checked.

    L = [[-C_1, -C_2], [I, 0]] is the pencil's 2d x 2d companion matrix
    (Gohberg, Lancaster and Rodman, Matrix Polynomials, 1982): the Schur
    complement of its lower right block gives det(1 - uL) = det P(u), and L
    is as sparse as C_1 and C_2.  band lists its upper d x 2d band
    [-C_1, -C_2] as (row offset, column offset, scale, CSR block) pieces,
    summed where they overlap; L is assembled once from their concatenated
    coordinate arrays.  fredholm_det(L) gives the series and the pencil's
    own MatrixSeries.verify checks it."""
    rows, cols, vals = [np.arange(d, 2 * d)], [np.arange(d)], [np.ones(d)]
    top = np.zeros((d, 2 * d))
    for r0, c0, scale, block in band:
        r = r0 + np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))
        c, v = c0 + block.indices, scale * block.data
        np.add.at(top, (r, c), v)
        rows.append(r)
        cols.append(c)
        vals.append(v)
    L = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(2 * d, 2 * d))
    pencil = MatrixSeries([np.eye(d), -top[:, :d], -top[:, d:]], M)
    return pencil.verify(fredholm_det(L, M))


def zeta_bass(g: WeightedGraph, M: int, variant: str = "corrected") -> RouteResult:
    """Block determinant on vertex-plus-edge space.

    The matrix is [[1 - uA + u^2 B_2, u^2 tau flip^k], [u sigma, 1 + u flip]]
    with k = 2 for the corrected variant (the block forced by multiplying
    the factorization's own L and M matrices) and k = 1 as the source
    theorem displays it.  The corrected variant matches the Fredholm route;
    the as-printed one is retained to document the discrepancy.  The
    determinant is taken as det(1 - uL) of the sparse companion of this
    quadratic pencil in u, see _pencil_det.  The corrected variant is built
    on g.core, the as-printed one on g itself."""
    _require_no_flags(g, "bass")
    if variant not in ("corrected", "as-printed"):
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "corrected":
        g = g.core
    spread, endpoint, flip = (op.mat for op in incidence_maps(g))
    nv, ne = endpoint.shape
    corner = endpoint @ flip if variant == "as-printed" else endpoint @ flip @ flip
    band = [(0, 0, 1.0, zigzag_matrix(g, 1).mat), (nv, 0, -1.0, spread),
            (nv, nv, -1.0, flip), (0, nv + ne, -1.0, zigzag_matrix(g, 2).mat),
            (0, 2 * nv + ne, -1.0, corner)]
    series = _pencil_det(nv + ne, band, M)
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
    det(vertex series) * prod over unoriented edges with no flagged
    orientation (1 - u^2 W) * exp(-alpha u^2).

    The first two factors are the factorization, which equals det(1 - uT)
    for every flag set, so the route deviates from the Fredholm determinant
    by exactly the factor exp(-alpha u^2).  Symmetric flag sets have
    alpha = 0 and the route is exact; on one-sided flag sets the deviation
    is flagged, not fixed."""
    alpha = backtrack_weight_constant(g, alpha_variant)
    series, _ = _factorization(g, M)
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
    chi the Euler number; valid only when every weight is 1.  Built on
    g.core, which has the same Euler number."""
    _require_no_flags(g, "classical")
    if not has_unit_weights(g):
        raise ValueError("classical route requires unit weights")
    g = g.core
    nv = len(g.vertices)
    # L = [[A, -Q], [I, 0]] with Q = B_2 - I (valency - 1): the Ihara-Bass
    # matrix of Kotani and Sunada (2000)
    band = [(0, 0, 1.0, zigzag_matrix(g, 1).mat), (0, nv, -1.0, zigzag_matrix(g, 2).mat),
            (0, nv, 1.0, sp.identity(nv, format="csr"))]
    det = _pencil_det(nv, band, M)
    chi = len(g.vertices) - len(g.edges)
    if chi == 1:  # a tree: (1 - u^2)^-1 = 1 + u^2 + u^4 + ...
        series = det * Series([1.0, 0.0] * (M // 2 + 1), order=M)
    else:
        series = times_sparse(det, [((1.0, -1.0), 2)] * -chi)
    return RouteResult("classical", series, {"euler_number": chi})


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
    then marked experimental, since its exp(-alpha u^2) factor is not 1
    there).  tol must be a finite number >= 0.
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
    clustered into multiplicities, sorted by modulus then argument.

    The cap applies to g's own edge dimension; T is built on g.core, whose
    nonzero eigenvalues are those of g's transfer operator."""
    if 2 * len(g.edges) > POLE_DIMENSION_CAP:
        raise ResourceCapError(
            f"edge dimension {2 * len(g.edges)} exceeds pole cap {POLE_DIMENSION_CAP}"
        )
    T = transfer_matrix(g.core)
    # thresholds are relative to ||T||_1, so scaling every weight by c scales
    # every pole by 1/c and leaves the multiplicities alone
    scale = np.asarray(abs(T.mat).sum(axis=0)).max(initial=0.0)
    eig = np.linalg.eigvals(T.dense())
    # rounding keeps equal-modulus poles adjacent despite float noise
    poles = sorted(
        (1.0 / lam for lam in eig if abs(lam) > 1e-12 * scale),
        key=lambda p: (round(abs(p) * scale, 9), round(float(np.angle(p)), 9)),
    )
    clustered: list[tuple[complex, int]] = []
    for p in poles:
        if clustered and abs(p - clustered[-1][0]) <= 1e-8 * abs(clustered[-1][0]):
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
