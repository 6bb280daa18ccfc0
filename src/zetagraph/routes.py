"""Determinant routes to the reciprocal zeta function, cross-validated
against the cycle oracle.

Every route returns Z(u)^{-1} as a truncated series.  The Fredholm route
det(1 - uT) is normative; the factorization, block-determinant, partial
product, and unit-weight routes are independent computations checked against
it coefficient by coefficient.  Each adds the power sums of its factors and
ends in one guarded Newton step, which refuses a coefficient it cannot
certify.  Where the route's matrix holds its exact numbers (each route
decides that of its own matrix), _exact_where_refused recomputes a refused
series by series.exact_det instead, within its budget.
Their matrices, and those of spectrum_poles, are built on the graph's
leafless core (WeightedGraph.core), which has the same zeta and
L-functions; applicability is judged on the graph itself, once, by why_not
from the route's entry in ROUTES (both in route_table, re-exported here).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .blas import eigvals
from .cycles import euler_product
from .errors import RefusalError, ResourceCapError
from .graph import WeightedGraph, _fmt, canonical_order
from .operators import incidence_maps, transfer_matrix, vertex_series, zigzag_matrix
from .route_table import ROUTES, Applicability, why_not  # re-exported
from .series import Series, coeffs_agree, exact_det, fredholm_det, max_deviation


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
    """cross_validate's verdicts on the series left after the refused
    (route, message) pairs, the routes that raised RefusalError."""

    order: int
    tolerance: float
    pairs: tuple[PairVerdict, ...]
    flags: tuple[str, ...]
    refused: tuple[tuple[str, str], ...]

    @property
    def all_agree(self) -> bool:
        return all(p.agree for p in self.pairs)

    def csv_lines(self) -> list[str]:
        lines = ["routeA,routeB,max_dev,verdict"]
        for p in self.pairs:
            verdict = "agree" if p.agree else "disagree"
            lines.append(f"{p.route_a},{p.route_b},{p.max_dev!r},{verdict}")
        return lines


def _require(name: str, g: WeightedGraph, system=None) -> None:
    if reason := why_not(name, g, system):
        raise ValueError(reason)


def zeta_fredholm(g: WeightedGraph, M: int, system=None) -> RouteResult:
    """Z^{-1} = det(1 - uT) via power traces.  Works for any backtrack set.

    With a local system T is twisted and the result is the reciprocal
    L-series; the zeta function is the trivial one-dimensional case.  T is
    built on g.core, which has the same determinant.  T holds the weights
    themselves, times the transports under a system, so the head [-T] is
    exact where no entry has an imaginary part: untwisted, or under real
    transports such as a trivial system's."""
    T = transfer_matrix(g.core, system).mat
    series = _exact_where_refused(partial(fredholm_det, T, M), M,
                                  lambda: None if np.any(T.data.imag) else [-T.real])
    return RouteResult("fredholm", series, {"dimension": T.shape[0]})


def _exact_where_refused(det, M: int, exact_head, extra=None) -> Series:
    """det(extra), or where its guard refuses and exact_head() gives the real
    head of the same determinant in the route's exact numbers (None where
    the matrix does not hold them), exact_det of it within its budget."""
    try:
        return det(extra)
    except RefusalError:
        if (head := exact_head()) is not None and (series := exact_det(head, M, extra)) is not None:
            return series
        raise


def _factorization(g: WeightedGraph, M: int, system=None, alpha=0.0) -> tuple[Series, int]:
    """det(1 - uT) exp(-alpha u^2), for every backtrack set, and dim P.

    log det(1 - uT) = log det P + d sum_e log(1 - u^2 W(e)) over the pairs
    with no flagged orientation, P the vertex series and d the system's
    dimension: each pair adds 2d W(e)^k to the power sum p_2k, d W^k per
    orientation, and exp(-alpha u^2) adds 2 alpha to p_2.  MatrixSeries.det
    adds them to its sums, up to the degree dim T = |OE| d (M where alpha is
    not 0): det P and the roundtrip product, which grow while their product
    stays small, are never expanded.  Built on g.core, as are its pairs.

    The head is exact where it is real and integer-valued: integer weights,
    untwisted or under a system of integer transports, whose added sums are
    then integers too (a half-integer alpha)."""
    g = g.core
    ms = vertex_series(*incidence_maps(g, system), M)
    dim = 1 if system is None else system.dim
    _, edges, _, _, reversal, weight, unflagged = g.edge_arrays
    n = M if alpha else min(M, dim * len(edges))
    W = (weight * weight[reversal])[unflagged & unflagged[reversal]]
    extra = np.zeros(n + 1)
    extra[2::2] = dim * np.power.outer(W, np.arange(1, n // 2 + 1)).sum(axis=0)
    extra[2:3] += 2 * alpha
    C = ms.coeffs[1:]
    series = _exact_where_refused(ms.det, M, lambda: None if np.any(C != C.real.round())
                                  else C.real, extra)
    return series, ms.dim


def zeta_sunada(g: WeightedGraph, M: int, system=None) -> RouteResult:
    """Factorization route: det of the vertex series times the roundtrip
    product, see _factorization.  Empty backtrack set only; with a local
    system the result is the reciprocal L-series."""
    _require("sunada", g, system)
    series, vertex_dim = _factorization(g, M, system)
    return RouteResult("sunada", series, {"vertex_dimension": vertex_dim})


def sunada_point_value(g: WeightedGraph, u0: complex) -> complex:
    """Exact value of Z^{-1}(u0) from the closed-form vertex matrix.

    Entries: diagonal 1 + sum_{x'} u0^2 W/(1 - u0^2 W), off-diagonal
    -u0 w(x,x')/(1 - u0^2 W(x,x')).  Valid strictly inside the disc of
    radius min_e 1/sqrt(W(e)); raises outside or on the boundary."""
    _require("sunada", g)
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


def _pencil_det(d: int, band, M: int, extra=None) -> Series:
    """det(I + u C_1 + u^2 C_2) of dimension d as det(1 - uL), times
    exp(-sum_j extra_j u^j / j) where extra is given (see fredholm_det).

    L = [[-C_1, -C_2], [I, 0]] is the pencil's 2d x 2d companion matrix
    (Gohberg, Lancaster and Rodman, Matrix Polynomials, 1982): the Schur
    complement of its lower right block gives det(1 - uL) = det P(u), and L
    is as sparse as C_1 and C_2.  band lists its upper d x 2d band
    [-C_1, -C_2] as (row offset, column offset, scale, CSR block) pieces,
    summed where they overlap; L is assembled once from their concatenated
    coordinate arrays.  The head [-L] is exact where L is integer-valued
    (integer weights)."""
    rows, cols, vals = [np.arange(d, 2 * d)], [np.arange(d)], [np.ones(d)]
    for r0, c0, scale, block in band:
        rows.append(r0 + np.repeat(np.arange(block.shape[0]), np.diff(block.indptr)))
        cols.append(c0 + block.indices)
        vals.append(scale * block.data)
    L = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(2 * d, 2 * d))
    return _exact_where_refused(partial(fredholm_det, L, M), M,
                                lambda: None if np.any(L.data % 1) else [-L], extra)


def zeta_bass(g: WeightedGraph, M: int, variant: str = "corrected") -> RouteResult:
    """Block determinant on vertex-plus-edge space.

    The matrix is [[1 - uA + u^2 B_2, u^2 tau flip^k], [u sigma, 1 + u flip]]
    with k = 2 for the corrected variant (the block forced by multiplying
    the factorization's own L and M matrices) and k = 1 as the source
    theorem displays it.  The corrected variant matches the Fredholm route;
    the as-printed one is retained to document the discrepancy.  The
    determinant is taken as det(1 - uL) of the sparse companion of this
    quadratic pencil in u, see _pencil_det.  The corrected variant is built
    on g.core, the as-printed one on g itself.  The corrected determinant is
    det(1 - uT), so its power sums stop at dim T = |OE|."""
    _require("bass", g)
    if variant not in ROUTES["bass"].variants:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "corrected":
        g = g.core
    spread, endpoint, flip = (op.mat for op in incidence_maps(g))
    nv, ne = endpoint.shape
    corner = endpoint @ flip if variant == "as-printed" else endpoint @ flip @ flip
    band = [(0, 0, 1.0, zigzag_matrix(g, 1).mat), (nv, 0, -1.0, spread),
            (nv, nv, -1.0, flip), (0, nv + ne, -1.0, zigzag_matrix(g, 2).mat),
            (0, 2 * nv + ne, -1.0, corner)]
    extra = np.zeros(min(M, ne) + 1) if variant == "corrected" else None
    series = _pencil_det(nv + ne, band, M, extra)
    return RouteResult("bass", series, {"variant": variant, "block_sizes": (nv, ne)})


def backtrack_weight_constant(g: WeightedGraph, variant: str = "W") -> float:
    """The exponential correction constant for the partial product formula.

    Sums over ordered adjacent pairs with departure unflagged and return
    flagged.  The W variant uses the roundtrip weight (forced by the trace
    identity behind the formula); the w-squared variant uses the squared
    departure weight as the source displays it.  Symmetric flag sets make
    the sum empty, so the constant is exactly 0.
    """
    if variant not in ROUTES["partial"].variants:
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

    The three factors are _factorization: the first two equal det(1 - uT)
    for every flag set, and the exponential adds 2 alpha to p_2.  So the
    route deviates from the Fredholm determinant by exactly exp(-alpha u^2).
    Symmetric flag sets have alpha = 0 and the route is exact; on one-sided
    flag sets the deviation is flagged, not fixed."""
    alpha = backtrack_weight_constant(g, alpha_variant)
    series, _ = _factorization(g, M, alpha=alpha)
    return RouteResult(
        "partial",
        series,
        {
            "alpha": alpha,
            "alpha_variant": alpha_variant,
            "symmetric_flags": g.has_symmetric_backtrack(),
        },
    )


def zeta_classical(g: WeightedGraph, M: int) -> RouteResult:
    """Unit-weight specialization (1-u^2)^{-chi} det(1 - uA + u^2 Q) with
    chi the Euler number; valid only when every weight is 1.  The factor
    (1 - u^2)^-chi adds -2 chi to every even power sum of the companion's,
    up to the degree dim T = 2|E|.  Built on g.core, as is chi."""
    _require("classical", g)
    g = g.core
    nv = len(g.vertices)
    # L = [[A, -Q], [I, 0]] with Q = B_2 - I (valency - 1): the Ihara-Bass
    # matrix of Kotani and Sunada (2000)
    band = [(0, 0, 1.0, zigzag_matrix(g, 1).mat), (0, nv, -1.0, zigzag_matrix(g, 2).mat),
            (0, nv, 1.0, sp.identity(nv, format="csr"))]
    chi = len(g.vertices) - len(g.edges)
    extra = np.zeros(min(M, 2 * len(g.edges)) + 1)
    extra[2::2] = -2.0 * chi
    return RouteResult("classical", _pencil_det(nv, band, M, extra), {"euler_number": chi})


# the builders of the routes in ROUTES, by the same names
ROUTE_BUILDERS = {
    "fredholm": zeta_fredholm,
    "sunada": zeta_sunada,
    "bass": zeta_bass,
    "partial": zeta_partial_formula,
    "classical": zeta_classical,
}


def route_series(name: str, g: WeightedGraph, M: int, system=None, variant=None) -> Series:
    """Z^{-1}, or the reciprocal L-series under system, by the Euler
    product ("oracle") or a route of ROUTES, whose variant defaults to its
    first; raises ValueError where the route does not apply (judged by the
    route function, or here for a system the route takes no argument for)."""
    rule = ROUTES.get(name)
    if rule is None and name != "oracle":
        raise ValueError(f"unknown route {name!r}")
    if variant is not None and not (rule and rule.variants):
        raise ValueError(f"the {name} route takes no variant")
    if rule is None:
        return euler_product(g, M, system=system)
    if system is None:
        return ROUTE_BUILDERS[name](g, M, *[variant] if variant else []).series
    if not rule.system:
        raise ValueError(why_not(name, g, system))
    return ROUTE_BUILDERS[name](g, M, system=system).series


def cross_validate(
    g: WeightedGraph, M: int, include_experimental: bool = False, tol: float = 1e-9
) -> DiscrepancyReport:
    """Run the oracle plus every applicable route and compare pairwise.

    A route runs where why_not gives no reason, except that the partial
    formula runs for nonempty symmetric flag sets, and for asymmetric ones
    only on request (it is then marked experimental, since its
    exp(-alpha u^2) factor is not 1 there).  A route whose guard raises
    RefusalError is recorded as refused; every other error, the
    oracle's too, propagates.  tol must be a finite number >= 0.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    flags: list[str] = []
    partial = bool(g.backtrack)
    if g.backtrack and not g.has_symmetric_backtrack():
        flags.append("asymmetric-backtrack-set")
        partial = include_experimental
        if partial:
            flags.append("experimental:partial")
    series: dict[str, Series] = {"oracle": euler_product(g, M)}
    refused = []
    for name in ROUTES:
        if why_not(name, g) is None and (name != "partial" or partial):
            try:
                series[name] = ROUTE_BUILDERS[name](g, M).series
            except RefusalError as exc:
                refused.append((name, str(exc)))
    names = sorted(series)
    pairs = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            dev = max_deviation(series[a], series[b])
            pairs.append(PairVerdict(a, b, dev, coeffs_agree(series[a], series[b], tol)))
    return DiscrepancyReport(M, tol, tuple(pairs), tuple(flags), tuple(refused))


POLE_DIMENSION_CAP = 2000


def spectrum_poles(g: WeightedGraph) -> list[tuple[complex, int]]:
    """Poles of Z as reciprocal eigenvalues of the transfer operator,
    clustered into multiplicities, sorted by modulus then argument.

    The cap applies to g's own edge dimension; T is built on g.core, whose
    nonzero eigenvalues are those of g's transfer operator.  Its n x n
    dense form is the one float64 buffer of the call, 8n^2 bytes in column
    order, which LAPACK's dgeev overwrites as it finds the eigenvalues
    (blas.eigvals)."""
    if 2 * len(g.edges) > POLE_DIMENSION_CAP:
        raise ResourceCapError(
            f"edge dimension {2 * len(g.edges)} exceeds pole cap {POLE_DIMENSION_CAP}"
        )
    T = transfer_matrix(g.core).mat
    # thresholds are relative to ||T||_1, so scaling every weight by c scales
    # every pole by 1/c and leaves the multiplicities alone
    scale = np.asarray(abs(T).sum(axis=0)).max(initial=0.0)
    eig = eigvals(T.toarray(order="F"))
    poles = 1.0 / eig[np.abs(eig) > 1e-12 * scale]
    # rounding keeps equal-modulus poles adjacent despite float noise
    moduli = np.round(np.abs(poles) * scale, 9).tolist()
    keys = list(zip(moduli, np.round(np.angle(poles), 9).tolist()))
    order = sorted(range(len(poles)), key=keys.__getitem__)
    # within a modulus group the poles come sorted by angle, so a pole joins
    # the group's last cluster or, across the wrap from +pi to -pi at -1, its
    # first
    groups: dict[float, list[list]] = {}
    for i in order:
        group = groups.setdefault(moduli[i], [])
        near = next((c for c in group[:1] + group[-1:]
                     if abs(poles[i] - c[0]) <= 1e-8 * abs(c[0])), None)
        if near:
            near[1] += 1
        else:
            group.append([poles[i], 1])
    return [(p, mult) for group in groups.values() for p, mult in group]


def poles_csv_lines(poles: list[tuple[complex, int]]) -> list[str]:
    lines = ["re,im,multiplicity"]
    for p, mult in poles:
        lines.append(f"{_fmt(p.real)},{_fmt(p.imag)},{mult}")
    return lines
