"""Matrix operators on the vertex and oriented-edge spaces of a graph.

Bases always follow :func:`zetagraph.graph.canonical_order`.  Every matrix
is compressed sparse row; :func:`edge_operators` builds the four edge-space
maps for the plain graph and, block by block, for a local system, so the
untwisted operators are its trivial one-dimensional case.  The vertex-space
factorization series and the roundtrip product built from them live here
too; the determinant routes use them for the zeta function and, with a
local system, for the L-function.

Conventions. For an operator defined on basis vectors, entry [row, col] is
the coefficient of `row` in the image of `col`.  The adjacency operator sends
x to sum_x' w(x, x') x', so its matrix entry [x', x] is w(x, x').  The
roundtrip weight of an edge is W(e) = w(e) * w(e reversed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cycles import reduced_walks
from .graph import WeightedGraph, canonical_order, reverse
from .series import MatrixSeries, Series


@dataclass(frozen=True)
class LinearOperator:
    """Sparse matrix with labeled domain (cols) and codomain (rows) bases.

    Over a local system of dimension d each label spans d coordinates."""

    rows: tuple
    cols: tuple
    mat: sp.csr_matrix

    def dense(self) -> np.ndarray:
        return self.mat.toarray()

    def trace(self) -> complex:
        return complex(self.mat.diagonal().sum())

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        if self.cols != other.rows:
            raise ValueError("basis mismatch in operator product")
        return LinearOperator(self.rows, other.cols, self.mat @ other.mat)


def _materialize(rows, cols, triplets, d: int = 1, dtype=np.float64) -> LinearOperator:
    """CSR operator from (row_index, col_index, block) triples.

    Blocks are scalars when d = 1 and d x d arrays otherwise; repeated
    positions are summed."""
    ii = np.array([t[0] for t in triplets], dtype=np.int64)
    jj = np.array([t[1] for t in triplets], dtype=np.int64)
    blocks = np.array([t[2] for t in triplets], dtype=dtype).reshape(len(triplets), d, d)
    offsets = np.arange(d)
    r = np.broadcast_to(ii[:, None, None] * d + offsets[None, :, None], blocks.shape)
    c = np.broadcast_to(jj[:, None, None] * d + offsets[None, None, :], blocks.shape)
    shape = (len(rows) * d, len(cols) * d)
    mat = sp.csr_matrix((blocks.ravel(), (r.ravel(), c.ravel())), shape=shape)
    return LinearOperator(tuple(rows), tuple(cols), mat)


def edge_operators(g: WeightedGraph, system=None) -> tuple[LinearOperator, ...]:
    """Spread, endpoint, flip and the transfer operator T, optionally twisted.

    spread: vertex -> weighted sum of its outgoing oriented edges.
    endpoint: oriented edge -> its target vertex, through the edge's transport.
    flip: oriented edge -> its reversal, scaled by the reversal's weight and
          the edge's transport; zeroed wherever either orientation carries
          the backtrack flag.
    T: column e holds w(e') U_e at row e' for every continuation e' with
       o(e') = t(e); the reversal e' = e^{-1} is excluded unless e carries
       the backtrack flag.  This is the weighted non-backtracking (Hashimoto)
       operator.

    Without a system every transport is the scalar 1.  With one of dimension
    d, each vertex and edge carries a fiber C^d, edge fibers trivialized at
    the origin vertex, and U_e is the d x d block ``system.transport(e)``.
    """
    if system is None:
        d, dtype, one, transport = 1, np.float64, 1.0, lambda e: 1.0
    else:
        d, dtype, transport = system.dim, np.complex128, system.transport
        one = np.eye(d, dtype=dtype)
    verts, edges = canonical_order(g)
    vi = {x: i for i, x in enumerate(verts)}
    ei = {e: i for i, e in enumerate(edges)}
    spread, endpoint, flip, T = [], [], [], []
    for e in edges:
        U = transport(e)
        spread.append((ei[e], vi[e[0]], g.weight[e] * one))
        endpoint.append((vi[e[1]], ei[e], U))
        if e not in g.backtrack and reverse(e) not in g.backtrack:
            flip.append((ei[reverse(e)], ei[e], g.weight[reverse(e)] * U))
        for e2 in g.out_edges[e[1]]:
            if e2 == reverse(e) and e not in g.backtrack:
                continue
            T.append((ei[e2], ei[e], g.weight[e2] * U))
    return (
        _materialize(edges, verts, spread, d, dtype),
        _materialize(verts, edges, endpoint, d, dtype),
        _materialize(edges, edges, flip, d, dtype),
        _materialize(edges, edges, T, d, dtype),
    )


def transfer_matrix(g: WeightedGraph, system=None) -> LinearOperator:
    """Weighted non-backtracking (Hashimoto) operator on oriented edges,
    twisted by a local system if one is given."""
    return edge_operators(g, system)[3]


def incidence_maps(g: WeightedGraph, system=None) -> tuple[LinearOperator, ...]:
    """The three maps linking vertex and edge space: spread, endpoint, flip,
    twisted by a local system if one is given."""
    return edge_operators(g, system)[:3]


def vertex_series(
    spread: LinearOperator, endpoint: LinearOperator, flip: LinearOperator, M: int
) -> MatrixSeries:
    """The vertex-space series 1 + sum_{n=1..M} (-u)^n endpoint flip^{n-1} spread."""
    coeffs = [np.eye(endpoint.mat.shape[0], dtype=np.complex128)]
    P = spread.dense().astype(np.complex128)
    for n in range(1, M + 1):
        coeffs.append((-1) ** n * (endpoint.mat @ P))
        P = flip.mat @ P
    return MatrixSeries(coeffs)


def roundtrip_product(g: WeightedGraph, order: int, skip=frozenset(), dim: int = 1) -> Series:
    """Prod over unoriented edges (1 - u^2 W(e))^dim, skipping a given set."""
    result = Series.one(order)
    for u, v in g.edges:
        if frozenset((u, v)) in skip:
            continue
        factor = Series([1.0, 0.0, -g.weight[(u, v)] * g.weight[(v, u)]], order=order)
        for _ in range(dim):
            result = result * factor
    return result


def adjacency_matrix(g: WeightedGraph) -> LinearOperator:
    verts, _ = canonical_order(g)
    vi = {x: i for i, x in enumerate(verts)}
    triplets = []
    for u, v in g.edges:
        triplets.append((vi[v], vi[u], g.weight[(u, v)]))
        triplets.append((vi[u], vi[v], g.weight[(v, u)]))
    return _materialize(verts, verts, triplets)


def excess_matrix(g: WeightedGraph) -> LinearOperator:
    """Diagonal operator with entry (count of unflagged departures) - 1."""
    verts, _ = canonical_order(g)
    vi = {x: i for i, x in enumerate(verts)}
    triplets = []
    for x in verts:
        q = sum(1 for y in g.neighbors(x) if (x, y) not in g.backtrack) - 1
        triplets.append((vi[x], vi[x], float(q)))
    return _materialize(verts, verts, triplets)


def zigzag_matrix(g: WeightedGraph, n: int) -> LinearOperator:
    """Weight of length-n walks that shuttle along a single incident edge.

    Order 0 is the identity and order 1 the adjacency operator.  Even order
    2k lands back at the start with weight W(x, x')^k (diagonal); odd order
    2k+1 ends across the edge with weight W(x, x')^k w(x, x').  When
    backtrack flags are present, order 2 admits only departures (x, x')
    outside the flag set, and orders >= 3 require both orientations outside
    it; this reproduces the flip-map factorization checked in the tests.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    verts, _ = canonical_order(g)
    vi = {x: i for i, x in enumerate(verts)}
    if n == 0:
        return _materialize(verts, verts, [(i, i, 1.0) for i in range(len(verts))])
    if n == 1:
        return adjacency_matrix(g)
    triplets = []
    for x in verts:
        for y in g.neighbors(x):
            if (x, y) in g.backtrack:
                continue
            if n >= 3 and (y, x) in g.backtrack:
                continue
            W = g.weight[(x, y)] * g.weight[(y, x)]
            if n % 2 == 0:
                triplets.append((vi[x], vi[x], W ** (n // 2)))
            else:
                triplets.append((vi[y], vi[x], W ** (n // 2) * g.weight[(x, y)]))
    return _materialize(verts, verts, triplets)


def reduced_path_matrices(g: WeightedGraph, m: int) -> list[LinearOperator]:
    """Path-sum operators of orders 0..m via the zigzag recursion.

    Order m sums w(p) over reduced paths p of length m from each start
    vertex (reduced: backtracking only across flagged orientations), placing
    the weight at the path's endpoint.  Computed by
    A_m = sum_{j=1..m} (-1)^{j+1} A_{m-j} B_j, which inverts the zigzag
    family in the series ring; the direct enumeration twin below exists to
    test this identity.
    """
    if m < 0:
        raise ValueError("order must be >= 0")
    verts, _ = canonical_order(g)
    B = [zigzag_matrix(g, j) for j in range(m + 1)]
    A = [zigzag_matrix(g, 0)]
    for order in range(1, m + 1):
        acc = None
        for j in range(1, order + 1):
            term = A[order - j].mat @ B[j].mat
            if j % 2 == 0:
                term = -term
            acc = term if acc is None else acc + term
        A.append(LinearOperator(tuple(verts), tuple(verts), acc))
    return A


def reduced_path_matrix(g: WeightedGraph, m: int) -> LinearOperator:
    return reduced_path_matrices(g, m)[m]


def reduced_path_matrix_direct(g: WeightedGraph, m: int) -> LinearOperator:
    """Enumeration twin of reduced_path_matrix; exponential, test use only."""
    verts, _ = canonical_order(g)
    vi = {x: i for i, x in enumerate(verts)}
    mat = np.zeros((len(verts), len(verts)))
    for walk, wgt in reduced_walks(g, m):
        if len(walk) == m + 1:
            mat[vi[walk[-1]], vi[walk[0]]] += wgt
    return LinearOperator(tuple(verts), tuple(verts), sp.csr_matrix(mat))


def anchored_path_matrix(g: WeightedGraph, m: int, n: int) -> LinearOperator:
    """Reduced-path sums with the first edge's roundtrip weight to the n-th
    power as a premium: each length-m path from x contributes
    W(x, x_1)^n w(p) at its endpoint.  Built by direct enumeration."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    verts, _ = canonical_order(g)
    vi = {x: i for i, x in enumerate(verts)}
    mat = np.zeros((len(verts), len(verts)))
    for walk, wgt in reduced_walks(g, m):
        if len(walk) == m + 1:
            W = g.weight[(walk[0], walk[1])] * g.weight[(walk[1], walk[0])]
            mat[vi[walk[-1]], vi[walk[0]]] += W ** n * wgt
    return LinearOperator(tuple(verts), tuple(verts), sp.csr_matrix(mat))
