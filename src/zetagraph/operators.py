"""Matrix operators on the vertex and oriented-edge spaces of a graph.

Bases always follow :func:`zetagraph.graph.canonical_order`.  Every matrix
is compressed sparse row.  :func:`incidence_maps` builds the three maps
between vertex and edge space (spread, endpoint, flip) for the plain graph
and, block by block, for a local system, so the untwisted maps are its
trivial one-dimensional case; :func:`transfer_matrix` derives the transfer
operator T from them.  The vertex-space factorization series built from
these maps and the roundtrip product live here too; the determinant routes
use them for the zeta function and, with a local system, for the
L-function.

Conventions. For an operator defined on basis vectors, entry [row, col] is
the coefficient of `row` in the image of `col`.  The adjacency operator sends
x to sum_x' w(x, x') x', so its matrix entry [x', x] is w(x, x'); it is
``zigzag_matrix(g, 1)``.  The roundtrip weight of an edge is
W(e) = w(e) * w(e reversed).

Backtrack flags. A flagged edge e may be followed by its reversal, so the
flip sends e to zero, and T = spread . endpoint - flip for every flag set.
The flip is block diagonal over unoriented pairs, and det(1 - u flip) is the
roundtrip product over the pairs with no flagged orientation.  Hence
det(1 - uT) = det(vertex series) * roundtrip product for every flag set
(Bass 1992; Kotani and Sunada 2000).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cycles import reduced_walks
from .graph import WeightedGraph, canonical_order, reverse
from .series import MatrixSeries, Series, times_sparse


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

    Blocks are scalars when d = 1 and d x d arrays otherwise; zero entries
    of a block are not stored, and repeated positions are summed."""
    ii = np.array([t[0] for t in triplets], dtype=np.int64)
    jj = np.array([t[1] for t in triplets], dtype=np.int64)
    blocks = np.array([t[2] for t in triplets], dtype=dtype).reshape(len(triplets), d, d)
    offsets = np.arange(d)
    r = np.broadcast_to(ii[:, None, None] * d + offsets[None, :, None], blocks.shape)
    c = np.broadcast_to(jj[:, None, None] * d + offsets[None, None, :], blocks.shape)
    shape = (len(rows) * d, len(cols) * d)
    keep = blocks != 0
    mat = sp.csr_matrix((blocks[keep], (r[keep], c[keep])), shape=shape)
    return LinearOperator(tuple(rows), tuple(cols), mat)


def incidence_maps(g: WeightedGraph, system=None) -> tuple[LinearOperator, ...]:
    """Spread, endpoint and flip: the maps linking vertex and edge space,
    optionally twisted.

    spread: vertex -> weighted sum of its outgoing oriented edges.
    endpoint: oriented edge -> its target vertex, through the edge's transport.
    flip: oriented edge -> its reversal, scaled by the reversal's weight and
          the edge's transport; zero at an edge that carries the backtrack
          flag, whatever the flag of its reversal.

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
    spread, endpoint, flip = [], [], []
    for e in edges:
        U = transport(e)
        spread.append((ei[e], vi[e[0]], g.weight[e] * one))
        endpoint.append((vi[e[1]], ei[e], U))
        if e not in g.backtrack:
            flip.append((ei[reverse(e)], ei[e], g.weight[reverse(e)] * U))
    return (
        _materialize(edges, verts, spread, d, dtype),
        _materialize(verts, edges, endpoint, d, dtype),
        _materialize(edges, edges, flip, d, dtype),
    )


def transfer_matrix(g: WeightedGraph, system=None) -> LinearOperator:
    """Weighted non-backtracking (Hashimoto) operator T on oriented edges,
    twisted by a local system if one is given.

    Column e holds w(e') U_e at row e' for every continuation e' with
    o(e') = t(e); the reversal e' = e^{-1} is excluded unless e carries the
    backtrack flag.  Built as T = spread . endpoint - flip: the product puts
    w(e') U_e at every continuation, reversal included, and the flip removes
    the reversal exactly where it is not allowed.
    """
    spread, endpoint, flip = incidence_maps(g, system)
    T = (spread @ endpoint).mat - flip.mat
    return LinearOperator(flip.rows, flip.cols, T)


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


def roundtrip_product(g: WeightedGraph, order: int, dim: int = 1) -> Series:
    """Prod over unoriented edges (1 - u^2 W(e))^dim in edge order.

    Edges with a flagged orientation are left out: the flip has no factor
    there, and an unflagged graph has none of them."""
    W = [g.weight[(u, v)] * g.weight[(v, u)] for u, v in g.edges
         if (u, v) not in g.backtrack and (v, u) not in g.backtrack]
    return times_sparse(Series.one(order), [((1.0, -w), 2) for w in W for _ in range(dim)])


def zigzag_matrix(g: WeightedGraph, n: int) -> LinearOperator:
    """Weight of length-n walks that shuttle along a single incident edge.

    Order 0 is the identity and order 1 the adjacency operator.  Even order
    2k lands back at the start with weight W(x, x')^k (diagonal); odd order
    2k+1 ends across the edge with weight W(x, x')^k w(x, x').  Each turn
    back must reverse an unflagged edge, so order 2 admits only departures
    (x, x') outside the flag set and orders >= 3 need both orientations
    outside it.  This closed form equals endpoint . flip^(n-1) . spread for
    n >= 1, which the tests check.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    verts, _ = canonical_order(g)
    vi = {x: i for i, x in enumerate(verts)}
    if n == 0:
        return _materialize(verts, verts, [(i, i, 1.0) for i in range(len(verts))])
    triplets = []
    for x in verts:
        for y in g.neighbors(x):
            if n >= 2 and (x, y) in g.backtrack or n >= 3 and (y, x) in g.backtrack:
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


def _endpoint_sums(g: WeightedGraph, m: int, premium) -> LinearOperator:
    """Sum premium(walk) * w(walk) over reduced walks of length m, placed at
    [end, start]; exponential, test use only."""
    verts, _ = canonical_order(g)
    vi = {x: i for i, x in enumerate(verts)}
    mat = np.zeros((len(verts), len(verts)))
    for walk, wgt in reduced_walks(g, m):
        if len(walk) == m + 1:
            mat[vi[walk[-1]], vi[walk[0]]] += premium(walk) * wgt
    return LinearOperator(tuple(verts), tuple(verts), sp.csr_matrix(mat))


def reduced_path_matrix_direct(g: WeightedGraph, m: int) -> LinearOperator:
    """Enumeration twin of ``reduced_path_matrices(g, m)[m]``."""
    return _endpoint_sums(g, m, lambda walk: 1.0)


def anchored_path_matrix(g: WeightedGraph, m: int, n: int) -> LinearOperator:
    """Reduced-path sums with the first edge's roundtrip weight to the n-th
    power as a premium: each length-m path from x contributes
    W(x, x_1)^n w(p) at its endpoint.  Built by direct enumeration."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    return _endpoint_sums(
        g, m, lambda walk: (g.weight[(walk[0], walk[1])] * g.weight[(walk[1], walk[0])]) ** n)
