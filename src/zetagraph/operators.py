"""Matrix operators on the vertex and oriented-edge spaces of a graph.

Bases always follow :func:`zetagraph.graph.canonical_order`.  Every matrix
is compressed sparse row.  :func:`incidence_maps` builds the three maps
between vertex and edge space (spread, endpoint, flip),
:func:`transfer_matrix` the transfer operator T, and :func:`zigzag_matrix`
the zigzag operators, all from the NumPy arrays over the canonical
oriented edges that the graph builds once (``WeightedGraph.edge_arrays``):
origin and target vertex indices, the index of each edge's reversal, the
weights and the unflagged mask, plus for the maps and T the (|OE|, d, d)
stack of transports of a local system (all ones without one, so the
untwisted operators are its d = 1 case).  The CSR arrays are written
straight from these in one pass per operator, in sorted order and without
the zero entries of a block, with no scipy product or difference.  The
vertex-space factorization series built from these maps lives here too;
the determinant routes use it for the zeta function and, with a local
system, for the L-function.

Conventions. For an operator defined on basis vectors, entry [row, col] is
the coefficient of `row` in the image of `col`.  The adjacency operator sends
x to sum_x' w(x, x') x', so its matrix entry [x', x] is w(x, x'); it is
``zigzag_matrix(g, 1)``.  The roundtrip weight of an edge is
W(e) = w(e) * w(e reversed).

Backtrack flags. A flagged edge e may be followed by its reversal, so the
flip sends e to zero, and T = spread . endpoint - flip for every flag set.
T and the maps read the rule in one place, _flipped: its edges are the
flip's rows and the rows of T that drop their reversal, so T is that
difference without forming it.  The zigzag orders apply their own
admission rule to shuttles along one edge.
The flip is block diagonal over unoriented pairs, and det(1 - u flip) is the
roundtrip product over the pairs with no flagged orientation.  Hence
det(1 - uT) = det(vertex series) * roundtrip product for every flag set
(Bass 1992; Kotani and Sunada 2000), a sum of power sums in routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cycles import reduced_walks
from .graph import WeightedGraph, canonical_order
from .series import MatrixSeries


@dataclass(frozen=True)
class LinearOperator:
    """Sparse matrix with labeled domain (cols) and codomain (rows) bases.

    Over a local system of dimension d each label spans d coordinates."""

    rows: tuple
    cols: tuple
    mat: sp.csr_matrix

    def dense(self) -> np.ndarray:
        return self.mat.toarray()

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        if self.cols != other.rows:
            raise ValueError("basis mismatch in operator product")
        return LinearOperator(self.rows, other.cols, self.mat @ other.mat)


def _block_csr(rows, cols, row_block, col_block, blocks: np.ndarray) -> LinearOperator:
    """CSR operator holding the d x d block blocks[b] at block position
    (row_block[b], col_block[b]); the blocks come sorted by that position.

    A stable sort of the entries by row keeps each row's blocks in column
    order, so the entries land in sorted CSR order.  Zero entries are not
    stored."""
    d = blocks.shape[1]
    i = np.arange(d)
    row = np.broadcast_to((d * row_block)[:, None, None] + i[:, None], blocks.shape).ravel()
    col = np.broadcast_to((d * col_block)[:, None, None] + i, blocks.shape).ravel()
    data = blocks.ravel()
    order = np.argsort(row, kind="stable")
    keep = order[data[order] != 0]
    indptr = row[keep].searchsorted(np.arange(len(rows) * d + 1))
    mat = sp.csr_matrix((data[keep], col[keep], indptr), shape=(len(rows) * d, len(cols) * d))
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

    The maps come from the graph's arrays over the canonical edges
    and the (|OE|, d, d) stack of transports, all ones without a system, so
    the untwisted maps are the d = 1 case of one build.  Each block row
    lists its blocks in column order: spread's row e holds w(e) I at o(e),
    flip's row e holds w(e) U_(e^-1) at e^-1 when e^-1 is unflagged, and
    endpoint's block row x holds U_(e^-1) at e^-1 for the out-edges e of x,
    whose reversals are the edges into x, in canonical order.
    """
    verts, edges, origin, _, reversal, weight, _ = g.edge_arrays
    transports = _transports(edges, system)
    scale = weight[:, None, None]
    into = transports[reversal]
    flipped = _flipped(g)
    return (
        _block_csr(edges, verts, np.arange(len(edges)), origin,
                   scale * np.eye(transports.shape[1], dtype=transports.dtype)),
        _block_csr(verts, edges, origin, reversal, into),
        _block_csr(edges, edges, flipped, reversal[flipped], scale[flipped] * into[flipped]),
    )


def _transports(edges, system) -> np.ndarray:
    """The (|OE|, d, d) stack of transports over the edges; all ones, d = 1,
    without a system."""
    if system is None:
        return np.ones((len(edges), 1, 1))
    d = system.dim
    return np.array([system.transport(e) for e in edges],
                    dtype=np.complex128).reshape(len(edges), d, d)


def _flipped(g: WeightedGraph) -> np.ndarray:
    """The edges e whose reversal is unflagged: the rows of the flip, and
    the rows of T that may not continue from their reversal.  The maps and
    T read the backtrack flags here only."""
    arrays = g.edge_arrays
    return np.flatnonzero(arrays.unflagged[arrays.reversal])


def transfer_matrix(g: WeightedGraph, system=None) -> LinearOperator:
    """Weighted non-backtracking (Hashimoto) operator T on oriented edges,
    twisted by a local system if one is given.

    Column e holds w(e') U_e at row e' for every continuation e' with
    o(e') = t(e); the reversal e' = e^{-1} is excluded unless e carries the
    backtrack flag.  This is T = spread . endpoint - flip, assembled in one
    pass from the edge arrays: row e holds w(e) U_f at every f into o(e),
    the reversals of the out-edges of o(e), which come in column order,
    except f = e^{-1} when e is one of the flip's rows (_flipped).  The
    entries are those of scipy's product and difference bit for bit, which
    the tests check: each is the one product w(e) U_f, and scipy sums it
    from zero, which turns a -0.0 part into 0.0, as adding 0.0 does here.
    """
    verts, edges, origin, _, reversal, weight, _ = g.edge_arrays
    transports = _transports(edges, system)
    # out-edges of each vertex are contiguous in canonical order, and their
    # reversals, the edges into it, increase with them
    first = np.searchsorted(origin, np.arange(len(verts) + 1))
    count = np.diff(first)[origin]
    row = np.repeat(np.arange(len(edges)), count)
    # row e's entries start at offset[e]; its i-th is out-edge first[o(e)] + i
    offset = np.cumsum(count) - count
    out = np.arange(len(row)) + np.repeat(first[origin] - offset, count)
    # in the flip's rows, drop f = e^-1: the entry of out-edge e itself
    flipped = _flipped(g)
    keep = np.ones(len(row), dtype=bool)
    keep[offset[flipped] + flipped - first[origin[flipped]]] = False
    row, col = row[keep], reversal[out[keep]]
    return _block_csr(edges, edges, row, col, weight[row, None, None] * transports[col] + 0.0)


def vertex_series(
    spread: LinearOperator, endpoint: LinearOperator, flip: LinearOperator, M: int
) -> MatrixSeries:
    """The vertex-space series 1 + sum_{n=1..M} (-u)^n endpoint flip^{n-1} spread.

    Real maps give a real series and twisted ones a complex series."""
    walk = spread.dense()
    coeffs = np.empty((M + 1, walk.shape[1], walk.shape[1]), dtype=walk.dtype)
    coeffs[0] = np.eye(walk.shape[1])
    for n in range(1, M + 1):
        np.multiply(endpoint.mat @ walk, (-1) ** n, out=coeffs[n])
        walk = flip.mat @ walk
    return MatrixSeries(coeffs)


def zigzag_matrix(g: WeightedGraph, n: int) -> LinearOperator:
    """Weight of length-n walks that shuttle along a single incident edge.

    Order 0 is the identity and order 1 the adjacency operator.  Even order
    2k lands back at the start with weight W(x, x')^k (diagonal); odd order
    2k+1 ends across the edge with weight W(x, x')^k w(x, x').  Each turn
    back must reverse an unflagged edge, so order 2 admits only departures
    (x, x') outside the flag set and orders >= 3 need both orientations
    outside it.  This closed form equals endpoint . flip^(n-1) . spread for
    n >= 1, which the tests check.

    Built from the edge arrays of incidence_maps: an odd order puts
    W(e)^k w(e) at (t(e), o(e)), listed through the reversals of each
    vertex's out-edges so that rows and columns come sorted; an even order
    sums W(e)^k over each vertex's out-edges, added in canonical order.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    verts, _, origin, target, reversal, weight, unflagged = g.edge_arrays
    index = np.arange(len(verts))
    if n == 0:
        return _block_csr(verts, verts, index, index, np.ones((len(verts), 1, 1)))
    admitted = (np.ones_like(unflagged) if n == 1 else unflagged if n == 2
                else unflagged & unflagged[reversal])
    # Python's float pow, edge by edge: NumPy's vectorised power rounds some
    # values differently in the last bit
    k = n // 2
    power = np.array([W**k for W in (weight * weight[reversal]).tolist()], dtype=np.float64)
    if n % 2 == 0:
        # bincount adds in index order, and gives integers on no admitted edge
        diagonal = np.bincount(origin[admitted], weights=power[admitted], minlength=len(verts))
        return _block_csr(verts, verts, index, index, diagonal.astype(np.float64)[:, None, None])
    # block row o(e) holds the entry of e^-1, at column t(e)
    entries = np.where(admitted[reversal], power[reversal] * weight[reversal], 0.0)
    return _block_csr(verts, verts, origin, target, entries[:, None, None])


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
