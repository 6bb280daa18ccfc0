import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_graph, random_unitary
from zetagraph import fixtures, operators, routes
from zetagraph.cycles import closed_sequences
from zetagraph.graph import canonical_order, make_graph, reverse
from zetagraph.routes import ROUTE_BUILDERS
from zetagraph.series import fredholm_det, max_deviation
from zetagraph.twist import lfunction, make_local_system, trivial_system
from zetagraph.operators import (
    anchored_path_matrix,
    incidence_maps,
    reduced_path_matrices,
    reduced_path_matrix_direct,
    transfer_matrix,
    zigzag_matrix,
)

CAT = fixtures.catalogue()


def test_bases_follow_canonical_order():
    g = CAT["k3"]
    verts, edges = canonical_order(g)
    assert zigzag_matrix(g, 1).rows == tuple(verts)
    T = transfer_matrix(g)
    assert T.rows == tuple(edges)
    assert T.cols == tuple(edges)


def test_transfer_frozen_entries():
    assert np.array_equal(transfer_matrix(CAT["edge"]).dense(), np.zeros((2, 2)))
    # one-sided flag: only the a->b column admits its reversal
    assert np.array_equal(transfer_matrix(CAT["bt2"]).dense(), [[0, 0], [3, 0]])
    assert np.array_equal(transfer_matrix(CAT["bt1"]).dense(), [[0, 2], [3, 0]])
    T3 = transfer_matrix(CAT["k3"]).dense()
    assert T3.shape == (6, 6)
    assert np.trace(np.linalg.matrix_power(T3, 3)) == pytest.approx(6)


def test_adjacency_and_excess_frozen():
    # the adjacency operator is the order-1 zigzag, flags or not
    assert np.array_equal(zigzag_matrix(CAT["edge"], 1).dense(), [[0, 3], [2, 0]])
    assert np.array_equal(zigzag_matrix(CAT["k3"], 1).dense(), np.ones((3, 3)) - np.eye(3))
    assert np.array_equal(zigzag_matrix(CAT["bt2"], 1).dense(), [[0, 3], [2, 0]])
    # with unit weights and no flags order 2 is the valency, so the excess
    # Q = valency - 1 of the classical route is B_2 - I
    assert np.array_equal(zigzag_matrix(CAT["k3"], 2).dense() - np.eye(3), np.eye(3))
    assert np.array_equal(zigzag_matrix(CAT["k4"], 2).dense() - np.eye(4), 2 * np.eye(4))


def test_zigzag_frozen_values():
    assert np.array_equal(zigzag_matrix(CAT["k3"], 0).dense(), np.eye(3))
    assert np.array_equal(zigzag_matrix(CAT["k3"], 2).dense(), 2 * np.eye(3))
    assert np.array_equal(zigzag_matrix(CAT["bt2"], 2).dense(), np.diag([0.0, 6.0]))
    shuttle = [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
    for n in (2, 4):
        assert np.array_equal(zigzag_matrix(CAT["k3s"], n).dense(), np.diag([1.0, 1.0, 2.0]))
    for n in (3, 5):
        assert np.array_equal(zigzag_matrix(CAT["k3s"], n).dense(), shuttle)
    with pytest.raises(ValueError):
        zigzag_matrix(CAT["k3"], -1)


def test_zigzag_factors_through_incidence_maps(rng):
    """B_n = endpoint . flip^(n-1) . spread for n >= 1 and every flag set."""
    graphs = list(CAT.values())
    graphs += [random_graph(rng, backtrack=mode) for mode in ("none", "symmetric", "any") for _ in range(8)]
    for g in graphs:
        spread, endpoint, flip = incidence_maps(g)
        power = np.eye(len(spread.rows))
        for n in range(1, 11):
            product = endpoint.dense() @ power @ spread.dense()
            assert np.abs(zigzag_matrix(g, n).dense() - product).max() < 1e-12
            power = flip.dense() @ power


def test_zigzag_order2_factors_under_one_sided_flag():
    # the flip zeroes only the flagged a->b, so b->a still shuttles back
    g = CAT["bt2"]
    spread, endpoint, flip = incidence_maps(g)
    product = endpoint.dense() @ flip.dense() @ spread.dense()
    assert np.array_equal(product, np.diag([0.0, 6.0]))
    assert np.array_equal(zigzag_matrix(g, 2).dense(), product)


def test_transfer_splits_into_incidence_maps(rng):
    """T = spread . endpoint - flip for every flag set, twisted or not."""
    graphs = list(CAT.values())
    graphs += [random_graph(rng, backtrack=mode)
               for mode in ("none", "symmetric", "any") for _ in range(8)]
    for g in graphs:
        transfers = {(u, v): random_unitary(rng, 2) for u, v in g.edges}
        for system in (None, make_local_system(g, 2, transfers)):
            spread, endpoint, flip = incidence_maps(g, system)
            T = transfer_matrix(g, system)
            split = spread.dense() @ endpoint.dense() - flip.dense()
            assert np.abs(T.dense() - split).max() < 1e-12


def test_transfer_is_canonical_csr(rng):
    """fredholm_det sums each row in stored order: sorted, no duplicates."""
    graphs = list(CAT.values())
    graphs += [random_graph(rng, backtrack=mode)
               for mode in ("none", "symmetric", "any") for _ in range(8)]
    for g in graphs:
        transfers = {(u, v): random_unitary(rng, 2) for u, v in g.edges}
        for system in (None, make_local_system(g, 2, transfers)):
            assert transfer_matrix(g, system).mat.has_canonical_format


def test_transfer_is_the_scipy_product_bit_for_bit(rng):
    """The one-pass T equals scipy's spread @ endpoint - flip in indptr,
    indices and data bytes, dtypes and canonical format: on the fixtures and
    60 random graphs without flags, with two-sided and with one-sided flags,
    untwisted, under a 1-dim sign system, 2-dim unitary systems and a real
    orthogonal 2-dim system (whose reversals carry -0.0 imaginary parts)."""
    graphs = list(CAT.values())
    graphs += [random_graph(rng, max_vertices=8, backtrack=mode)
               for mode in ("none", "symmetric", "any") for _ in range(20)]
    cases = 0
    for g in graphs:
        orthogonal = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        systems = [None,
                   make_local_system(g, 1, {e: [[-1.0]] for e in g.edges[::2]}),
                   make_local_system(g, 2, {e: random_unitary(rng, 2) for e in g.edges}),
                   make_local_system(g, 2, {e: orthogonal for e in g.edges})]
        for system in systems:
            spread, endpoint, flip = incidence_maps(g, system)
            ref = (spread @ endpoint).mat - flip.mat
            T = transfer_matrix(g, system)
            assert (T.rows, T.cols) == (flip.rows, flip.cols)
            assert T.mat.shape == ref.shape
            for x, y in zip((T.mat.indptr, T.mat.indices, T.mat.data),
                            (ref.indptr, ref.indices, ref.data)):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            assert T.mat.has_canonical_format and ref.has_canonical_format
            cases += 1
    assert cases == 4 * 68


def _old_materialize(rows, cols, triplets, d=1, dtype=np.float64, store_zeros=False):
    """The triplet-to-CSR step of the old builder, through COO; store_zeros
    keeps every block entry, as it once did."""
    ii = np.array([t[0] for t in triplets], dtype=np.int64)
    jj = np.array([t[1] for t in triplets], dtype=np.int64)
    blocks = np.array([t[2] for t in triplets], dtype=dtype).reshape(len(triplets), d, d)
    offsets = np.arange(d)
    r = np.broadcast_to(ii[:, None, None] * d + offsets[None, :, None], blocks.shape)
    c = np.broadcast_to(jj[:, None, None] * d + offsets[None, None, :], blocks.shape)
    keep = np.ones(blocks.shape, dtype=bool) if store_zeros else blocks != 0
    mat = sp.csr_matrix((blocks[keep], (r[keep], c[keep])), shape=(len(rows) * d, len(cols) * d))
    return operators.LinearOperator(tuple(rows), tuple(cols), mat)


def _old_incidence_maps(g, system=None, store_zeros=False):
    """The old builder: a loop collecting per-edge triplets."""
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
    return tuple(_old_materialize(rows, cols, triplets, d, dtype, store_zeros)
                 for rows, cols, triplets in ((edges, verts, spread), (verts, edges, endpoint),
                                              (edges, edges, flip)))


def _old_zigzag_matrix(g, n):
    """The old zigzag loop over vertices and their neighbours."""
    verts, _ = canonical_order(g)
    vi = {x: i for i, x in enumerate(verts)}
    if n == 0:
        return _old_materialize(verts, verts, [(i, i, 1.0) for i in range(len(verts))])
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
    return _old_materialize(verts, verts, triplets)


def _same_csr(a, b):
    return (a.rows == b.rows and a.cols == b.cols and a.mat.shape == b.mat.shape
            and all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
                    for x, y in zip((a.mat.data, a.mat.indices, a.mat.indptr),
                                    (b.mat.data, b.mat.indices, b.mat.indptr))))


def _identity_corpus(rng):
    """(graph, systems) pairs: the fixtures, random graphs of the three flag
    modes, a single vertex, a single edge and a tree with a flagged pendant,
    each plain and under 1- and 2-dim systems."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    graphs = list(CAT.values())
    graphs += [random_graph(rng, backtrack=mode)
               for mode in ("none", "symmetric", "any") for _ in range(6)]
    graphs += [make_graph(["a"], []), make_graph(["a", "b"], [("a", "b", 0.5, 0.25)]),
               make_graph("pqrs", [("p", "q", 0.5, 0.3), ("q", "r", 0.7, 0.2),
                                   ("q", "s", 0.4, 0.9)], backtrack=[("q", "s")])]
    for g in graphs:
        systems = [None, trivial_system(g, 1), trivial_system(g, 2),
                   make_local_system(g, 1, {e: random_unitary(rng, 1) for e in g.edges}),
                   make_local_system(g, 2, {e: swap for e in g.edges[::2]}),
                   make_local_system(g, 2, {e: random_unitary(rng, 2) for e in g.edges})]
        yield g, systems


def test_array_build_matches_triplet_builder(rng):
    """Spread, endpoint, flip, T and the zigzag orders 0-12 are bit for bit
    the CSR arrays of the old triplet builder: data, indices, indptr, their
    dtypes and the shape."""
    for g, systems in _identity_corpus(rng):
        for system in systems:
            new, old = incidence_maps(g, system), _old_incidence_maps(g, system)
            assert all(_same_csr(a, b) for a, b in zip(new, old))
            old_T = operators.LinearOperator(old[2].rows, old[2].cols,
                                             (old[0] @ old[1]).mat - old[2].mat)
            assert _same_csr(transfer_matrix(g, system), old_T)
        for n in range(13):
            assert _same_csr(zigzag_matrix(g, n), _old_zigzag_matrix(g, n))


def test_incidence_maps_store_no_zeros(rng, monkeypatch):
    """Each d x d block stores only its nonzero entries: on K4 with the trivial
    2-dim system every map holds 24 of its 48 block entries, and neither the
    dense maps nor any route output depends on the zeros left out, compared
    with a copy of the old triplet builder that stored them."""
    g = CAT["k4"]
    for twisted, plain in zip(incidence_maps(g, trivial_system(g, 2)), incidence_maps(g)):
        assert twisted.mat.nnz == twisted.mat.count_nonzero() == 24
        assert np.array_equal(twisted.dense(), np.kron(plain.dense(), np.eye(2)))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    cases = [(g, trivial_system(g, 2))]
    for mode in ("none", "symmetric"):
        h = random_graph(rng, backtrack=mode)
        cases.append((h, make_local_system(h, 2, {e: swap for e in h.edges[::2]})))
        cases.append((h, make_local_system(h, 2, {e: random_unitary(rng, 2) for e in h.edges})))

    def outputs():
        out = []
        for h, system in cases:
            out += [m.dense() for m in operators.incidence_maps(h, system)]
            out.append(transfer_matrix(h, system).dense())
            out.append(lfunction(h, system, 12, route="fredholm").c)
            if not h.backtrack:
                out.append(lfunction(h, system, 12, route="determinant").c)
            for name, route in ROUTE_BUILDERS.items():
                try:
                    out.append(route(h, 12).series.c)
                except ValueError:  # flags or weights outside the route's domain
                    pass
        return out

    fresh = outputs()
    stored_zeros = lambda h, system=None: _old_incidence_maps(h, system, store_zeros=True)
    monkeypatch.setattr(operators, "incidence_maps", stored_zeros)
    monkeypatch.setattr(routes, "incidence_maps", stored_zeros)
    assert operators.incidence_maps(g, trivial_system(g, 2))[0].mat.nnz == 48
    stored = outputs()
    assert len(fresh) == len(stored)
    assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(fresh, stored))


def test_transfer_split_holds_one_sided():
    g = CAT["bt2"]
    spread, endpoint, flip = incidence_maps(g)
    split = spread.dense() @ endpoint.dense() - flip.dense()
    assert np.array_equal(split, [[0, 0], [3, 0]])
    assert np.array_equal(transfer_matrix(g).dense(), split)


def test_operator_product_checks_bases():
    spread, endpoint, flip = incidence_maps(CAT["k3"])
    with pytest.raises(ValueError):
        spread @ spread
    prod = endpoint @ spread  # vertex -> vertex
    assert prod.rows == zigzag_matrix(CAT["k3"], 1).rows


def test_reduced_path_frozen_values():
    assert np.array_equal(reduced_path_matrices(CAT["k3"], 2)[2].dense(),
                          zigzag_matrix(CAT["k3"], 1).dense())
    assert np.array_equal(reduced_path_matrices(CAT["bt2"], 2)[2].dense(), [[6, 0], [0, 0]])
    assert np.array_equal(reduced_path_matrices(CAT["bt2"], 3)[3].dense(), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        reduced_path_matrices(CAT["k3"], -1)


def test_reduced_path_recursion_matches_enumeration(rng):
    graphs = list(CAT.values())
    graphs += [random_graph(rng, max_vertices=6, backtrack=mode)
               for mode in ("none", "symmetric", "any") for _ in range(10)]
    for g in graphs:
        A = reduced_path_matrices(g, 5)
        for m in range(6):
            direct = reduced_path_matrix_direct(g, m).dense()
            assert np.abs(A[m].dense() - direct).max() < 1e-9


def test_path_sum_inversion_identity(rng):
    """sum_{j=0..m} (-1)^j A_{m-j} B_j = 0 with enumerated path sums."""
    graphs = list(CAT.values())
    graphs += [random_graph(rng, max_vertices=8, backtrack=mode)
               for mode in ("none", "symmetric", "any") for _ in range(6)]
    for g in graphs:
        A = [reduced_path_matrix_direct(g, m).dense() for m in range(9)]
        B = [zigzag_matrix(g, j).dense() for j in range(9)]
        for m in range(1, 9):
            acc = sum((-1) ** j * A[m - j] @ B[j] for j in range(m + 1))
            assert np.abs(acc).max() < 1e-9


def test_anchored_frozen_values():
    assert np.array_equal(anchored_path_matrix(CAT["bt2"], 2, 1).dense(), [[36, 0], [0, 0]])
    # unit triangle: premium is 1, so C_{1,1} is just the adjacency operator
    assert np.array_equal(anchored_path_matrix(CAT["k3"], 1, 1).dense(),
                          zigzag_matrix(CAT["k3"], 1).dense())
    for bad in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(ValueError):
            anchored_path_matrix(CAT["k3"], *bad)


def test_anchored_trace_identity_triangle_by_hand():
    # tr C_{1,1} = tr(A_1 B_2) - tr(A_2 B_1) + tr(A_3 B_0) = 0 - 6 + 6
    g = CAT["k3"]
    A = reduced_path_matrices(g, 3)
    assert np.trace(A[1].dense() @ zigzag_matrix(g, 2).dense()) == pytest.approx(0)
    assert np.trace(A[2].dense() @ zigzag_matrix(g, 1).dense()) == pytest.approx(6)
    assert np.trace(A[3].dense()) == pytest.approx(6)
    assert anchored_path_matrix(g, 1, 1).mat.diagonal().sum() == pytest.approx(0)


def test_anchored_trace_identity(rng):
    """tr C_{m,n} = sum_{j=0..2n} (-1)^j tr(A_{m+j} B_{2n-j}) without flags."""
    graphs = [g for g in CAT.values() if not g.backtrack]
    graphs += [random_graph(rng, max_vertices=6) for _ in range(10)]
    for g in graphs:
        A = reduced_path_matrices(g, 12)
        B = [zigzag_matrix(g, j).dense() for j in range(7)]
        for m in range(1, 7):
            for n in range(1, 4):
                rhs = sum(
                    (-1) ** j * np.trace(A[m + j].dense() @ B[2 * n - j])
                    for j in range(2 * n + 1)
                )
                lhs = anchored_path_matrix(g, m, n).mat.diagonal().sum()
                assert abs(lhs - rhs) < 1e-9


def rotation_class_sum(g, m):
    """Group rooted closed sequences into rotation classes and sum
    (primitive length) * (class weight); independent of cycles internals."""
    seqs = closed_sequences(g, m)[m]
    classes = {}
    for seq, w in seqs:
        rots = {tuple(seq[i:] + seq[:i]) for i in range(len(seq))}
        classes[min(rots)] = (len(rots), w)
    return sum(period * w for period, w in classes.values())


def test_transfer_traces_count_rotation_classes(rng):
    graphs = list(CAT.values())
    graphs += [random_graph(rng, max_vertices=5, backtrack=mode)
               for mode in ("none", "symmetric", "any") for _ in range(5)]
    for g in graphs:
        T = transfer_matrix(g).dense()
        power = T.copy()
        for m in range(1, 8):
            assert np.trace(power) == pytest.approx(rotation_class_sum(g, m), abs=1e-9)
            power = power @ T


def test_weighted_triangle_third_trace():
    T = transfer_matrix(CAT["wt3"]).dense()
    assert np.trace(np.linalg.matrix_power(T, 3)) == pytest.approx(0.2115)


def test_large_graph_goes_sparse(rng):
    # operators are sparse at every size; a long cycle keeps the trace semantics
    n = 1100  # 2200 oriented edges
    verts = [f"v{i:04d}" for i in range(n)]
    edges = [(verts[i], verts[(i + 1) % n], 1.0, 1.0) for i in range(n)]
    g = make_graph(verts, edges)
    T = transfer_matrix(g)
    assert T.mat.diagonal().sum() == pytest.approx(0)
    import scipy.sparse as sp

    assert sp.issparse(T.mat)
    # the series does not depend on the matrix representation
    for mode in ("none", "symmetric", "any"):
        for _ in range(5):
            T = transfer_matrix(random_graph(rng, backtrack=mode))
            assert max_deviation(fredholm_det(T.mat, 12), fredholm_det(T.dense(), 12)) < 1e-13
