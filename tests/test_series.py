import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    complete_graph,
    dense_pencils,
    exact_fredholm,
    random_graph,
    random_unitary,
)
from zetagraph import fixtures, series
from zetagraph.errors import RefusalError
from zetagraph.graph import make_graph
from zetagraph.operators import incidence_maps, transfer_matrix, vertex_series
from zetagraph.twist import make_local_system
from zetagraph.series import (
    MatrixSeries,
    Series,
    coeffs_agree,
    csv_lines,
    exact_det,
    fredholm_det,
    max_deviation,
)


def poly_charpoly_reference(T, order):
    """Exact coefficients of det(1 - uT) by cofactor expansion over plain
    coefficient arrays; independent of the Series machinery under test."""
    n = T.shape[0]

    def conv(a, b):
        return np.convolve(a, b)

    def det(rows, cols):
        if len(rows) == 1:
            i, j = rows[0], cols[0]
            entry = np.array([1.0 + 0j if i == j else 0.0, -T[i, j]])
            return entry
        total = np.zeros(1, dtype=complex)
        i = rows[0]
        for k, j in enumerate(cols):
            entry = np.array([1.0 + 0j if i == j else 0.0, -T[i, j]])
            if not entry.any():
                continue
            minor = det(rows[1:], cols[:k] + cols[k + 1 :])
            term = (-1) ** k * conv(entry, minor)
            if len(term) > len(total):
                total = np.pad(total, (0, len(term) - len(total)))
            total[: len(term)] += term
        return total

    full = det(tuple(range(n)), tuple(range(n)))
    out = np.zeros(order + 1, dtype=complex)
    take = min(order + 1, len(full))
    out[:take] = full[:take]
    return out


def minor_expansion(ms):
    """det(I + N) = 1 + sum over nonempty index sets S of det N[S, S] for
    N = P - I, each minor by cofactor expansion over coefficient arrays
    truncated to the order of P; independent of MatrixSeries.det."""
    m, d = ms.order, ms.dim
    N = np.zeros((m + 1, d, d), dtype=complex)
    N[: len(ms.coeffs)] = ms.coeffs  # the head, zero-padded to the order
    N[0] -= np.eye(d)

    def det(rows, cols):
        if len(rows) == 1:
            return N[:, rows[0], cols[0]]
        total = np.zeros(m + 1, dtype=complex)
        for k, j in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1 :])
            total += (-1) ** k * np.convolve(N[:, rows[0], j], minor)[: m + 1]
        return total

    total = np.zeros(m + 1, dtype=complex)
    total[0] = 1.0
    for mask in range(1, 1 << d):
        idx = tuple(i for i in range(d) if mask >> i & 1)
        total += det(idx, idx)
    return Series(total)


def test_series_ring_identities():
    one = Series([1, 1])
    other = Series([1, -1])
    prod = one * other
    assert np.allclose(prod.coefficients(), [1, 0])
    prod = one.truncate(5) * other.truncate(5)
    assert np.allclose(prod.coefficients(), [1, 0, -1, 0, 0, 0])
    assert np.allclose((one + other).coefficients(), [2, 0])
    assert np.allclose((one - other).coefficients(), [0, 2])
    assert np.allclose((2.0 * one).coefficients(), [2, 2])
    assert np.allclose((one * 3.0).coefficients(), [3, 3])
    assert np.allclose((-one).coefficients(), [-1, -1])


def test_series_is_immutable_and_copies_input():
    buf = np.array([1.0, 2.0])
    s = Series(buf)
    buf[0] = 99.0
    assert s.coefficient(0) == 1.0
    view = s.coefficients()
    view[0] = 5.0  # mutating the returned copy must not leak back
    assert s.coefficient(0) == 1.0


def test_series_evaluation():
    assert Series([1, 0, 3])(0.5) == pytest.approx(1 + 3 * 0.25)


def test_exp_matches_factorial_series_and_is_a_homomorphism():
    # exp(t u) = sum t^n / n! u^n
    for t in (0.5, -1.25, 0.3 + 0.7j):
        got = Series([0, t] + [0] * 9).exp()
        want = [t**n / math.factorial(n) for n in range(11)]
        assert np.allclose(got.coefficients(), want, rtol=1e-14, atol=0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.normal(size=9) * 0.5
        b = rng.normal(size=9) + 1j * rng.normal(size=9)
        a[0] = b[0] = 0.0
        prod = Series(a).exp() * Series(b).exp()
        assert max_deviation(prod, Series(a + b).exp()) < 1e-12


def test_exp_precondition():
    with pytest.raises(ValueError):
        Series([1, 1]).exp()


def test_fredholm_det_scalar_cases():
    assert np.allclose(fredholm_det(np.array([[2.0]]), 3).coefficients(), [1, -2, 0, 0])
    eye2 = np.eye(2)
    assert np.allclose(fredholm_det(eye2, 2).coefficients(), [1, -2, 1])


def test_fredholm_det_matches_cofactor_charpoly():
    rng = np.random.default_rng(3)
    for dim in range(1, 9):
        for _ in range(4):
            T = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            got = fredholm_det(T, 10).coefficients()
            want = poly_charpoly_reference(T, 10)
            scale = np.maximum(1.0, np.abs(want))
            assert np.max(np.abs(got - want) / scale) < 1e-9, dim


def test_exact_reference_matches_the_characteristic_polynomial():
    # det(1 - uT) = u^n charpoly_T(1/u), in sympy's exact rationals; weights
    # 1.5, 0.3 and 1e-5 are dyadic rationals with large denominators
    g = make_graph("abcd", [("a", "b", 1.5, 0.3), ("b", "c", 1e-5, 1.0),
                            ("c", "a", 0.7, 2.5), ("c", "d", 0.1, 0.9)])
    T = transfer_matrix(g).dense()
    x = sympy.Symbol("x")
    charpoly = sympy.Matrix([[sympy.Rational(float(v)) for v in row] for row in T]).charpoly(x)
    want = [Fraction(int(c.p), int(c.q)) for c in charpoly.all_coeffs()]
    assert exact_fredholm(T, len(T) + 2) == want + [0, 0]


def test_fredholm_det_is_exact_past_the_degree():
    # det(1 - uT) has degree dim T = 12 on k4; with every weight 1.5 the
    # traces past it only added rounding (c_24 was -1.27e-6)
    order = 24
    want = exact_fredholm(transfer_matrix(complete_graph(4, 1.5)).dense(), order)
    got = fredholm_det(transfer_matrix(complete_graph(4, 1.5)).mat, order).coefficients()
    assert all(w == 0 for w in want[13:])
    assert np.all(got[13:] == 0)
    assert np.allclose(got[:13], [float(w) for w in want[:13]], rtol=1e-13, atol=0)


def test_matrix_series_det_is_exact_past_the_degree():
    # det(I - uT) has degree d * deg = 12 on k4 with every weight 1.5; the
    # recursion stops there, as fredholm_det does, since its rounding noise
    # above the degree was 1.27e-6 at u^24
    T = transfer_matrix(complete_graph(4, 1.5)).dense()
    det = MatrixSeries([np.eye(12), -T], 24).det()
    assert det.order == 24
    assert np.all(det.coefficients()[13:] == 0)
    assert coeffs_agree(det, fredholm_det(T, 24), tol=1e-12)
    # exact_det takes the 1.5 head as the dyadic numbers it holds: the exact
    # determinant rounded once, zeros included
    assert exact_det([-T], 24).c.tolist() == [float(w) for w in exact_fredholm(T, 24)]
    # on the unit K4, with a half-integer extra at every power: its power
    # sums are those of (1 - u)^(1/2), whose coefficients are binom(1/2, k) (-1)^k
    U = transfer_matrix(complete_graph(4, 1.0)).dense()
    root = [Fraction(1)]
    for k in range(1, 25):
        root.append(root[-1] * (k - Fraction(3, 2)) / k)
    want = exact_fredholm(U, 24)
    want = [float(sum(want[j] * root[n - j] for j in range(n + 1))) for n in range(25)]
    assert exact_det([-U], 24, np.full(25, 0.5)).c.tolist() == want


def test_exact_det_takes_empty_rows_and_dyadic_pencils(rng):
    # a head whose second row stores no entry, CSR or dense: det(1 - u mat)
    mat = np.array([[0.0, 1.5, 0.0], [0.0, 0.0, 0.0], [0.3, 0.0, 1e-5]])
    want = [float(w) for w in exact_fredholm(mat, 5)]
    for head in ([-mat], [sp.csr_matrix(-mat)], -mat[None]):
        assert exact_det(head, 5).c.tolist() == want
    # a degree-2 pencil I + u C_1 + u^2 C_2 of random dyadic entries is
    # det(1 - uL) of its companion L = [[-C_1, -C_2], [I, 0]]; row 1 of both
    # coefficients is empty, and the pencil's degree 6 ends the power sums
    for _ in range(3):
        C1, C2 = rng.uniform(-1.0, 1.0, size=(2, 3, 3))
        C1[1] = C2[1] = 0.0
        L = np.block([[-C1, -C2], [np.eye(3), np.zeros((3, 3))]])
        want = [float(w) for w in exact_fredholm(L, 8)]
        assert exact_det([C1, sp.csr_matrix(C2)], 8).c.tolist() == want
        assert want[7:] == [0.0, 0.0]


def test_fredholm_det_on_fixture_transfer_operators():
    cat = fixtures.catalogue()
    assert np.allclose(
        fredholm_det(transfer_matrix(cat["k3"]).mat, 6).coefficients().real,
        [1, 0, 0, -2, 0, 0, 1],
    )
    assert np.allclose(
        fredholm_det(transfer_matrix(cat["bt1"]).mat, 4).coefficients().real,
        [1, 0, -6, 0, 0],
    )
    assert np.allclose(
        fredholm_det(transfer_matrix(cat["edge"]).mat, 4).coefficients().real,
        [1, 0, 0, 0, 0],
    )


def _dense_power_traces(mat, m):
    """The power traces as fredholm_det took them before the column blocks:
    full n x n powers from the identity, one trace each."""
    p = np.zeros(m + 1, dtype=np.complex128)
    power = np.eye(mat.shape[0])
    for j in range(1, m + 1):
        power = mat @ power
        p[j] = np.trace(power)
    return p


def test_fredholm_det_blocks_keep_the_bits_of_dense_powers(monkeypatch):
    """Column blocks change no bit of the power traces fredholm_det hands
    to Newton's recursion for a sparse T, real or complex, at any width
    around the block (n = 63, 64, 65) and past two blocks, at order 0, 1,
    12, 24 and n + 1.  The traces are compared, not the series, since the
    guard refuses some of these at high order.

    An oriented-edge count is even, so the odd widths are leading principal
    blocks of a transfer operator; the 2-dim unitary systems make T complex."""
    traces = []
    monkeypatch.setattr(series, "_newton", lambda p, rounding: traces.append(p) or Series([1.0]))
    rng = np.random.default_rng(64)
    mats = [transfer_matrix(g).mat for g in fixtures.catalogue().values()]
    mats += [transfer_matrix(complete_graph(n, 1.5)).mat for n in (4, 7)]
    for mode in ("none", "symmetric", "any"):
        for n_edges in (16, 31, 32, 33, 70):
            g = random_graph(rng, n_vertices=n_edges - 2, extra_edges=3, backtrack=mode)
            system = make_local_system(g, 2, {e: random_unitary(rng, 2) for e in g.edges})
            for T in (transfer_matrix(g).mat, transfer_matrix(g, system).mat):
                mats.append(T)
                mats += [T[:k, :k] for k in (63, 65) if k < T.shape[0]]
    assert {63, 64, 65} <= {T.shape[0] for T in mats}
    assert max(T.shape[0] for T in mats) > 2 * series.TRACE_BLOCK
    assert any(T.dtype == np.complex128 and T.shape[0] > series.TRACE_BLOCK for T in mats)
    for T in mats:
        for order in (0, 1, 12, 24, T.shape[0] + 1):
            fredholm_det(T, order)
            want = _dense_power_traces(T, min(order, T.shape[0]))
            assert traces.pop().tobytes() == want.tobytes(), (T.shape, order)


def test_fredholm_det_memory_is_a_few_blocks():
    """About 2000 oriented edges: dense n x n powers took 64 MB, the column
    blocks about 2 MB."""
    g = random_graph(np.random.default_rng(2000), n_vertices=700, extra_edges=301)
    T = transfer_matrix(g).mat
    assert T.shape == (2000, 2000)
    tracemalloc.start()
    try:
        fredholm_det(T, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_fredholm_det_of_nilpotent_operators_is_one():
    """No edges (dim T = 0, no block at all) and a tree (T nilpotent, every
    trace an exact zero) give exactly 1 at every order."""
    one_vertex = make_graph(["a"], [])
    tree = make_graph("pqrst", [(a, b, 0.5, 0.7) for a, b in ("pq", "qr", "rs", "qt")])
    for g in (one_vertex, tree):
        for order in (0, 1, 12):
            c = fredholm_det(transfer_matrix(g).mat, order).c
            assert c.tolist() == [1.0] + [0.0] * order


def test_matrix_series_det_equals_fredholm_embedding():
    rng = np.random.default_rng(4)
    for dim in (2, 3, 5):
        T = rng.normal(size=(dim, dim))
        ms = MatrixSeries([np.eye(dim), -T], 8)
        assert max_deviation(ms.det(), fredholm_det(T, 8)) < 1e-12


def test_matrix_series_keeps_its_head_and_pads_nothing():
    # the classical pencil I - uA + u^2 Q and the bass block pencil of k4:
    # the head alone at order M gives the bit pattern of the head padded
    # with zero matrices up to M, or the same refusal, and only the head is
    # stored.  The bass pencil's Jacobi sums reach 1e10 at order 24, where
    # its guard refuses at u^21
    def outcome(ms):
        try:
            return ms.det().c.tobytes()
        except RefusalError as exc:
            return str(exc)

    for name, head in dense_pencils(fixtures.catalogue()["k4"]).items():
        d = head[0].shape[0]
        for order in (1, 2, 16, 24):
            ms = MatrixSeries(head, order)
            padded = MatrixSeries(head[: order + 1] + [np.zeros((d, d))] * (order - 2))
            assert ms.order == padded.order == order
            assert len(ms.coeffs) == min(order, 2) + 1, (name, order)
            assert outcome(ms) == outcome(padded), (name, order)
            assert isinstance(outcome(ms), bytes) or (name, order) == ("bass", 24)


def test_matrix_series_det_multiplicative():
    rng = np.random.default_rng(5)
    for _ in range(5):
        dim, order = 4, 8
        def rand_ms():
            coeffs = [np.eye(dim, dtype=complex)]
            coeffs += [rng.normal(size=(dim, dim)) * 0.5 for _ in range(order)]
            return MatrixSeries(coeffs)
        S1, S2 = rand_ms(), rand_ms()
        lhs = (S1 * S2).det()
        rhs = S1.det() * S2.det()
        assert coeffs_agree(lhs, rhs.truncate(order))


def test_matrix_series_det_requires_identity_head():
    with pytest.raises(ValueError):
        MatrixSeries([np.zeros((2, 2)), np.eye(2)]).det()


def test_matrix_series_keeps_the_dtype_of_its_head():
    eye, ones = np.eye(2), np.ones((2, 2))
    assert MatrixSeries([eye, ones]).coeffs.dtype == np.float64
    integer = [np.eye(2, dtype=int), np.ones((2, 2), dtype=np.int32)]
    assert MatrixSeries(integer).coeffs.dtype == np.float64
    assert MatrixSeries([eye.astype(np.float32), ones]).coeffs.dtype == np.float64
    assert MatrixSeries([eye, ones, 1j * ones]).coeffs.dtype == np.complex128
    assert MatrixSeries([eye, ones.astype(np.complex64)]).coeffs.dtype == np.complex128
    # any complex coefficient makes the head complex, stored or not
    assert MatrixSeries([eye, ones, 1j * ones], order=1).coeffs.dtype == np.complex128
    assert MatrixSeries([eye, ones, 0j * ones]).coeffs.dtype == np.complex128
    head = MatrixSeries([eye, ones]).coeffs
    assert head.shape == (2, 2, 2) and not head.flags.writeable


def test_vertex_series_is_real_untwisted_and_complex_twisted(rng):
    g = fixtures.catalogue()["k4"]
    real = vertex_series(*incidence_maps(g), 6)
    assert real.coeffs.dtype == np.float64
    system = make_local_system(g, 2, {e: random_unitary(rng, 2) for e in g.edges})
    twisted = vertex_series(*incidence_maps(g, system), 6)
    assert twisted.coeffs.dtype == np.complex128 and twisted.dim == 2 * real.dim
    trivial = make_local_system(g, 1)
    cast = vertex_series(*incidence_maps(g, trivial), 6)
    assert cast.coeffs.dtype == np.complex128
    assert cast.coeffs.tobytes() == real.coeffs.astype(np.complex128).tobytes()


def _real_pencil(rng, d, deg, order):
    coeffs = [np.eye(d)] + [rng.normal(size=(d, d)) * 0.5 / d for _ in range(deg)]
    return MatrixSeries(coeffs, order)


def test_real_det_matches_the_complex_cast_pencil():
    # the float64 recursion against the same pencil in complex128
    rng = np.random.default_rng(23)
    for _ in range(100):
        d, deg, order = (int(rng.integers(1, hi)) for hi in (41, 13, 16))
        ms = _real_pencil(rng, d, deg, order)
        cast = MatrixSeries(ms.coeffs.astype(np.complex128), order)
        got, want = ms.det().c, cast.det().c
        assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want))), (d, deg, order)


@st.composite
def pencils(draw, dims=st.integers(1, 5)):
    """Series I + C_1 u + ... + C_deg u^deg padded with zeros to order M <= 6,
    with deg 1, 2 or M and complex entries of modulus below 1."""
    d = draw(dims)
    m = draw(st.integers(1, 6))
    deg = min(m, draw(st.sampled_from([1, 2, m])))
    part = arrays(np.float64, (deg, d, d), elements=st.floats(-0.7, 0.7))
    heads = draw(part) + 1j * draw(part)
    coeffs = [np.eye(d)] + list(heads) + [np.zeros((d, d))] * (m - deg)
    return MatrixSeries(coeffs)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(pencils())
def test_jacobi_det_equals_minor_expansion(ms):
    assert coeffs_agree(ms.det(), minor_expansion(ms), tol=1e-10)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.data())
def test_jacobi_det_is_multiplicative(data):
    d = st.just(data.draw(st.integers(1, 4)))
    a, b = data.draw(pencils(d)), data.draw(pencils(d))
    m = min(a.order, b.order)
    lhs = (a * b).det().truncate(m)
    rhs = (a.det() * b.det()).truncate(m)
    assert coeffs_agree(lhs, rhs, tol=1e-10)


NEWTON = series._newton


def _traces_summed_across(big, k):
    """A series._newton given the trace p_k as if summed across two more
    diagonal entries +big and -big: the value rounds to the last bit of big,
    and the rounding estimate, eps times the sum of |entries|, says so."""
    def summed(p, rounding):
        p, rounding = p.copy(), rounding.copy()
        p[k] = (p[k] + big) - big
        rounding[k] += np.finfo(float).eps * 2 * big
        return NEWTON(p, rounding)

    return summed


def test_guard_refuses_a_trace_whose_rounding_passes_the_contract(monkeypatch):
    # p_k summed across +-big has an error near eps * big: at big = 1e9 it
    # is about 1e-7, and the coefficients from u^k on cannot be certified;
    # at big = 1e3 the series is still certified and within the contract
    T = transfer_matrix(complete_graph(5, 0.5)).mat
    want = fredholm_det(T, 12)
    for k in (1, 5, 12):
        monkeypatch.setattr(series, "_newton", _traces_summed_across(1e9, k))
        with pytest.raises(RefusalError, match=rf"u\^{k}: error estimate .* exceeds the contract"):
            fredholm_det(T, 12)
        monkeypatch.setattr(series, "_newton", _traces_summed_across(1e3, k))
        assert coeffs_agree(fredholm_det(T, 12), want)


def test_guard_refuses_where_newton_cancels():
    # a trace shifted by 1e-6 is an answer to another matrix, which the guard
    # cannot see; it sees the rounding of p_j c_{k-j} terms that cancel.
    # exp(-sum_j p_j u^j / j) with p_j = 100^j is 1 - 100 u: every
    # coefficient from u^2 on is 0 from terms near 100^k, and eps 100^k / k
    # passes the contract 2e-9 at k = 4
    p = 100.0 ** np.arange(13)
    p[0] = 0.0
    with pytest.raises(RefusalError, match=r"u\^4: error estimate"):
        series._newton(p)
    c = series._newton(p[:4]).c
    assert np.all(np.abs(c - [1, -100, 0, 0]) <= 1e-9 * np.array([2, 101, 2, 2]))
    assert series._newton(np.zeros(13)).c.tolist() == [1.0] + [0.0] * 12


def test_det_of_flip_is_roundtrip_product():
    for name, g in fixtures.catalogue().items():
        if g.backtrack:
            continue
        _, _, flip = incidence_maps(g)
        lhs = fredholm_det(flip.mat, 8)
        rhs = Series.one(8)
        for u, v in g.edges:
            c = np.zeros(9, dtype=complex)
            c[0] = 1.0
            c[2] = -g.weight[(u, v)] * g.weight[(v, u)]
            rhs = rhs * Series(c)
        assert max_deviation(lhs, rhs) < 1e-12, name


def test_coeffs_agree_tolerance_contract():
    a = Series([1.0, 1000.0])
    b = Series([1.0, 1000.0 + 5e-7])
    # |delta| <= tol + tol * max(1, |ref|) with ref = 1000
    assert coeffs_agree(a, b, tol=1e-9)
    b = Series([1.0, 1000.0 + 2e-6])
    assert not coeffs_agree(a, b, tol=1e-9)


def test_csv_lines_format():
    lines = csv_lines(Series([1.0, -0.0, 0.25]))
    assert lines[0] == "n,re,im"
    assert lines[1] == "0,1.0,0.0"
    assert lines[2] == "1,0.0,0.0"  # negative zero normalized
    assert lines[3] == "2,0.25,0.0"
