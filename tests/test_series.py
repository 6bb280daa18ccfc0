from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import complete_graph
from zetagraph import fixtures, series
from zetagraph.operators import (
    adjacency_matrix,
    excess_matrix,
    incidence_maps,
    transfer_matrix,
    zigzag_matrix,
)
from zetagraph.series import (
    MatrixSeries,
    Series,
    coeffs_agree,
    csv_lines,
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


def test_invert_geometric_series():
    inv = Series([1, -1, 0, 0, 0, 0]).invert()
    assert np.allclose(inv.coefficients(), np.ones(6))
    s = Series(np.arange(1, 8, dtype=float))
    assert np.allclose((s * s.invert()).coefficients(), [1, 0, 0, 0, 0, 0, 0], atol=1e-12)


def test_invert_requires_nonzero_constant():
    with pytest.raises(ValueError):
        Series([0, 1]).invert()


def test_derivative_and_scale_and_eval():
    s = Series([1, 0, 3])
    assert np.allclose(s.derivative().coefficients(), [0, 6])
    assert np.allclose(s.scale_argument(2.0).coefficients(), [1, 0, 12])
    assert s(0.5) == pytest.approx(1 + 3 * 0.25)


def test_log_of_one_minus_u_is_mercator():
    s = Series([1, -1] + [0] * 8).log()
    expected = [0] + [-1.0 / n for n in range(1, 10)]
    assert np.allclose(s.coefficients(), expected)


def test_exp_log_inverse_pair():
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = rng.normal(size=9)
        c[0] = 1.0
        s = Series(c)
        assert max_deviation(s.log().exp(), s) < 1e-12
        d = rng.normal(size=9) * 0.5
        d[0] = 0.0
        t = Series(d)
        assert max_deviation(t.exp().log(), t) < 1e-11


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        Series([1, 1]).exp()
    with pytest.raises(ValueError):
        Series([2, 1]).log()


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


def test_fredholm_det_is_exact_past_the_degree():
    # det(1 - uT) has degree dim T = 12 on k4; with every weight 1.5 the
    # traces past it only added rounding (c_24 was -1.27e-6).  Reference:
    # integer traces of the 0/1 Hashimoto matrix times (3/2)^j, and the
    # Newton recursion in Fractions
    order = 24
    B = transfer_matrix(complete_graph(4, 1)).dense().astype(int).astype(object)
    power, p = np.eye(len(B), dtype=int).astype(object), [Fraction(0)]
    for j in range(1, order + 1):
        power = B.dot(power)
        p.append(Fraction(3, 2) ** j * int(np.trace(power)))
    want = [Fraction(1)]
    for k in range(1, order + 1):
        want.append(-sum(p[j] * want[k - j] for j in range(1, k + 1)) / k)
    got = fredholm_det(transfer_matrix(complete_graph(4, 1.5)).mat, order).coefficients()
    assert all(w == 0 for w in want[13:])
    assert np.all(got[13:] == 0)
    assert np.allclose(got[:13], [float(w) for w in want[:13]], rtol=1e-13, atol=0)


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


def test_matrix_series_det_equals_fredholm_embedding():
    rng = np.random.default_rng(4)
    for dim in (2, 3, 5):
        T = rng.normal(size=(dim, dim))
        ms = MatrixSeries([np.eye(dim), -T], 8)
        assert max_deviation(ms.det(), fredholm_det(T, 8)) < 1e-12


def test_matrix_series_keeps_its_head_and_pads_nothing():
    # the classical pencil I - uA + u^2 Q and the bass block pencil of k4:
    # the head alone at order M gives the bit pattern of the head padded
    # with zero matrices up to M, and only the head is stored
    g = fixtures.catalogue()["k4"]
    A = adjacency_matrix(g).dense()
    sigma, tau, flip = (op.dense() for op in incidence_maps(g))
    nv, ne = A.shape[0], flip.shape[0]
    c1 = np.block([[-A, np.zeros((nv, ne))], [sigma, flip]])
    c2 = np.zeros((nv + ne, nv + ne))
    c2[:nv, :nv] = zigzag_matrix(g, 2).dense()
    c2[:nv, nv:] = tau @ flip @ flip
    pencils = {"classical": [np.eye(nv), -A, excess_matrix(g).dense()],
               "bass": [np.eye(nv + ne), c1, c2]}
    for name, head in pencils.items():
        d = head[0].shape[0]
        for order in (1, 2, 24):
            ms = MatrixSeries(head, order)
            padded = MatrixSeries(head[: order + 1] + [np.zeros((d, d))] * (order - 2))
            assert ms.order == padded.order == order
            assert len(ms.coeffs) == min(order, 2) + 1, (name, order)
            assert ms.det().c.tobytes() == padded.det().c.tobytes(), (name, order)


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


def _pencil(rng, dim, order):
    T = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return MatrixSeries([np.eye(dim), -T], order), T


def test_point_check_refuses_corrupted_series_above_minor_dimension(rng, monkeypatch):
    # at d = 10 the interpolation check runs; it sees every order, down to a
    # 1e-6 shift of the top power sum.  At d = 24 it would cost about four
    # times the determinant, and the point check sees orders 1-2
    newton = series._newton
    cases = [(10, 1, 1e-3), (10, 2, 1.0), (10, 8, 1e-6), (24, 1, 1e-3), (24, 2, 1.0)]
    for dim, k, delta in cases:
        monkeypatch.setattr(series, "_newton", newton)
        ms, T = _pencil(rng, dim, 8)
        if dim == 10:
            assert max_deviation(ms.det(), fredholm_det(T, 8)) < 1e-10
        else:  # coefficients near 1e6, so only a relative match is meaningful
            assert coeffs_agree(ms.det(), fredholm_det(T, 8), tol=1e-12)

        def corrupted(p, k=k, delta=delta):
            p = p.copy()
            p[k] += delta
            return newton(p)

        monkeypatch.setattr(series, "_newton", corrupted)
        check = "interpolation check" if dim == 10 else "point check"
        with pytest.raises(ArithmeticError, match=check):
            ms.det()


def test_interpolation_check_runs_where_it_costs_little(monkeypatch):
    # the exact check runs where its measured cost is at most about 2.5 times
    # the Jacobi recursion: shapes of the k7 vertex series (d = 7) and bass
    # block (d = 49, deg 2) at M = 24 take it; a d = 30 block at M = 12 and a
    # d = 50 vertex series at M = 40 (measured 3.9 and 5.3 times) do not
    seen = []
    monkeypatch.setattr(MatrixSeries, "_check_interpolation",
                        lambda self, result, deg, n_pts: seen.append("interpolation"))
    monkeypatch.setattr(MatrixSeries, "_check_point_value",
                        lambda self, result, deg: seen.append("point"))
    rng = np.random.default_rng(0)
    cases = [(7, 24, 24, "interpolation"), (49, 2, 24, "interpolation"),
             (30, 2, 12, "point"), (50, 40, 40, "point")]
    for d, deg, order, path in cases:
        coeffs = [np.eye(d)] + [rng.normal(size=(d, d)) * 0.3 / d for _ in range(deg)]
        MatrixSeries(coeffs + [np.zeros((d, d))] * (order - deg)).det()
        assert seen.pop() == path, (d, deg, order)


def test_point_check_tolerance_covers_truncation_tail(rng):
    # at low order the dropped terms of det P(u0) are far above rounding;
    # the tail bound in the tolerance must keep such correct series
    for order in range(1, 5):
        for dim in (1, 3, 8, 20):
            ms, T = _pencil(rng, dim, order)
            assert max_deviation(ms.det(), fredholm_det(T, order)) < 1e-10


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
