"""Truncated power series in one variable, scalar and matrix valued.

A Series holds complex coefficients c_0..c_M for a fixed truncation order M;
Series(head, order=M) zero-pads a short head.  It is truncated, evaluated
and compared (max_deviation and coeffs_agree zero-extend the shorter one),
never multiplied: the routes add power sums instead.  A MatrixSeries stores
only its head C_0..C_deg beside M, in its coefficients' own dtype: float64
for real coefficients, so an untwisted graph's determinant runs in real
arithmetic, and complex128 once any coefficient is complex.

Two determinants turn power sums into coefficients by one Newton
recursion, _newton, which is also their certificate: it estimates each
coefficient's error and raises RefusalError where the estimate passes the
coefficient contract.  fredholm_det takes the power traces tr T^j of a
sparse or dense T, and MatrixSeries.det the power sums of log det P for
P = sum C_k u^k by Jacobi's formula.  Both add the power sums of another
factor before the Newton step, as the routes do for the roundtrip product,
(1 - u^2)^-chi and exp(-alpha u^2).  exact_det computes either determinant
exactly from a real head (det(1 - u mat) has the head [-mat]), taking each
entry as the dyadic number it is; the routes decide where those are their
exact numbers.  dyadic scales floats to integers over one common power of
two, for exact_det and the untwisted Euler product.
"""

from __future__ import annotations

import numpy as np

from .errors import RefusalError


class Series:
    """Immutable truncated power series with complex coefficients."""

    __slots__ = ("c",)

    def __init__(self, coefficients, order: int | None = None):
        c = np.array(coefficients, dtype=np.complex128).reshape(-1)
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            out = np.zeros(order + 1, dtype=np.complex128)
            n = min(len(c), order + 1)
            out[:n] = c[:n]
            c = out
        if len(c) == 0:
            c = np.zeros(1, dtype=np.complex128)
        if not np.all(np.isfinite(c)):
            raise ValueError("series coefficients must be finite")
        c.flags.writeable = False
        self.c = c

    @staticmethod
    def one(order: int) -> "Series":
        return Series([1.0], order=order)

    @property
    def order(self) -> int:
        return len(self.c) - 1

    def coefficient(self, n: int) -> complex:
        return complex(self.c[n]) if 0 <= n <= self.order else 0.0

    def coefficients(self) -> np.ndarray:
        return self.c.copy()

    def truncate(self, order: int) -> "Series":
        return Series(self.c, order=order)

    def __call__(self, u: complex) -> complex:
        val = 0j
        for cn in self.c[::-1]:
            val = val * u + cn
        return complex(val)

    def __repr__(self):
        shown = ", ".join(f"{z:.6g}" for z in self.c[: min(5, len(self.c))])
        tail = ", ..." if len(self.c) > 5 else ""
        return f"Series([{shown}{tail}], order={self.order})"


def _paired(a: Series, b: Series) -> tuple[np.ndarray, np.ndarray]:
    """Both coefficient arrays, the shorter zero-extended to the longer."""
    x = np.zeros(max(len(a.c), len(b.c)), dtype=np.complex128)
    y = x.copy()
    x[: len(a.c)], y[: len(b.c)] = a.c, b.c
    return x, y


def max_deviation(a: Series, b: Series) -> float:
    x, y = _paired(a, b)
    return float(np.max(np.abs(x - y)))


def coeffs_agree(a: Series, b: Series, tol: float = 1e-9) -> bool:
    """Per-coefficient comparison at |delta| <= tol + tol*max(1, |ref|)."""
    x, y = _paired(a, b)
    ref = np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
    return bool(np.all(np.abs(x - y) <= tol + tol * ref))


def _fmt(v: float) -> str:
    v = float(v)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return repr(v)


def csv_lines(s: Series) -> list[str]:
    lines = ["n,re,im"]
    for n, z in enumerate(s.c):
        lines.append(f"{n},{_fmt(z.real)},{_fmt(z.imag)}")
    return lines


# ---------------------------------------------------------------------------
# determinants


# identity columns per block of the power traces in fredholm_det
TRACE_BLOCK = 64

# the bound CONTRACT * (1 + max(1, |c_k|)) of coeffs_agree on a coefficient's error
CONTRACT = 1e-9

# the most work exact_det takes on, in multiply-adds: the head's stored entries
# x dimension x power sums, sum_k nnz(C_k) x d x m
EXACT_BUDGET = 5 * 10**6

_EPS = np.finfo(float).eps


def _newton(p: np.ndarray, rounding=0.0) -> Series:
    """Coefficients c_k = -(1/k) sum_{j=1..k} p_j c_{k-j} of
    exp(-sum_j p_j u^j / j) from the power sums p_1..p_M (p[0] is ignored).

    Beside c_k runs the estimate of its error (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3): the sum's own rounding, the
    earlier errors carried forward, and rounding_j, the error estimate of
    p_j (a scalar or an array like p),
    e_k = (1/k) sum_j [|p_j| (eps |c_{k-j}| + e_{k-j}) + rounding_j |c_{k-j}|].
    Where e_k exceeds CONTRACT (1 + max(1, |c_k|)) it raises RefusalError,
    whose message states that rule rather than its value at the uncertified
    c_k: two refusals at the same u^k differ only in their estimates.
    """
    order = len(p) - 1
    c = np.zeros(order + 1, dtype=np.complex128)
    c[0] = 1.0
    for k in range(1, order + 1):
        c[k] = -np.dot(p[1 : k + 1], c[k - 1 :: -1][: k]) / k
    size, mag = np.abs(p), np.abs(c)
    weight = _EPS * size + rounding
    size[0] = weight[0] = 0.0
    err = np.convolve(weight, mag)[: order + 1]  # the terms in |c| alone
    for k in range(1, order + 1):
        err[k] = (err[k] + np.dot(size[1 : k + 1], err[k - 1 :: -1])) / k
    tol = CONTRACT * (1.0 + np.maximum(1.0, mag))
    if not np.all(err <= tol):
        k = int(np.argmin(err <= tol))
        raise RefusalError(f"Newton's recursion cannot certify u^{k}: error estimate "
                           f"{err[k]:.3g} exceeds the contract "
                           f"{CONTRACT:g} * (1 + max(1, |c_{k}|))")
    return Series(c)


def fredholm_det(mat, order: int, extra=None) -> Series:
    """det(1 - u*mat) = exp(-sum_j u^j tr(mat^j) / j) to the given order,
    times exp(-sum_j extra_j u^j / j) where extra is given, by _newton.

    The traces stop at the degree, n = dim mat or len(extra) - 1, with exact
    zeros above.  The powers are taken TRACE_BLOCK identity columns at a
    time, in O(n * TRACE_BLOCK) memory.  A sparse (CSR) product computes
    each column row by row in stored order, so the traces are the bits of
    full dense powers; a dense ndarray wider than one block goes through
    BLAS block by block, which may move the last bits.  The diagonal keeps
    the power's dtype, as a complex sum of real entries would group its
    terms differently.  The error estimate of each power sum is eps times
    the sum of the |terms| it adds, which sees their cancellation.
    """
    mat = getattr(mat, "mat", mat)
    n = mat.shape[0]
    m = min(order, n) if extra is None else len(extra) - 1
    diag = np.zeros((m + 1, n), dtype=np.result_type(mat.dtype, np.float64))
    for start in range(0, n, TRACE_BLOCK):
        block = slice(start, min(start + TRACE_BLOCK, n))
        power = np.zeros((n, block.stop - start))
        np.fill_diagonal(power[block], 1.0)
        for j in range(1, m + 1):
            power = mat @ power
            diag[j, block] = power[block].diagonal()
    p, size = diag.sum(axis=1).astype(np.complex128), np.abs(diag).sum(axis=1)
    if extra is not None:
        p, size = p + extra, size + np.abs(extra)
    return _newton(p, _EPS * size).truncate(order)


def dyadic(values) -> tuple[int, list[int]]:
    """(s, N) with each float x_i of values equal to N_i / 2^s, 2^s the
    largest of their denominators, which are all powers of two."""
    ratios = [float(x).as_integer_ratio() for x in values]
    s = max((d.bit_length() - 1 for _, d in ratios), default=0)
    return s, [n << (s - d.bit_length() + 1) for n, d in ratios]


def exact_det(head, order: int, extra=None) -> Series | None:
    """det(I + sum_k C_k u^k) exp(-sum_j extra_j u^j / j) in exact arithmetic,
    each coefficient rounded once, from the real square head C_1..C_deg (CSR
    or dense, each entry the dyadic rational it is); None where the work,
    sum_k nnz(C_k) x d x m multiply-adds, would exceed EXACT_BUDGET.

    With 2^s the common denominator of dyadic, D_k = 2^(sk) C_k is the
    integer head of P in v = u / 2^s.  Jacobi's recursion of
    MatrixSeries.det runs on it in Python integers to the same degree m,
    X_n = -sum_j D_j X_{n-j} and p_n(u) = -sum_k k tr(D_k X_{n-k}) / 2^(sn),
    the stored entries of [D_1 ... D_deg] gathered row by row against the
    stacked X_{n-1}, ..., X_{n-deg} (zero before X_0); Newton's recursion
    runs in Fractions on the power sums plus extra.
    """
    from fractions import Fraction

    import scipy.sparse as sp

    D = sp.hstack([sp.csr_matrix(c) for c in head], format="csr")
    d, deg = D.shape[0], len(head)
    m = min(order, d * deg) if extra is None else len(extra) - 1
    if D.nnz * d * m > EXACT_BUDGET:
        return None
    s, data = dyadic(D.data)
    k = (D.indices // d + 1).tolist()  # the entry's C_k
    data = np.array([x << (s * (j - 1)) for x, j in zip(data, k)], dtype=object)
    weighted = data * np.array(k, dtype=object)
    rows = np.repeat(np.arange(d), np.diff(D.indptr))
    starts = D.indptr[:-1][np.diff(D.indptr) > 0]
    X = np.zeros((d * deg, d), dtype=object)  # X_{n-1}, ..., X_{n-deg}
    X[:d] = np.identity(d, dtype=int)
    p = [Fraction(0)] * (m + 1) if extra is None else [Fraction(float(x)) for x in extra]
    for n in range(1, m + 1):
        p[n] -= Fraction(int(np.dot(weighted, X[D.indices, rows])), 1 << (s * n))
        if n < m:
            nxt = np.zeros((d, d), dtype=object)
            nxt[rows[starts]] = np.add.reduceat(data[:, None] * X[D.indices], starts)
            X = np.concatenate([-nxt, X[: d * (deg - 1)]])
    return _exact_newton(p, order)


def _exact_newton(p, order: int) -> Series:
    """_newton's coefficients from exact power sums p_1..p_m (p[0] is
    ignored) in Fractions, each rounded once and zero-padded to order."""
    from fractions import Fraction

    c = [Fraction(1)]
    for k in range(1, len(p)):
        c.append(-sum(p[j] * c[k - j] for j in range(1, k + 1)) / k)
    return Series([float(x) for x in c], order=order)


class MatrixSeries:
    """Square-matrix-valued series P = sum_k C_k u^k truncated at a fixed order.

    Only the head C_0..C_deg is stored, as one read-only (deg+1, d, d)
    array (a view of coefficients where they are such an array already),
    deg being the last nonzero coefficient at or below the order;
    the coefficients above it are zero up to the order, which defaults to
    len(coefficients) - 1.  The head keeps its coefficients' dtype, at least
    float64 (np.result_type(np.float64, *coefficients)): real coefficients
    are stored, and the determinant runs, in float64, and complex ones in
    complex128.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coefficients, order: int | None = None):
        if len(coefficients) == 0:
            raise ValueError("need at least the constant coefficient")
        d = np.shape(coefficients[0])[0]
        if any(np.shape(m) != (d, d) for m in coefficients):
            raise ValueError("all coefficients must be square of equal size")
        self.order = len(coefficients) - 1 if order is None else order
        if self.order < 0:
            raise ValueError("order must be >= 0")
        head = np.asarray(coefficients)
        head = head.astype(np.result_type(np.float64, head), copy=False)[: self.order + 1]
        deg = len(head) - 1
        while deg > 0 and not head[deg].any():
            deg -= 1
        head = head[: deg + 1]
        head.flags.writeable = False
        self.coeffs = head

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def det(self, extra=None) -> Series:
        """Determinant of P = sum_k C_k u^k (C_0 = I) by Jacobi's formula,
        times exp(-sum_j extra_j u^j / j) where extra is given, by _newton.

        With X = P^-1 from X_0 = I, X_k = -sum_{j=1..min(k,deg)} C_j X_{k-j},
        where C_deg ends the stored head, (log det P)' = tr(X P')
        gives the power sums n l_n = sum_{k=1..min(n,deg)} k tr(C_k X_{n-k})
        of log det P = sum l_n u^n, as p_n = -n l_n, each estimated to eps
        times the sum of the |terms| it adds: about m*deg matrix products,
        keeping the last deg terms of X.  They stop at the degree m, d*deg or
        len(extra) - 1 <= M, with exact zeros above (det P itself is never
        expanded with extra), and each p_n is summed over k in increasing
        order, so a stop at m keeps its bits.

        The recursion runs in the head's dtype, and each order takes two
        calls: one batched trace tr(C_j X_k) for every j, and one product of
        the stacked head [C_1 ... C_J] (d x Jd) with X_k, ..., X_{k+1-J}
        stacked (Jd x d), which sums C_j X_{k+1-j} over j.  The X_k fill a
        buffer of deg slots from the last down, so that X_k, X_{k-1}, ... is
        always a contiguous slice.
        """
        C = self.coeffs
        d, deg = self.dim, len(C) - 1
        if np.max(np.abs(C[0] - np.eye(d))) > 1e-12:
            raise ValueError("constant coefficient must be the identity")
        m = min(self.order, d * deg) if extra is None else len(extra) - 1
        p = np.zeros(m + 1, dtype=C.dtype)  # p_n = -n l_n
        size = np.zeros(m + 1)  # sum_k k |tr(C_k X_{n-k})|
        weights = np.arange(1, deg + 1)
        head = C[1:].transpose(1, 0, 2).reshape(d, deg * d)  # [C_1 ... C_deg]
        X = np.empty((max(deg, 1), d, d), dtype=C.dtype)  # X_k, X_{k-1}, ... from X[top]
        top = len(X) - 1
        X[top] = np.eye(d)
        for k in range(m):
            J = min(deg, m - k)
            terms = weights[:J] * np.einsum("jab,ba->j", C[1 : J + 1], X[top])
            p[k + 1 : k + J + 1] -= terms
            size[k + 1 : k + J + 1] += np.abs(terms)
            if k + 1 < m:
                J = min(k + 1, deg)
                nxt = head[:, : J * d] @ X[top : top + J].reshape(J * d, d)
                if top:
                    top -= 1
                else:  # X_{k+1-deg} is needed no more
                    X[1:] = X[:-1]
                np.negative(nxt, out=X[top])
        if extra is not None:
            p, size = p + extra, size + np.abs(extra)
        return _newton(p, _EPS * size).truncate(self.order)
