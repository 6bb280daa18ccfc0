"""Truncated power series in one variable, scalar and matrix valued.

A Series holds complex coefficients c_0..c_M for a fixed truncation order M;
Series(head, order=M) zero-pads a short head.  A MatrixSeries stores only its
head C_0..C_deg beside M, in its coefficients' own dtype: float64 for real
coefficients, so an untwisted graph's determinant runs in real arithmetic,
and complex128 once any coefficient is complex.  Binary operations
zero-extend the shorter operand, so mixing orders is safe but the high
coefficients of the result are only as meaningful as the inputs.
times_sparse multiplies a series by sparse polynomial factors such as
1 - w u^l in place, for the twisted Euler and (1 - u^2)^-chi products.

Two determinants and Series.exp turn power sums into coefficients by the
same Newton recursion.  fredholm_det expands det(1 - u*T) from the power
traces tr T^j, multiplying T (sparse or dense) into blocks of TRACE_BLOCK
identity columns, so a single code path serves every matrix representation
in O(n * TRACE_BLOCK) memory, and a sparse T gives the very bits of dense
n x n powers.  MatrixSeries.det takes the determinant of a matrix-valued
series P = sum C_k u^k with C_0 = I by Jacobi's formula
(log det P)' = tr(P^-1 P') and checks the result against det P itself,
raising instead of returning a series it cannot certify.  That check is
MatrixSeries.verify, which also certifies a det P taken another way, such as
fredholm_det of the pencil's companion matrix.  det keeps the power sums
of log det P for the factorization route.
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

    # -- ring operations ----------------------------------------------------

    def _paired(self, other: "Series") -> tuple[np.ndarray, np.ndarray, int]:
        m = max(self.order, other.order)
        a = np.zeros(m + 1, dtype=np.complex128)
        b = np.zeros(m + 1, dtype=np.complex128)
        a[: len(self.c)] = self.c
        b[: len(other.c)] = other.c
        return a, b, m

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Series([other], order=self.order)
        a, b, m = self._paired(other)
        return Series(a + b)

    __radd__ = __add__

    def __neg__(self):
        return Series(-self.c)

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Series([other], order=self.order)
        a, b, m = self._paired(other)
        return Series(a - b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Series(self.c * other)
        a, b, m = self._paired(other)
        return Series(np.convolve(a, b)[: m + 1])

    __rmul__ = __mul__

    def exp(self) -> "Series":
        """Truncated exponential; requires constant coefficient 0.

        exp(a) = exp(-sum_j p_j u^j / j) with power sums p_j = -j a_j.
        """
        if self.c[0] != 0:
            raise ValueError("exp needs constant coefficient 0")
        return _newton(-np.arange(self.order + 1) * self.c)

    def __call__(self, u: complex) -> complex:
        val = 0j
        for cn in self.c[::-1]:
            val = val * u + cn
        return complex(val)

    def __repr__(self):
        shown = ", ".join(f"{z:.6g}" for z in self.c[: min(5, len(self.c))])
        tail = ", ..." if len(self.c) > 5 else ""
        return f"Series([{shown}{tail}], order={self.order})"


def max_deviation(a: Series, b: Series) -> float:
    x, y, _ = a._paired(b)
    return float(np.max(np.abs(x - y)))


def coeffs_agree(a: Series, b: Series, tol: float = 1e-9) -> bool:
    """Per-coefficient comparison at |delta| <= tol + tol*max(1, |ref|)."""
    x, y, _ = a._paired(b)
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


def times_sparse(series: Series, factors) -> Series:
    """series times prod over (a, step) in factors of sum_k a_k u^(k*step).

    Each factor has a_0 = 1 and is applied in turn to one coefficient array,
    c_n += sum_{k>=1} a_k c_{n - k*step} from the values before it, term by
    term in k; terms past the order are skipped, so a step above the order
    changes nothing.
    """
    m = series.order
    c = series.coefficients()
    for a, step in factors:
        old = c.copy()
        for k in range(1, min(len(a) - 1, m // step) + 1):
            c[k * step :] += a[k] * old[: m + 1 - k * step]
    return Series(c)


# ---------------------------------------------------------------------------
# determinants


# identity columns per block of the power traces in fredholm_det
TRACE_BLOCK = 64


def fredholm_det(mat, order: int) -> Series:
    """det(1 - u*mat) to the given order, from power traces.

    Uses the recursion c_k = -(1/k) * sum_{j=1..k} p_j c_{k-j} with
    p_j = tr(mat^j), which is the coefficient form of
    log det(1 - u*mat) = -sum_j u^j tr(mat^j) / j.  The determinant is a
    polynomial of degree at most dim mat, so the traces stop there and the
    coefficients above it are exact zeros.

    The powers are taken TRACE_BLOCK identity columns at a time: each block
    is multiplied by mat up to m = min(order, n) times and leaves its
    diagonal entries in an (m+1) x n array, whose rows sum to the traces.
    The working set is O(n * TRACE_BLOCK) instead of dense n x n powers.  A
    sparse (CSR) product computes each column row by row in stored order,
    whatever the block width, so the traces are the bits of the full dense
    powers; the diagonal keeps the power's dtype, as a complex sum of real
    entries would group its terms differently.  A dense ndarray wider than
    one block goes through BLAS block by block, which may move the last bits
    (a few 1e-15 relative); only tests and the d x d holonomies of
    cycles.euler_product pass ndarrays.
    """
    if hasattr(mat, "mat"):
        mat = mat.mat
    n = mat.shape[0]
    m = min(order, n)
    diag = np.zeros((m + 1, n), dtype=np.result_type(mat.dtype, np.float64))
    for start in range(0, n, TRACE_BLOCK):
        block = slice(start, min(start + TRACE_BLOCK, n))
        power = np.zeros((n, block.stop - start))
        np.fill_diagonal(power[block], 1.0)
        for j in range(1, m + 1):
            power = mat @ power
            diag[j, block] = power[block].diagonal()
    p = np.zeros(m + 1, dtype=np.complex128)
    for j in range(1, m + 1):
        p[j] = diag[j].sum()
    return _newton(p).truncate(order)


def _newton(p: np.ndarray) -> Series:
    """Coefficients of exp(-sum_{j>=1} p_j u^j / j) from the power sums p_1..p_M.

    c_k = -(1/k) * sum_{j=1..k} p_j c_{k-j}; entry p[0] is ignored.
    """
    order = len(p) - 1
    c = np.zeros(order + 1, dtype=np.complex128)
    c[0] = 1.0
    for k in range(1, order + 1):
        c[k] = -np.dot(p[1 : k + 1], c[k - 1 :: -1][: k]) / k
    return Series(c)


class MatrixSeries:
    """Square-matrix-valued series P = sum_k C_k u^k truncated at a fixed order.

    Only the head C_0..C_deg is stored, as one read-only (deg+1, d, d)
    array (a view of coefficients where they are such an array already),
    deg being the last nonzero coefficient at or below the order;
    the coefficients above it are zero up to the order, which defaults to
    len(coefficients) - 1.  The head keeps its coefficients' dtype, at least
    float64 (np.result_type(np.float64, *coefficients)): real coefficients
    are stored, and the determinant and its checks run, in float64, and
    complex ones in complex128.  power_sums is None until det runs.
    """

    __slots__ = ("coeffs", "order", "power_sums")

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
        self.power_sums = None

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def __mul__(self, other: "MatrixSeries") -> "MatrixSeries":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a @ b
        return MatrixSeries(out, max(self.order, other.order))

    def det(self) -> Series:
        """Determinant of P = sum_k C_k u^k (C_0 = I) by Jacobi's formula.

        With X = P^-1 from X_0 = I, X_k = -sum_{j=1..min(k,deg)} C_j X_{k-j},
        where C_deg ends the stored head, (log det P)' = tr(X P')
        gives the power sums n l_n = sum_{k=1..min(n,deg)} k tr(C_k X_{n-k})
        of log det P = sum l_n u^n to the order M, kept as p_n = -n l_n in
        power_sums: about M*deg matrix products, keeping the last deg terms
        of X.  det P has degree at most d*deg, so its _newton stops at
        m = min(M, d*deg), with exact zeros above; verify checks it and
        raises RefusalError on a mismatch.

        The recursion runs in the head's dtype, and each order takes two
        calls: one batched trace tr(C_j X_k) for every j, and one stacked
        product C_j X_{k+1-j} of every j, summed over j in increasing order
        (the order of separate products added one by one).  A real product
        is taken as (X^T C^T)^T: with the OpenBLAS that numpy ships, at
        d <= 100, that rounds as the real part of the complex product does,
        so a real head gives the bits of its complex cast (checked on every
        bench graph), while C X itself does not.  The X_k fill a buffer of
        deg slots from the last down, so that X_k, X_{k-1}, ... is always a
        forward slice; only for M > deg do the slots shift.  Each p_n is
        summed over k in increasing order, with the bits of a stop at m.
        """
        C = self.coeffs
        d, deg = self.dim, len(C) - 1
        if np.max(np.abs(C[0] - np.eye(d))) > 1e-12:
            raise ValueError("constant coefficient must be the identity")
        M = self.order
        p = self.power_sums = np.zeros(M + 1, dtype=C.dtype)  # p_n = -n l_n
        if deg == 0:
            return Series.one(M)
        weights = np.arange(1, deg + 1)
        X = np.empty((deg, d, d), dtype=C.dtype)  # X_k, X_{k-1}, ... from X[top]
        top = deg - 1
        X[top] = np.eye(d)
        real = np.isrealobj(C)
        Ct, Xt = C.transpose(0, 2, 1), X.transpose(0, 2, 1)
        for k in range(M):
            J = min(deg, M - k)
            p[k + 1 : k + J + 1] -= weights[:J] * np.einsum("jab,ba->j", C[1 : J + 1], X[top])
            if k + 1 < M:
                J = min(k + 1, deg)
                if real:
                    nxt = np.matmul(Xt[top : top + J], Ct[1 : J + 1]).sum(axis=0).T
                else:
                    nxt = np.matmul(C[1 : J + 1], X[top : top + J]).sum(axis=0)
                if top:
                    top -= 1
                else:  # X_{k+1-deg} is needed no more
                    X[1:] = X[:-1]
                np.negative(nxt, out=X[top])
        return self.verify(_newton(p[: min(M, d * deg) + 1]))

    def verify(self, result: Series) -> Series:
        """result checked against det P, to the order M of P; raises
        RefusalError where they differ.

        result is any series for det P, from the Jacobi recursion of det or
        from fredholm_det of the pencil's companion matrix.  det P is a
        polynomial of degree at most d*deg, so only c_0..c_m with
        m = min(M, d*deg) are checked and kept, and the coefficients above
        are exact zeros.  The check is chosen by a fixed size rule:
        _check_interpolation checks every order where its cost is at most
        2.5 times the Jacobi recursion's (about m*deg products): each of its
        N = d deg + 1 LUs costs about one product, building each P(u_j)
        (deg + 1)/d of one, and below d = 16 a product costs as much as at
        d = 16 (call overhead).  Elsewhere _check_point_value sees only the
        lowest orders.  P = I (deg 0) leaves only c_0, which is not checked.
        """
        d, deg = self.dim, len(self.coeffs) - 1
        m = min(self.order, d * deg)
        head = result.truncate(m)
        if deg > 0:
            n_pts = d * deg + 1
            products = sum(min(k + 1, deg) for k in range(m - 1))
            if n_pts * d * d * (d + deg + 1) <= 2.5 * products * (d**3 + 16**3):
                self._check_interpolation(head, deg, n_pts)
            else:
                self._check_point_value(head, deg)
        return head.truncate(self.order)

    def _check_interpolation(self, result: Series, deg: int, n_pts: int) -> None:
        """Raise RefusalError unless result matches det P coefficient by
        coefficient up to its order M <= d*deg.

        det P has degree at most d*deg, so its values at the N = n_pts > d*deg
        points u_j = r exp(2 pi i j / N) determine it: their FFT is N c_n r^n,
        with no aliasing.  The points past the upper half circle are taken as
        u_{N-j} = conj(u_j), and for a real head det P(conj u) = conj det P(u)
        exactly, so only the N//2 + 1 points j <= N/2 are evaluated and the
        rest are their conjugates.  r minimises Hadamard's bound prod_i sum_k
        |row_i C_k| r^k on max |det P| times r^-M over a grid.  The tolerance
        is 1e-10 plus eps sqrt(N) max_j |det P(u_j)| r^-n, the FFT's
        resolution of values exact to working precision; where det P cancels
        the LU error exceeds it and a right series can be refused.  It stays
        absolute because the classical route multiplies the determinant by
        (1 - u^2)^-chi, which cancels further.
        """
        C = self.coeffs
        d, m = self.dim, result.order
        radii = np.geomspace(0.1, 1.5, 64)
        rows = np.linalg.norm(C, axis=2)  # rows[k, i] = |row_i C_k|
        hadamard = np.log(np.power.outer(radii, np.arange(deg + 1)) @ rows).sum(axis=1)
        r = radii[np.argmin(hadamard - m * np.log(radii))]
        upper = n_pts // 2 + 1  # the points j <= N/2
        u = r * np.exp(2j * np.pi * np.arange(upper) / n_pts)
        if not np.isrealobj(C):
            u = np.concatenate([u, u[n_pts - upper : 0 : -1].conj()])
        powers = np.power.outer(u, np.arange(deg + 1))
        # deg + 1 points at a time, so the values take no more memory than C;
        # the stack height sets how the product rounds, so it stays fixed
        flat = C.reshape(deg + 1, -1).astype(np.complex128, copy=False)
        values = np.concatenate([np.linalg.det((powers[i : i + deg + 1] @ flat).reshape(-1, d, d))
                                 for i in range(0, len(u), deg + 1)])
        if len(values) < n_pts:
            values = np.concatenate([values, values[n_pts - upper : 0 : -1].conj()])
        scale = r ** -np.arange(m + 1)
        exact = np.fft.fft(values)[: m + 1] / n_pts * scale
        resolution = np.finfo(float).eps * np.sqrt(n_pts) * np.abs(values).max() * scale
        excess = np.abs(exact - result.c) - 1e-10 - resolution
        if not np.all(excess <= 0):
            n = int(np.argmax(excess))
            raise RefusalError(
                f"determinant interpolation check failed at u^{n}: series and "
                f"det P differ by {abs(exact[n] - result.c[n]):.3g} "
                f"(tolerance {1e-10 + resolution[n]:.3g}, r={r:.3g})"
            )

    def _check_point_value(self, result: Series, deg: int) -> None:
        """Raise RefusalError unless result(u0) matches det P(u0).

        rho = max_k max_i |row_i C_k|^(1/k) and r = 1/max(1, 2 d deg rho) make
        each row of P(u) at most 1 + 1/(2d) long on |u| = r (r <= 1 keeps u0^k
        finite when the coefficients are tiny), so by Hadamard's
        inequality |det P| <= e there.  Cauchy's estimate then bounds the
        n-th coefficient of det P by e/r^n, and at u0 = r/100 the terms past
        the truncation order sum to less than 3 * 100^-(M+1).  The tolerance
        is that tail plus 1e-10 for rounding, as det P(u0) is close to 1.
        """
        C = self.coeffs
        k = np.arange(deg + 1)
        rho = (np.linalg.norm(C[1:], axis=2).max(axis=1) ** (1.0 / k[1:])).max()
        u0 = 0.01 / max(1.0, 2.0 * self.dim * deg * rho)
        exact = np.linalg.det(np.tensordot(u0**k, C, axes=1))
        dev = abs(result(u0) - exact)
        tol = 3.0 * 100.0 ** -(self.order + 1) + 1e-10
        if not dev <= tol:
            raise RefusalError(
                f"determinant point check failed at u0={u0:.3g}: series and "
                f"det P(u0) differ by {dev:.3g} (tolerance {tol:.3g})"
            )
