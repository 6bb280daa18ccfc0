"""Truncated power series in one variable, scalar and matrix valued.

A Series holds complex coefficients c_0..c_M for a fixed truncation order M;
Series(head, order=M) zero-pads a short head, and a MatrixSeries stores only
its head C_0..C_deg beside M.  Binary operations zero-extend the shorter
operand, so mixing orders is safe but the high coefficients of the result
are only as meaningful as the inputs.

Two determinants live here, and both turn power sums into coefficients by
the same Newton recursion.  fredholm_det expands det(1 - u*T) from the
power traces tr T^j, multiplying T (sparse or dense) into a dense power so a
single code path serves every matrix representation.  MatrixSeries.det
takes the determinant of a matrix-valued series P = sum C_k u^k with C_0 = I
by Jacobi's formula (log det P)' = tr(P^-1 P') and checks the result against
det P itself, raising instead of returning a series it cannot certify.
"""

from __future__ import annotations

import numpy as np


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

    def invert(self) -> "Series":
        """Multiplicative inverse; requires a nonzero constant coefficient."""
        if self.c[0] == 0:
            raise ValueError("cannot invert a series with zero constant coefficient")
        m = self.order
        b = np.zeros(m + 1, dtype=np.complex128)
        b[0] = 1.0 / self.c[0]
        for k in range(1, m + 1):
            b[k] = -np.dot(self.c[1 : k + 1], b[k - 1 :: -1][: k]) / self.c[0]
        return Series(b)

    def derivative(self) -> "Series":
        """Termwise derivative; the truncation order drops by one."""
        if self.order == 0:
            return Series([0.0])
        n = np.arange(1, self.order + 1)
        return Series(self.c[1:] * n)

    def scale_argument(self, lam: complex) -> "Series":
        """Compose with the scaled variable: coefficients c_n -> c_n * lam^n."""
        powers = np.power(np.complex128(lam), np.arange(self.order + 1))
        return Series(self.c * powers)

    def exp(self) -> "Series":
        """Truncated exponential; requires constant coefficient 0."""
        if self.c[0] != 0:
            raise ValueError("exp needs constant coefficient 0")
        m = self.order
        e = np.zeros(m + 1, dtype=np.complex128)
        e[0] = 1.0
        # k e_k = sum_{j=1..k} j a_j e_{k-j}, from e' = a' e
        for k in range(1, m + 1):
            j = np.arange(1, k + 1)
            e[k] = np.dot(j * self.c[1 : k + 1], e[k - 1 :: -1][: k]) / k
        return Series(e)

    def log(self) -> "Series":
        """Truncated logarithm; requires constant coefficient 1."""
        if self.c[0] != 1:
            raise ValueError("log needs constant coefficient 1")
        m = self.order
        l = np.zeros(m + 1, dtype=np.complex128)
        for k in range(1, m + 1):
            j = np.arange(1, k)
            corr = np.dot(j * l[1:k], self.c[k - 1 : 0 : -1][: k - 1]) / k if k > 1 else 0.0
            l[k] = self.c[k] - corr
        return Series(l)

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


# ---------------------------------------------------------------------------
# determinants


def fredholm_det(mat, order: int) -> Series:
    """det(1 - u*mat) to the given order, from power traces.

    Uses the recursion c_k = -(1/k) * sum_{j=1..k} p_j c_{k-j} with
    p_j = tr(mat^j), which is the coefficient form of
    log det(1 - u*mat) = -sum_j u^j tr(mat^j) / j.  The determinant is a
    polynomial of degree at most dim mat, so the traces stop there and the
    coefficients above it are exact zeros.
    """
    if hasattr(mat, "mat"):
        mat = mat.mat
    p = np.zeros(min(order, mat.shape[0]) + 1, dtype=np.complex128)
    power = np.eye(mat.shape[0])
    for j in range(1, len(p)):
        power = mat @ power
        p[j] = np.trace(power)
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

    Only the head C_0..C_deg is stored, deg being the last nonzero
    coefficient at or below the order; the coefficients above it are zero
    up to the order, which defaults to len(coefficients) - 1.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coefficients, order: int | None = None):
        mats = [np.asarray(m, dtype=np.complex128) for m in coefficients]
        if not mats:
            raise ValueError("need at least the constant coefficient")
        d = mats[0].shape[0]
        if any(m.shape != (d, d) for m in mats):
            raise ValueError("all coefficients must be square of equal size")
        self.order = len(mats) - 1 if order is None else order
        if self.order < 0:
            raise ValueError("order must be >= 0")
        mats = mats[: self.order + 1]
        while len(mats) > 1 and not mats[-1].any():
            mats.pop()
        self.coeffs = mats

    @property
    def dim(self) -> int:
        return self.coeffs[0].shape[0]

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
        of log det P = sum l_n u^n: about M*deg matrix products, keeping
        the last deg terms of X.  _check_interpolation checks every order
        where its measured cost is at most 2.5 times the recursion's: each
        of its N = max(d deg, M) + 1 LUs costs about one product, building
        each P(u_j) (deg + 1)/d of one, and below d = 16 a product costs as
        much as at d = 16 (call overhead).  Elsewhere _check_point_value
        sees only the lowest orders.  A mismatch raises ArithmeticError.
        """
        d, m = self.dim, self.order
        ident = np.eye(d, dtype=np.complex128)
        if np.max(np.abs(self.coeffs[0] - ident)) > 1e-12:
            raise ValueError("constant coefficient must be the identity")
        C = self.coeffs
        deg = len(C) - 1
        if deg == 0:
            return Series.one(m)
        p = np.zeros(m + 1, dtype=np.complex128)  # p_n = -n l_n
        X = [ident]  # X_k, X_{k-1}, ..., X_{k-deg+1}
        for k in range(m):
            for j in range(1, min(deg, m - k) + 1):
                p[k + j] -= j * np.einsum("ij,ji->", C[j], X[0])
            if k + 1 < m:
                nxt = -sum(C[j] @ X[j - 1] for j in range(1, min(k + 1, deg) + 1))
                X = [nxt] + X[: deg - 1]
        result = _newton(p)
        n_pts = max(d * deg, m) + 1
        products = sum(min(k + 1, deg) for k in range(m - 1))
        if n_pts * d * d * (d + deg + 1) <= 2.5 * products * (d**3 + 16**3):
            self._check_interpolation(result, deg, n_pts)
        else:
            self._check_point_value(result, deg)
        return result

    def _check_interpolation(self, result: Series, deg: int, n_pts: int) -> None:
        """Raise ArithmeticError unless result matches det P coefficient by coefficient.

        det P has degree at most d*deg, so its values at the N = n_pts > d*deg
        points u_j = r exp(2 pi i j / N) determine it: their FFT is N c_n r^n,
        with no aliasing.  r minimises Hadamard's bound prod_i sum_k
        |row_i C_k| r^k on max |det P| times r^-M over a grid.  The tolerance
        is 1e-10 plus eps sqrt(N) max_j |det P(u_j)| r^-n, the FFT's
        resolution of values exact to working precision; where det P cancels
        the LU error exceeds it and a right series can be refused.  It stays
        absolute because callers multiply the determinant by series that
        cancel further.
        """
        C = np.stack(self.coeffs[: deg + 1])
        m = self.order
        radii = np.geomspace(0.1, 1.5, 64)
        rows = np.linalg.norm(C, axis=2)  # rows[k, i] = |row_i C_k|
        hadamard = np.log(np.power.outer(radii, np.arange(deg + 1)) @ rows).sum(axis=1)
        r = radii[np.argmin(hadamard - m * np.log(radii))]
        u = r * np.exp(2j * np.pi * np.arange(n_pts) / n_pts)
        powers = np.power.outer(u, np.arange(deg + 1))
        # deg + 1 points at a time, so the values take no more memory than C
        values = np.concatenate([np.linalg.det(np.tensordot(powers[i : i + deg + 1], C, 1))
                                 for i in range(0, n_pts, deg + 1)])
        scale = r ** -np.arange(m + 1)
        exact = np.fft.fft(values)[: m + 1] / n_pts * scale
        resolution = np.finfo(float).eps * np.sqrt(n_pts) * np.abs(values).max() * scale
        excess = np.abs(exact - result.c) - 1e-10 - resolution
        if not np.all(excess <= 0):
            n = int(np.argmax(excess))
            raise ArithmeticError(
                f"determinant interpolation check failed at u^{n}: series and "
                f"det P differ by {abs(exact[n] - result.c[n]):.3g} "
                f"(tolerance {1e-10 + resolution[n]:.3g}, r={r:.3g})"
            )

    def _check_point_value(self, result: Series, deg: int) -> None:
        """Raise ArithmeticError unless result(u0) matches det P(u0).

        rho = max_k max_i |row_i C_k|^(1/k) and r = 1/max(1, 2 d deg rho) make
        each row of P(u) at most 1 + 1/(2d) long on |u| = r (r <= 1 keeps u0^k
        finite when the coefficients are tiny), so by Hadamard's
        inequality |det P| <= e there.  Cauchy's estimate then bounds the
        n-th coefficient of det P by e/r^n, and at u0 = r/100 the terms past
        the truncation order sum to less than 3 * 100^-(M+1).  The tolerance
        is that tail plus 1e-10 for rounding, as det P(u0) is close to 1.
        """
        C = self.coeffs
        rho = max(np.linalg.norm(C[k], axis=1).max() ** (1.0 / k)
                  for k in range(1, deg + 1))
        u0 = 0.01 / max(1.0, 2.0 * self.dim * deg * rho)
        exact = np.linalg.det(sum(C[k] * u0**k for k in range(deg + 1)))
        dev = abs(result(u0) - exact)
        tol = 3.0 * 100.0 ** -(self.order + 1) + 1e-10
        if not dev <= tol:
            raise ArithmeticError(
                f"determinant point check failed at u0={u0:.3g}: series and "
                f"det P(u0) differ by {dev:.3g} (tolerance {tol:.3g})"
            )
