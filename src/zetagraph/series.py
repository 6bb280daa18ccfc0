"""Truncated power series in one variable, scalar and matrix valued.

A Series holds complex coefficients c_0..c_M for a fixed truncation order M.
Binary operations zero-extend the shorter operand, so mixing orders is safe
but the high coefficients of the result are only as meaningful as the inputs.

Two determinants live here.  fredholm_det expands det(1 - u*T) from the
power traces tr T^j, multiplying T (sparse or dense) into a dense power so a
single code path serves every matrix representation.  Determinants of
matrix-valued series follow the trace-log convention: det(S) = exp(tr log S),
expanded in the truncated ring.  For small dimensions an independent
principal-minor expansion of det(I + N) is computed as well and any
disagreement raises, so the two constructions police each other.
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

    @staticmethod
    def zero(order: int) -> "Series":
        return Series([0.0], order=order)

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
    log det(1 - u*mat) = -sum_j u^j tr(mat^j) / j.
    """
    if hasattr(mat, "mat"):
        mat = mat.mat
    p = np.zeros(order + 1, dtype=np.complex128)
    power = np.eye(mat.shape[0])
    for j in range(1, order + 1):
        power = mat @ power
        p[j] = np.trace(power)
    c = np.zeros(order + 1, dtype=np.complex128)
    c[0] = 1.0
    for k in range(1, order + 1):
        c[k] = -np.dot(p[1 : k + 1], c[k - 1 :: -1][: k]) / k
    return Series(c)


class MatrixSeries:
    """Square-matrix-valued truncated series, all coefficients one dimension."""

    __slots__ = ("coeffs",)

    def __init__(self, coefficients):
        mats = [np.asarray(m, dtype=np.complex128) for m in coefficients]
        if not mats:
            raise ValueError("need at least the constant coefficient")
        d = mats[0].shape[0]
        for m in mats:
            if m.shape != (d, d):
                raise ValueError("all coefficients must be square of equal size")
        self.coeffs = mats

    @staticmethod
    def identity_minus_u(mat, order: int) -> "MatrixSeries":
        if hasattr(mat, "mat"):
            mat = mat.mat
        mat = np.asarray(mat, dtype=np.complex128)
        d = mat.shape[0]
        coeffs = [np.eye(d, dtype=np.complex128), -mat]
        coeffs += [np.zeros((d, d), dtype=np.complex128)] * max(0, order - 1)
        return MatrixSeries(coeffs[: order + 1])

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def dim(self) -> int:
        return self.coeffs[0].shape[0]

    def __mul__(self, other: "MatrixSeries") -> "MatrixSeries":
        m = max(self.order, other.order)
        d = self.dim
        zero = np.zeros((d, d), dtype=np.complex128)
        a = self.coeffs + [zero] * (m - self.order)
        b = other.coeffs + [zero] * (m - other.order)
        out = []
        for n in range(m + 1):
            acc = zero.copy()
            for j in range(n + 1):
                acc += a[j] @ b[n - j]
            out.append(acc)
        return MatrixSeries(out)

    def trace_series(self) -> Series:
        return Series([np.trace(m) for m in self.coeffs])

    def det(self, minor_check_dim: int = 6) -> Series:
        """exp(tr log) determinant, cross-checked by minors at small dimension."""
        d = self.dim
        ident = np.eye(d, dtype=np.complex128)
        if np.max(np.abs(self.coeffs[0] - ident)) > 1e-12:
            raise ValueError("constant coefficient must be the identity")
        m = self.order
        n_coeffs = [np.zeros((d, d), dtype=np.complex128)] + [c.copy() for c in self.coeffs[1:]]
        nser = MatrixSeries(n_coeffs)
        log_acc = None
        power = nser
        for j in range(1, m + 1):
            term = power.trace_series() * ((-1) ** (j + 1) / j)
            log_acc = term if log_acc is None else log_acc + term
            if j < m:
                power = power * nser
        result = log_acc.exp() if log_acc is not None else Series.one(m)
        if d <= minor_check_dim:
            alt = self.det_minors()
            if max_deviation(result, alt) > 1e-10:
                raise ArithmeticError(
                    "determinant cross-check failed: trace-log and principal-minor "
                    f"expansions differ by {max_deviation(result, alt):.3g}"
                )
        return result

    def det_minors(self) -> Series:
        """det(I + N) = sum over index subsets of det(N[S, S]), over the series ring."""
        d = self.dim
        m = self.order
        ident = np.eye(d, dtype=np.complex128)
        if np.max(np.abs(self.coeffs[0] - ident)) > 1e-12:
            raise ValueError("constant coefficient must be the identity")
        entries = [
            [Series([c[i, j] for c in ([np.zeros((d, d))] + self.coeffs[1:])], order=m)
             for j in range(d)]
            for i in range(d)
        ]
        total = Series.one(m)
        for mask in range(1, 1 << d):
            idx = [i for i in range(d) if mask >> i & 1]
            sub = [[entries[i][j] for j in idx] for i in idx]
            total = total + _cofactor_det(sub)
        return total


def _cofactor_det(rows: list[list[Series]]) -> Series:
    k = len(rows)
    if k == 1:
        return rows[0][0]
    acc = None
    for j in range(k):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _cofactor_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc
