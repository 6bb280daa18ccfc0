"""The OpenBLAS that numpy bundles, reached by symbol name: its thread count,
and LAPACK's dgeev on a buffer of the caller's.

numpy's wheels ship scipy-openblas in numpy.libs, every symbol prefixed
scipy_ and, in the ILP64 build (libscipy_openblas64_), suffixed 64_ with
64-bit LAPACK integers.  The directory is found from numpy's import spec,
without importing numpy, so that a command that builds no array sets the
thread count on the standard library alone; the loader keeps the library
opened here, and numpy links this same copy when it is imported later.
Where numpy was built against another BLAS, or is not installed, the
lookup finds nothing: the thread count is left alone, and eigenvalues come
from np.linalg.eigvals, which calls the same dgeev on a copy of its input.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

_COL_MAJOR = 102  # LAPACK_COL_MAJOR of lapacke.h


class _Library(NamedTuple):
    cdll: ctypes.CDLL
    suffix: str
    lapack_int: type

    def function(self, name: str, restype, argtypes):
        """scipy_<name><suffix>, typed, or None where the symbol is missing."""
        fn = getattr(self.cdll, f"scipy_{name}{self.suffix}", None)
        if fn is not None:
            fn.restype, fn.argtypes = restype, argtypes
        return fn


@functools.cache
def _openblas() -> _Library | None:
    """The OpenBLAS in numpy.libs, or None where numpy bundles none."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.origin is None:
        return None
    libs = Path(spec.origin).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        if "openblas64" in path.name:
            return _Library(ctypes.CDLL(str(path)), "64_", ctypes.c_int64)
        return _Library(ctypes.CDLL(str(path)), "", ctypes.c_int)
    return None


def threads():
    """Getter and setter of the OpenBLAS thread count, or None."""
    lib = _openblas()
    if lib is None:
        return None
    get = lib.function("openblas_get_num_threads", ctypes.c_int, [])
    put = lib.function("openblas_set_num_threads", None, [ctypes.c_int])
    return (get, put) if get is not None and put is not None else None


def _dgeev():
    """LAPACKE_dgeev, or None."""
    lib = _openblas()
    if lib is None:
        return None
    i, p = lib.lapack_int, ctypes.c_void_p
    return lib.function("LAPACKE_dgeev", i,
                        [ctypes.c_int, ctypes.c_char, ctypes.c_char, i, p, i, p, p, p, i, p, i])


def eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the square, column-major float64 array a, which dgeev
    overwrites: exactly what np.linalg.eigvals(a) returns, without its copy
    of a (the real parts where every imaginary part is 0, complex values
    otherwise).  Raises ArithmeticError where dgeev reports a failure, such
    as a NaN in a or a QR iteration that does not converge."""
    import numpy as np

    if not (a.ndim == 2 and a.shape[0] == a.shape[1] and a.dtype == np.float64
            and a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("eigvals takes a writeable square column-major float64 array")
    dgeev = _dgeev()
    if dgeev is None:
        return np.linalg.eigvals(a)
    n = a.shape[0]
    if n == 0:
        return np.empty(0)
    wr, wi = np.empty(n), np.empty(n)
    info = dgeev(_COL_MAJOR, b"N", b"N", n, a.ctypes.data, n,
                 wr.ctypes.data, wi.ctypes.data, None, 1, None, 1)
    if info != 0:
        raise ArithmeticError(f"LAPACK dgeev failed with info {info}")
    if not wi.any():
        return wr
    # the parts are assigned, as numpy does, so that each keeps its bits,
    # a sign of zero included (it tells the angle pi from -pi), which
    # arithmetic such as wr + 1j * wi does not promise
    w = np.empty(n, dtype=np.complex128)
    w.real, w.imag = wr, wi
    return w
