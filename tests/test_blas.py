import numpy as np
import pytest

from zetagraph import blas


def test_eigvals_overwrite_the_array_and_equal_numpys(rng):
    """dgeev runs on the caller's array, which it overwrites, and returns
    np.linalg.eigvals' values bit for bit: real where every eigenvalue is."""
    if blas._dgeev() is None:
        pytest.skip("numpy bundles no OpenBLAS here; eigvals calls np.linalg.eigvals")
    for a in (np.diag([3.0, -1.0, 0.5]), np.triu(rng.normal(size=(5, 5))), np.full((1, 1), -0.25),
              np.array([[0.0, -2.0], [2.0, 0.0]]), rng.normal(size=(7, 7))):
        want = np.linalg.eigvals(a)
        buffer = np.asfortranarray(a.copy())
        got = blas.eigvals(buffer)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), a
    assert not np.array_equal(buffer, a)  # the general 7 x 7 a, reduced in place


def test_eigvals_failure_raises_arithmetic_error(monkeypatch):
    if blas._dgeev() is not None:  # LAPACKE's NaN check
        with pytest.raises(ArithmeticError, match="info -5"):
            blas.eigvals(np.full((3, 3), np.nan, order="F"))
    monkeypatch.setattr(blas, "_dgeev", lambda: lambda *args: 2)
    with pytest.raises(ArithmeticError, match="info 2"):
        blas.eigvals(np.eye(3, order="F"))


def test_eigvals_take_only_a_writeable_square_column_major_float64_array():
    frozen = np.eye(3, order="F")
    frozen.setflags(write=False)
    for a in (np.eye(3) + np.tri(3), np.eye(3, dtype=np.float32, order="F"),
              np.eye(3, dtype=np.complex128, order="F"), np.ones((2, 3), order="F"), frozen):
        with pytest.raises(ValueError, match="column-major float64"):
            blas.eigvals(a)
