"""Matrix helpers: construction, unitarity, comparison."""

import math

import numpy as np
import pytest

from qidopt.matrices import as_matrix, identity, is_unitary, max_abs_diff

S2 = 1.0 / math.sqrt(2.0)
I2 = identity(2)
X = as_matrix([[0, 1], [1, 0]])
Z = as_matrix([[1, 0], [0, -1]])
H = as_matrix([[S2, S2], [S2, -S2]])
CX = as_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


class TestIsUnitary:
    def test_h(self):
        assert is_unitary(H, 1e-12)

    def test_scaled_identity_is_not(self):
        assert not is_unitary(2 * I2, 1e-12)

    def test_cx(self):
        assert is_unitary(CX, 1e-12)

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            is_unitary(H, 0.0)


class TestMaxAbsDiff:
    def test_zero(self):
        assert max_abs_diff(I2, I2) == 0.0

    def test_roundoff_only(self):
        assert max_abs_diff(H @ H, I2) <= 1e-15

    def test_x_vs_z(self):
        assert max_abs_diff(X, Z) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            max_abs_diff(I2, CX)


class TestAsMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            as_matrix([[1, 0, 0], [0, 1, 0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[float("nan"), 0], [0, 1]])


class TestAlgebraicProperties:
    def test_unitary_closure(self):
        for a, b in [(H, X), (Z, H), (CX, np.kron(H, H))]:
            if a.shape == b.shape:
                assert is_unitary(a @ b, 1e-10)
            assert is_unitary(np.kron(a, b), 1e-10)
