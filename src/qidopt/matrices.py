"""Dense complex-matrix helpers used to evaluate circuits.

Everything is a square numpy array of dtype complex128. Circuit matrices
have dim 2**k, but that is a caller convention, not enforced here. Arrays
are treated as immutable once built; nothing in this package mutates a
matrix in place.
"""

from __future__ import annotations

import math

import numpy as np

ComplexMatrix = np.ndarray


def as_matrix(rows) -> ComplexMatrix:
    """Build a validated complex matrix: square, finite entries."""
    m = np.array(rows, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    m.flags.writeable = False
    return m


def identity(dim: int) -> ComplexMatrix:
    return np.eye(dim, dtype=np.complex128)


def is_unitary(m: ComplexMatrix, tol: float) -> bool:
    """True iff max-abs entry of m·m† − I is within tol."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    dim = m.shape[0]
    return float(np.max(np.abs(m @ m.conj().T - identity(dim)))) <= tol


def max_abs_diff(a: ComplexMatrix, b: ComplexMatrix) -> float:
    """Max over entries of |a_ij − b_ij| (complex modulus)."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch in max_abs_diff: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


def frobenius_diff(a: ComplexMatrix, b: ComplexMatrix) -> float:
    """‖a − b‖_F: the root of the summed squared moduli of the entries.
    Summed by numpy's own reduction, not a BLAS dot (as `np.linalg.norm`
    does), whose split of the sum, and so its last bits, follow the
    thread count."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch in frobenius_diff: {a.shape} vs {b.shape}")
    d = (a - b).reshape(-1).view(np.float64)  # real and imaginary parts in turn
    return math.sqrt(np.add.reduce(d * d))
