"""Canonical serialization of precision-rounded unitaries and the digest
used as the identity-database key.

The canonical form renders every matrix entry as a fixed-point decimal
with exactly dp fractional digits, rounded half-away-from-zero, negative
zero normalized, in "dim;re,im;re,im;..." row-major order. The fingerprint
is the 128-bit MD5 digest of those bytes; the algorithm identifier below
is frozen into the database format version.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .matrices import ComplexMatrix

DIGEST_ALGORITHM = "md5-128"


@dataclass(frozen=True)
class Fingerprint:
    digest: bytes

    def __post_init__(self):
        if len(self.digest) != 16:
            raise ValueError("fingerprint must be 16 bytes")

    @property
    def hex(self) -> str:
        return self.digest.hex()

    @classmethod
    def from_hex(cls, s: str) -> "Fingerprint":
        return cls(bytes.fromhex(s))

    def __repr__(self):
        return f"Fingerprint({self.hex})"


def _rounded_components(m: ComplexMatrix, dp: int) -> np.ndarray:
    """Interleaved (re, im) components scaled to integers at dp decimals.

    `m` is one (D, D) matrix or a stack (..., D, D); the result has one
    int64 row of 2·D² components per matrix, in row-major entry order, so a
    single matrix gives a flat row and row k of a stack's result equals the
    row of matrix k. Rounding is half-away-from-zero; exact binary
    midpoints (dyadic values like 0.125 at dp=2) round deterministically
    away from zero.
    """
    if not (1 <= dp <= 15):
        raise ValueError(f"dp must be in [1, 15], got {dp}")
    a = np.ascontiguousarray(m, dtype=np.complex128)
    # a contiguous complex array viewed as float64 interleaves (re, im)
    comps = a.view(np.float64).reshape(a.shape[:-2] + (-1,))
    if not np.all(np.isfinite(comps)):
        raise ValueError("cannot canonicalize a matrix with non-finite entries")
    scale = 10.0**dp
    mags = np.floor(np.abs(comps) * scale + 0.5)
    if np.any(mags >= 2.0**62):
        raise ValueError("matrix entries too large to canonicalize")
    return np.where(comps < 0, -mags, mags).astype(np.int64)


# matrix entries cluster on few distinct values (a build over builtin gates
# renders about ten), so rendered components are cached by their
# scaled-integer form
@functools.lru_cache(maxsize=1024)
def _component_str(v: int, dp: int) -> str:
    sign = "-" if v < 0 else ""
    a = abs(v)
    scale = 10**dp
    return f"{sign}{a // scale}.{a % scale:0{dp}d}"


def canonicalize(m: ComplexMatrix, dp: int) -> str:
    """Byte-deterministic fixed-point rendering of m at dp decimals."""
    s = list(map(_component_str, _rounded_components(m, dp).tolist(), repeat(dp)))
    return f"{m.shape[0]};" + ";".join(map(",".join, zip(s[0::2], s[1::2])))


def fingerprint(m: ComplexMatrix, dp: int) -> Fingerprint:
    """128-bit digest of the canonical form; the database key."""
    return Fingerprint(hashlib.md5(canonicalize(m, dp).encode("ascii")).digest())
