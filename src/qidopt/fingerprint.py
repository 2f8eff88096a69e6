"""Canonical serialization of precision-rounded unitaries and the digest
used as the identity-database key.

The canonical form renders every matrix entry as a fixed-point decimal
with exactly dp fractional digits, rounded half-away-from-zero, negative
zero normalized, in "dim;re,im;re,im;..." row-major order. The fingerprint
is the 128-bit MD5 digest of those bytes; the algorithm identifier below
is frozen into the database format version.

One renderer makes the text of a whole stack of matrices at once, and
`canonicalize` and `fingerprint` both go through it. It rounds a slice of
the stack, renders each distinct rounded component of the slice once, and
gathers the rendered components into a fixed-width byte array with one
row per matrix, real parts suffixed with ',' and imaginary parts with
';'. A row's bytes, with the NUL padding removed and the last ';'
dropped, follow the "dim;" prefix of its matrix's text. A slice holds
`_SLICE` matrices, so the rounded rows and the byte array stay a bounded
multiple of one slice, whatever the length of the stack.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .matrices import ComplexMatrix

DIGEST_ALGORITHM = "md5-128"

# matrices rounded and rendered together
_SLICE = 64
# the column of `_render`'s table for each component of a (re, im) pair
_RE_IM = np.array([0, 1])


class Fingerprint(bytes):
    """A 16-byte digest, the database key. It is a `bytes` with bytes'
    own hash and comparisons, so that a dict of thousands of buckets
    hashes and compares keys in C: a Fingerprint equals the bytes of its
    digest, and hashes as they do."""

    __slots__ = ()

    def __new__(cls, digest: bytes) -> "Fingerprint":
        if len(digest) != 16:
            raise ValueError("fingerprint must be 16 bytes")
        return bytes.__new__(cls, digest)

    @classmethod
    def from_hex(cls, s: str) -> "Fingerprint":
        return cls(bytes.fromhex(s))

    @property
    def digest(self) -> bytes:
        return bytes(self)

    @property
    def hex(self) -> str:
        return bytes.hex(self)

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
    # floor(|c|·10^dp + 0.5), in place
    mags = np.abs(comps)
    mags *= 10.0**dp
    mags += 0.5
    np.floor(mags, out=mags)
    # NaN and inf fail the comparison as well as oversized magnitudes
    if not mags.max() < 2.0**62:
        if not np.all(np.isfinite(comps)):
            raise ValueError("cannot canonicalize a matrix with non-finite entries")
        raise ValueError("matrix entries too large to canonicalize")
    # a negative component that rounds to zero gives -0.0, which is 0
    return np.copysign(mags, comps, out=mags).astype(np.int64)


@functools.lru_cache(maxsize=8)
def _hash_keys(width: int) -> np.ndarray:
    """`_row_hash`'s W odd constants, the first W outputs of splitmix64
    from seed 0, each made once per width: a read-only array."""
    keys = np.arange(1, width + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    keys ^= keys >> np.uint64(30)
    keys *= np.uint64(0xBF58476D1CE4E5B9)
    keys ^= keys >> np.uint64(27)
    keys *= np.uint64(0x94D049BB133111EB)
    keys ^= keys >> np.uint64(31)
    keys |= np.uint64(1)
    keys.flags.writeable = False
    return keys


def _row_hash(words: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of an (N, W) uint64 array, in one integer
    matmul: the row's words times a fixed vector of odd constants
    (`_hash_keys`), summed mod 2⁶⁴. Equal rows hash equal. Its one user,
    the build's numbering (`generator._number`), compares every match
    bitwise."""
    return words @ _hash_keys(words.shape[1])


def _render(rows: np.ndarray, dim: int, dp: int) -> list[bytes]:
    """Canonical text of each rounded row of an (N, 2·dim²) stack, N > 0."""
    # the distinct components, sorted. np.unique is slower on the one-matrix
    # stacks the optimizer renders (it argsorts for its inverse), and its
    # values-only path imports numpy.ma (about 1.7 MB of peak RSS)
    flat = np.sort(rows, axis=None)
    values = flat[np.concatenate(([True], flat[1:] != flat[:-1]))]
    scale = 10**dp
    text = [
        f"{'-' if v < 0 else ''}{abs(v) // scale}.{abs(v) % scale:0{dp}d}"
        for v in values.tolist()
    ]
    # column 0 ends a real part, column 1 an imaginary part
    width = max(map(len, text)) + 1
    table = np.array([(t + ",", t + ";") for t in text], dtype=f"S{width}")
    pairs = np.searchsorted(values, rows).reshape(len(rows), dim * dim, 2)
    body = table[pairs, _RE_IM].reshape(len(rows), -1)
    head = f"{dim};".encode("ascii")
    # the row's last ';' is not part of the text
    return [head + row.tobytes().replace(b"\0", b"")[:-1] for row in body]


def _canonical_texts(stack: np.ndarray, dp: int) -> list[bytes]:
    """Canonical text of each matrix of an (N, D, D) stack, a slice at a time."""
    texts: list[bytes] = []
    for s in range(0, len(stack), _SLICE):
        part = stack[s : s + _SLICE]
        texts += _render(_rounded_components(part, dp), part.shape[-1], dp)
    return texts


def canonicalize(m: ComplexMatrix, dp: int) -> str:
    """Byte-deterministic fixed-point rendering of m at dp decimals."""
    return _canonical_texts(np.asarray(m)[None], dp)[0].decode("ascii")


def fingerprint(m: ComplexMatrix, dp: int) -> Fingerprint | list[Fingerprint]:
    """128-bit digest of the canonical form; the database key.

    `m` is one (D, D) matrix, which gives one Fingerprint, or an (N, D, D)
    stack, which gives a list of N fingerprints in stack order."""
    a = np.asarray(m)
    fps = [
        Fingerprint(hashlib.md5(t).digest())
        for t in _canonical_texts(a.reshape((-1,) + a.shape[-2:]), dp)
    ]
    return fps[0] if a.ndim == 2 else fps
