"""Canonical forms and fingerprints: rounding, negative zero, determinism."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gate, grid

from qidopt.circuit import circuit_unitary
from qidopt.fingerprint import (
    _SLICE,
    Fingerprint,
    _canonical_texts,
    _hash_keys,
    _rounded_components,
    _row_hash,
    canonicalize,
    fingerprint,
)
from qidopt.matrices import identity

I2 = identity(2)

SPEC_I2_CANONICAL = (
    "2;1.00000000,0.00000000;0.00000000,0.00000000;"
    "0.00000000,0.00000000;1.00000000,0.00000000"
)


class TestCanonicalize:
    def test_identity_exact_string(self):
        assert canonicalize(I2, 8) == SPEC_I2_CANONICAL

    def test_roundoff_collapses(self):
        hh = circuit_unitary(grid("H", "H"))
        assert canonicalize(hh, 8) == canonicalize(I2, 8)

    def test_negative_zero_normalized(self):
        m = np.array([[-1e-12 + 0j]])
        assert canonicalize(m, 8) == "1;0.00000000,0.00000000"

    def test_half_away_from_zero(self):
        # 0.125 is exactly representable; dp=2 must round away from zero
        assert canonicalize(np.array([[0.125 + 0j]]), 2) == "1;0.13,0.00"
        assert canonicalize(np.array([[-0.125 + 0j]]), 2) == "1;-0.13,0.00"

    def test_imaginary_component_rendered(self):
        assert canonicalize(np.array([[1j]]), 3) == "1;0.000,1.000"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            canonicalize(np.array([[np.inf + 0j]]), 8)

    def test_rejects_bad_dp(self):
        for dp in (0, 16, -1):
            with pytest.raises(ValueError, match="dp"):
                canonicalize(I2, dp)

    # dyadic entries are exact in binary and sit at rounding-cell centers
    # for dp=8, so the perturbation bounds below are clean (entries like
    # 1/√2 can live arbitrarily close to a boundary; knife-edge caveat)
    _DYADIC_BASE = np.array([[0.5 + 0.25j, -0.25], [1.0, -0.5 - 1j]])

    @given(
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=-0.39, max_value=0.39),
    )
    @settings(max_examples=200, deadline=None)
    def test_small_perturbations_collide(self, idx, wobble):
        base = self._DYADIC_BASE
        bumped = base.copy()
        bumped[idx // 2, idx % 2] += wobble * 1e-8
        assert canonicalize(bumped, 8) == canonicalize(base, 8)

    @given(st.integers(min_value=0, max_value=3), st.sampled_from([1.51, -1.51, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_large_perturbations_differ(self, idx, jump):
        base = self._DYADIC_BASE
        bumped = base.copy()
        bumped[idx // 2, idx % 2] += jump * 1e-8
        assert canonicalize(bumped, 8) != canonicalize(base, 8)


_SPECIAL = np.array([0.0, -0.0, 0.125, -0.125, 0.5, -1.0])


@st.composite
def _stacks(draw, min_count=1, max_count=1):
    """A (count, dim, dim) complex stack, dim in [1, 8]: seeded uniform
    entries in [-2, 2], about a third of the components replaced by
    negative zero, the dp=2 midpoints and other dyadic values."""
    dim = draw(st.integers(1, 8))
    count = draw(st.integers(min_count, max_count))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = rng.uniform(-2.0, 2.0, (count, dim, dim, 2))
    special = rng.random(comps.shape) < 1 / 3
    comps[special] = rng.choice(_SPECIAL, special.sum())
    return comps.view(np.complex128)[..., 0]  # keeps each sign of zero


def _reference_canonical(m, dp):
    """The canonical form rendered one (re, im) pair at a time."""
    parts = [str(m.shape[0])]
    for z in m.reshape(-1):
        pair = []
        for x in (float(z.real), float(z.imag)):
            mag = math.floor(abs(x) * 10.0**dp + 0.5)
            sign = "-" if x < 0 and mag > 0 else ""
            pair.append(f"{sign}{mag // 10**dp}.{mag % 10**dp:0{dp}d}")
        parts.append(",".join(pair))
    return ";".join(parts)


class TestRoundingAndRenderProperties:
    @given(_stacks(max_count=4), st.integers(1, 15))
    @settings(max_examples=150, deadline=None)
    def test_stack_rows_equal_single_matrix_rows(self, stack, dp):
        rows = _rounded_components(stack, dp)
        assert rows.shape == (stack.shape[0], 2 * stack.shape[1] ** 2)
        for k in range(stack.shape[0]):
            assert np.array_equal(rows[k], _rounded_components(stack[k], dp))

    @given(_stacks(), st.integers(1, 15))
    @settings(max_examples=150, deadline=None)
    def test_canonicalize_matches_per_pair_renderer(self, stack, dp):
        assert canonicalize(stack[0], dp) == _reference_canonical(stack[0], dp)

    @given(_stacks(min_count=_SLICE + 1, max_count=2 * _SLICE + 3), st.integers(1, 15))
    @settings(max_examples=40, deadline=None)
    def test_stack_texts_match_per_pair_renderer(self, stack, dp):
        # rendered a slice at a time, each slice sharing one table of
        # distinct components
        texts = _canonical_texts(stack, dp)
        assert [t.decode("ascii") for t in texts] == [
            _reference_canonical(m, dp) for m in stack
        ]

    @given(_stacks(min_count=_SLICE + 1, max_count=2 * _SLICE + 3), st.integers(1, 15))
    @settings(max_examples=40, deadline=None)
    def test_stack_fingerprints_equal_per_matrix_list(self, stack, dp):
        assert fingerprint(stack, dp) == [fingerprint(m, dp) for m in stack]

    @given(
        _stacks(max_count=2 * _SLICE + 3),
        st.integers(1, 15),
        st.data(),
        st.sampled_from([math.nan, math.inf, -math.inf, 1e19, -1e19]),
    )
    @settings(max_examples=80, deadline=None)
    def test_stack_with_one_bad_matrix_raises_its_error(self, stack, dp, data, bad):
        stack = stack.copy()
        k = data.draw(st.integers(0, len(stack) - 1))
        i, j = data.draw(st.tuples(*[st.integers(0, stack.shape[1] - 1)] * 2))
        stack[k, i, j] = complex(0.0, bad) if data.draw(st.booleans()) else complex(bad, 0.0)
        with pytest.raises(ValueError) as alone:
            fingerprint(stack[k], dp)
        with pytest.raises(ValueError) as whole:
            fingerprint(stack, dp)
        assert str(whole.value) == str(alone.value)

    def test_empty_stack_gives_no_fingerprints(self):
        assert fingerprint(np.zeros((0, 2, 2), dtype=complex), 8) == []

    @pytest.mark.parametrize("dp", range(1, 16))
    def test_negative_zero_and_midpoints_match_per_pair_renderer(self, dp):
        m = np.array(
            [
                [complex(-0.0, 0.125), complex(-0.125, -0.0)],
                [complex(0.125, -0.125), complex(-1e-300, -0.0)],
            ]
        )
        assert canonicalize(m, dp) == _reference_canonical(m, dp)


class TestFingerprint:
    def test_equal_circuits_collide(self):
        a = circuit_unitary(grid("X,X", "X,X"))
        b = circuit_unitary(grid("H,H", "H,H"))
        assert fingerprint(a, 8) == fingerprint(b, 8)

    def test_distinct_matrices_differ(self):
        assert fingerprint(identity(4), 8) != fingerprint(gate("CX").matrix, 8)

    def test_digest_is_md5_of_canonical_bytes(self):
        # determinism contract: the digest is a pure function of the spec'd
        # canonical string, reproducible from its definition
        fp = fingerprint(I2, 8)
        assert fp.digest == hashlib.md5(SPEC_I2_CANONICAL.encode()).digest()

    def test_recompute_is_stable(self):
        h = gate("H").matrix
        assert fingerprint(h, 8) == fingerprint(h.copy(), 8)

    def test_follows_canonical_equality(self, rng):
        for _ in range(50):
            m = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
            w = m + rng.uniform(-1, 1, (2, 2)) * 1e-11
            same = canonicalize(m, 8) == canonicalize(w, 8)
            assert (fingerprint(m, 8) == fingerprint(w, 8)) == same


class TestRowHash:
    def test_hashes_are_pinned(self):
        # the value every build before the keys were cached gave: build
        # numbering and the form filter depend on it bit for bit
        words = np.arange(128, dtype=np.uint64)[None]
        assert _row_hash(words).tolist() == [7940206027235967480]
        assert _row_hash(np.zeros((3, 5), dtype=np.uint64)).tolist() == [0, 0, 0]

    def test_keys_are_made_once_and_read_only(self):
        keys = _hash_keys(32)
        assert keys is _hash_keys(32)
        assert not keys.flags.writeable
        assert np.all(keys & np.uint64(1))
        with pytest.raises(ValueError):
            keys[0] = 0


class TestFingerprintType:
    def test_sixteen_bytes_enforced(self):
        with pytest.raises(ValueError):
            Fingerprint(b"short")

    def test_equals_and_hashes_as_its_digest(self):
        # bytes' own comparisons and hash, so dict lookups stay in C
        fp = fingerprint(I2, 8)
        assert fp == fp.digest and hash(fp) == hash(fp.digest)
        assert {fp.digest: "bucket"}[fp] == "bucket"

    def test_hex_round_trip(self):
        fp = fingerprint(I2, 8)
        assert Fingerprint.from_hex(fp.hex) == fp
