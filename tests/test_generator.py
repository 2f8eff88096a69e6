"""Enumeration, the circuit-count formula, and database construction."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import factorial_layer_count, gate, gate_set, grid

from qidopt import generator
from qidopt.circuit import circuit_unitary, effective_depth, layer_unitary
from qidopt.database import dumps, encode_circuit, encode_layer, loads
from qidopt.fingerprint import Fingerprint, fingerprint
from qidopt.gates import GateSet, make_gate
from qidopt.generator import (
    GeneratorConfig,
    ResourceGuardError,
    _distinct_prefixes,
    _estimate,
    build_database,
    enumerate_circuits,
    enumerate_layers,
    scaling_count,
)
from qidopt.matrices import identity, max_abs_diff
from qidopt.optimizer import optimize
from qidopt.qasm import emit, parse


# angles that are not multiples of pi/4, so that fewer prefix products
# repeat bitwise (365 distinct of 1,024 five-layer prefixes at n1d6, 85 of
# 121 two-layer ones at n2d3), and more than one level of prefixes
_ODD_N1D6 = GeneratorConfig(n=1, d=6, gate_set=gate_set("I", "H", "T", "U3[pi/5;2*pi/3;-pi/7]"))
_ODD_N2D3 = GeneratorConfig(n=2, d=3, gate_set=gate_set("I", "H", "U1[pi/8]", "CX"))


class TestEnumerateLayers:
    def test_two_qubits_three_singles(self):
        gs = gate_set("I", "X", "H")
        layers = enumerate_layers(2, gs)
        encs = {encode_layer(l) for l in layers}
        assert len(layers) == 9
        assert encs == {
            "I,I", "I,X", "I,H", "X,I", "X,X", "X,H", "H,I", "H,X", "H,H",
        }

    def test_three_qubits_identity_and_cx(self):
        gs = gate_set("I", "CX")
        layers = enumerate_layers(3, gs)
        encs = {encode_layer(l) for l in layers}
        assert len(layers) == 7
        assert encs == {
            "I,I,I",
            "CX:C:1,CX:T:0,I",
            "CX:C:2,I,CX:T:0",
            "CX:T:1,CX:C:0,I",
            "I,CX:C:2,CX:T:1",
            "CX:T:2,I,CX:C:0",
            "I,CX:T:2,CX:C:1",
        }

    def test_two_qubits_identity_and_cx_ordered(self):
        gs = gate_set("I", "CX")
        encs = [encode_layer(l) for l in enumerate_layers(2, gs)]
        assert encs == ["I,I", "CX:C:1,CX:T:0", "CX:T:1,CX:C:0"]

    def test_neighbors_only_restricts_pairs(self):
        gs = gate_set("I", "CX")
        full = enumerate_layers(3, gs)
        near = enumerate_layers(3, gs, neighbors_only=True)
        near_encs = {encode_layer(l) for l in near}
        assert len(full) == 7 and len(near) == 5
        assert "CX:C:2,I,CX:T:0" not in near_encs

    def test_disjoint_pairs_on_four_qubits(self):
        gs = gate_set("I", "CX")
        layers = enumerate_layers(4, gs)
        # formula: 1 + 12 + 12 = 25 (r=2 places two oriented disjoint pairs)
        assert len(layers) == 25
        double = [
            l for l in layers if sum(1 for c in l if not c.is_single) == 4
        ]
        assert len(double) == 12


class TestScalingCount:
    def test_table_of_nine(self):
        assert scaling_count(2, 1, 3, 0) == 9

    def test_table_of_seven(self):
        assert scaling_count(3, 1, 1, 1) == 7

    def test_three_layer_example(self):
        assert scaling_count(2, 3, 4, 1) == 5832

    def test_exact_big_integers(self):
        # 66^12 overflows 64-bit; result must be exact
        assert scaling_count(2, 12, 8, 1) == 66**12

    def test_matches_factorial_sum(self):
        for n in range(1, 41):
            for g in range(4):
                for t in range(3):
                    per_layer = factorial_layer_count(n, g, t)
                    assert scaling_count(n, 1, g, t) == per_layer, (n, g, t)
                    assert scaling_count(n, 3, g, t) == per_layer**3, (n, g, t)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            scaling_count(0, 1, 1, 0)
        with pytest.raises(ValueError):
            scaling_count(2, 1, -1, 0)

    def test_agrees_with_enumeration(self):
        arity1 = ["I", "X", "Y", "Z", "H", "S"]
        arity2 = ["CX", "CZ"]
        for n in (1, 2, 3):
            for g in (1, 2, 3, 6):
                for t in (0, 1, 2):
                    gs = gate_set(*(arity1[:g] + arity2[:t]))
                    assert len(enumerate_layers(n, gs)) == scaling_count(n, 1, g, t)

    def test_agrees_with_enumeration_n4(self):
        # the r=2 multinomial term already counts oriented placements
        for g, t in [(1, 1), (2, 1), (2, 2)]:
            gs = gate_set(*(["I", "X"][:g] + ["CX", "CZ"][:t]))
            assert len(enumerate_layers(4, gs)) == scaling_count(4, 1, g, t)


class TestEnumerateCircuits:
    def test_one_qubit_two_layers(self):
        cfg = GeneratorConfig(n=1, d=2, gate_set=gate_set("I", "H"))
        encs = [encode_circuit(c) for c in enumerate_circuits(cfg)]
        assert encs == ["I|I", "I|H", "H|I", "H|H"]

    def test_two_layer_count(self):
        cfg = GeneratorConfig(n=2, d=2, gate_set=gate_set("I", "X", "H"))
        assert sum(1 for _ in enumerate_circuits(cfg)) == 81

    def test_single_layer_cx(self):
        cfg = GeneratorConfig(n=2, d=1, gate_set=gate_set("I", "CX"))
        assert sum(1 for _ in enumerate_circuits(cfg)) == 3

    def test_config_guards(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n=0, d=1, gate_set=gate_set("I"))
        # no fixed cap on n or d: the byte estimate decides
        cfg = GeneratorConfig(n=5, d=1, gate_set=gate_set("I", "H"))
        assert sum(1 for _ in enumerate_circuits(cfg)) == 32
        with pytest.raises(ResourceGuardError):
            list(enumerate_circuits(GeneratorConfig(n=10, d=1, gate_set=gate_set("I", "H"))))

    def test_resource_guard(self):
        cfg = GeneratorConfig(
            n=2, d=3, gate_set=gate_set("I", "X", "H"), max_circuits=100
        )
        with pytest.raises(ResourceGuardError) as exc:
            list(enumerate_circuits(cfg))
        assert exc.value.total == 729

    @pytest.mark.parametrize(
        "cfg",
        [
            # 2^40 layers: counting stops past the limit
            GeneratorConfig(n=40, d=1, gate_set=gate_set("I", "H")),
            # the one-layer term fits, so the layers are counted, and
            # 16·4ⁿ·2L passes the limit
            GeneratorConfig(n=40, d=1, gate_set=gate_set("I", "H"), max_circuits=10**30),
            # one layer for any n: only the 4ⁿ term passes the limit
            GeneratorConfig(n=2000, d=1, gate_set=gate_set("I")),
            # a depth that L^d alone passes the limit at
            GeneratorConfig(n=1, d=10**9, gate_set=gate_set("I", "H")),
            # one layer: one circuit at any depth, whose text passes the limit
            GeneratorConfig(n=1, d=10**12, gate_set=gate_set("I")),
        ],
        ids=["n40-count", "n40-counted", "n2000-one-layer", "d1e9", "one-layer-d1e12"],
    )
    @pytest.mark.parametrize(
        "run", [build_database, lambda cfg: list(enumerate_circuits(cfg))], ids=["build", "enum"]
    )
    def test_guard_fires_before_enumeration(self, monkeypatch, cfg, run):
        def refuse(*args):
            raise AssertionError("enumerated layers past the guard")

        monkeypatch.setattr(generator, "enumerate_layers", refuse)
        with pytest.raises(ResourceGuardError) as exc:
            run(cfg)
        assert exc.value.estimate > exc.value.limit * generator._BYTES_PER_CIRCUIT


class TestBuildDatabase:
    def test_identity_bucket_small(self, db_ih_1q):
        fp = fingerprint(identity(2), 8)
        assert db_ih_1q.bucket(fp) == ("I|I", "H|H")

    def test_reversed_cx_bucket(self):
        gs = gate_set("I", "H", "CX")
        db = build_database(GeneratorConfig(n=2, d=3, gate_set=gs))
        rev = circuit_unitary(grid("CX:T:1,CX:C:0"))
        bucket = db.bucket(fingerprint(rev, 8))
        assert "H,H|CX:C:1,CX:T:0|H,H" in bucket
        # cheapest first: a depth-1 member leads the bucket
        assert effective_depth(db.decode(bucket[0])) == 1

    def test_total_matches_formula(self, db_ih_1q, db_ihxzcx):
        assert db_ih_1q.total_circuits == scaling_count(1, 2, 2, 0)
        assert db_ihxzcx.total_circuits == scaling_count(2, 3, 4, 1)

    def test_bucket_partition(self, db_ih_1q):
        seen = set()
        for fp, encs in db_ih_1q.by_fingerprint.items():
            for enc in encs:
                assert db_ih_1q.by_circuit[enc] == fp
                assert enc not in seen
                seen.add(enc)
        assert seen == set(db_ih_1q.by_circuit)

    def test_bucket_soundness_raw_unitaries(self):
        gs = gate_set("I", "H", "S", "CX")
        cfg = GeneratorConfig(n=2, d=2, gate_set=gs)
        db = build_database(cfg)
        bound = 2 * 10.0**-cfg.dp * 4
        for encs in db.by_fingerprint.values():
            mats = [circuit_unitary(db.decode(e)) for e in encs]
            for other in mats[1:]:
                assert max_abs_diff(mats[0], other) <= bound

    def test_fig4_step1_reduction_available(self, db_ihxzcx):
        core = circuit_unitary(grid("CX:C:1,CX:T:0", "Z,Z", "CX:C:1,CX:T:0"))
        bucket = db_ihxzcx.bucket(fingerprint(core, 8))
        cheap = [e for e in bucket if effective_depth(db_ihxzcx.decode(e)) == 1]
        assert cheap and all("Z" in e for e in cheap)

    def test_neighbors_only_database(self):
        gs = gate_set("I", "CX")
        db = build_database(
            GeneratorConfig(n=3, d=1, gate_set=gs, neighbors_only=True)
        )
        assert db.total_circuits == 5
        for enc in db.by_circuit:
            for q, tok in enumerate(enc.split(",")):
                if ":" in tok:
                    assert abs(int(tok.rsplit(":", 1)[1]) - q) == 1

    def test_file_stores_rounded_gate_lines(self):
        cfg = GeneratorConfig(n=1, d=1, gate_set=gate_set("I", "H"))
        db = build_database(cfg)
        assert db.meta.gate_set is cfg.gate_set  # a build keeps its gates
        lines = dumps(db).split("\n")
        assert "gate H 1 2;0.70710678,0.00000000;0.70710678,0.00000000;" \
            "0.70710678,0.00000000;-0.70710678,0.00000000" in lines

    def test_unrendered_named_gate_builds_as_it_loads(self):
        # an H made from H's matrix has no QASM token; the build makes it
        # the builtin H, as a load of its line does, so a parsed h that no
        # rewrite touches emits against the built database as against its
        # loaded copy, and the file is the builtin set's
        made_h = make_gate("H", gate("H").matrix)
        built = build_database(GeneratorConfig(n=2, d=2, gate_set=GateSet(
            [gate("I"), made_h, gate("X"), gate("CX")])))
        plain = build_database(GeneratorConfig(n=2, d=2, gate_set=gate_set("I", "H", "X", "CX")))
        assert built.meta.gate_set.by_name("H") is gate("H")
        assert dumps(built) == dumps(plain)
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
        emitted = [emit(optimize(parse(text), db)[0]) for db in (built, loads(dumps(built)))]
        assert emitted[0] == emitted[1] == text
        # a gate of that name and another matrix is kept as it was given
        other = make_gate("H", gate("X").matrix)
        kept = build_database(GeneratorConfig(n=1, d=1, gate_set=GateSet([gate("I"), other])))
        assert kept.meta.gate_set.by_name("H") is other

    def test_gate_table_must_load_back(self):
        # a 3e-9 rad rotation rounds to the Identity at dp=8; its line holds
        # full precision, so the file's gate table loads back bitwise
        eps = 3e-9
        tiny = make_gate("R", [[math.cos(eps), -math.sin(eps)], [math.sin(eps), math.cos(eps)]])
        cfg = GeneratorConfig(n=1, d=1, gate_set=GateSet([gate("I"), tiny]))
        loaded = loads(dumps(build_database(cfg)))
        assert [g.name for g in loaded.meta.gate_set] == ["I", "R"]
        for g in cfg.gate_set:
            assert np.array_equal(loaded.meta.gate_set.by_name(g.name).matrix, g.matrix)


class TestBuildAgainstReference:
    """The batched, deduplicated build against fixed bytes and against a
    one-circuit-at-a-time recomputation."""

    # id -> (n, d, gates, MD5 of the QIDB/1 bytes)
    _PINNED = {
        # the {I,H,X,Z,CX} databases at n=2, d=3 and d=4
        "n2d3": (2, 3, "I H X Z CX", "4fd219db11bac81d5d6e4d35694d7014"),
        "n2d4": (2, 4, "I H X Z CX", "31ad0cbf15d0705b06f86b3f5270827f"),
        # the most forms, and T phases that are not dyadic
        "n3d2-t": (3, 2, "I H X Z S T CX", "9e581ec3992b5c26eb87184fdd1dffeb"),
        # gate names that are prefixes of each other: members sort by
        # their text, in which "S|" follows "SDG|" but "S," precedes "SDG,"
        "n2d2-prefix-names": (2, 2, "I S SDG T TDG CX", "f6e0f983fbabffe2bcc22cf52acf94ce"),
        "n1d4-prefix-names": (1, 4, "I S SDG T TDG H", "9d765f9a2cd43de64f8d8e5fceb295a8"),
        # few prefix products repeat bitwise (see _ODD_N1D6)
        "n1d6-odd-angles": (1, 6, "I H T U3[pi/5;2*pi/3;-pi/7]", "72105fdd95ee7b8fc7ac2fb4b7ecce9f"),
        "n2d3-odd-angles": (2, 3, "I H U1[pi/8] CX", "6d845344f50c274dda717487ac74f5c5"),
    }
    # builds that take the same bytes another way: "one-hash" gives every row
    # one hash, so every block is numbered by `_number_exactly`; "chunk-1"
    # makes each product's L rows a block, so nearly every repeat is a hit
    # on an earlier block, confirmed against a recomputed representative
    _VARIANTS = {
        "one-hash": ("_row_hash", lambda words: np.zeros(len(words), dtype=np.uint64)),
        "chunk-1": ("_CHUNK", 1),
    }

    @pytest.mark.parametrize(
        "name, variant",
        [pytest.param(name, None, id=name) for name in _PINNED]
        + [
            pytest.param(name, "one-hash", id=f"{name}-one-hash")
            for name in ("n2d2-prefix-names", "n1d4-prefix-names", "n1d6-odd-angles",
                         "n2d3-odd-angles")
        ]
        + [pytest.param(name, "chunk-1", id=f"{name}-chunk-1") for name in _PINNED],
    )
    def test_qidb_bytes_pinned(self, monkeypatch, name, variant):
        if variant:
            monkeypatch.setattr(generator, *self._VARIANTS[variant])
        n, d, gates, md5 = self._PINNED[name]
        cfg = GeneratorConfig(n=n, d=d, gate_set=gate_set(*gates.split()))
        assert hashlib.md5(dumps(build_database(cfg)).encode()).hexdigest() == md5

    def test_one_form_per_fingerprint(self, monkeypatch):
        """Two forms that share a fingerprint are refused, not merged into
        one bucket: here I and H, with every fingerprint the same."""
        fp = Fingerprint(bytes(16))
        monkeypatch.setattr(generator, "fingerprint", lambda stack, dp: [fp] * len(stack))
        cfg = GeneratorConfig(n=1, d=2, gate_set=gate_set("I", "H"))
        with pytest.raises(RuntimeError, match=fp.hex):
            build_database(cfg)

    @pytest.mark.parametrize(
        "cfg",
        [
            GeneratorConfig(n=2, d=3, gate_set=gate_set("I", "H", "X", "Z", "CX")),
            GeneratorConfig(n=3, d=1, gate_set=gate_set("I", "H", "S", "CX")),
            GeneratorConfig(
                n=3, d=2, gate_set=gate_set("I", "H", "CX"), dp=3, neighbors_only=True
            ),
            GeneratorConfig(n=2, d=2, gate_set=gate_set("I", "S", "SDG", "T", "TDG", "CX")),
            _ODD_N1D6,
            _ODD_N2D3,
        ],
        ids=["n2d3", "d1", "neighbors-only-dp3", "n2d2-prefix-names", "n1d6-odd-angles",
             "n2d3-odd-angles"],
    )
    def test_every_circuit_keyed_by_its_own_fingerprint(self, cfg):
        db = build_database(cfg)
        seen = 0
        first_seen = {}  # fingerprints in order of first appearance
        for c in enumerate_circuits(cfg):
            fp = fingerprint(circuit_unitary(c), cfg.dp)
            assert db.by_circuit[encode_circuit(c)] == fp
            first_seen.setdefault(fp, None)
            seen += 1
        assert seen == db.total_circuits
        assert list(db.by_fingerprint) == list(first_seen)
        for encs in db.by_fingerprint.values():
            keys = [(effective_depth(db.decode(e)), e) for e in encs]
            assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "cfg",
        [
            # 252 layers, 63,504 circuits: blocks of products stay bounded,
            # rather than growing with the square of the layer count
            GeneratorConfig(n=3, d=2, gate_set=gate_set("I", "H", "X", "Z", "S", "T", "CX")),
            # 18 layers, 104,976 circuits: three levels of prefix products
            GeneratorConfig(n=2, d=4, gate_set=gate_set("I", "H", "X", "Z", "CX")),
        ],
        ids=["n3d2", "n2d4"],
    )
    def test_build_peak_memory_bounded(self, cfg):
        tracemalloc.start()
        try:
            build_database(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 25 * 10**6

    _STANDARD = ("I", "X", "Y", "Z", "H", "S", "SDG", "T", "TDG", "CX")

    @pytest.mark.parametrize(
        "cfg",
        [
            # the three bench builds
            GeneratorConfig(n=3, d=2, gate_set=gate_set("I", "H", "X", "Z", "S", "T", "CX")),
            GeneratorConfig(n=2, d=4, gate_set=gate_set("I", "H", "X", "Z", "CX")),
            GeneratorConfig(n=2, d=3, gate_set=gate_set("I", "H", "X", "Z", "CX")),
            # the 4ⁿ term dominates: 7,545 and 460 layers of 4 qubits
            GeneratorConfig(n=4, d=1, gate_set=gate_set(*_STANDARD)),
            GeneratorConfig(n=4, d=1, gate_set=gate_set("I", "H", "X", "Z", "CX")),
            GeneratorConfig(n=3, d=1, gate_set=gate_set(*_STANDARD)),
            # five levels of prefix products
            GeneratorConfig(n=1, d=6, gate_set=gate_set("I", "H", "T", "X")),
        ],
        ids=["n3d2", "n2d4", "n2d3", "n4d1-standard", "n4d1", "n3d1-standard", "n1d6"],
    )
    def test_byte_estimate_bounds_peak(self, cfg):
        """The guard's estimate is an upper bound on the build's traced peak,
        and not a loose one: a change to what a build holds per circuit or
        per unitary must recalibrate it."""
        layers = len(enumerate_layers(cfg.n, cfg.gate_set, cfg.neighbors_only))
        _, estimate = _estimate(cfg.n, cfg.d, layers)
        tracemalloc.start()
        try:
            build_database(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= estimate <= 2.5 * peak


class TestOneLayerBuild:
    """A gate set of one layer, all Identity, has one circuit at every
    depth, built with no level of prefix products (`generator._power`)."""

    # a one-gate set that is the Identity within 1e-9 but not exactly: its
    # powers differ at every depth, and at dp 15 so do their fingerprints
    _NEAR = GateSet([make_gate("J", [[1, 0], [0, np.exp(1e-10j)]])])

    # id -> (n, gate set, dp, MD5 of the QIDB/1 bytes at d = 1..5), as the
    # build that extended one level of products per layer wrote them
    _PINNED = {
        "I-n1": (1, gate_set("I"), 8, [
            "fe5e7ca2ad3aeac980a27bb3e37a6166", "3adf7d3cc074873f79506db9114ba5fc",
            "1ec959039dbba7cd961ca3f84b9ebdc2", "543675b8235836caf2891253d8617dbe",
            "048aa9dcafe1b0c03a522b25483d4e23",
        ]),
        "I-n3": (3, gate_set("I"), 8, [
            "4d685e26020591fb9c45f82a2eaa2cb1", "f138ed8bb4a0879310b6e24bccb598f8",
            "e751abff48f15ed25169d31d7df7fc97", "f1ac65c90ae11283d3a8d72350af65e9",
            "e436d58ec67edd60231a5d8bd24239e3",
        ]),
        # a two-qubit gate places no pair on one qubit
        "I-CX-n1": (1, gate_set("I", "CX"), 8, [
            "b20ac2467562c58f3dd9d0bd5339c6e4", "a9076506ad7af67ca01454ce5592cea4",
            "24ba7c8201b0c58b3e87cb64cd729199", "25553b8bdaeac3972c71e116cae85d6c",
            "5ae03e3cc3681ea6e65f5118b1134dea",
        ]),
        "near-n2-dp15": (2, _NEAR, 15, [
            "2dccc3c3b77670ded7b3f19e9be3fe3b", "a2436f1e90b48813207ef85d4e15cdc6",
            "236796d3bd2f71254f96c483ec48960c", "00557a4ae4fd350455a77e6a0ceb44de",
            "bc4566078e140b2588045f2268404a69",
        ]),
    }

    @pytest.mark.parametrize("name", list(_PINNED))
    def test_qidb_bytes_pinned(self, name):
        n, gates, dp, md5s = self._PINNED[name]
        for d, md5 in enumerate(md5s, start=1):
            db = build_database(GeneratorConfig(n=n, d=d, gate_set=gates, dp=dp))
            assert hashlib.md5(dumps(db).encode()).hexdigest() == md5, d

    def test_deep_build_runs_no_level(self, monkeypatch):
        def level(*args):
            raise AssertionError("a one-layer build extended a level of products")

        monkeypatch.setattr(generator, "_distinct_prefixes", level)
        monkeypatch.setattr(generator, "_numbered", level)
        d = 10**5
        db = build_database(GeneratorConfig(n=2, d=d, gate_set=gate_set("I")))
        fp = fingerprint(identity(4), 8)
        assert dict(db.by_fingerprint) == {fp: ("|".join(["I,I"] * d),)}
        assert loads(dumps(db)).by_circuit == {"|".join(["I,I"] * d): fp}

    def test_inexact_layer_bounded_by_its_products(self, monkeypatch):
        # the near-Identity layer never repeats a product bitwise, so its
        # build makes d products: d past max_circuits is refused before
        # the first, while an exact Identity repeats at once at any d
        limit = 10**4
        db = build_database(GeneratorConfig(n=1, d=limit, gate_set=self._NEAR, max_circuits=limit))
        assert db.total_circuits == 1
        with monkeypatch.context() as m:
            m.setattr(generator, "_power", lambda *args: pytest.fail("a product was made"))
            with pytest.raises(ResourceGuardError) as exc:
                build_database(
                    GeneratorConfig(n=1, d=limit + 1, gate_set=self._NEAR, max_circuits=limit)
                )
        assert exc.value.total == limit + 1 and exc.value.limit == limit
        exact = GeneratorConfig(n=1, d=limit + 1, gate_set=gate_set("I"), max_circuits=limit)
        assert build_database(exact).total_circuits == 1


class TestDistinctPrefixes:
    """The products that `build_database` extends by the last layer."""

    @pytest.mark.parametrize(
        "cfg",
        [
            _ODD_N1D6,
            _ODD_N2D3,
            # S·SDG and its kin give products that differ only in signed zeros
            GeneratorConfig(n=1, d=4, gate_set=gate_set("I", "S", "SDG", "T", "TDG", "H")),
        ],
        ids=["n1d6-odd-angles", "n2d3-odd-angles", "n1d4-signed-zeros"],
    )
    def test_each_prefix_has_its_own_product(self, cfg):
        layers = enumerate_layers(cfg.n, cfg.gate_set, cfg.neighbors_only)
        mats = np.stack([layer_unitary(layer, cfg.n) for layer in layers])
        k = cfg.d - 1
        products, rep = _distinct_prefixes(mats, k)
        assert len(rep) == len(layers) ** k
        # bitwise distinct, and every one stands for a prefix
        assert len({p.tobytes() for p in products}) == len(products)
        _, first = np.unique(rep, return_index=True)
        assert len(first) == len(products)
        # numbered in order of first appearance over the prefixes
        assert np.all(np.diff(first) > 0)
        for p, prefix in enumerate(itertools.product(range(len(layers)), repeat=k)):
            u = identity(mats.shape[-1])
            for li in prefix:
                u = np.matmul(mats[li], u)
            assert products[rep[p]].tobytes() == u.tobytes(), prefix


class TestNumber:
    """`_number`, the one numbering of every build level."""

    def test_every_hash_match_is_confirmed(self, monkeypatch):
        """With every row hashed alike, one-row blocks always hit an earlier
        form, and only a bitwise-equal row may take its number: the words
        of 0.0 and −0.0 are told apart like any others."""
        monkeypatch.setattr(
            generator, "_row_hash", lambda words: np.zeros(len(words), dtype=np.uint64)
        )
        rows = np.array([[1, 0], [2, 0], [1, 0], [0, 0], [2**63, 0], [0, 0]], dtype=np.uint64)
        forms = generator._Forms()
        numbers = [
            generator._number(rows[i : i + 1], i, forms, lambda src: rows[src])[0].tolist()
            for i in range(len(rows))
        ]
        assert numbers == [[0], [1], [0], [2], [3], [2]]
        assert forms.sources.tolist() == [0, 1, 3, 4]
