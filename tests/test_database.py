"""Encodings and the QIDB/1 file format: round trips, determinism, errors."""

import cmath
import dataclasses
import hashlib
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import factorial_layer_count, gate, gate_set, grid

from qidopt.circuit import CircuitGrid, circuit_unitary, layer_count, validate
from qidopt.database import (
    ChecksumMismatchError,
    DatabaseFormatError,
    DatabaseMeta,
    DigestMismatchError,
    IdentityDatabase,
    TruncatedFileError,
    VersionMismatchError,
    _gate_line,
    _parse_gate_line,
    dumps,
    encode_circuit,
    layer_table,
    load,
    loads,
    member_index,
    save,
)
from qidopt.fingerprint import Fingerprint, canonicalize
from qidopt.gates import (
    BUILTIN_GATES,
    U1,
    U2,
    U3,
    AngleExpr,
    GateSet,
    gate_from_name,
    instantiate_param_gate,
    make_gate,
)
from qidopt.generator import GeneratorConfig, build_database, enumerate_layers
from qidopt.matrices import max_abs_diff
from qidopt.optimizer import optimize


_ALL_BUILTINS = GateSet(list(BUILTIN_GATES.values()))
_LAYERS = {n: enumerate_layers(n, _ALL_BUILTINS) for n in (1, 2, 3)}
_TABLES = {n: layer_table(layers) for n, layers in _LAYERS.items()}


def _builtin_db(n: int, d: int) -> IdentityDatabase:
    """An empty database of every builtin gate at n qubits and depth d: it
    reads members of d layers of _LAYERS[n]."""
    return IdentityDatabase(DatabaseMeta(n, d, 8, False, _ALL_BUILTINS), _TABLES[n])


class TestEncoding:
    def test_single_qubit_tokens(self):
        assert encode_circuit(grid("H,I", "X,X")) == "H,I|X,X"

    def test_two_qubit_halves(self):
        assert encode_circuit(grid("CX:C:1,CX:T:0")) == "CX:C:1,CX:T:0"

    def test_round_trip(self):
        for enc in ("H,I|X,X|CX:C:1,CX:T:0", "CX:T:1,CX:C:0", "I,I"):
            db = _builtin_db(2, enc.count("|") + 1)
            assert encode_circuit(db.decode(enc)) == enc

    @pytest.mark.parametrize(
        "enc", ["CX:C:1,I", "Q,I", "I,I|I", "", "I,I|"], ids=["unpaired", "unknown", "ragged",
                                                          "empty", "empty-layer"]
    )
    def test_decode_validates(self, enc):
        # only the texts of enumerated layers are read, at the member's own depth
        error = re.escape(f"member {enc!r}: ") + ".* is not a layer"
        with pytest.raises(DatabaseFormatError, match=error):
            _builtin_db(2, enc.count("|") + 1).decode(enc)

    @pytest.mark.parametrize("enc", ["H,I", "H,I|X,X|I,I"], ids=["shorter", "longer"])
    def test_decode_rejects_other_depths(self, enc):
        error = re.escape(f"member {enc!r}: ") + r"[13] layers, not the database's d = 2"
        with pytest.raises(DatabaseFormatError, match=error):
            _builtin_db(2, 2).decode(enc)


def _cells(c: CircuitGrid):
    """A grid's structure: per layer, each cell's (gate, role, partner)."""
    return [[(cell.gate, cell.role, cell.partner) for cell in layer] for layer in c.layers]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(_LAYERS)).flatmap(
        lambda n: st.lists(st.sampled_from(_LAYERS[n]), min_size=1, max_size=5).map(
            lambda layers: CircuitGrid(n, tuple(layers))
        )
    )
)
def test_encoding_round_trips_every_builtin(c):
    back = _builtin_db(c.n, c.m).decode(encode_circuit(c))
    assert (back.n, _cells(back)) == (c.n, _cells(c))


_OTHER_BUILTINS = sorted(set(BUILTIN_GATES) - {"I"})


@st.composite
def _small_configs(draw):
    """Configs of at most a few thousand circuits: n in {1, 2}, d in {1, 2,
    3}, a random builtin gate set that holds I, and dp in {3, 8}."""
    n = draw(st.integers(1, 2))
    d = draw(st.integers(1, 3))
    most = 3 if (n, d) == (2, 3) else 6
    names = draw(st.lists(st.sampled_from(_OTHER_BUILTINS), unique=True, max_size=most))
    return GeneratorConfig(
        n=n,
        d=d,
        gate_set=gate_set("I", *names),
        dp=draw(st.sampled_from([3, 8])),
        neighbors_only=draw(st.booleans()),
    )


@settings(max_examples=40, deadline=None)
@given(_small_configs())
def test_qidb_round_trips_random_configs(cfg):
    db = build_database(cfg)
    text = dumps(db)
    loaded = loads(text)
    assert dumps(loaded) == text
    assert loaded.by_fingerprint == db.by_fingerprint


@pytest.fixture(scope="module")
def member_dbs(db_ihxzcx):
    built = {
        "n2d3": db_ihxzcx,
        "n3d2": build_database(
            GeneratorConfig(n=3, d=2, gate_set=gate_set("I", "H", "X", "Z", "CX"))
        ),
        "n1d6": build_database(GeneratorConfig(n=1, d=6, gate_set=gate_set("I", "H", "S", "T"))),
    }
    built["n3d2-loaded"] = loads(dumps(built["n3d2"]))
    return built


@pytest.mark.parametrize("name", ["n2d3", "n3d2", "n1d6", "n3d2-loaded"])
def test_every_member_decodes_to_itself(member_dbs, name):
    db = member_dbs[name]
    for enc in db.by_circuit:
        c = db.decode(enc)
        assert encode_circuit(c) == enc
        assert validate(c) == []


@pytest.fixture()
def small_db():
    return build_database(GeneratorConfig(n=1, d=2, gate_set=gate_set("I", "H")))


@pytest.mark.parametrize("made", ["built", "loaded"])
def test_made_database_rejects_edits(small_db, made):
    # a database does not change once made, so what it derives from its
    # buckets is made once and never invalidated
    text = dumps(small_db)
    db = small_db if made == "built" else loads(text)
    fp, bucket = next(iter(db.by_fingerprint.items()))
    with pytest.raises(TypeError):
        db.by_fingerprint[fp] = ("H|I",)
    with pytest.raises(TypeError):
        db.by_circuit["H|I"] = fp
    with pytest.raises(TypeError):
        db.layers["H"] = db.layers["I"]
    with pytest.raises(AttributeError):
        bucket.insert(0, "H|I")
    with pytest.raises(TypeError):
        bucket[0] = "H|I"
    with pytest.raises(dataclasses.FrozenInstanceError):
        db.by_fingerprint = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        db.by_circuit = {}
    assert dumps(db) == text


def test_member_index_made_on_first_use():
    # a build that is only saved never makes its member index; a load makes
    # it at once, rejecting a member listed twice
    db = build_database(GeneratorConfig(n=2, d=3, gate_set=gate_set("I", "H", "X", "Z", "CX")))
    text = dumps(db)
    assert db.total_circuits == 5832
    assert "by_circuit" not in vars(db)
    loaded = loads(text)
    assert "by_circuit" in vars(loaded)
    assert db.by_circuit == member_index(db.by_fingerprint) == loaded.by_circuit
    assert "by_circuit" in vars(db) and db.by_circuit is db.by_circuit
    assert len(db.by_circuit) == db.total_circuits


@pytest.mark.parametrize(
    "n, d, gates",
    [
        # the most buckets of the bench files (17,499), 3.6 members each
        (3, 2, ("I", "H", "X", "Z", "S", "T", "CX")),
        # the most members (104,976), 91 to a bucket
        (2, 4, ("I", "H", "X", "Z", "CX")),
    ],
    ids=["n3d2", "n2d4"],
)
def test_load_peak_memory_bounded(n, d, gates):
    # a load holds the file's lines once, its buckets as slices of them,
    # and the member index: under 8 times the file's bytes at peak
    text = dumps(build_database(GeneratorConfig(n=n, d=d, gate_set=gate_set(*gates))))
    tracemalloc.start()
    try:
        loads(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(text.encode())


class TestPersistence:
    def test_save_load_round_trip(self, small_db, tmp_path):
        path = tmp_path / "db.qidb"
        save(small_db, path)
        loaded = load(path)
        assert loaded.by_circuit == small_db.by_circuit
        assert loaded.by_fingerprint == small_db.by_fingerprint
        assert loaded.meta.n == small_db.meta.n
        assert loaded.meta.dp == small_db.meta.dp

    def test_save_twice_identical_bytes(self, small_db, tmp_path):
        a, b = tmp_path / "a.qidb", tmp_path / "b.qidb"
        save(small_db, a)
        save(small_db, b)
        assert a.read_bytes() == b.read_bytes()

    def test_load_save_identity_on_bytes(self, small_db, tmp_path):
        path = tmp_path / "db.qidb"
        save(small_db, path)
        again = tmp_path / "again.qidb"
        save(load(path), again)
        assert path.read_bytes() == again.read_bytes()

    def test_loaded_matrices_match_rounding(self, small_db, tmp_path):
        path = tmp_path / "db.qidb"
        save(small_db, path)
        loaded = load(path)
        a = small_db.meta.gate_set.by_name("H").matrix
        b = loaded.meta.gate_set.by_name("H").matrix
        assert max_abs_diff(a, b) <= 1e-12

    def test_loaded_circuits_recompute(self, tmp_path):
        gs = gate_set("I", "H", "CX")
        db = build_database(GeneratorConfig(n=2, d=2, gate_set=gs))
        path = tmp_path / "db.qidb"
        save(db, path)
        loaded = load(path)
        enc = "H,H|CX:C:1,CX:T:0"
        u1 = circuit_unitary(db.decode(enc))
        u2 = circuit_unitary(loaded.decode(enc))
        assert max_abs_diff(u1, u2) <= 1e-12  # both evaluate exact builtins


class TestExactEvaluation:
    """The file stores dp-rounded matrices; decode evaluates the gate table,
    which a load fills with the exact gates the stored lines resolve to."""

    def test_buckets_sound_after_round_trip(self, db_ihxzcx):
        loaded = loads(dumps(db_ihxzcx))
        dp = loaded.meta.dp
        total = 0
        for encs in loaded.by_fingerprint.values():
            forms = {canonicalize(circuit_unitary(loaded.decode(e)), dp) for e in encs}
            assert len(forms) == 1, f"bucket not sound: {encs[:3]}..."
            total += len(encs)
        assert total == 5832

    def test_key_no_bucket_has_is_sound(self):
        # an empty bucket has no member to disagree, as it has no rank row
        db = build_database(GeneratorConfig(n=1, d=2, gate_set=gate_set("I", "H")))
        absent = Fingerprint(bytes(16))
        assert absent not in db.by_fingerprint
        assert db.sound(absent) is True
        assert db.rank_table(absent) == []
        # asking made no table for it, and a real bucket still checks
        assert all(db.sound(fp) for fp in db.by_fingerprint)
        assert absent not in db._rank_tables

    def test_clashing_name_keeps_stored_matrix(self):
        # a gate named like the builtin H that holds a rotation instead
        c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
        fake_h = make_gate("H", [[c, -s], [s, c]])
        db = build_database(
            GeneratorConfig(n=1, d=1, gate_set=GateSet([gate("I"), fake_h]))
        )
        for d in (db, loads(dumps(db))):
            u = circuit_unitary(d.decode("H"))
            assert max_abs_diff(u, fake_h.matrix) <= 1e-8
            assert max_abs_diff(u, gate("H").matrix) > 0.1
            assert d.meta.gate_set.by_name("H").qasm_name is None
            assert np.array_equal(d.meta.gate_set.by_name("H").matrix, fake_h.matrix)

    def test_clashing_decimal_line_keeps_stored_matrix(self):
        # entries that are one-digit decimals: written at full precision, the
        # line of this gate would spell the dp=1 rounded line of the template
        # gate its name resolves to
        name = "U3[9273/5000;0;0]"
        rot = make_gate(name, [[0.6, -0.8], [0.8, 0.6]])
        named = gate_from_name(name)
        assert not np.array_equal(named.matrix, rot.matrix)
        assert canonicalize(named.matrix, 1) == "2;0.6,0.0;-0.8,0.0;0.8,0.0;0.6,0.0"
        db = build_database(
            GeneratorConfig(n=1, d=1, gate_set=GateSet([gate("I"), rot]), dp=1)
        )
        assert f"\ngate {name} 1 2;0.6,0.0;-0.8,0.0;0.8,0.0;0.6,0.00\n" in dumps(db)
        loaded = loads(dumps(db)).meta.gate_set.by_name(name)
        assert np.array_equal(loaded.matrix, rot.matrix)
        assert loaded.template is None

    def test_template_gate_exact_after_load(self):
        u1 = instantiate_param_gate(U1, [AngleExpr(pi_coeff=Fraction(1, 4))])
        db = build_database(GeneratorConfig(n=1, d=1, gate_set=GateSet([gate("I"), u1])))
        text = dumps(db)
        # the file holds e^{i pi/4} rounded
        assert "gate U1[pi/4] 1 2;1.00000000,0.00000000;0.00000000,0.00000000;" \
            "0.00000000,0.00000000;0.70710678,0.70710678\n" in text
        loaded = loads(text)
        assert max_abs_diff(circuit_unitary(loaded.decode("U1[pi/4]")), u1.matrix) <= 1e-15

    def test_custom_gate_buckets_sound_as_built(self):
        # R has no name to resolve in a file; its line holds every entry at
        # full precision, so as built and after a load, decode evaluates the
        # gate R was given as, and every bucket recomputes to one form
        c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
        r = make_gate("R", [[c, -s], [s, c]])
        db = build_database(
            GeneratorConfig(n=1, d=6, gate_set=GateSet([gate("I"), r, gate("X")]))
        )
        loaded = loads(dumps(db))
        for g in db.meta.gate_set:
            assert np.array_equal(loaded.meta.gate_set.by_name(g.name).matrix, g.matrix)
        for d in (db, loaded):
            forms = [
                {canonicalize(circuit_unitary(d.decode(e)), d.meta.dp) for e in encs}
                for encs in d.by_fingerprint.values()
            ]
            assert len(forms) == 22
            assert sum(len(f) > 1 for f in forms) == 0

    def test_rounded_custom_gate_line_still_loads(self):
        # a file with the dp-rounded line of a gate no name resolves to, as
        # files written before full-precision lines hold: R, the rotation by
        # pi/8, at dp=4
        text = (
            "QIDB/1\ndigest md5-128\nconvention temporal-right\n"
            "n 1\nd 2\ndp 4\nneighbors_only false\ngates 2\n"
            "gate I 1 2;1.0000,0.0000;0.0000,0.0000;0.0000,0.0000;1.0000,0.0000\n"
            "gate R 1 2;0.9239,0.0000;-0.3827,0.0000;0.3827,0.0000;0.9239,0.0000\n"
            "FP 7e5bec57329daae8ed93a780cdf96831 2\nI|R\nR|I\n"
            "FP bfcafca5f8a4d1f470c04ff6cbf1e6f1 1\nR|R\n"
            "FP f6c725bfe9856520d9749a9a09f1f951 1\nI|I\n"
            "END 4 56eda7e81f33987f93af9d3fb19b5507\n"
        )
        db = loads(text)
        r = db.meta.gate_set.by_name("R")
        assert np.array_equal(r.matrix, np.array([[0.9239, -0.3827], [0.3827, 0.9239]]))
        assert (r.qasm_name, r.template) == (None, None)
        assert db.meta.gate_set.by_name("I") is gate("I")
        assert db.bucket(db.by_circuit["R|I"]) == ("I|R", "R|I")
        assert db.total_circuits == 4
        # R is unitary only to the rounding, so its determinant is NaN: a
        # database built over it has no form filter, and rules nothing out
        # by determinant
        assert cmath.isnan(r.det)
        built = build_database(GeneratorConfig(n=1, d=2, gate_set=db.meta.gate_set))
        assert built._form is None
        assert built.may_hold_det(1j)

    def test_unresolved_template_spelling_keeps_its_name(self):
        # 'U1[2*pi/4]' parses to the angle of 'U1[pi/2]', but only a gate of
        # the same name may stand in for it
        u1 = instantiate_param_gate(U1, [AngleExpr(pi_coeff=Fraction(1, 2))])
        spelled = make_gate("U1[2*pi/4]", u1.matrix)
        db = build_database(
            GeneratorConfig(n=1, d=2, gate_set=GateSet([gate("I"), spelled]))
        )
        text = dumps(db)
        loaded = loads(text)
        assert dumps(loaded) == text
        for d in (db, loaded):
            u = circuit_unitary(d.decode("U1[2*pi/4]|U1[2*pi/4]"))
            assert max_abs_diff(u, gate("Z").matrix) <= 1e-8
            assert d.meta.gate_set.by_name("U1[2*pi/4]").template is None


def _haar_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


_ANGLE = st.builds(
    lambda p, q: AngleExpr(pi_coeff=Fraction(p, q)), st.integers(-96, 96), st.integers(1, 48)
)
_TEMPLATE_GATE = st.one_of(
    *(
        st.lists(_ANGLE, min_size=t.angle_count, max_size=t.angle_count).map(
            lambda angles, t=t: instantiate_param_gate(t, angles)
        )
        for t in (U1, U2, U3)
    )
)


class TestGateLineRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(dim=st.sampled_from([2, 4]), seed=st.integers(0, 2**32 - 1), dp=st.integers(1, 15))
    def test_random_unitary_line_round_trips(self, dim, seed, dp):
        r = make_gate("R", _haar_unitary(dim, seed))
        line = _gate_line(r, dp)
        loaded = _parse_gate_line(line, dp)
        assert _gate_line(loaded, dp) == line
        assert np.array_equal(loaded.matrix, r.matrix)
        assert (loaded.qasm_name, loaded.template) == (None, None)

    @settings(max_examples=300, deadline=None)
    @given(
        g=st.one_of(_TEMPLATE_GATE, st.sampled_from(sorted(BUILTIN_GATES.values(), key=str))),
        dp=st.integers(1, 15),
    )
    # rounds to the Identity, which the exact gate is not
    @example(g=instantiate_param_gate(U3, [AngleExpr(Fraction(1, 48))] + [AngleExpr()] * 2), dp=1)
    def test_resolved_gate_loads_exact(self, g, dp):
        line = _gate_line(g, dp)
        assert line == f"gate {g.name} {g.arity} {canonicalize(g.matrix, dp)}"
        loaded = _parse_gate_line(line, dp)
        assert _gate_line(loaded, dp) == line
        assert loaded.name == g.name
        assert (loaded.qasm_name, loaded.template, loaded.angles) == (
            g.qasm_name, g.template, g.angles
        )
        assert np.array_equal(loaded.matrix, g.matrix)


class TestLoadErrors:
    def test_version_mismatch(self, small_db):
        text = dumps(small_db).replace("QIDB/1", "QIDB/9", 1)
        with pytest.raises(VersionMismatchError):
            loads(text)

    def test_digest_mismatch(self, small_db):
        text = dumps(small_db).replace("digest md5-128", "digest sha1-160", 1)
        with pytest.raises(DigestMismatchError):
            loads(text)

    def test_truncated(self, small_db):
        text = dumps(small_db)
        cut = text.rstrip("\n").rsplit("\n", 1)[0]  # drop the END line
        with pytest.raises(TruncatedFileError):
            loads(cut + "\n")

    @pytest.mark.parametrize("appended", ["text", "second-file", "blank-line"])
    def test_content_after_end_rejected(self, appended):
        gs = gate_set("I", "H", "CX")
        text = dumps(build_database(GeneratorConfig(n=2, d=1, gate_set=gs)))
        assert loads(text).total_circuits == 6
        tail = {"text": "anything at all\n", "second-file": text, "blank-line": "\n"}[appended]
        with pytest.raises(DatabaseFormatError, match="after the END line"):
            loads(text + tail)

    def test_checksum_mismatch(self, small_db):
        # editing a bucket member changes body bytes but not the counts
        lines = dumps(small_db).split("\n")
        for i, line in enumerate(lines):
            if line == "H|H":
                lines[i] = "I|I"
                break
        with pytest.raises(ChecksumMismatchError):
            loads("\n".join(lines))

    def test_empty_file(self):
        with pytest.raises(TruncatedFileError):
            loads("")

    def test_wrong_footer_count(self, small_db):
        text = dumps(small_db)
        body_start = text.index("FP ")
        body_end = text.index("END ")
        body = text[body_start:body_end]
        checksum = hashlib.md5(body.encode()).hexdigest()
        bad = text[:body_end] + f"END 99 {checksum}\n"
        with pytest.raises(Exception, match="99"):
            loads(bad)

    @pytest.mark.parametrize(
        "pattern, replacement, error",
        [
            pytest.param(r"convention \S+", "convention temporal-left", "convention",
                         id="convention"),
            pytest.param(r"neighbors_only \S+", "neighbors_only maybe", "neighbors_only",
                         id="neighbors-only"),
            pytest.param(r"\nn \d+", "\nn 0", "n: 0", id="n-zero"),
            pytest.param(r"\nd \d+", "\nd 0", "d: 0", id="d-zero"),
            pytest.param(r"\ndp \d+", "\ndp 0", "dp: 0", id="dp-zero"),
            pytest.param(r"\ndp \d+", "\ndp 99", "dp: 99", id="dp-99"),
            pytest.param(r"\nn \d+", "\nn two", "n: 'two'", id="n-text"),
            pytest.param(r"\ngates \d+", "\ngates -1", "gates: -1", id="gates-negative"),
            pytest.param(r"gate H \d", "gate H x", "arity: 'x'", id="gate-arity-text"),
            pytest.param(r"gate H 1 2;[^;]*", "gate H 1 2;1.0,zero", "gate H",
                         id="gate-entry-text"),
            pytest.param(r"(FP \S+) \d+", r"\1 many", "bucket size: 'many'",
                         id="bucket-size-text"),
            # a negative size used to step back onto the same header forever
            pytest.param(r"(FP \S+) \d+", r"\1 -1", "bucket size: -1",
                         id="bucket-size-negative"),
            pytest.param(r"FP \S+", "FP " + "zz" * 16, "fingerprint", id="fingerprint-hex"),
            pytest.param(r"FP (\S{31})\S", r"FP \1", "bad fingerprint", id="fingerprint-31-digits"),
            pytest.param(r"FP (\S+)", r"FP \g<1>00", "bad fingerprint", id="fingerprint-34-digits"),
            pytest.param(r"(FP \S+) \d+", r"\1", "malformed bucket header", id="header-two-fields"),
            pytest.param(r"(FP \S+ \d+)", r"\1 1", "malformed bucket header",
                         id="header-four-fields"),
            # the first fault of a header is named, in field order
            pytest.param(r"(FP \S+) \d+", r"\1 0 1", "malformed bucket header",
                         id="header-four-fields-size-zero"),
            pytest.param(r"FP \S+ \d+", "FP " + "zz" * 16 + " 0", "bad fingerprint",
                         id="fingerprint-hex-size-zero"),
            pytest.param(r"END \d+", "END four", "END circuit count: 'four'",
                         id="footer-count-text"),
        ],
    )
    def test_bad_field_rejected(self, small_db, pattern, replacement, error):
        text = re.sub(pattern, replacement, dumps(small_db), count=1)
        # re-sign the body so only the edited field can be at fault
        head, end = text.rsplit("END ", 1)
        body = head[head.index("FP "):]
        count = end.split(" ")[0]
        text = f"{head}END {count} {hashlib.md5(body.encode()).hexdigest()}\n"
        with pytest.raises(DatabaseFormatError, match=re.escape(error)):
            loads(text)

    def test_bucket_past_the_file_rejected(self, small_db):
        text = _signed(re.sub(r"(FP \S+) \d+", r"\1 99", dumps(small_db), count=1))
        with pytest.raises(TruncatedFileError, match="bucket cut short"):
            loads(text)

    @pytest.mark.parametrize(
        "pattern, replacement",
        [
            pytest.param(r"FP (\S+)", lambda m: "FP " + m[1].upper(), id="upper-case-hex"),
            pytest.param(r"(FP \S+) (\d+)", r"\1 +\2", id="size-plus-sign"),
            pytest.param(r"(FP \S+) (\d+)", r"\1 0\2", id="size-leading-zero"),
        ],
    )
    def test_header_spellings_that_load(self, small_db, pattern, replacement):
        # `dumps` never writes these, but the loader has always read them:
        # the tables are the file's as written
        text = _signed(re.sub(pattern, replacement, dumps(small_db), count=1))
        db = loads(text)
        assert list(db.by_fingerprint.items()) == list(small_db.by_fingerprint.items())
        assert all(type(fp) is Fingerprint for fp in db.by_fingerprint)
        assert db.by_circuit == small_db.by_circuit

    def test_template_angle_beyond_float_range_rejected(self):
        u1 = instantiate_param_gate(U1, [AngleExpr(pi_coeff=Fraction(1, 2))])
        db = build_database(GeneratorConfig(n=1, d=1, gate_set=GateSet([gate("I"), u1])))
        text = dumps(db).replace("gate U1[pi/2] ", f"gate U1[{'9' * 400}] ", 1)
        with pytest.raises(DatabaseFormatError, match="too large"):
            loads(text)
        # nor is a gate of that name written, whatever matrix it holds
        named = make_gate(f"U1[{'9' * 400}]", u1.matrix)
        db = build_database(GeneratorConfig(n=1, d=1, gate_set=GateSet([gate("I"), named])))
        with pytest.raises(DatabaseFormatError, match="too large"):
            dumps(db)

    @pytest.mark.parametrize(
        "gates, member, edited, circuit",
        [
            pytest.param(("I", "H"), "I|I", "Q|I", ("H", "H"), id="unknown-gate"),
            pytest.param(("I", "H", "CX"), "CX:C:1,CX:T:0|I,I", "CX:C:x,CX:T:0|I,I",
                         ("CX:C:1,CX:T:0", "I,I"), id="partner"),
            # every layer three cells wide in an n=2 database
            pytest.param(("I", "H", "X"), "I,I|I,I", "I,I,I|I,I,I", ("H,I", "H,I"),
                         id="width"),
            # partners that int() reads but encode_cell never writes
            pytest.param(("I", "H", "CX"), "CX:C:1,CX:T:0|I,I", "CX:C:+1,CX:T:0_0|I,I",
                         ("CX:C:1,CX:T:0", "I,I"), id="non-canonical"),
        ],
    )
    def test_malformed_member_raises_format_error_on_use(self, gates, member, edited, circuit):
        # loads does not check members against the gate table; ranking or
        # decoding one that does not decode must still report a format
        # error naming the member
        n = len(circuit[0].split(","))
        db = build_database(GeneratorConfig(n=n, d=2, gate_set=gate_set(*gates)))
        text = dumps(db).replace(f"\n{member}\n", f"\n{edited}\n", 1)
        head, end = text.rsplit("END ", 1)
        body = head[head.index("FP "):]
        text = f"{head}END {end.split(' ')[0]} {hashlib.md5(body.encode()).hexdigest()}\n"
        with pytest.raises(DatabaseFormatError, match=re.escape(repr(edited))):
            optimize(grid(*circuit), loads(text))

    def test_member_outside_the_enumeration_raises_format_error(self):
        # a valid, canonically spelled grid, but a pair on qubits 0 and 2 is
        # not a layer of a neighbors_only enumeration
        cfg = GeneratorConfig(n=3, d=1, gate_set=gate_set("I", "H", "CX"), neighbors_only=True)
        text = dumps(build_database(cfg))
        edited = "CX:C:2,I,CX:T:0"
        db = loads(_signed(text.replace("\nCX:C:1,CX:T:0,I\n", f"\n{edited}\n", 1)))
        with pytest.raises(DatabaseFormatError, match=re.escape(f"member {edited!r}")):
            db.decode(edited)

    @pytest.mark.parametrize("edited", ["H|H|I", "H"], ids=["longer", "shorter"])
    def test_member_of_wrong_depth_raises_format_error(self, small_db, edited):
        # 'H|H' of the n=1, d=2 {I,H} file holds another number of layers;
        # the file loads, and reading the member reports it
        db = loads(_signed(dumps(small_db).replace("\nH|H\n", f"\n{edited}\n", 1)))
        error = re.escape(f"member {edited!r}: ") + r"\d layers, not the database's d = 2"
        with pytest.raises(DatabaseFormatError, match=error):
            db.decode(edited)
        with pytest.raises(DatabaseFormatError, match=error):
            db.rank_table(db.by_circuit[edited])
        with pytest.raises(DatabaseFormatError, match=error):
            optimize(grid("H", "H"), db)

    @pytest.mark.parametrize("bucket_of", ["I,I", "CX:C:1,CX:T:0"], ids=["same-bucket",
                                                                        "other-bucket"])
    def test_member_listed_twice_rejected(self, bucket_of):
        # 'I,I' is added to the bucket that holds `bucket_of`, whose count is
        # bumped; the footer still matches the distinct members
        text = dumps(build_database(GeneratorConfig(n=2, d=1, gate_set=gate_set("I", "H", "CX"))))
        lines = text.split("\n")
        at = lines.index(bucket_of)
        header = max(i for i in range(at) if lines[i].startswith("FP "))
        fp, count = lines[header].rsplit(" ", 1)
        lines[header] = f"{fp} {int(count) + 1}"
        lines.insert(at + 1, "I,I")
        with pytest.raises(DatabaseFormatError, match=re.escape("member 'I,I' is listed twice")):
            loads(_signed("\n".join(lines)))

    def test_bucket_listed_twice_rejected(self, small_db):
        text = dumps(small_db)
        first = text[text.index("FP "):text.index("\nFP ", text.index("FP ") + 1) + 1]
        with pytest.raises(DatabaseFormatError, match="bucket .* is listed twice"):
            loads(_signed(text.replace(first, first + first, 1)))

    def test_empty_bucket_rejected(self, small_db):
        # `dumps` never writes a bucket of no members; one read would count
        # in `stats` and leave the form filter without a representative
        text = dumps(small_db)
        end = text.rindex("END ")
        empty = _signed(text[:end] + "FP " + "00" * 16 + " 0\n" + text[end:])
        with pytest.raises(DatabaseFormatError, match=re.escape("bucket size: 0 is not >= 1")):
            loads(empty)

    def test_header_with_more_layers_than_members_rejected(self, small_db):
        # n = 99 would have the loader enumerate 2^99 layers of {I, H}
        text = dumps(small_db).replace("\nn 1\n", "\nn 99\n", 1)
        with pytest.raises(DatabaseFormatError, match="more layers than the file's 4 circuits"):
            loads(text)

    def test_header_deeper_than_the_file_rejected(self):
        # a member spells its d layers in at least 2d − 1 characters, so d
        # may not exceed the file's length: a depth of 10^8 would pad every
        # window optimize looks up to 10^8 layers
        db = build_database(GeneratorConfig(n=1, d=1, gate_set=gate_set("I")))
        text = dumps(db).replace("\nd 1\n", "\nd 100000000\n", 1)
        assert len(text) == 276
        with pytest.raises(DatabaseFormatError, match=re.escape("d: 100000000 is not in [1, 276]")):
            loads(text)

    def test_header_with_too_many_qubits_rejected(self):
        # over {I} alone there is one layer for any n: n may not exceed the
        # file's length, and 2000 cells are past the enumeration's recursion
        db = build_database(GeneratorConfig(n=1, d=1, gate_set=gate_set("I")))
        text = dumps(db).replace("\nn 1\n", "\nn 2000\n", 1)
        with pytest.raises(DatabaseFormatError, match=re.escape("n: 2000 is not in [1, ")):
            loads(text)
        wide = _signed(text.replace("\nI\n", "\n" + ",".join(["I"] * 2000) + "\n", 1))
        with pytest.raises(DatabaseFormatError, match="n 2000 is too large to enumerate"):
            loads(wide)


def _signed(text: str) -> str:
    """The file with its body checksum recomputed; the footer count is kept."""
    head, end = text.rsplit("END ", 1)
    body = head[head.index("FP "):]
    return f"{head}END {end.split(' ')[0]} {hashlib.md5(body.encode()).hexdigest()}\n"


@pytest.mark.parametrize("names", [("I",), ("I", "H"), ("I", "CX"), ("I", "H", "X", "CX", "CZ")])
@pytest.mark.parametrize("neighbors_only", [False, True])
def test_layer_count_matches_enumeration(names, neighbors_only):
    gs = gate_set(*names)
    for n in range(1, 6):
        count = len(enumerate_layers(n, gs, neighbors_only))
        assert layer_count(n, gs.g, gs.t, neighbors_only) == count
        assert layer_count(n, gs.g, gs.t, neighbors_only, count) == count
        if not neighbors_only:
            assert count == factorial_layer_count(n, gs.g, gs.t)
        # past `most`, only the fact that it is passed is reported
        assert layer_count(n, gs.g, gs.t, neighbors_only, count - 1) > count - 1


_EDITABLE = dumps(
    build_database(GeneratorConfig(n=2, d=1, gate_set=gate_set("I", "H", "CX")))
)


@settings(max_examples=300, deadline=None)
@given(
    start=st.integers(0, len(_EDITABLE)),
    removed=st.integers(0, 3),
    inserted=st.text(alphabet="0123456789-+ .,;:|eHIXC\n", max_size=4),
    truncate=st.booleans(),
)
def test_edited_file_loads_or_raises_format_error(start, removed, inserted, truncate):
    # the loader raises DatabaseFormatError for anything it cannot read;
    # no other exception escapes it
    end = len(_EDITABLE) if truncate else start + removed
    try:
        loads(_EDITABLE[:start] + inserted + _EDITABLE[end:])
    except DatabaseFormatError:
        pass


class TestQasmRenderingSurvivesLoad:
    def test_builtin_qasm_names_rederived(self, tmp_path):
        gs = gate_set("I", "H", "CX")
        db = build_database(GeneratorConfig(n=2, d=1, gate_set=gs))
        path = tmp_path / "db.qidb"
        save(db, path)
        loaded = load(path)
        assert loaded.meta.gate_set.by_name("CX").qasm_name == "cx"

    def test_param_gate_rederived(self, tmp_path):
        from qidopt.gates import I, U1, instantiate_param_gate
        from qidopt.gates import AngleExpr
        from fractions import Fraction
        from qidopt.gates import GateSet

        u1 = instantiate_param_gate(U1, [AngleExpr(pi_coeff=Fraction(1, 2))])
        db = build_database(GeneratorConfig(n=1, d=1, gate_set=GateSet([I, u1])))
        path = tmp_path / "db.qidb"
        save(db, path)
        loaded = load(path)
        g = loaded.meta.gate_set.by_name("U1[pi/2]")
        assert g.template == "u1"
        assert g.angles is not None
