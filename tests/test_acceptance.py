"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints an `ACCEPTANCE CRITERION k: PASS/FAIL` line through the
hook in conftest.py.
"""

import random
import time

import pytest

from conftest import gate, gate_set, grid

from qidopt.circuit import (
    CircuitGrid,
    asap_depth,
    circuit_unitary,
    effective_depth,
    gate_list,
    pack,
    validate,
)
from qidopt.cli import EXIT_OK, main
from qidopt.database import encode_circuit, load, save
from qidopt.fingerprint import canonicalize, fingerprint
from qidopt.generator import (
    GeneratorConfig,
    build_database,
    enumerate_layers,
    scaling_count,
)
from qidopt.matrices import max_abs_diff
from qidopt.optimizer import (
    TileClass,
    TileSpec,
    classify_tile,
    extract_tiles,
    optimize,
)
from qidopt.qasm import emit, parse

FIG2_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[1];
cx q[0],q[1];
z q[0];
z q[1];
cx q[0],q[1];
h q[1];
"""


def keyvals(capsys):
    pairs = {}
    for line in capsys.readouterr().out.splitlines():
        if ": " in line:
            k, v = line.split(": ", 1)
            pairs[k] = v
    return pairs


def test_criterion_01_count_law(capsys):
    t0 = time.monotonic()
    assert main(["count", "--qubits", "2", "--depth", "1", "--g", "3", "--t", "0"]) == EXIT_OK
    assert keyvals(capsys)["total_circuits"] == "9"
    assert main(["count", "--qubits", "3", "--depth", "1", "--g", "1", "--t", "1"]) == EXIT_OK
    assert keyvals(capsys)["total_circuits"] == "7"

    arity1 = ["I", "X", "Y", "Z", "H", "S"]
    arity2 = ["CX", "CZ"]
    for n in (1, 2, 3):
        for g in range(1, 7):
            for t in (0, 1, 2):
                gs = gate_set(*(arity1[:g] + arity2[:t]))
                per_layer = len(enumerate_layers(n, gs))
                for d in (1, 2, 3):
                    assert per_layer**d == scaling_count(n, d, g, t), (n, g, t, d)
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_headline_depth_five_to_one(tmp_path, capsys):
    db_path = tmp_path / "db.qidb"
    t0 = time.monotonic()
    assert main(["gen-db", "--gates", "I,H,X,Z,CX", "--qubits", "2", "--depth", "3",
                 "--dp", "8", "--out", str(db_path)]) == EXIT_OK
    build_time = time.monotonic() - t0
    assert keyvals(capsys)["circuits"] == "5832"
    assert build_time < 10.0

    src = tmp_path / "fig2.qasm"
    src.write_text(FIG2_QASM)
    out = tmp_path / "fig2_opt.qasm"
    t0 = time.monotonic()
    assert main(["optimize", str(src), "--db", str(db_path), "--out", str(out)]) == EXIT_OK
    opt_time = time.monotonic() - t0
    vals = keyvals(capsys)
    assert vals["final_depth"] == "1"
    assert opt_time < 1.0

    optimized = parse(out.read_text())
    assert encode_circuit(optimized) == "I,X"  # the only gate: X on q1

    assert main(["verify", str(src), str(out), "--tolerance", "1e-6"]) == EXIT_OK


def test_criterion_03_known_identity_reductions():
    # A: H,H -> empty
    db = build_database(GeneratorConfig(n=1, d=2, gate_set=gate_set("I", "H")))
    out, rep = optimize(grid("H", "H"), db)
    assert rep.final_depth == 0 and rep.residual <= 1e-6

    # B: T,T† -> empty
    db = build_database(GeneratorConfig(n=1, d=2, gate_set=gate_set("I", "T", "TDG")))
    out, rep = optimize(grid("T", "TDG"), db)
    assert rep.final_depth == 0 and rep.residual <= 1e-6

    # C: (H⊗H)·CX·(H⊗H) -> reversed CX
    db = build_database(GeneratorConfig(n=2, d=3, gate_set=gate_set("I", "H", "CX")))
    out, rep = optimize(grid("H,H", "CX:C:1,CX:T:0", "H,H"), db)
    assert rep.final_depth == 1 and rep.residual <= 1e-6
    assert encode_circuit(out) == "CX:T:1,CX:C:0"

    # D: H,H / Z,I / CX / H,H -> depth 2 (needs depth-4 identities)
    db = build_database(
        GeneratorConfig(n=2, d=4, gate_set=gate_set("I", "H", "X", "Z", "CX"))
    )
    c = grid("H,H", "Z,I", "CX:C:1,CX:T:0", "H,H")
    out, rep = optimize(c, db)
    assert rep.final_depth == 2 and rep.residual <= 1e-6


def test_criterion_04_sandwich_reductions(db_ihxzcx):
    dbz = build_database(GeneratorConfig(n=2, d=3, gate_set=gate_set("I", "Z", "CZ")))

    # A: CZ·(Z⊗I)·CZ -> Z on q0
    out, rep = optimize(grid("CZ:C:1,CZ:T:0", "Z,I", "CZ:C:1,CZ:T:0"), dbz)
    assert rep.final_depth == 1 and rep.residual <= 1e-6
    assert encode_circuit(out) == "Z,I"

    # B: CZ·(I⊗Z)·CZ -> Z on q1
    out, rep = optimize(grid("CZ:C:1,CZ:T:0", "I,Z", "CZ:C:1,CZ:T:0"), dbz)
    assert rep.final_depth == 1 and rep.residual <= 1e-6
    assert encode_circuit(out) == "I,Z"

    # C: (I⊗H)·CX·(I⊗X)·CX·(I⊗H) -> Z on q1
    c = grid("I,H", "CX:C:1,CX:T:0", "I,X", "CX:C:1,CX:T:0", "I,H")
    out, rep = optimize(c, db_ihxzcx)
    assert rep.final_depth == 1 and rep.residual <= 1e-6
    assert encode_circuit(out) == "I,Z"

    # D: (I⊗H)·CX·(Z⊗Z)·CX·(I⊗H) -> X on q1
    c = grid("I,H", "CX:C:1,CX:T:0", "Z,Z", "CX:C:1,CX:T:0", "I,H")
    out, rep = optimize(c, db_ihxzcx)
    assert rep.final_depth == 1 and rep.residual <= 1e-6
    assert encode_circuit(out) == "I,X"


def test_criterion_05_novel_identities():
    # S†-conjugated CX carries the controlled-Y fingerprint at dp=8
    cy_circuit = grid("I,SDG", "CX:C:1,CX:T:0", "I,S")
    assert fingerprint(circuit_unitary(cy_circuit), 8) == fingerprint(
        gate("CY").matrix, 8
    )

    # the depth-5 {S,H,CX} circuit equals iSWAP
    iswap_circuit = grid(
        "S,S", "H,I", "CX:C:1,CX:T:0", "CX:T:1,CX:C:0", "I,H"
    )
    assert max_abs_diff(circuit_unitary(iswap_circuit), gate("ISWAP").matrix) <= 1e-8

    # the 7-layer circuit equals reversed-CX followed by CX
    seven = grid(
        "I,SDG",
        "CX:C:1,CX:T:0",
        "S,S",
        "H,I",
        "CX:C:1,CX:T:0",
        "CX:T:1,CX:C:0",
        "I,H",
    )
    two = grid("CX:T:1,CX:C:0", "CX:C:1,CX:T:0")
    assert max_abs_diff(circuit_unitary(seven), circuit_unitary(two)) <= 1e-8


def test_criterion_06_bucket_soundness_exhaustive(db_ihxzcx):
    t0 = time.monotonic()
    dp = db_ihxzcx.meta.dp
    total = 0
    for encs in db_ihxzcx.by_fingerprint.values():
        forms = {
            canonicalize(circuit_unitary(db_ihxzcx.decode(enc)), dp) for enc in encs
        }
        assert len(forms) == 1, f"bucket not sound: {encs[:3]}..."
        total += len(encs)
    assert total == 5832
    assert time.monotonic() - t0 < 30.0


def test_criterion_07_semantic_preservation_fuzz(db_ihxzcx, rng):
    t0 = time.monotonic()
    layers = enumerate_layers(2, db_ihxzcx.meta.gate_set)
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        picks = rng.integers(0, len(layers), size=m)
        c = CircuitGrid(2, tuple(layers[i] for i in picks))
        out, rep = optimize(c, db_ihxzcx)
        assert rep.residual <= 1e-6
        assert rep.final_depth <= rep.initial_depth
        assert validate(out) == []
    assert time.monotonic() - t0 < 120.0


def test_criterion_08_tile_mechanics():
    # window counts, the paper's four-tile case among them
    cases = [(3, 3, 2, 2, 4), (2, 2, 2, 2, 1), (2, 7, 2, 3, 5), (3, 4, 2, 3, 4)]
    for n, m, i, j, want in cases:
        c = CircuitGrid(n, tuple(grid(",".join(["H"] * n)).layers[0] for _ in range(m)))
        assert len(extract_tiles(c, TileSpec(i, j))) == want

    # boundary-cut classification fixtures
    fig11 = grid("H,Y,S", "CX:C:1,CX:T:0,H", "I,X,I", "S,S,H")
    windows = extract_tiles(fig11, TileSpec(2, 3))
    mid_cut = next(t for t in windows if (t.qubit_offset, t.layer_offset) == (1, 0))
    assert classify_tile(mid_cut) is TileClass.INVALID
    edge_cut = next(t for t in windows if (t.qubit_offset, t.layer_offset) == (1, 1))
    assert classify_tile(edge_cut) is TileClass.VALID_WITH_CUT


def test_criterion_09_byte_determinism(tmp_path):
    args = ["gen-db", "--gates", "I,H,X,Z,CX", "--qubits", "2", "--depth", "3"]
    a, b = tmp_path / "a.qidb", tmp_path / "b.qidb"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()

    roundtrip = tmp_path / "rt.qidb"
    save(load(a), roundtrip)
    assert roundtrip.read_bytes() == a.read_bytes()


def test_criterion_10_qasm_round_trip(rng):
    gs = gate_set(
        "I", "X", "Y", "Z", "H", "S", "SDG", "T", "TDG", "CX", "CZ", "CY", "SWAP", "ISWAP"
    )
    pools = {n: enumerate_layers(n, gs) for n in (1, 2, 3)}
    for k in range(200):
        n = int(rng.integers(1, 4))
        layers = pools[n]
        m = int(rng.integers(1, 6))
        picks = rng.integers(0, len(layers), size=m)
        c = CircuitGrid(n, tuple(layers[i] for i in picks))
        back = parse(emit(c))
        assert max_abs_diff(circuit_unitary(c), circuit_unitary(back)) <= 1e-12


SELF_INVERSE = {"H", "X", "Z", "CX"}


def cancel_adjacent(gates, n):
    """A test-local cancellation pass: a self-inverse gate (h, x, z, cx)
    cancels the gate right before it on each of its qubits when that is
    the same gate on the same operands; what a cancellation uncovers may
    cancel in turn."""
    out, tops = [], [[] for _ in range(n)]  # kept gates; per qubit, its kept gates
    for qs, g in gates:
        below = {tops[x][-1] if tops[x] else None for x in qs}
        if g.name in SELF_INVERSE and len(below) == 1 and None not in below:
            (k,) = below
            if out[k] == (qs, g):
                out[k] = None
                for x in qs:
                    tops[x].pop()
                continue
        for x in qs:
            tops[x].append(len(out))
        out.append((qs, g))
    return [gate for gate in out if gate is not None]


def criterion_11_corpus(seed, n, tokens, count=40, size=(20, 40)):
    """Seeded (n, gate list) pairs on n qubits; `cx` on any pair."""
    rng = random.Random(f"criterion-11:{seed}")
    gates = {t: gate(t.upper()) for t in tokens}
    corpus = []
    for _ in range(count):
        gl = []
        for _ in range(rng.randint(*size)):
            if rng.random() < 0.3:
                gl.append((tuple(rng.sample(range(n), 2)), gate("CX")))
            else:
                gl.append(((rng.randrange(n),), gates[rng.choice(tokens)]))
        corpus.append((n, gl))
    return corpus


def test_criterion_11_beats_a_cancellation_pass(db_ihxzcx):
    # generated identities beat simple ones: over seeded corpora, the
    # optimizer's output has less total depth and fewer gates than the
    # same circuits after a pass that cancels adjacent equal gates
    phases = gate_set("I", "H", "X", "Z", "S", "T", "CX")
    phase_db = build_database(GeneratorConfig(n=2, d=2, gate_set=phases))
    runs = [
        (db_ihxzcx, criterion_11_corpus(1, 4, "hxz")),
        (phase_db, criterion_11_corpus(2, 3, "hxzst")),
    ]
    for db, corpus in runs:
        totals = {"optimize": [0, 0], "cancel": [0, 0]}
        for n, gates in corpus:
            c = pack(gates, n)
            out, report = optimize(c, db)
            assert report.residual <= 1e-12
            kept = cancel_adjacent(gates, n)
            for name, depth, count in (
                ("optimize", report.final_depth, len(gate_list(out))),
                ("cancel", asap_depth(kept, n), len(kept)),
            ):
                totals[name][0] += depth
                totals[name][1] += count
        assert totals["optimize"][0] < totals["cancel"][0], totals
        assert totals["optimize"][1] < totals["cancel"][1], totals
