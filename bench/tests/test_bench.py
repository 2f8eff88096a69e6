"""Tests of the benchmark harness itself. Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
from check import (  # noqa: E402
    CheckError,
    asap_depth,
    check_buckets,
    check_optimized,
    parse_qasm,
)
from spans import Tracer, self_times, totals  # noqa: E402
from speed import REFERENCE_S, Speedometer, raw_seconds  # noqa: E402
from workloads import WORKLOADS, corpus  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def qasm(n, *gates):
    return "\n".join(["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];", *gates]) + "\n"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corpus_is_deterministic_per_seed(name):
    wl = WORKLOADS[name]
    first = corpus(wl, 11)
    assert first == corpus(wl, 11)
    assert first != corpus(wl, 12)
    assert len(first) == wl.corpus
    for text in first:
        n, ops = parse_qasm(text)
        assert n == wl.circuit_qubits
        assert wl.min_gates <= len(ops) <= wl.max_gates


def test_corpus_size_mix_does_not_depend_on_seed():
    wl = WORKLOADS["gen-3q"]
    sizes = [sorted(len(parse_qasm(t)[1]) for t in corpus(wl, s)) for s in (1, 2)]
    assert sizes[0] == sizes[1]


@pytest.mark.parametrize("n", [4, 9])
def test_checker_accepts_an_equivalent_output(n):
    src = qasm(n, "h q[0];", "h q[0];", "cx q[0],q[1];", "x q[1];", "cx q[0],q[1];")
    out = qasm(n, "x q[1];", "z q[0];", "z q[0];")
    facts = check_optimized(src, out, np.random.default_rng(0))
    assert facts == {"depth_in": 5, "depth_out": 2, "gates_in": 5, "gates_out": 3}


@pytest.mark.parametrize("n", [4, 9])
@pytest.mark.parametrize(
    "corrupt",
    [
        lambda s: s.replace("x q[1];", "z q[1];"),  # wrong gate
        lambda s: s.replace("x q[1];\n", ""),  # dropped gate
        lambda s: s.replace("cx q[0],q[1];", "cx q[1],q[0];"),  # swapped operands
        lambda s: s.replace("h q[2];", "h q[3];"),  # wrong qubit
    ],
)
def test_checker_rejects_a_corrupted_output(n, corrupt):
    src = qasm(n, "h q[2];", "cx q[0],q[1];", "x q[1];", "t q[0];")
    bad = corrupt(src)
    assert bad != src
    with pytest.raises(CheckError):
        check_optimized(src, bad, np.random.default_rng(0))


def test_checker_rejects_a_deeper_output():
    src = qasm(2, "h q[0];", "h q[1];")
    out = qasm(2, "h q[0];", "z q[1];", "z q[1];", "h q[1];")
    with pytest.raises(CheckError, match="depth"):
        check_optimized(src, out, np.random.default_rng(0))


def test_checker_rejects_unreadable_output():
    with pytest.raises(CheckError):
        check_optimized(qasm(2, "h q[0];"), qasm(2, "u1(pi) q[0];"), np.random.default_rng(0))


def test_asap_depth_ignores_identity_and_packs_disjoint_gates():
    _, ops = parse_qasm(qasm(3, "h q[0];", "id q[1];", "x q[2];", "cx q[0],q[1];", "z q[2];"))
    assert asap_depth(ops, 3) == 2


def test_bucket_check_uses_exact_gates():
    rng = np.random.default_rng(0)
    check_buckets([["I,I|I,I", "H,I|H,I", "CX:C:1,CX:T:0|CX:C:1,CX:T:0"]], rng)
    check_buckets([["T,I|T,I", "S,I|I,I"]], rng)
    with pytest.raises(CheckError, match="unsound"):
        check_buckets([["H,I", "X,I"]], rng)
    with pytest.raises(CheckError, match="unsound"):
        check_buckets([["CX:C:1,CX:T:0", "CX:T:1,CX:C:0"]], rng)


def test_self_time_subtracts_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.x", 2.0, 3.0, 1, 0),
        ("b", 5.0, 6.5, 0, 0),
        ("other", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])
    tot = totals(spans)
    assert tot["root"] == pytest.approx({"calls": 1, "s": 10.0, "self_s": 5.5})
    assert tot["missing"] == {"calls": 0, "s": 0.0, "self_s": 0.0}


def test_tracer_records_nesting_and_restores():
    class Mod:
        @staticmethod
        def outer(x):
            return Mod.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    tracer = Tracer()
    tracer.wrap(Mod, "outer", "outer")
    tracer.wrap(Mod, "inner", lambda parent: f"inner<{parent}>",
                lambda t, args, result: t.counts.__setitem__("seen", result))
    tracer.op = 7
    assert Mod.outer(3) == 7
    tracer.restore()
    assert Mod.outer(3) == 7 and len(tracer.spans) == 2
    (inner, outer) = sorted(tracer.spans, key=lambda s: s[0])
    assert outer[0] == "outer" and outer[3] == -1 and outer[4] == 7
    assert inner[0] == "inner<outer>" and inner[3] == tracer.spans.index(outer)
    assert tracer.counts["seen"] == 6


def _meter(starts, durations):
    meter = Speedometer()
    meter.starts, meter.durations = list(starts), list(durations)
    meter.costs = [2 * d for d in durations]  # warm-up run plus timed run
    return meter


def test_speed_correction_removes_sample_time_and_scales_by_speed():
    # ten samples inside [0, 1), each timing twice the reference time
    meter = _meter([0.1 * k for k in range(10)], [2 * REFERENCE_S] * 10)
    busy = 1.0 - 40 * REFERENCE_S
    assert meter.seconds(0.0, 1.0) == pytest.approx(busy / 2)


def test_speed_correction_of_a_short_stage_uses_the_nearest_samples():
    # samples at 0..9 s; the stage [4.5, 4.6] holds none, so the five
    # nearest (3..7 s) set its speed, and no sample time is subtracted
    durations = [REFERENCE_S * (1 + k) for k in range(10)]
    meter = _meter(range(10), durations)
    assert meter.seconds(4.5, 4.6) == pytest.approx(0.1 / 6)


def test_speedometer_samples_while_active():
    with Speedometer() as meter:
        t0 = harness.clock()
        while harness.clock() - t0 < 0.3:
            pass
        t1 = harness.clock()
    assert len(meter.starts) >= 5
    assert meter.seconds(t0, t1) > 0


def test_spec_names_workloads_and_reference():
    assert [w["name"] for w in SPEC["workloads"]] == sorted(WORKLOADS)
    assert set(harness.reference()["databases"]) == set(WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


def _setup(build_s):
    return harness.SetUp(
        None, None, [], (0.0, build_s + 0.5), (0.2, 0.2 + build_s), (0.2 + build_s, 0.3 + build_s),
        (5.0, 6.0), 4, 1000, 10,
    )


def test_end_to_end_names_match_spec():
    p = harness.Pass(
        latencies=[(0.0, 0.1 * (k + 1)) for k in range(20)],
        facts=[{"depth_in": 4, "depth_out": 3, "gates_in": 8, "gates_out": 5}],
    )
    setups = [_setup(1.0), _setup(2.0), _setup(3.0)]
    metrics = harness.end_to_end(setups, p, 100, raw_seconds)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert metrics["gen_db_s"] == pytest.approx(2.1)
    assert metrics["build_circuits_per_s"] == pytest.approx(50.0)
    assert metrics["load_db_s"] == pytest.approx(0.25)
    assert metrics["depth_ratio"] == 0.75 and metrics["gates_ratio"] == 0.625
    assert all(v > 0 for v in metrics.values())


def test_traced_optimize_gives_every_per_layer_metric():
    """A real, small traced run through the program's own modules."""
    tracer = Tracer()
    qidopt = harness.import_program()
    harness.instrument(tracer, qidopt)
    try:
        gates = qidopt.GateSet([qidopt.BUILTIN_GATES[g] for g in ("I", "H", "CX")])
        db = qidopt.generator.build_database(qidopt.GeneratorConfig(n=2, d=2, gate_set=gates))
        text = qasm(3, "h q[0];", "h q[0];", "cx q[1],q[2];", "h q[2];", "h q[2];")
        out, report = qidopt.optimizer.optimize(qidopt.qasm.parse(text), db)
        qidopt.qasm.emit(out)
    finally:
        tracer.restore()
    s = harness.SetUp(
        qidopt, db, [text], (0, 1.0), (0, 0.5), (0.5, 0.6), None, 0, 100,
        len(db.by_fingerprint),
    )
    metrics = harness.per_layer(tracer, s, harness.Pass(reports=[report]), 1.05)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert metrics["circuit.global_unitary_calls"] == 2
    assert metrics["circuit.tile_unitary_calls"] > 0
    assert metrics["fingerprint.calls"] == db.total_circuits
    assert metrics["optimizer.substitutions"] == len(report.substitutions) > 0
    assert qidopt.optimizer.optimize.__name__ == "optimize"  # wrappers removed
