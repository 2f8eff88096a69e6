"""Runs one workload and computes its metrics (see README.md).

An untraced run sets up `setups` times (fresh import of `qidopt`, build,
save, load, input generation); after each set-up it optimizes the corpus
in turn for its share of the given seconds, and it reports the end-to-end
metrics, each timing corrected for the host's speed (`speed.py`). A traced run sets up once to warm up, then does one untraced and
one traced set-up and pass over the corpus, and reports the per-layer
metrics of the traced one.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import inspect
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType

import numpy as np

from check import CheckError, check_buckets, check_optimized
from spans import Tracer, totals
from speed import Speedometer, raw_seconds
from workloads import WORKLOADS, Workload, corpus

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
BUCKET_SAMPLE = 24  # buckets re-evaluated with exact gates on the first set-up

clock = time.perf_counter

Interval = tuple[float, float]  # `clock` readings at a stage's start and end


def reference() -> dict:
    return json.loads((BENCH_DIR / "reference.json").read_text())


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"failed: {problem}", file=sys.stderr)


@dataclass
class SetUp:
    program: ModuleType
    db: object  # the loaded IdentityDatabase, as `optimize --db` sees it
    circuits: list[str]
    setup: Interval
    build: Interval
    save: Interval
    loads: Interval | None  # `load_reps` back-to-back loads (untraced runs)
    load_reps: int
    qidb_bytes: int
    buckets: int


def import_program() -> ModuleType:
    """A fresh import of `qidopt`, so module-level work and caches start
    cold, as in a new process."""
    for name in [m for m in sys.modules if m == "qidopt" or m.startswith("qidopt.")]:
        del sys.modules[name]
    return importlib.import_module("qidopt")


def set_up(
    wl: Workload,
    seed: int,
    tally: Tally,
    workdir: Path,
    deep_checks: bool,
    tracer: Tracer | None = None,
) -> SetUp:
    """What a user pays before optimizing: `gen-db`, then the load of
    `optimize --db`, plus the harness's input generation."""
    gc.collect()  # each timed stage starts from the same collector state
    t0 = clock()
    qidopt = import_program()
    if tracer is not None:
        instrument(tracer, qidopt)
    gates = qidopt.GateSet([qidopt.BUILTIN_GATES[g] for g in wl.db_gates])
    cfg = qidopt.GeneratorConfig(n=wl.db_qubits, d=wl.db_depth, gate_set=gates)
    t1 = clock()
    built = qidopt.generator.build_database(cfg)
    t2 = clock()
    path = workdir / f"{wl.name}.qidb"
    qidopt.database.save(built, path)
    t3 = clock()
    db = qidopt.database.load(path)
    circuits = corpus(wl, seed)
    t5 = clock()

    loads = None
    if tracer is None:
        # a batch holds enough speed samples even when one load takes ms
        gc.collect()
        t = clock()
        for _ in range(wl.loads):
            qidopt.database.load(path)
        loads = (t, clock())

    data = path.read_bytes()
    tally.record(check_database(wl, qidopt, built, db, data, seed, deep_checks))
    return SetUp(
        qidopt, db, circuits, (t0, t5), (t1, t2), (t2, t3), loads, wl.loads, len(data),
        len(db.by_fingerprint),
    )


def check_database(wl, qidopt, built, db, data: bytes, seed: int, deep: bool) -> str | None:
    """A problem with the built or loaded database, or None."""
    want = reference()["databases"][wl.name]
    got = {
        "circuits": built.total_circuits,
        "buckets": len(built.by_fingerprint),
        "bytes": len(data),
        "md5": hashlib.md5(data).hexdigest(),
    }
    if got != want:
        return f"database {got} != expected {want}"
    if (db.total_circuits, len(db.by_fingerprint)) != (want["circuits"], want["buckets"]):
        return "loaded database differs from the built one"
    if not deep:
        return None
    if qidopt.database.dumps(db).encode("utf-8") != data:
        return "dumps(load(file)) differs from the file"
    shared = [encs for _, encs in sorted(
        ((fp.hex, encs) for fp, encs in db.by_fingerprint.items() if len(encs) > 1)
    )]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(shared), size=min(BUCKET_SAMPLE, len(shared)), replace=False)
    sample = [shared[int(i)] for i in picks] + [max(shared, key=len)]
    try:
        check_buckets(sample, rng)
    except CheckError as e:
        return str(e)
    return None


@dataclass
class Pass:
    done: int = 0  # ops attempted so far; op i optimizes circuit i % corpus
    latencies: list[Interval] = field(default_factory=list)
    outputs: list[str | None] = field(default_factory=list)
    facts: list[dict] = field(default_factory=list)
    reports: list = field(default_factory=list)


def optimize_corpus(
    s: SetUp,
    p: Pass,
    seconds: float,
    tally: Tally,
    rng: np.random.Generator,
    finish_pass: bool,
    tracer: Tracer | None = None,
    expect: list[str | None] | None = None,
) -> None:
    """Parse -> optimize -> emit circuits of the corpus in turn for
    `seconds`, continuing `p` where it stopped; with `finish_pass`, go on
    until every circuit has run once.

    On the first pass each output is checked against the harness's
    reference (and, with `expect`, must equal an already checked pass); on
    later passes it must equal the first pass's output.
    """
    qasm, optimizer = s.program.qasm, s.program.optimizer
    count = len(s.circuits)
    if not p.outputs:
        p.outputs = [None] * count
    start = clock()
    while clock() - start < seconds or (finish_pass and p.done < count):
        k = p.done % count
        p.done += 1
        if tracer is not None:
            tracer.op = p.done
        text = s.circuits[k]
        t = clock()
        try:
            out, report = optimizer.optimize(qasm.parse(text), s.db)
            out_text = qasm.emit(out)
        except Exception as e:  # an op that raises is counted as failed
            traceback.print_exc(file=sys.stderr)
            tally.record(f"circuit {k}: {type(e).__name__}: {e}")
            continue
        p.latencies.append((t, clock()))
        problem = None
        if p.done <= count:
            p.outputs[k] = out_text
            p.reports.append(report)
            try:
                p.facts.append(check_optimized(text, out_text, rng))
            except CheckError as e:
                problem = f"circuit {k}: {e}"
            if expect is not None and out_text != expect[k]:
                problem = f"circuit {k}: output differs from the untraced run"
        elif out_text != p.outputs[k]:
            problem = f"circuit {k}: output changed between passes"
        tally.record(problem)


def quality(p: Pass) -> tuple[float, float]:
    """(depth ratio, gate-count ratio) of the checked first pass."""
    depth_in = sum(f["depth_in"] for f in p.facts)
    gates_in = sum(f["gates_in"] for f in p.facts)
    return (
        sum(f["depth_out"] for f in p.facts) / depth_in,
        sum(f["gates_out"] for f in p.facts) / gates_in,
    )


def end_to_end(setups: list[SetUp], p: Pass, circuits: int, seconds) -> dict[str, float]:
    """The end-to-end metrics; `seconds(t0, t1)` turns an interval into
    the seconds reported for it."""
    build_s = statistics.median(seconds(*s.build) for s in setups)
    depth_ratio, gates_ratio = quality(p)
    return {
        "setup_s": statistics.median(seconds(*s.setup) for s in setups),
        "gen_db_s": statistics.median(seconds(s.build[0], s.save[1]) for s in setups),
        "build_circuits_per_s": circuits / build_s,
        "load_db_s": statistics.median(seconds(*s.loads) / s.load_reps for s in setups),
        "qidb_bytes": setups[-1].qidb_bytes,
        "opt_p50_s": statistics.median(seconds(*t) for t in p.latencies),
        "depth_ratio": depth_ratio,
        "gates_ratio": gates_ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def instrument(tracer: Tracer, qidopt: ModuleType) -> None:
    """Wrap the module attributes through which the program calls into
    each layer, so every call records a span."""
    gen, dbm, opt, qasm = qidopt.generator, qidopt.database, qidopt.optimizer, qidopt.qasm

    def count(key: str, amount):
        def note(t: Tracer, args, result) -> None:
            t.counts[key] += amount(args, result)
        return note

    w = tracer.wrap
    w(gen, "build_database", "generator.build_database")
    w(gen, "enumerate_layers", "generator.enumerate_layers")
    w(gen, "fingerprint", "fingerprint.build")
    w(dbm, "save", "database.save")
    w(dbm, "load", "database.load")
    w(dbm.IdentityDatabase, "decode", "database.decode")
    w(qasm, "parse", "qasm.parse")
    w(qasm, "emit", "qasm.emit")
    w(opt, "optimize", "optimizer.optimize")
    w(opt, "_sweep", "optimizer.sweep")
    w(opt, "extract_tiles", "optimizer.extract_tiles",
      count("tiles_built", lambda a, r: len(r)))
    w(opt, "lookup", "optimizer.lookup", count("lookup_hits", lambda a, r: bool(r)))
    w(opt, "_candidate_order", "optimizer.rank",
      count("candidates_ranked", lambda a, r: len(a[1])))
    w(opt, "apply_substitution", "optimizer.apply")
    w(opt, "fingerprint", "fingerprint.lookup")
    # whole-circuit checks run straight from optimize; tile and candidate
    # unitaries run inside a sweep or a lookup
    w(opt, "circuit_unitary", lambda parent: (
        "circuit.global_unitary" if parent == "optimizer.optimize" else "circuit.tile_unitary"
    ))
    w(opt, "effective_depth", "circuit.effective_depth")


def per_layer(tracer: Tracer, s: SetUp, p: Pass, overhead: float) -> dict[str, float]:
    tot = totals(tracer.spans)
    counts = tracer.counts
    substitutions = sum(len(r.substitutions) for r in p.reports)
    depth_gained = sum(r.initial_depth - r.final_depth for r in p.reports)
    # sweeps stop at optimize's `iters` cap when no fixpoint is reached
    cap = inspect.signature(s.program.optimizer.optimize).parameters["iters"].default

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "generator.self_s": tot["generator.build_database"]["self_s"],
        "generator.enumerate_layers_s": tot["generator.enumerate_layers"]["s"],
        "fingerprint.calls": tot["fingerprint.build"]["calls"],
        "fingerprint.self_s": tot["fingerprint.build"]["self_s"],
        "fingerprint.calls_per_bucket": ratio(tot["fingerprint.build"]["calls"], s.buckets),
        "database.save_s": tot["database.save"]["s"],
        "database.load_s": tot["database.load"]["s"],
        "database.decode_calls": tot["database.decode"]["calls"],
        "database.decode_s": tot["database.decode"]["s"],
        "optimizer.extract_tiles_calls": tot["optimizer.extract_tiles"]["calls"],
        "optimizer.extract_tiles_s": tot["optimizer.extract_tiles"]["s"],
        "optimizer.tiles_built": counts["tiles_built"],
        "optimizer.lookup_calls": tot["optimizer.lookup"]["calls"],
        "optimizer.lookup_s": tot["optimizer.lookup"]["s"],
        "optimizer.lookup_hit_frac": ratio(counts["lookup_hits"], tot["optimizer.lookup"]["calls"]),
        "optimizer.rank_calls": tot["optimizer.rank"]["calls"],
        "optimizer.rank_s": tot["optimizer.rank"]["s"],
        "optimizer.candidates_ranked": counts["candidates_ranked"],
        "optimizer.apply_calls": tot["optimizer.apply"]["calls"],
        "optimizer.apply_s": tot["optimizer.apply"]["s"],
        "optimizer.apply_accept_frac": ratio(substitutions, tot["optimizer.apply"]["calls"]),
        "optimizer.self_s": tot["optimizer.optimize"]["self_s"] + tot["optimizer.sweep"]["self_s"],
        "optimizer.sweeps": sum(r.iterations for r in p.reports),
        "optimizer.capped_frac": ratio(sum(r.iterations >= cap for r in p.reports), len(p.reports)),
        "optimizer.substitutions": substitutions,
        "optimizer.depth_gained": depth_gained,
        "optimizer.subs_per_depth_gained": ratio(substitutions, depth_gained),
        "optimizer.collisions_skipped": sum(r.collisions_skipped for r in p.reports),
        "circuit.global_unitary_calls": tot["circuit.global_unitary"]["calls"],
        "circuit.global_unitary_s": tot["circuit.global_unitary"]["s"],
        "circuit.tile_unitary_calls": tot["circuit.tile_unitary"]["calls"],
        "circuit.tile_unitary_s": tot["circuit.tile_unitary"]["s"],
        "circuit.effective_depth_calls": tot["circuit.effective_depth"]["calls"],
        "circuit.effective_depth_s": tot["circuit.effective_depth"]["s"],
        "qasm.parse_s": tot["qasm.parse"]["s"],
        "qasm.emit_s": tot["qasm.emit"]["s"],
        "trace.overhead_frac": overhead,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: the result object the benchmark prints, metrics unitless."""
    wl = WORKLOADS[workload]
    tally = Tally()
    rng = np.random.default_rng(seed)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        if not trace:
            # set-ups and optimize segments alternate, so every metric
            # samples the whole run rather than one stretch of it
            setups, p = [], Pass()
            with Speedometer() as meter:
                for k in range(wl.setups):
                    s = set_up(wl, seed, tally, workdir, deep_checks=k == 0)
                    setups.append(s)
                    optimize_corpus(s, p, seconds / wl.setups, tally, rng, k == wl.setups - 1)
                    s.db = s.program = None  # free before the next build
            circuits = reference()["databases"][wl.name]["circuits"]
            metrics = end_to_end(setups, p, circuits, meter.seconds)
            raw = end_to_end(setups, p, circuits, raw_seconds)
            print("uncorrected:", json.dumps({k: raw[k] for k in raw if k.endswith("_s")}),
                  file=sys.stderr)
        else:
            # the first set-up in a process pays for fresh memory; keep it
            # out of both sides of the overhead ratio
            set_up(wl, seed, tally, workdir, deep_checks=True)
            plain = set_up(wl, seed, tally, workdir, deep_checks=False)
            p0 = Pass()
            optimize_corpus(plain, p0, 0, tally, rng, True)
            untraced_s = raw_seconds(*plain.setup) + sum(raw_seconds(*t) for t in p0.latencies)
            plain = None
            tracer = Tracer()
            try:
                traced = set_up(wl, seed, tally, workdir, deep_checks=False, tracer=tracer)
                p1 = Pass()
                optimize_corpus(traced, p1, 0, tally, rng, True, tracer, expect=p0.outputs)
            finally:
                tracer.restore()
            traced_s = raw_seconds(*traced.setup) + sum(raw_seconds(*t) for t in p1.latencies)
            metrics = per_layer(tracer, traced, p1, traced_s / untraced_s)
            tracer.write(OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl.gz")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
