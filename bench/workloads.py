"""The benchmark's workloads and its seeded input generator.

Every workload is one user of `qidopt`: it builds an identity database
(`gen-db`), loads it back (what `optimize --db` pays), and then optimizes a
stream of seeded circuits against it. The workloads differ in the input
properties the program's cost depends on: how many circuits share one
rounded unitary (bucket size), how wide the circuits are, and whether
their gates are all in the database.

The generator writes QASM text and generator configs directly. It does not
call `enumerate_layers` or any other program code: that code is under test,
and at 9 qubits `enumerate_layers` alone costs seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CX_FRAC = 0.3  # share of gates that are `cx`


@dataclass(frozen=True)
class Workload:
    name: str
    db_qubits: int
    db_depth: int
    db_gates: tuple[str, ...]
    circuit_qubits: int
    min_gates: int
    max_gates: int
    singles: tuple[str, ...]  # QASM tokens drawn for one-qubit gates
    extra_t_frac: float  # share of one-qubit gates replaced by a `t`
    neighbours_only: bool  # `cx` only on qubits q, q+1
    corpus: int  # distinct circuits per run; each is checked once
    setups: int  # database builds per run; set-up metrics are their medians
    loads: int  # back-to-back loads timed together after each set-up


WORKLOADS: dict[str, Workload] = {
    # Low duplication (3.6 circuits per bucket, 17,499 buckets): the build
    # is where the generator and fingerprint layers do nearly all the work,
    # and the file is the largest. The optimizer ranks small buckets.
    "gen-3q": Workload(
        "gen-3q", 3, 2, ("I", "H", "X", "Z", "S", "T", "CX"),
        circuit_qubits=3, min_gates=20, max_gates=60,
        singles=("h", "x", "z", "s", "t"), extra_t_frac=0.0,
        neighbours_only=False, corpus=300, setups=3, loads=5,
    ),
    # High duplication (91 circuits per bucket): `_candidate_order` ranks
    # ~90 members per lookup and `extract_tiles` re-cuts the circuit per
    # position, so the optimizer dominates the per-circuit cost. The `t`
    # gates are absent from the database, so some lookups fingerprint.
    "opt-deep": Workload(
        "opt-deep", 2, 4, ("I", "H", "X", "Z", "CX"),
        circuit_qubits=4, min_gates=40, max_gates=40,
        singles=("h", "x", "z"), extra_t_frac=0.1,
        neighbours_only=True, corpus=70, setups=3, loads=5,
    ),
    # Wide circuits against a small database: the two 512x512 whole-circuit
    # unitaries dominate, so a circuit-layer change shows here and an
    # optimizer change barely does.
    "opt-wide": Workload(
        "opt-wide", 2, 3, ("I", "H", "X", "Z", "CX"),
        circuit_qubits=9, min_gates=30, max_gates=30,
        singles=("h", "x", "z"), extra_t_frac=0.1,
        neighbours_only=True, corpus=16, setups=15, loads=20,
    ),
}


def circuit_qasm(rng: random.Random, wl: Workload, gate_count: int) -> str:
    """One random circuit of exactly `gate_count` gates as OpenQASM 2.0."""
    n = wl.circuit_qubits
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    for _ in range(gate_count):
        if rng.random() < CX_FRAC:
            if wl.neighbours_only:
                a = rng.randrange(n - 1)
                a, b = (a, a + 1) if rng.random() < 0.5 else (a + 1, a)
            else:
                a, b = rng.sample(range(n), 2)
            lines.append(f"cx q[{a}],q[{b}];")
        else:
            if rng.random() < wl.extra_t_frac:
                token = "t"
            else:
                token = rng.choice(wl.singles)
            lines.append(f"{token} q[{rng.randrange(n)}];")
    return "\n".join(lines) + "\n"


def corpus(wl: Workload, seed: int) -> list[str]:
    """The run's circuits, in the order they are optimized.

    Gate counts are spread evenly over [min_gates, max_gates] whatever the
    seed, so the seed changes only which gates a circuit holds and runs
    with different seeds see the same size mix.
    """
    rng = random.Random(f"{wl.name}:{seed}")
    span = wl.max_gates - wl.min_gates
    sizes = [wl.min_gates + (k * span) // max(wl.corpus - 1, 1) for k in range(wl.corpus)]
    rng.shuffle(sizes)
    return [circuit_qasm(rng, wl, size) for size in sizes]
