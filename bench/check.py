"""The benchmark's own reference: a small state-vector evaluator with exact
gate matrices, looked up by name, and an ASAP scheduler for depth.

It shares no code with `qidopt` (not its QASM parser, its gate table or
its `circuit_unitary`), so a defect there cannot hide itself here.

Conventions match the program's: qubit 0 is the most significant tensor
factor, gates apply in text order, and a two-qubit matrix acts on its
(first, second) operands in that order, so `cx` controls on the first.

Not covered: `IdentityDatabase.decode` evaluates with the dp-rounded gate
table stored in the file. That defect (acceptance criterion 6) is tracked
by the failing tier-1 test; these checks use exact gates throughout.
"""

from __future__ import annotations

import re

import numpy as np

TOLERANCE = 1e-6
# up to this width the whole unitary is compared; above it, random states
FULL_UNITARY_MAX_QUBITS = 5
RANDOM_STATES = 3

_S2 = 1.0 / np.sqrt(2.0)
_T = np.exp(1j * np.pi / 4)

GATES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, _T]], dtype=complex),
    "CX": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}
QASM_NAMES = {"id": "I", "x": "X", "z": "Z", "h": "H", "s": "S", "t": "T", "cx": "CX"}

Op = tuple[str, tuple[int, ...]]


class CheckError(ValueError):
    """Text the reference cannot read, or an output that fails a check."""


_GATE_LINE = re.compile(r"^([a-z]+) q\[(\d+)\](?:,q\[(\d+)\])?;$")
_QREG_LINE = re.compile(r"^qreg q\[(\d+)\];$")


def parse_qasm(text: str) -> tuple[int, list[Op]]:
    """Qubit count and gate list of the QASM text the program reads and
    writes: one statement per line, register `q`, no angles."""
    n = None
    ops: list[Op] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith(("OPENQASM", "include")):
            continue
        m = _QREG_LINE.match(line)
        if m:
            n = int(m.group(1))
            continue
        m = _GATE_LINE.match(line)
        if not m or m.group(1) not in QASM_NAMES or n is None:
            raise CheckError(f"reference cannot read {line!r}")
        qubits = tuple(int(g) for g in m.groups()[1:] if g is not None)
        name = QASM_NAMES[m.group(1)]
        if GATES[name].shape[0] != 1 << len(qubits) or max(qubits) >= n:
            raise CheckError(f"bad operands in {line!r}")
        if len(set(qubits)) != len(qubits):
            raise CheckError(f"repeated operand in {line!r}")
        ops.append((name, qubits))
    if n is None:
        raise CheckError("no qreg declaration")
    return n, ops


def parse_encoding(enc: str) -> tuple[int, list[Op]]:
    """Qubit count and gate list of a database encoding such as
    `H,I|CX:C:1,CX:T:0` (layers by `|`, cells by `,`)."""
    ops: list[Op] = []
    n = None
    for layer in enc.split("|"):
        cells = layer.split(",")
        n = len(cells) if n is None else n
        if len(cells) != n:
            raise CheckError(f"ragged encoding {enc!r}")
        for q, tok in enumerate(cells):
            if ":" not in tok:
                ops.append((tok, (q,)))
                continue
            name, role, partner = tok.split(":")
            p = int(partner)
            if not (0 <= p < n) or cells[p] != f"{name}:{'T' if role == 'C' else 'C'}:{q}":
                raise CheckError(f"unpaired half {tok!r} in {enc!r}")
            if role == "C":
                ops.append((name, (q, p)))
    for name, _ in ops:
        if name not in GATES:
            raise CheckError(f"no exact matrix for gate {name!r}")
    return n, ops


def apply(ops: list[Op], n: int, states: np.ndarray) -> np.ndarray:
    """Apply the gates in order to the columns of `states` (2^n x B)."""
    batch = states.shape[1]
    psi = states.reshape((2,) * n + (batch,))
    for name, qubits in ops:
        k = len(qubits)
        g = GATES[name].reshape((2,) * (2 * k))
        psi = np.tensordot(g, psi, axes=(list(range(k, 2 * k)), list(qubits)))
        psi = np.moveaxis(psi, list(range(k)), list(qubits))
    return psi.reshape(1 << n, batch)


def probe_states(n: int, rng: np.random.Generator) -> np.ndarray:
    """Columns to compare two circuits on: every basis state up to
    FULL_UNITARY_MAX_QUBITS qubits (the whole unitary), else a few random
    normalized states."""
    if n <= FULL_UNITARY_MAX_QUBITS:
        return np.eye(1 << n, dtype=complex)
    z = rng.normal(size=(1 << n, RANDOM_STATES)) + 1j * rng.normal(
        size=(1 << n, RANDOM_STATES)
    )
    return z / np.linalg.norm(z, axis=0)


def asap_depth(ops: list[Op], n: int) -> int:
    """Layers after ASAP scheduling, Identity gates ignored."""
    frontier = [0] * n
    for name, qubits in ops:
        if name == "I":
            continue
        layer = max(frontier[q] for q in qubits) + 1
        for q in qubits:
            frontier[q] = layer
    return max(frontier, default=0)


def gate_count(ops: list[Op]) -> int:
    return sum(1 for name, _ in ops if name != "I")


def check_optimized(src: str, out: str, rng: np.random.Generator) -> dict:
    """Compare an optimized circuit with its input.

    Returns depths and gate counts of both. Raises CheckError when the
    output does not compute the input's unitary within TOLERANCE or is
    deeper than the input.
    """
    n, src_ops = parse_qasm(src)
    n_out, out_ops = parse_qasm(out)
    if n_out != n:
        raise CheckError(f"output has {n_out} qubits, input {n}")
    states = probe_states(n, rng)
    residual = float(np.max(np.abs(apply(src_ops, n, states) - apply(out_ops, n, states))))
    if not residual <= TOLERANCE:
        raise CheckError(f"output differs from input by {residual:.3e}")
    facts = {
        "depth_in": asap_depth(src_ops, n),
        "depth_out": asap_depth(out_ops, n),
        "gates_in": gate_count(src_ops),
        "gates_out": gate_count(out_ops),
    }
    if facts["depth_out"] > facts["depth_in"]:
        raise CheckError(f"output depth {facts['depth_out']} > input {facts['depth_in']}")
    return facts


def check_buckets(
    buckets: list[list[str]], rng: np.random.Generator, members: int = 16
) -> None:
    """Every sampled member of each bucket computes the same unitary as the
    bucket's first member under exact gates. Raises CheckError if not."""
    for encs in buckets:
        if len(encs) > members:
            picks = rng.choice(len(encs) - 1, size=members - 1, replace=False) + 1
            encs = [encs[0]] + [encs[int(i)] for i in sorted(picks)]
        n, ops = parse_encoding(encs[0])
        eye = np.eye(1 << n, dtype=complex)
        ref = apply(ops, n, eye)
        for enc in encs[1:]:
            n2, ops2 = parse_encoding(enc)
            diff = float(np.max(np.abs(apply(ops2, n2, eye) - ref))) if n2 == n else np.inf
            if not diff <= TOLERANCE:
                raise CheckError(f"bucket unsound: {encs[0]} vs {enc} differ by {diff:.3e}")
