"""Exhaustive enumeration of circuits over a gate set and construction of
the identity database.

Enumeration order is fixed: layers come out in lexicographic order (qubit
index major, gate declaration order; two-qubit placements after singles
for each anchor qubit, partner ascending, first-operand orientation before
second), and circuits are the depth-fold Cartesian product of layers with
the first layer's index slowest. Database files are therefore reproducible
byte for byte.

`build_database` makes the products one block per (d−1)-layer prefix: the
prefix product, then one batched product with all L layer matrices, so a
block holds L·4ⁿ complex entries (L·4ⁿ·16 bytes). Each block is rounded
in one call, and most circuits repeat a rounded unitary already seen, so
the canonical text and MD5 are made once per distinct rounded form: the
block's circuits whose rounded form is new are fingerprinted together,
in one `fingerprint` call per block, which renders them a slice at a
time (see `fingerprint`). The form table is keyed on the 16-byte MD5 of
the rounded int64 row, not on the row itself (4 KB per key at n=4); that
key carries the same collision risk as the database's own MD5
fingerprint.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .circuit import CircuitGrid, Layer, half, layer_is_identity, layer_unitary, single
from .database import DatabaseMeta, IdentityDatabase, check_gate_table, encode_cell
from .fingerprint import _rounded_components, fingerprint
from .gates import GateSet
from .matrices import identity

DEFAULT_MAX_CIRCUITS = 10**7
MAX_QUBITS = 4
MAX_DEPTH = 6


class ResourceGuardError(RuntimeError):
    """Enumeration would exceed the configured circuit budget."""

    def __init__(self, total: int, limit: int):
        super().__init__(
            f"enumeration would produce {total} circuits, over the limit of "
            f"{limit}; raise the limit to override"
        )
        self.total = total
        self.limit = limit


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    d: int
    gate_set: GateSet
    dp: int = 8
    neighbors_only: bool = False
    allow_large: bool = False
    max_circuits: int = DEFAULT_MAX_CIRCUITS

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be at least 1")
        if not (1 <= self.dp <= 15):
            raise ValueError("dp must be in [1, 15]")
        if not self.allow_large and (self.n > MAX_QUBITS or self.d > MAX_DEPTH):
            raise ValueError(
                f"n <= {MAX_QUBITS} and d <= {MAX_DEPTH} unless allow_large is set"
            )


def scaling_count(n: int, d: int, g: int, t: int) -> int:
    """Total circuit count: S = S_l^d with
    S_l = sum_r n!/(r!(n-2r)!) * g^(n-2r) * t^r, in exact integers."""
    if n < 1 or d < 1 or g < 0 or t < 0:
        raise ValueError("need n >= 1, d >= 1, g >= 0, t >= 0")
    per_layer = 0
    for r in range(n // 2 + 1):
        coeff = math.factorial(n) // (math.factorial(r) * math.factorial(n - 2 * r))
        per_layer += coeff * g ** (n - 2 * r) * t**r
    return per_layer**d


def enumerate_layers(
    n: int, gate_set: GateSet, neighbors_only: bool = False
) -> list[Layer]:
    """All distinct single layers over the gate set.

    Every assignment of arity-1 gates, plus every placement of each
    arity-2 gate on an ordered qubit pair (both orientations), including
    multiple disjoint two-qubit gates per layer. With neighbors_only,
    pairs are restricted to |a-b| = 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    singles = gate_set.singles
    twos = gate_set.twos
    layers: list[Layer] = []
    cells: list = [None] * n

    def fill(q: int) -> None:
        if q == n:
            layers.append(tuple(cells))
            return
        if cells[q] is not None:  # already claimed by a pair
            fill(q + 1)
            return
        for gate in singles:
            cells[q] = single(gate)
            fill(q + 1)
        cells[q] = None
        for p in range(q + 1, n):
            if cells[p] is not None:
                continue
            if neighbors_only and p - q != 1:
                continue
            for gate in twos:
                for a, b in ((q, p), (p, q)):  # orientation: a is first operand
                    cells[a] = half(gate, "C", b)
                    cells[b] = half(gate, "T", a)
                    fill(q + 1)
            cells[q] = None
            cells[p] = None

    fill(0)
    return layers


def enumerate_circuits(cfg: GeneratorConfig) -> Iterator[CircuitGrid]:
    """All d-layer circuits, lexicographic in layer indices."""
    layers = enumerate_layers(cfg.n, cfg.gate_set, cfg.neighbors_only)
    _check_budget(cfg, len(layers))

    for chosen in itertools.product(layers, repeat=cfg.d):
        yield CircuitGrid(cfg.n, chosen)


def _check_budget(cfg: GeneratorConfig, layer_count: int) -> None:
    total = layer_count**cfg.d
    if total > cfg.max_circuits:
        raise ResourceGuardError(total, cfg.max_circuits)


def build_database(cfg: GeneratorConfig) -> IdentityDatabase:
    """Enumerate, fingerprint, and index every circuit of the config.

    Bucket lists come out sorted by (effective depth, encoding) so the
    cheapest identity is first. Raises ValueError when the gate table
    would not load back from the file (see `check_gate_table`).
    """
    layers = enumerate_layers(cfg.n, cfg.gate_set, cfg.neighbors_only)
    _check_budget(cfg, len(layers))
    check_gate_table(cfg.gate_set, cfg.dp)

    mats = np.stack([layer_unitary(layer, cfg.n) for layer in layers])
    encs = [",".join(encode_cell(c) for c in layer) for layer in layers]
    eff = [0 if layer_is_identity(layer) else 1 for layer in layers]

    db = IdentityDatabase(DatabaseMeta(cfg.n, cfg.d, cfg.dp, cfg.neighbors_only, cfg.gate_set))
    buckets: dict = {}
    forms: dict = {}  # MD5 of a rounded row -> its fingerprint
    dp = cfg.dp
    start = identity(1 << cfg.n)

    for prefix in itertools.product(range(len(layers)), repeat=cfg.d - 1):
        u = start
        for i in prefix:
            u = mats[i] @ u
        block = np.matmul(mats, u)  # block[k] = mats[k] @ u: the circuit prefix + (k,)
        head = "".join(encs[i] + "|" for i in prefix)
        cost = sum(eff[i] for i in prefix)
        keys = [hashlib.md5(row).digest() for row in _rounded_components(block, dp)]
        # each new form once, at one of the block rows that has it
        new = {key: k for k, key in enumerate(keys) if key not in forms}
        if new:
            forms.update(zip(new, fingerprint(block[list(new.values())], dp)))
        for k, key in enumerate(keys):
            fp = forms[key]
            enc = head + encs[k]
            db.by_circuit[enc] = fp
            buckets.setdefault(fp, []).append((cost + eff[k], enc))

    for fp, members in buckets.items():
        members.sort()
        db.by_fingerprint[fp] = [enc for _, enc in members]
    return db
