"""Exhaustive enumeration of circuits over a gate set and construction of
the identity database.

Enumeration order is fixed: layers come from `circuit.enumerate_layers`
(also reachable as `generator.enumerate_layers`), and circuits are the
depth-fold Cartesian product of layers with the first layer's index
slowest, so database files are reproducible byte for byte. Each layer's
text and idle flag come from the database's layer table
(`database.layer_table`), the entries its members are later read through.

`build_database` works a chunk at a time. A chunk holds the products of a
run of consecutive (d−1)-layer prefixes with all L layers: at most
`_CHUNK` rows, or one prefix's L rows when L is larger, so its scratch
memory is bounded by max(`_CHUNK`, L)·4ⁿ·16 bytes however many circuits
there are. The prefix products come a bounded batch at a time as well
(`_prefix_products`). Every product is left-multiplied by its next layer,
starting from the identity, so the floats equal those of a product made
one circuit at a time.

A chunk is rounded in one call, and one `np.unique` over its rounded rows
(each row viewed as one void value) finds its distinct rows. Most circuits
repeat a rounded unitary already seen, so only the distinct rows are keyed
into the form table, by the 16-byte MD5 of the rounded int64 row rather
than the row itself (4 KB per key at n=4); that key carries the same
collision risk as the database's own MD5 fingerprint. The chunk's new
forms are fingerprinted together in one `fingerprint` call and numbered in
order of first appearance, and every circuit gets its form's integer id.

Members are then grouped with no per-circuit Python work but making each
member's text. A member's effective depth and the rank of its text come
from broadcasting per-layer tables, one `np.lexsort` on (form id, depth,
text rank) orders all members, and each bucket is a slice of the sorted
texts. Buckets are inserted in form-id order, the order in which their
forms first appear; within a bucket, members sort by (effective depth,
encoding text).
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .circuit import CircuitGrid, enumerate_layers, layer_unitary
from .database import DatabaseMeta, IdentityDatabase, check_gate_table, layer_table
from .fingerprint import Fingerprint, _rounded_components, fingerprint
from .gates import GateSet
from .matrices import identity

DEFAULT_MAX_CIRCUITS = 10**7
MAX_QUBITS = 4
MAX_DEPTH = 6

# products rounded and deduplicated together (one prefix's L, if larger)
_CHUNK = 512


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


def _prefix_products(mats: np.ndarray, k: int, size: int) -> Iterator[np.ndarray]:
    """The products of every k-layer prefix, in enumeration order, at most
    `size` (or L, if larger) at a time. A prefix is left-multiplied by each
    next layer, starting from the identity, as a circuit's product is."""
    dim = mats.shape[-1]
    if k == 0:
        yield identity(dim)[None]
        return
    for parents in _prefix_products(mats, k - 1, size):
        products = np.matmul(mats[None], parents[:, None]).reshape(-1, dim, dim)
        for s in range(0, len(products), size):
            yield products[s : s + size]


def build_database(cfg: GeneratorConfig) -> IdentityDatabase:
    """Enumerate, fingerprint, and index every circuit of the config.

    Bucket lists come out sorted by (effective depth, encoding) so the
    cheapest identity is first, and buckets in the order their forms first
    appear. Raises ValueError when the gate table would not load back from
    the file (see `check_gate_table`).
    """
    layers = enumerate_layers(cfg.n, cfg.gate_set, cfg.neighbors_only)
    _check_budget(cfg, len(layers))
    check_gate_table(cfg.gate_set, cfg.dp)

    table = layer_table(layers)
    count, d, dp = len(layers), cfg.d, cfg.dp
    mats = np.stack([layer_unitary(layer, cfg.n) for layer in layers])
    dim = mats.shape[-1]
    encs = list(table)

    forms: dict[bytes, int] = {}  # MD5 of a rounded row -> its form id
    fps: list[Fingerprint] = []  # form id -> fingerprint
    form = np.empty(count**d, dtype=np.intp)  # circuit -> form id
    row = np.dtype((np.void, 16 * dim * dim))  # a rounded row as one value
    done = 0
    for prefixes in _prefix_products(mats, d - 1, max(1, _CHUNK // count)):
        # chunk[p·L + k] = mats[k] @ prefixes[p]: the circuit prefix p + (k,)
        chunk = np.matmul(mats[None], prefixes[:, None]).reshape(-1, dim, dim)
        rows = _rounded_components(chunk, dp)
        distinct, first, inverse = np.unique(
            rows.view(row).ravel(), return_index=True, return_inverse=True
        )
        keys = [hashlib.md5(r).digest() for r in distinct.tolist()]
        ids = np.array([forms.get(key, -1) for key in keys], dtype=np.intp)
        new = np.flatnonzero(ids < 0)
        if len(new):
            new = new[np.argsort(first[new])]  # ids in order of first appearance
            ids[new] = np.arange(len(fps), len(fps) + len(new))
            forms.update(zip([keys[i] for i in new.tolist()], ids[new].tolist()))
            fps.extend(fingerprint(chunk[first[new]], dp))
        form[done : done + len(rows)] = ids[inverse.ravel()]
        done += len(rows)

    # per circuit, in enumeration order: its text, its effective depth and
    # the rank of its text. A text is the layer texts joined by '|', and no
    # layer text holds a '|', so texts compare as the tuples of their pieces
    # (a layer's text, with a '|' after all but the last)
    texts = [""]
    depth = np.zeros(1, dtype=np.intp)
    rank = np.zeros(1, dtype=np.int64)
    busy = np.array([bool(e.mask) for e in table.values()], dtype=np.intp)
    for j in range(d):
        pieces = [e + "|" for e in encs] if j < d - 1 else encs
        place = np.empty(count, dtype=np.int64)
        place[np.argsort(np.array(pieces))] = np.arange(count)
        texts = [t + p for t in texts for p in pieces]
        depth = (depth[:, None] + busy).ravel()
        rank = (rank[:, None] * count + place).ravel()

    meta = DatabaseMeta(cfg.n, cfg.d, cfg.dp, cfg.neighbors_only, cfg.gate_set)
    db = IdentityDatabase(meta, table)
    members = np.array(texts, dtype=object)[np.lexsort((rank, depth, form))].tolist()
    ends = np.cumsum(np.bincount(form, minlength=len(fps))).tolist()
    for fp, start, end in zip(fps, [0] + ends, ends):
        db.by_fingerprint[fp] = members[start:end]
    db.by_circuit.update(zip(texts, np.array(fps, dtype=object)[form].tolist()))
    return db
