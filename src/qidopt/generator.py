"""Exhaustive enumeration of circuits over a gate set and construction of
the identity database.

Enumeration order is fixed: layers come from `circuit.enumerate_layers`
(also reachable as `generator.enumerate_layers`), and circuits are the
depth-fold Cartesian product of layers with the first layer's index
slowest, so database files are reproducible byte for byte. Each layer's
text and idle flag come from the database's layer table
(`database.layer_table`), the entries its members are later read through.

`build_database` multiplies only distinct prefix products
(`_distinct_prefixes`). Level k left-multiplies each bitwise-distinct
product of the (k−1)-layer prefixes by every layer, starting from the
identity, and numbers the results by their exact float64 bytes, in order
of first appearance; each k-layer prefix records the number of its
product. The last level extends the distinct (d−1)-layer products by every
layer, and circuit p·L + l takes the form of extension row rep[p]·L + l.
On the n2d4 {I,H,X,Z,CX} config the 5,832 three-layer prefixes have 718
distinct products, so 12,924 final products stand for 104,976 circuits.

This is exact. A circuit's product is its prefix's product left-multiplied
by its last layer, so the floats equal those of a product made one circuit
at a time, and bitwise-equal prefix products have bitwise-equal
extensions. Every form first appears on an extension of a prefix whose
product is numbered there for the first time, and those prefixes come in
number order, so forms keep their order of first appearance over the
circuits: file bytes, bucket order and member order are those of a build
that multiplies every circuit.

Products are extended in blocks (`_extensions`) of at most `_CHUNK` rows,
or one product's L rows when L is larger, and each block is numbered with
one `np.unique` over its rows (each row viewed as one void value) and a
table lookup per distinct row (`_number`). At the last level a block is
rounded in one call first. Most circuits repeat a rounded unitary already
seen, so only the distinct rounded rows are keyed into the form table, by
the 16-byte MD5 of the rounded int64 row rather than the row itself (4 KB
per key at n=4); that key carries the same collision risk as the
database's own MD5 fingerprint. A block's new forms are fingerprinted
together in one `fingerprint` call, and every circuit gets its form's
integer id.

Members are then grouped with no per-circuit Python work but making each
member's text. A member's effective depth and the rank of its text come
from broadcasting per-layer tables, one `np.lexsort` on (form id, depth,
text rank) orders all members, and each bucket is a slice of the sorted
texts. Buckets are inserted in form-id order, the order in which their
forms first appear; within a bucket, members sort by (effective depth,
encoding text).

A build is refused before anything is enumerated (`_check_budget`) when
its estimated peak bytes exceed `max_circuits` · B, with B = 320. The
estimate is C·B + 16·4ⁿ·(2L + 2L^(d−1) + k·R), k = 6: C = L^d circuits
at B bytes each (member texts, form ids and the tables over them), and
complex unitaries of 16·4ⁿ bytes: 2L for the layer stack and the list it
is stacked from, 2L^(d−1) for the distinct prefix products and their
level's table (the distinct products number at most L^(d−1)), and k per
row of a last-level block, R = max(`_CHUNK`, L) rows, for its rounding,
keying and fingerprinting. B and k are fitted to
tracemalloc peaks, which the estimate exceeds by 1.2–2.1× on the bench
configs and on n4d1 builds, where the 4ⁿ term dominates.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .circuit import CircuitGrid, enumerate_layers, layer_count, layer_unitary
from .database import DatabaseMeta, IdentityDatabase, check_gate_table, layer_table
from .fingerprint import Fingerprint, _rounded_components, fingerprint
from .gates import GateSet
from .matrices import identity

DEFAULT_MAX_CIRCUITS = 10**7

# products rounded and deduplicated together (one prefix's L, if larger)
_CHUNK = 512

# the byte estimate's B and k (see the module docstring)
_BYTES_PER_CIRCUIT = 320
_BLOCK_COPIES = 6


class ResourceGuardError(RuntimeError):
    """A build's estimated peak bytes exceed `limit` · B. `total` and
    `limit` count circuits; `total` and `estimate` (bytes) are lower
    bounds when the guard stopped short of the full count."""

    def __init__(self, total: int, limit: int, estimate: int):
        super().__init__(
            f"enumeration would produce at least {total} circuits and take an estimated "
            f"{estimate} bytes at peak, over the limit of {limit} circuits "
            f"({limit * _BYTES_PER_CIRCUIT} bytes); raise the limit to override"
        )
        self.total = total
        self.limit = limit
        self.estimate = estimate


@dataclass(frozen=True)
class GeneratorConfig:
    """An enumeration, refused before it is enumerated when its estimated
    peak bytes C·B + 16·4ⁿ·(2L + 2L^(d−1) + k·R) exceed `max_circuits` · B
    (B = 320, k = 6; the terms are in the module docstring)."""

    n: int
    d: int
    gate_set: GateSet
    dp: int = 8
    neighbors_only: bool = False
    max_circuits: int = DEFAULT_MAX_CIRCUITS

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be at least 1")
        if not (1 <= self.dp <= 15):
            raise ValueError("dp must be in [1, 15]")


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
    _check_budget(cfg)
    layers = enumerate_layers(cfg.n, cfg.gate_set, cfg.neighbors_only)
    for chosen in itertools.product(layers, repeat=cfg.d):
        yield CircuitGrid(cfg.n, chosen)


def _estimate(n: int, d: int, layers: int) -> tuple[int, int]:
    """The circuit count C = L^d of a build over L = `layers` layers, and
    its estimated peak bytes C·B + 16·4ⁿ·(2L + 2L^(d−1) + k·R)."""
    circuits = layers**d
    rows = max(_CHUNK, layers)  # a last-level block has at most this many rows
    unitaries = 2 * layers + 2 * layers ** (d - 1) + _BLOCK_COPIES * rows
    return circuits, circuits * _BYTES_PER_CIRCUIT + 16 * 4**n * unitaries


def _check_budget(cfg: GeneratorConfig) -> None:
    """Raise ResourceGuardError when the estimated peak bytes exceed
    max_circuits · B. The estimate rises with n, d and L, so it is taken
    where it passes the limit if the full one does: n at most the limit's
    bit length (16·4ⁿ passes it), so a huge n is never counted, and L and
    L^d up to the first value past max_circuits (C·B passes it)."""
    limit = cfg.max_circuits * _BYTES_PER_CIRCUIT
    n = min(cfg.n, limit.bit_length())
    layers = layer_count(n, cfg.gate_set, cfg.neighbors_only, cfg.max_circuits)
    d = 1
    while d < cfg.d and 1 < layers**d <= cfg.max_circuits:
        d += 1
    total, estimate = _estimate(n, d, layers)
    if estimate > limit:
        raise ResourceGuardError(total, cfg.max_circuits, estimate)


def _extensions(mats: np.ndarray, products: np.ndarray) -> Iterator[np.ndarray]:
    """Each of `products` left-multiplied by every layer, as a circuit's
    product is by its next layer: block row r·L + l is mats[l] @ products[r].
    Blocks are runs of consecutive products, at most `_CHUNK` rows (or one
    product's L rows, when L is larger)."""
    per = max(1, _CHUNK // len(mats))
    for s in range(0, len(products), per):
        yield np.matmul(mats[None], products[s : s + per, None]).reshape(-1, *mats.shape[1:])


def _number(
    rows: np.ndarray, table: dict[bytes, int], key: Callable[[bytes], bytes]
) -> tuple[np.ndarray, np.ndarray]:
    """The number of each of `rows` (one void value per row) in `table`,
    which maps `key(row bytes)` to a number: rows not in it are added in
    order of first appearance. Returns every row's number and the positions
    of the rows added, in order. One `np.unique` finds the distinct rows,
    so `key` runs once per distinct row."""
    distinct, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    keys = [key(r) for r in distinct.tolist()]
    ids = np.array([table.get(k, -1) for k in keys], dtype=np.intp)
    new = np.flatnonzero(ids < 0)
    new = new[np.argsort(first[new])]
    ids[new] = np.arange(len(table), len(table) + len(new))
    table.update(zip([keys[i] for i in new.tolist()], ids[new].tolist()))
    return ids[inverse.ravel()], first[new]


def _md5(row: bytes) -> bytes:
    return hashlib.md5(row).digest()


def _distinct_prefixes(mats: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The bitwise-distinct products of the k-layer prefixes, numbered in
    order of first appearance, and for each k-layer prefix, in enumeration
    order, the number of its product.

    Level j extends each distinct product of level j−1 by every layer
    (`_extensions`) and numbers the results by their exact bytes: a key is
    a whole float64 row, so −0.0 and 0.0 stay apart. Prefix p + (l,) has
    the product mats[l] @ products[rep[p]], extension row rep[p]·L + l."""
    dim = mats.shape[-1]
    row = np.dtype((np.void, mats.itemsize * dim * dim))
    products, rep = identity(dim)[None], np.zeros(1, dtype=np.intp)
    for _ in range(k):
        seen: dict[bytes, int] = {}  # a product's bytes -> its number
        ids = [
            _number(block.reshape(len(block), -1).view(row).ravel(), seen, bytes)[0]
            for block in _extensions(mats, products)
        ]
        rep = np.concatenate(ids).reshape(-1, len(mats))[rep].ravel()
        # `seen` holds the distinct products in number order
        products = np.frombuffer(b"".join(seen), dtype=mats.dtype).reshape(-1, dim, dim)
    return products, rep


def build_database(cfg: GeneratorConfig) -> IdentityDatabase:
    """Enumerate, fingerprint, and index every circuit of the config.

    Bucket lists come out sorted by (effective depth, encoding) so the
    cheapest identity is first, and buckets in the order their forms first
    appear. Raises ValueError when the gate table would not load back from
    the file (see `check_gate_table`), and ResourceGuardError, before
    enumerating, over the byte budget (`_check_budget`).
    """
    _check_budget(cfg)
    check_gate_table(cfg.gate_set, cfg.dp)
    layers = enumerate_layers(cfg.n, cfg.gate_set, cfg.neighbors_only)

    table = layer_table(layers)
    count, d, dp = len(layers), cfg.d, cfg.dp
    mats = np.stack([layer_unitary(layer, cfg.n) for layer in layers])
    dim = mats.shape[-1]
    encs = list(table)

    prefixes, rep = _distinct_prefixes(mats, d - 1)
    forms: dict[bytes, int] = {}  # MD5 of a rounded row -> its form id
    fps: list[Fingerprint] = []  # form id -> fingerprint
    row_forms = []  # per block: the form id of each extension row
    row = np.dtype((np.void, 16 * dim * dim))  # a rounded row as one value
    for chunk in _extensions(mats, prefixes):
        rows = _rounded_components(chunk, dp).view(row).ravel()
        ids, new = _number(rows, forms, _md5)
        if len(new):
            fps.extend(fingerprint(chunk[new], dp))
        row_forms.append(ids)
    # circuit p·L + l is the extension row rep[p]·L + l
    form = np.concatenate(row_forms).reshape(-1, count)[rep].ravel()

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
