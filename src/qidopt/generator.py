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
identity, and numbers the results by their float64 words, in order of
first appearance; each k-layer prefix records the number of its product.
The last level extends the distinct (d−1)-layer products by every layer,
and circuit p·L + l takes the form of extension row rep[p]·L + l. On the
n2d4 {I,H,X,Z,CX} config the 5,832 three-layer prefixes have 718 distinct
products, so 12,924 final products stand for 104,976 circuits.

This is exact. A circuit's product is its prefix's product left-multiplied
by its last layer, so the floats equal those of a product made one circuit
at a time, and bitwise-equal prefix products have bitwise-equal
extensions. Every form first appears on an extension of a prefix whose
product is numbered there for the first time, and those prefixes come in
number order, so forms keep their order of first appearance over the
circuits: file bytes, bucket order and member order are those of a build
that multiplies every circuit.

A gate set of one layer (all Identity) has one circuit at every depth,
and its build runs no level: its one member is the layer's text d times,
in the bucket of the layer's unitary multiplied in d times as the levels
would multiply it, stopping once a product repeats bitwise (`_power`);
an exactly Identity layer repeats at once, so a build at depth 10^6
costs its text alone.

Products are extended in blocks (`_extensions`) of at most `_CHUNK` rows,
or one product's L rows when L is larger, and every level numbers its
blocks the same way (`_number`), by rows of 64-bit words: a product's
float64 words (`_float_words`), or at the last level its rounded int64
components. A
block's rows are hashed in one integer matmul (`_row_hash`), deduplicated
with one `np.unique` over the hashes and looked up in the sorted hashes
of the forms seen so far, 24 bytes per form. Every match is then
confirmed bitwise: each row against the block's first row with its hash,
and that row, when an earlier form has its hash, against the form's
representative, recomputed from the extension row it first appeared on.
A block that fails a check is numbered row by row by its bytes
(`_number_exactly`), so the hash decides only speed, never a number. A
block's new forms are fingerprinted together in one `fingerprint` call,
every circuit gets its form's integer id, and two forms with one
fingerprint stop the build.

Members are then grouped with no per-circuit Python work but making each
member's text. A member's effective depth and the rank of its text come
from broadcasting per-layer tables, one `np.lexsort` on (form id, depth,
text rank) orders all members, and each bucket is a slice of the sorted
texts. Buckets are inserted in form-id order, the order in which their
forms first appear; within a bucket, members sort by (effective depth,
encoding text). The build indexes no member: the database makes its
member index (`by_circuit`) on first use, which `gen-db`, building and
saving, never reaches.

A build is refused before anything is enumerated (`_check_budget`) when
its estimated peak bytes exceed `max_circuits` · B, with B = 150. The
estimate is C·(B + 2nd) + 16·4ⁿ·(2L + 2L^(d−1) + k·R), k = 6: C = L^d
circuits at B bytes each (member objects, form ids and the tables over
them) plus 2nd for the text of d layers of n cells, and complex
unitaries of 16·4ⁿ bytes: 2L for the layer stack and the list it is
stacked from, 2L^(d−1) for the distinct prefix products and the blocks
they are concatenated from (they number at most L^(d−1)), and k per row
of a last-level block, R = max(`_CHUNK`, L) rows, for its rounding,
hashing and fingerprinting. B and k are fitted to tracemalloc peaks,
which the estimate exceeds by 1.2–2.2× on the bench configs and on n4d1
builds, where the 4ⁿ term dominates. The text term counts at any depth:
a gate set of one layer has one circuit however deep, but its text is
d layers long; and unless that layer is exactly the identity, the build
makes d products, so a d past `max_circuits` is refused too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .circuit import CircuitGrid, enumerate_layers, layer_count, layer_unitary
from .database import DatabaseMeta, IdentityDatabase, layer_table, resolved_gates
from .fingerprint import Fingerprint, _rounded_components, _row_hash, fingerprint
from .gates import GateSet
from .matrices import identity

DEFAULT_MAX_CIRCUITS = 10**7

# products numbered together (one prefix's L, if larger)
_CHUNK = 512

# the byte estimate's B and k (see the module docstring)
_BYTES_PER_CIRCUIT = 150
_BLOCK_COPIES = 6

# the byte budget at the default limit, which `optimizer.check_residual`
# holds its dense check to as well
DEFAULT_BUDGET_BYTES = DEFAULT_MAX_CIRCUITS * _BYTES_PER_CIRCUIT


class ResourceGuardError(RuntimeError):
    """A build's estimated peak bytes exceed `limit` · B, or a one-layer
    build would make more than `limit` products. `total` and `limit`
    count circuits, each product counted as one; `total` and `estimate`
    (bytes) are lower bounds when the guard stopped short of the full
    count."""

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
    peak bytes C·(B + 2nd) + 16·4ⁿ·(2L + 2L^(d−1) + k·R) exceed
    `max_circuits` · B (B = 150, k = 6; the terms are in the module
    docstring)."""

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
    """Total circuit count: S = S_l^d with S_l = sum_r n!/(r!(n-2r)!) *
    g^(n-2r) * t^r, in exact integers, by `circuit.layer_count`'s recurrence."""
    if n < 1 or d < 1 or g < 0 or t < 0:
        raise ValueError("need n >= 1, d >= 1, g >= 0, t >= 0")
    return layer_count(n, g, t, False) ** d


def enumerate_circuits(cfg: GeneratorConfig) -> Iterator[CircuitGrid]:
    """All d-layer circuits, lexicographic in layer indices."""
    _check_budget(cfg)
    layers = enumerate_layers(cfg.n, cfg.gate_set, cfg.neighbors_only)
    for chosen in itertools.product(layers, repeat=cfg.d):
        yield CircuitGrid(cfg.n, chosen)


def _estimate(n: int, d: int, layers: int) -> tuple[int, int]:
    """The circuit count C = L^d of a build over L = `layers` layers, and
    its estimated peak bytes C·(B + 2nd) + 16·4ⁿ·(2L + 2L^(d−1) + k·R)."""
    circuits = layers**d
    rows = max(_CHUNK, layers)  # a last-level block has at most this many rows
    unitaries = 2 * layers + 2 * layers ** (d - 1) + _BLOCK_COPIES * rows
    return circuits, circuits * (_BYTES_PER_CIRCUIT + 2 * n * d) + 16 * 4**n * unitaries


def _check_budget(cfg: GeneratorConfig) -> None:
    """Raise ResourceGuardError when the estimated peak bytes exceed
    max_circuits · B. The estimate rises with n, d and L, so it is taken
    where it passes the limit if the full one does: n at most the limit's
    bit length (16·4ⁿ passes it), so a huge n is never counted, and L and
    L^d up to the first value past max_circuits (C·B passes it). One
    layer gives one circuit at every depth, so its d is the config's; and
    unless that layer is exactly the identity, its build makes d products
    (`_power`), so d past max_circuits is refused too, each product
    counted as a circuit."""
    limit = cfg.max_circuits * _BYTES_PER_CIRCUIT
    n = min(cfg.n, limit.bit_length())
    layers = layer_count(n, cfg.gate_set.g, cfg.gate_set.t, cfg.neighbors_only, cfg.max_circuits)
    d = 1 if layers > 1 else cfg.d
    while d < cfg.d and layers**d <= cfg.max_circuits:
        d += 1
    total, estimate = _estimate(n, d, layers)
    if layers == 1 and not cfg.gate_set.identity.exact_identity and d > cfg.max_circuits:
        raise ResourceGuardError(d, cfg.max_circuits, estimate)
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


def _float_words(block: np.ndarray) -> np.ndarray:
    """The float64 words of each product of a block, each xor-folded with
    its high half. The fold is one-to-one, so rows compare as their bits
    do (−0.0 and 0.0 apart), and it gives `_row_hash` low bits to mix: a
    float that is a small power of two has 52 low zero bits."""
    words = block.reshape(len(block), -1).view(np.uint64)
    return words ^ (words >> np.uint64(32))


class _Forms:
    """The forms numbered so far, 24 bytes each: their hashes, sorted, with
    the number of the form each belongs to, and by number, the extension row
    each form first appeared on."""

    def __init__(self):
        self.hashes = np.empty(0, dtype=np.uint64)
        self.numbers = np.empty(0, dtype=np.intp)
        self.sources = np.empty(0, dtype=np.intp)

    def add(self, hashes: np.ndarray, sources: np.ndarray) -> None:
        """Number new forms, in order, by their hashes and first rows."""
        order = np.argsort(hashes, kind="stable")
        at = np.searchsorted(self.hashes, hashes[order])
        self.hashes = np.insert(self.hashes, at, hashes[order])
        self.numbers = np.insert(self.numbers, at, len(self.sources) + order)
        self.sources = np.concatenate([self.sources, sources])


def _number(
    words: np.ndarray, start: int, forms: _Forms, exact: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The form number of each row of a block of (N, W) uint64 `words`,
    whose first row is extension row `start`: rows not yet in `forms` are
    added, in order of first appearance. Returns every row's number and
    the positions of the rows added, in order.

    Rows are hashed (`_row_hash`), deduplicated with one `np.unique` over
    the hashes and looked up in the sorted hashes of `forms`. Every match
    is confirmed bitwise: each row against its in-block lead, and each
    hit's lead against the representative of the (first) form with its
    hash, recomputed from the form's extension row by `exact`. A block
    that fails a check is numbered by `_number_exactly`."""
    hashes = _row_hash(words)
    distinct, first, inverse = np.unique(hashes, return_index=True, return_inverse=True)
    inverse = inverse.ravel()
    lead = first[inverse]
    dup = np.flatnonzero(lead != np.arange(len(words)))
    at = np.searchsorted(forms.hashes, distinct)
    hit = np.flatnonzero(at < len(forms.hashes))
    hit = hit[forms.hashes[at[hit]] == distinct[hit]]
    known = forms.numbers[at[hit]]
    if not (
        np.array_equal(words[dup], words[lead[dup]])
        and (not len(hit) or np.array_equal(words[first[hit]], exact(forms.sources[known])))
    ):
        return _number_exactly(words, hashes, start, forms, exact)
    ids = np.full(len(distinct), -1, dtype=np.intp)
    ids[hit] = known
    new = np.flatnonzero(ids < 0)
    new = new[np.argsort(first[new])]
    ids[new] = np.arange(len(forms.sources), len(forms.sources) + len(new))
    forms.add(distinct[new], start + first[new])
    return ids[inverse], first[new]


def _number_exactly(
    words: np.ndarray,
    hashes: np.ndarray,
    start: int,
    forms: _Forms,
    exact: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """`_number` row by row: each row is keyed by its bytes against the
    recomputed representative of every form that shares a hash with some
    row of the block, and the rows added so far."""
    shared = forms.numbers[np.isin(forms.hashes, hashes)]
    seen: dict[bytes, int] = {}  # a row's bytes -> its number
    if len(shared):
        seen.update(zip(map(bytes, exact(forms.sources[shared])), shared.tolist()))
    ids = np.empty(len(words), dtype=np.intp)
    new: list[int] = []
    for i, key in enumerate(map(bytes, words)):
        if key not in seen:
            seen[key] = len(forms.sources) + len(new)
            new.append(i)
        ids[i] = seen[key]
    added = np.array(new, dtype=np.intp)
    forms.add(hashes[added], start + added)
    return ids, added


def _numbered(
    mats: np.ndarray, products: np.ndarray, words: Callable[[np.ndarray], np.ndarray]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each block of `_extensions(mats, products)`, with the form number of
    each of its rows and the positions of the rows that add a form
    (`_number`), where a row's form is its `words`, compared bitwise."""
    count, forms, start = len(mats), _Forms(), 0

    def exact(rows: np.ndarray) -> np.ndarray:
        # extension row r·L + l is mats[l] @ products[r], as `_extensions` makes it
        return words(np.matmul(mats[rows % count], products[rows // count]))

    for block in _extensions(mats, products):
        yield (block, *_number(words(block), start, forms, exact))
        start += len(block)


def _distinct_prefixes(mats: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The bitwise-distinct products of the k-layer prefixes, numbered in
    order of first appearance, and for each k-layer prefix, in enumeration
    order, the number of its product.

    Level j extends each distinct product of level j−1 by every layer
    (`_extensions`) and numbers the results by their float64 words
    (`_numbered`, `_float_words`), so −0.0 and 0.0 stay apart. Prefix
    p + (l,) has the product mats[l] @ products[rep[p]], extension row
    rep[p]·L + l."""
    products, rep = identity(mats.shape[-1])[None], np.zeros(1, dtype=np.intp)
    for _ in range(k):
        ids, fresh = [], []
        for block, num, new in _numbered(mats, products, _float_words):
            ids.append(num)
            fresh.append(block[new])
        rep = np.concatenate(ids).reshape(-1, len(mats))[rep].ravel()
        products = np.concatenate(fresh)
    return products, rep


def _power(mats: np.ndarray, d: int) -> np.ndarray:
    """The product of d copies of the one layer of `mats`, made as the
    levels of a build make it (`_extensions`), each left-multiplying the
    last, until one equals the last bitwise: every later one does too, so
    an exactly Identity layer costs one product at any d."""
    product = identity(mats.shape[-1])
    for _ in range(d):
        (following,) = next(_extensions(mats, product[None]))
        if following.tobytes() == product.tobytes():
            break
        product = following
    return product


def build_database(cfg: GeneratorConfig) -> IdentityDatabase:
    """Enumerate and fingerprint every circuit of the config, and bucket it.

    Bucket lists come out sorted by (effective depth, encoding) so the
    cheapest identity is first, and buckets in the order their forms first
    appear. The build makes no member index: the database makes
    `by_circuit` (`member_index`) on its first use, so a build that is
    only saved never makes it. Raises ResourceGuardError, before
    enumerating, over the byte budget (`_check_budget`), and RuntimeError,
    naming the fingerprint, when two distinct forms share one. The
    database holds the config's gates, each one with no QASM rendering
    that a builtin or template name resolves to bitwise made that gate
    (`database.resolved_gates`), as a load of its file would.
    """
    _check_budget(cfg)
    gate_set = resolved_gates(cfg.gate_set)
    layers = enumerate_layers(cfg.n, gate_set, cfg.neighbors_only)

    table = layer_table(layers)
    count, d, dp = len(layers), cfg.d, cfg.dp
    mats = np.stack([layer_unitary(layer, cfg.n) for layer in layers])
    encs = list(table)
    meta = DatabaseMeta(cfg.n, cfg.d, cfg.dp, cfg.neighbors_only, gate_set)
    if count == 1:
        # one layer (all Identity) makes one circuit, the layer d times over
        (fp,) = fingerprint(_power(mats, d)[None], dp)
        return IdentityDatabase(meta, table, {fp: ("|".join(encs * d),)})

    prefixes, rep = _distinct_prefixes(mats, d - 1)
    fps: list[Fingerprint] = []  # form id -> fingerprint
    row_forms = []  # per block: the form id of each extension row
    for chunk, ids, new in _numbered(
        mats, prefixes, lambda b: _rounded_components(b, dp).view(np.uint64)
    ):
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

    # a tuple, so that each bucket is a slice of it
    members = tuple(np.array(texts, dtype=object)[np.lexsort((rank, depth, form))].tolist())
    ends = np.cumsum(np.bincount(form, minlength=len(fps))).tolist()
    by_fingerprint: dict[Fingerprint, tuple[str, ...]] = {}
    for fp, start, end in zip(fps, [0] + ends, ends):
        if fp in by_fingerprint:  # two forms would share one bucket
            raise RuntimeError(f"two forms have the fingerprint {fp.hex}")
        by_fingerprint[fp] = members[start:end]
    return IdentityDatabase(meta, table, by_fingerprint)
