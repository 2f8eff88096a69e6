"""The rules pass, tile extraction, identity lookup, and cost-based
substitution.

`optimize` first applies the rewrites two gates make on their own, read
from the database (`apply_rules`), over the input's gate list, then packs
the result and sweeps windows over it; after each sweep that changed the
grid, the rules run again on what the splices left.

The rules come from the database's buckets (`IdentityDatabase.pair_rule`).
For two of its gates, placed on at most n qubits that they share, the
bucket of the two-gate member (the earlier gate in the first layer, the
later in the second) says whether they cancel (the Identity's bucket),
merge (its cheapest row is one gate on the earlier gate's qubits), commute
(the other order is in the bucket too), or block; a rule counts only when
the bucket is sound. The rule of each pair as a circuit places it
(`IdentityDatabase.placed_rule`), keyed by the two gates' names and
qubits, is made on first use and kept with the database: the circuits
optimized against one database repeat the same placed pairs, so the pass
reads each pair it meets with one lookup. A walk takes each gate in turn
and scans back over the kept gates on its qubits, passing those it
commutes with, until one blocks it or it cancels or merges with one; a
merged gate takes the earlier gate's slot, which keeps the ASAP depth and
the gate count from rising. A gate that is not one of the database's gate
objects blocks, as does a pair over more than n qubits. The pass rewrites
what the sweeps would find one window at a time (H·H, T·T → S, gates
commuting past each other), so the sweeps are left the rewrites that need
a window.

Which gates are the database's own is decided once per call, up front
(`_owned`): an input gate with the name of a database gate and a
bitwise-equal matrix, such as the new `u1(pi/2)` each parse makes, is
made that database gate. From then on a gate is the database's own
exactly when it is one of its gate objects.

The optimizer slides an i×j window (i ≤ n, j ≤ d) over the circuit grid
and replaces each window's contents with the cheapest equivalent circuit
in the database of n-qubit, depth-d circuits. A substitution is kept only
when it strictly lowers the whole circuit's potential (effective depth,
non-Identity cells, layer texts in order), so sweeps reach a fixpoint;
`iters` caps their number. A two-qubit gate reaching across the window's
qubit boundary makes the window unusable unless the cut half sits in the
window's first or last layer; the half is then replaced by Identity for
the lookup and restored after the substitution. Every window is matched
in the database's n×d shape: padded with Identity for the lookup and the
collision guard, it admits only candidates with Identity on every slot
past it and every cut slot (`_blocked`): splices stay inside it.
The database alone decides which qubit pairs a splice may place: with a
neighbours-only database, each non-adjacent pair of the output is one of
the input's, on the same qubits.

A sweep costs what changed, not the circuit's length:
  * `optimize` drops the input's all-Identity layers once, up front, so no
    circuit a sweep sees has one;
  * every candidate is judged before any splice, from its rank row and
    the window's cells (`_Window.lowers`): the layers before the span are
    shared, so the layers the member would leave all-Identity, then the
    change in non-Identity cells, then the text of the first layer it
    changes decide; only that layer is rebuilt, so the one span built
    (`_splice`) is the substitution's, and no member is ranked again;
  * a splice rewrites only the window's layer span: it drops that span's
    all-Identity layers and validates that span alone;
  * a layer is keyed by its cells, which are shared per (gate, role,
    partner) (`circuit.shared_cell`), so a layer with the same gates as
    one seen before is the same key: after the rules pass packs the
    circuit anew, and where a block repeats, what was learnt of the old
    layer holds for the new;
  * a window is read from slice records (`_Slices`), one for each (slice,
    qubit offset), a slice being the cells of a layer the window covers,
    made once and kept with the database across sweeps, calls and circuits
    (a slice holding a gate object the database does not keep, such as a
    parsed `u1(pi/8)` it lacks, for one call): each slice's text as the
    padded, normalized window spells it, its cut halves as a splice writes
    them back, its non-Identity cells, and its gates as `circuit.gate_list`
    lists them in that window. A window with a cut half in a slice other
    than its first and last is Invalid, and is passed over from those
    slices' records alone; a valid window's records are fetched once and
    give its encoding, its depth, its gate list, its cut halves and its
    cells with no cell rebuilt;
  * a valid window that yields no substitution is remembered, for one
    `optimize` call, by its qubit offset and its span of whole layers; a
    later window with the same key, in the same sweep or a later one,
    reaches the same verdict, since the verdict reads nothing past the
    span (`_Window.lowers`), and is skipped
    (`OptimizeReport.windows_reused`), its collisions counted again;
  * a lookup is remembered, for one `optimize` call, by the padded
    window's gate list and depth: a window at another qubit offset, or in
    layers that differ outside it, with the same gates takes that
    lookup's rows (`OptimizeReport.lookups_reused`);
  * no `Tile` is cut: a window that has candidate rows, trusted or looked
    up (`OptimizeReport.tiles_built`), is made from its records
    (`_Window`), whose cut halves give its `_blocked` mask; only which of
    its layers are idle outside its rows is read from the grid. A member
    whose bucket has no row shallower than it, and a window the lookup
    answers as a miss, are answered from the records alone.

Candidates are ranked from the database's rank table of the tile's
bucket (`IdentityDatabase.rank_table`): each member's depth, non-Identity
cells, encoding and occupied cells, folded from the database's layer
table and sorted by (depth, cells, encoding). A table holds only members
shallower than the database depth d, since a tile is at most d layers
deep and a candidate must be strictly shallower; `lookup` returns only
the rows shallower than the tile. Rank tables live on the database,
which does not change once made, so they are reused across windows,
sweeps and circuits.

Candidates must really equal the window: a fingerprint is a digest of a
rounded unitary, so the collision guard (`DatabaseMeta.guard`) bounds
max|U − V| between a candidate's unitary and the window's. A window that
may have candidates takes one of two routes (`_sweep`):
  * trusted: its slice text is a member's encoding, and that member's
    bucket has rows shallower than it and is sound. A slice spells a gate
    by its name only when it is the database's gate object (`_Slices`), so
    the window computes its member's unitary float for float. The
    database checks a bucket once (`IdentityDatabase.sound`): it computes
    every member's unitary from its layer unitaries and flags the bucket
    sound when all lie within guard/4 of the first member's. So the window
    tries its candidates with no unitary at all;
  * `lookup`: every other window, one that is no member or a member of an
    unsound bucket. It takes its rows from the bucket of its padded
    unitary, and each candidate's unitary is checked against that one
    per trial (`Match.equals`). A candidate that fails counts in
    `collisions_skipped`. A window no bucket holds may be answered before
    its unitary is computed (below).

`lookup` takes the padded window's gate list. When the database's form
filter is verified, the window's determinant, the product of its gates'
determinants (`gates_det`), can answer a miss: it lies farther from every
bucket representative's than rounding can move it
(`IdentityDatabase.may_hold_det`), and no unitary is computed. A database
of Clifford gates rules out this way most windows holding a `t`. Any
other window's unitary is computed (`gates_unitary`, bitwise the padded
grid's `circuit_unitary`), and its fingerprint picks the bucket.

The output's gate list is made once, after the sweeps; it raises
StructuralError on an unpaired half no splice touched. The reported final
depth is the depth of the emitted circuit, which packs each gate into the
earliest free layer (`asap_depth` of that list); the returned grid keeps
the layers the splices left.

The result is checked against the parsed input once, after the sweeps,
by `check_residual`, densely: the rules pass is not taken on trust, and
the residual covers it as it covers the splices. The check compares the
parsed input's own gate list, as it was before `_owned` made any gate the
database's, with the output's, so it covers that swap too: the gates both
begin or both end with are removed (`circuit.unshared_gates`), and the two
remainders are evaluated together (`circuit.pair_unitaries`). On k ≤ 3
qubits, as every remainder of a 3-qubit circuit is, that is one
stack of the gates' kept operators and ⌈log₂G⌉ batched products, not one
numpy call per gate; wider remainders are walked gate by gate
(`circuit.gates_unitary`). The residual is a bound that nothing else
reads, so its last bits may differ from a gate-by-gate walk's; it does
not depend on the BLAS thread count (`matrices.frobenius_diff`).
"""

from __future__ import annotations

import enum
import time
from bisect import bisect_left
from heapq import heappop, heappush
from itertools import repeat
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    FIRST,
    Cell,
    CircuitGrid,
    Gate,
    Layer,
    asap_depth,
    circuit_unitary,
    effective_depth,  # unused here; the bench harness wraps it by this module's name
    gate_list,
    gates_det,
    gates_unitary,
    layer_is_identity,
    pack,
    pair_unitaries,
    shared_cell,
    single,
    unshared_gates,
    validate,
)
from .database import (
    CANCEL,
    COMMUTE,
    MERGE,
    IdentityDatabase,
    RankRow,
    encode_layer,
)
from .fingerprint import fingerprint
from .generator import DEFAULT_BUDGET_BYTES
from .gates import BUILTIN_GATES, GateDef, GateSet
from .gates import I as IDENTITY_GATE
from .matrices import frobenius_diff, max_abs_diff


class TileClass(enum.Enum):
    VALID = "valid"
    VALID_WITH_CUT = "valid-with-cut"
    INVALID = "invalid"


@dataclass(frozen=True)
class TileSpec:
    """Window shape: i qubit rows × j layers."""

    i: int
    j: int

    def __post_init__(self):
        if self.i < 1 or self.j < 1:
            raise ValueError("tile dimensions must be at least 1")


@dataclass
class Tile:
    """A window of the circuit.

    `sub` holds the window cells with partner indices rebased to tile-local
    rows; a half whose partner lies outside the window keeps an out-of-range
    partner until normalize_cut_tile replaces it with Identity. `cuts` holds
    one list per layer of the halves so replaced, as a splice writes them
    back (`_splice`) and a slice record holds them (`_Slices`): (q, cell),
    q tile-local and the cell the circuit's shared half
    (`circuit.shared_cell`). Every list is empty until then.
    """

    qubit_offset: int
    layer_offset: int
    sub: CircuitGrid
    cuts: list[list[tuple[int, Cell]]]


def _window(c: CircuitGrid, qs: int, ls: int, i: int, j: int) -> Tile:
    """The i×j window at qubit offset qs and layer offset ls. A half keeps
    its gate's shared cell for its rebased partner (`circuit.shared_cell`)
    unless the partner lies outside the window: that cut half is a cell of
    its own, which no gate's table holds and which `_normalized` replaces."""

    def rebased(cell: Cell) -> Cell:
        if cell.is_single:
            return cell
        p = cell.partner - qs
        return shared_cell(cell.gate, cell.role, p) if 0 <= p < i else Cell(cell.gate, cell.role, p)

    layers = tuple(tuple(map(rebased, layer[qs : qs + i])) for layer in c.layers[ls : ls + j])
    return Tile(qs, ls, CircuitGrid(i, layers), [[] for _ in layers])


def extract_tiles(c: CircuitGrid, spec: TileSpec) -> list[Tile]:
    """All contiguous i×j windows, ordered by (layer_offset, qubit_offset).

    Count is (n−i+1)·(m−j+1); raises ValueError when the spec does not fit.
    """
    if spec.i > c.n or spec.j > c.m:
        raise ValueError(
            f"tile {spec.i}x{spec.j} does not fit circuit {c.n}x{c.m}"
        )
    return [
        _window(c, qs, ls, spec.i, spec.j)
        for ls in range(c.m - spec.j + 1)
        for qs in range(c.n - spec.i + 1)
    ]


def classify_tile(t: Tile) -> TileClass:
    """Invalid iff a boundary-cut half sits in an interior layer."""
    norm = _normalized(t, IDENTITY_GATE)
    if norm is None:
        return TileClass.INVALID
    return TileClass.VALID_WITH_CUT if any(norm.cuts) else TileClass.VALID


def normalize_cut_tile(t: Tile, identity: GateDef = IDENTITY_GATE) -> Tile:
    """Replace boundary-cut halves with Identity, recording the originals
    in `cuts`.

    Raises ValueError for an Invalid tile.
    """
    norm = _normalized(t, identity)
    if norm is None:
        raise ValueError("cannot normalize an invalid tile")
    return norm


def _normalized(t: Tile, identity: GateDef) -> Tile | None:
    """t with each half whose partner is outside the window replaced by
    Identity and recorded in its layer's `cuts`, rebased to the circuit
    (`_rebased`), in one scan; None when such a half sits in an interior
    layer (an Invalid tile)."""
    n, last, qs = t.sub.n, t.sub.m - 1, t.qubit_offset
    cuts: list[list[tuple[int, Cell]]] = []
    layers = []
    for li, layer in enumerate(t.sub.layers):
        cut = [
            q for q, cell in enumerate(layer) if not cell.is_single and not 0 <= cell.partner < n
        ]
        if cut and 0 < li < last:
            return None
        cuts.append([(q, _rebased(layer[q], qs)) for q in cut])
        layers.append(tuple(single(identity) if q in cut else cell for q, cell in enumerate(layer)))
    sub = CircuitGrid(n, tuple(layers)) if any(cuts) else t.sub
    return Tile(t.qubit_offset, t.layer_offset, sub, cuts)


def _blocked(i: int, cuts: Sequence[Sequence[tuple[int, Cell]]], n: int) -> int:
    """The slots a candidate must leave Identity in a window of i rows with
    these cut halves in each of its layers, as `RankRow.occupied` bits
    li·n + q: every slot past the window, which the splice does not write,
    and every cut slot, where the restored half must not collide."""
    window = sum(((1 << i) - 1) << (li * n) for li in range(len(cuts)))
    return ~window | sum(1 << (li * n + q) for li, cut in enumerate(cuts) for q, _ in cut)


class Match(list):
    """Rank rows for a window, as a list, and what they were found by.
    `unitary` is the padded window's unitary for the rows `lookup` found
    through it, computed from the window's gate list and bitwise that of
    the padded grid (`circuit_unitary`), each candidate to be checked
    against it (`equals`); None for the rows of a trusted window, whose
    candidates need no check (`_sweep`), and for a miss the window's
    determinant answered (`IdentityDatabase.may_hold_det`)."""

    __slots__ = ("unitary",)

    def __init__(self, rows=(), unitary=None):
        super().__init__(rows)
        self.unitary = unitary

    def equals(self, enc: str, db: IdentityDatabase) -> bool:
        """Whether the member's unitary lies within the collision guard of
        the window's."""
        return max_abs_diff(self.unitary, circuit_unitary(db.decode(enc))) <= db.meta.guard


def lookup(gates: list[Gate], depth: int, db: IdentityDatabase) -> Match:
    """The rows of the window's bucket that are shallower than `depth`,
    the window's effective depth: the only members that can rank below
    it, never the window itself.

    `gates` is the gate list of the window padded to the database's n×d
    shape, as `circuit.gate_list` lists it (a sweep reads it off its slice
    records, `_Slices`). One test answers a miss first: the form filter
    rules the window out from its determinant, the product of its gates'
    (`gates_det`, `IdentityDatabase.may_hold_det`), with no unitary. A
    window it passes is found by the fingerprint of its unitary
    (`gates_unitary`). Raises ValueError for a window deeper than d or a
    gate on a qubit past n. A sweep calls it for every window it does not
    trust (`_sweep`)."""
    n = db.meta.n
    if depth > db.meta.d or any(q >= n for qs, _ in gates for q in qs):
        raise ValueError(f"window exceeds database bounds {n}x{db.meta.d}")
    if not db.may_hold_det(gates_det(gates, n)):
        return Match()
    unitary = gates_unitary(gates, n)
    table = db.rank_table(fingerprint(unitary, db.meta.dp))
    return Match(table[: bisect_left(table, (depth,))], unitary)


def _candidate_order(
    t: Tile, rows: Sequence[RankRow], db: IdentityDatabase
) -> list[tuple[int, str]]:
    """Admissible candidates for the tile as (cost, encoding), cheapest
    first.

    `rows` are rank rows (see `IdentityDatabase.rank`), already sorted and
    cut to those shallower than the tile (`lookup`). A candidate must hold
    Identity on every slot `_blocked` marks. Ties break on fewer
    non-Identity cells, then lexicographic encoding. Which qubit pairs a
    candidate may hold is the database's rule alone: its members are the
    circuits its layers were enumerated from (`circuit.enumerate_layers`).
    A sweep filters its rows the same way, from the window's cells
    (`_substitute`).
    """
    blocked = _blocked(t.sub.n, t.cuts, db.meta.n)
    return [(row.depth, row.enc) for row in rows if not row.occupied & blocked]


def apply_substitution(
    c: CircuitGrid, t: Tile, chosen: str, db: IdentityDatabase
) -> CircuitGrid:
    """Splice the chosen encoding's first i rows and j layers into the i×j
    window and restore each cut half at its own (layer, qubit), by the
    splice a sweep makes (`_splice`).

    Only the window's layer span changes: the spliced layers that are all
    Identity are dropped, and the rest are validated. Every layer before
    and after the span is c's own, unchanged. A tile larger than n×d, or a
    candidate with a gate on a slot `_blocked` marks (`_candidate_order`
    admits none), raises ValueError; a span that does not validate is an
    internal error (AssertionError).
    """
    qs, ls = t.qubit_offset, t.layer_offset
    i, j = t.sub.n, t.sub.m
    (row,) = db.rank([chosen], max_depth=db.meta.d)
    if i > db.meta.n or j > db.meta.d or row.occupied & _blocked(i, t.cuts, db.meta.n):
        raise ValueError(f"{chosen!r} does not fit the {i}x{j} window at layer {ls}, qubit {qs}")
    return _splice(c, ls, qs, i, t.cuts, db.decode(chosen).layers)


def _rebased(cell: Cell, qs: int) -> Cell:
    """A window's cell at qubit offset qs: a half's shared cell for its
    partner moved by qs (`circuit.shared_cell`)."""
    return cell if cell.is_single else shared_cell(cell.gate, cell.role, cell.partner + qs)


def _rebuilt(layer: Layer, piece: Layer, qs: int, i: int, cut: Sequence[tuple[int, Cell]]) -> Layer:
    """`layer` with the window's rows qs..qs+i written from `piece`, a
    member's layer, rebased, and each cut half (q, cell) written back."""
    cells = list(layer)
    cells[qs : qs + i] = [_rebased(cell, qs) for cell in piece[:i]]
    for q, cell in cut:
        cells[qs + q] = cell
    return tuple(cells)


def _splice(
    c: CircuitGrid,
    ls: int,
    qs: int,
    i: int,
    cuts: Sequence[Sequence[tuple[int, Cell]]],
    pieces: Sequence[Layer],
) -> CircuitGrid:
    """c with the window at layer ls and qubit qs, i rows by one layer per
    entry of `cuts`, rewritten from a member's layers (`_rebuilt`): the
    one splice, made by `apply_substitution` and by a sweep for each
    substitution. The span's all-Identity layers are dropped and the rest
    validated; a span that does not validate raises AssertionError."""
    old = c.layers[ls : ls + len(cuts)]
    rebuilt = map(_rebuilt, old, pieces, repeat(qs), repeat(i), cuts)
    span = tuple(layer for layer in rebuilt if not layer_is_identity(layer))
    problems = validate(CircuitGrid(c.n, span))
    if problems:
        raise AssertionError(
            f"substitution at layer {ls} produced an invalid span: {problems}"
        )
    return CircuitGrid(c.n, c.layers[:ls] + span + c.layers[ls + len(cuts) :])


@dataclass
class AppliedSubstitution:
    layer_offset: int
    qubit_offset: int
    encoding: str
    cost_before: int
    cost_after: int


@dataclass
class OptimizeReport:
    initial_depth: int
    final_depth: int  # asap_depth of the output: the depth its QASM parses back to
    substitutions: list[AppliedSubstitution] = field(default_factory=list)
    iterations: int = 0
    # ‖A − B‖_F over the unshared span (see `check_residual`): an upper
    # bound on max|U(input) − U(output)|, and 0.0 when the span is empty;
    # within float error of the gate-by-gate value, not bitwise
    residual: float = 0.0
    collisions_skipped: int = 0
    # valid windows not tried again because a window with the same layers
    # at the same qubit offset had already failed
    windows_reused: int = 0
    # trimming the shared gates, then the span's two unitaries, evaluated
    # together (`circuit.pair_unitaries`), and their norm
    check_s: float = 0.0
    check_qubits: int = 0  # k, the qubits of the unshared span
    # windows looked up by their gates (`lookup`), each through its
    # unitary unless its determinant answers
    unitary_lookups: int = 0
    # of those, the ones answered from the window's determinant, with no
    # unitary (`IdentityDatabase.may_hold_det`)
    filtered_misses: int = 0
    # windows whose padded gate list and depth an earlier lookup of this
    # call had: answered by that lookup's rows, with no `lookup` call
    lookups_reused: int = 0
    trials_checked: int = 0  # candidate unitaries computed for the guard
    # windows with candidate rows, trusted or looked up, each made from its
    # slice records (`_Window`), no `Tile` cut; a window with none is
    # answered from those records alone
    tiles_built: int = 0
    # the rules pass (`apply_rules`): pairs cancelled, pairs merged into
    # one gate, and the commuting gates those rewrites moved a gate past
    cancels: int = 0
    merges: int = 0
    commutes: int = 0
    pass_s: float = 0.0  # the rules pass and the pack of its output, each time it ran


_WindowKey = tuple[int, tuple[Layer, ...]]  # (qubit offset, span)
# a slice record: (text, cuts, cells, gates) (`_Slices`)
_Record = tuple[str, tuple[tuple[int, Cell], ...], int, list[Gate]]


def optimize(
    c: CircuitGrid,
    db: IdentityDatabase,
    spec: TileSpec | None = None,
    iters: int = 10,
) -> tuple[CircuitGrid, OptimizeReport]:
    """Apply the database's pair rules (`apply_rules`), then sweep tiles
    and substitute until no sweep changes anything or the iteration
    budget runs out; after each sweep that changed the grid the rules run
    again, so a sweep that changes nothing ends at a fixpoint of both.
    The output always computes the same unitary as the input and never
    has larger effective depth or more non-Identity cells.

    The input's all-Identity layers are dropped before the first sweep;
    they never count towards the effective depth, and `emit` leaves them
    out. A trial must lower the potential (effective depth, non-Identity
    cells, layer texts in order), judged before its splice
    (`_Window.lowers`); windows that yielded nothing are remembered for
    this call by (qubit offset, span), so a sweep retries only windows
    whose layers changed.

    The check runs once, after the sweeps: `check_residual` removes the
    gates input and output both begin or end with and compares the dense
    unitaries of what is left, on its k qubits, both evaluated in one call
    (`circuit.pair_unitaries`). The reported residual is ‖A − B‖_F of
    those two, at least max|U(input) − U(output)| up to float error; it is
    0.0, with no unitary computed, when k = 0 (`check_qubits`).
    """
    if spec is None:
        spec = TileSpec(db.meta.n, db.meta.d)
    if spec.i > db.meta.n or spec.j > db.meta.d:
        raise ValueError(
            f"tile {spec.i}x{spec.j} exceeds database bounds "
            f"{db.meta.n}x{db.meta.d}"
        )
    if iters < 1:
        raise ValueError("iters must be at least 1")

    parsed = gate_list(c)
    gates, layers = _owned(parsed, c.layers, db.meta.gate_set)
    # no sweep sees an all-Identity layer: the verdict of `_Window.lowers`
    # and the splice, which compacts only its span, rely on that
    busy = tuple(l for l in layers if not layer_is_identity(l))
    report = OptimizeReport(initial_depth=len(busy), final_depth=0)
    cur = _rules(CircuitGrid(c.n, busy), gates, db, report)
    memo = _Slices(db, min(spec.i, c.n))
    for it in range(iters):
        report.iterations = it + 1
        cur, changed = _sweep(cur, db, spec, report, memo)
        if not changed:
            break
        # the splices may have set up pairs the rules rewrite
        cur = _rules(cur, gate_list(cur), db, report)

    out = gate_list(cur)
    report.final_depth = asap_depth(out, c.n)
    start = time.perf_counter()
    report.residual, report.check_qubits = check_residual(parsed, out, c.n)
    report.check_s = time.perf_counter() - start
    return cur, report


def _owned(
    gates: list[Gate], layers: tuple[Layer, ...], gate_set: GateSet
) -> tuple[list[Gate], tuple[Layer, ...]]:
    """The gate list and the layers with each gate that has the name of a
    gate of `gate_set` and a bitwise-equal matrix made that gate: the one
    test of whether a gate is the database's own. A parse makes a new
    `u1(pi/2)` each time; after this, the database's own gates are its
    objects, whose rules and slice records it keeps. Both are returned as
    they are when no gate is swapped; otherwise the swapped cells are the
    new gates' shared ones (`circuit.shared_cell`)."""
    own = {}
    for g in {cell.gate for cell in set().union(*layers)}.difference(gate_set.gates):
        if g.name in gate_set:
            kept = gate_set.by_name(g.name)
            if np.array_equal(kept.matrix, g.matrix):
                own[g] = kept
    if not own:
        return gates, layers
    gates = [(qs, own.get(g, g)) for qs, g in gates]
    layers = tuple(
        tuple(
            shared_cell(own[cell.gate], cell.role, cell.partner) if cell.gate in own else cell
            for cell in layer
        )
        for layer in layers
    )
    return gates, layers


def _rules(
    c: CircuitGrid, gates: list[Gate], db: IdentityDatabase, report: OptimizeReport
) -> CircuitGrid:
    """c with the pair rules applied, for `gates` the gate list of c, which
    holds no all-Identity layer. A pass that rewrites nothing leaves c as
    it is; otherwise the gates are packed (`circuit.pack`) and all-Identity
    layers dropped. The packed grid itself is returned when it has none,
    so its gate list is the one `pack` kept and no walk reads it again.
    Either way, a layer with the same gates as one the sweeps' memo has
    seen is equal to it (`_Slices`)."""
    start = time.perf_counter()
    before = report.cancels + report.merges
    ruled = apply_rules(gates, c.n, db, report)
    if report.cancels + report.merges > before:
        c = pack(ruled, c.n)
        busy = tuple(l for l in c.layers if not layer_is_identity(l))
        if len(busy) < c.m:
            c = CircuitGrid(c.n, busy)
    report.pass_s += time.perf_counter() - start
    return c


class CheckSpanError(RuntimeError):
    """The dense check's remainders span more qubits than it can hold."""

    def __init__(self, k: int, estimate: int):
        super().__init__(
            f"the dense check spans k = {k} qubits: its 2^{k} x 2^{k} unitaries would take "
            f"about {estimate} bytes, over the budget of {DEFAULT_BUDGET_BYTES} bytes"
        )
        self.k = k


def check_residual(ga: list[Gate], gb: list[Gate], n: int) -> tuple[float, int]:
    """(‖A − B‖_F, k) for A and B the unitaries of the remainders of
    `unshared_gates(ga, gb, n)` on their k qubits, for ga and gb the gate
    lists of two circuits a and b over n qubits: 0.0 when a and b agree
    gate for gate, and at least max|U(a) − U(b)| up to float error.

    A and B come from one call (`circuit.pair_unitaries`): on k ≤
    `circuit.TREE_QUBITS` a balanced product of the gates' kept operators,
    wider a gate-by-gate walk (`gates_unitary`). The product lies within
    float error of the walk, not bitwise, which is all a bound needs:
    nothing reads their bits but this norm.

    Raises CheckSpanError, before any unitary is made, when A, B and
    their difference, 3·16·4^k bytes, exceed the build guard's default
    budget (`generator.DEFAULT_BUDGET_BYTES`): k ≤ 12 passes."""
    ra, rb, k = unshared_gates(ga, gb, n)
    if k == 0:
        return 0.0, 0
    estimate = 3 * 16 * 4**k
    if estimate > DEFAULT_BUDGET_BYTES:
        raise CheckSpanError(k, estimate)
    return frobenius_diff(*pair_unitaries(ra, rb, k)), k


def apply_rules(
    gates: list[Gate], n: int, db: IdentityDatabase, report: OptimizeReport
) -> list[Gate]:
    """The gate list with the database's pair rules applied until none
    applies (`IdentityDatabase.pair_rule`), counted in the report. Each
    pair a scan meets is read as placed, on its own qubits, from the
    database's table (`IdentityDatabase.placed_rule`), which every call
    against the database shares: a pair placed in an earlier call or
    circuit costs one lookup. A gate kept where it stands is its input
    entry, the same tuple.

    The gates are placed in order. Each scans back, latest first, over the
    kept gates that share a qubit with it. A gate that commutes with it is
    passed; the first that does not is the last it meets. If that one
    cancels with it, both go; if the two merge, the merged gate takes the
    earlier gate's slot and the later gate goes. A merged gate lies on
    qubits of the earlier gate, and the later gate commutes with every gate
    it passed, so the product is unchanged, up to the database's rounding.
    The later gate is kept where it stands in every other case. A gate
    that is not one of the database's gate objects, or a pair over more
    than the database's n qubits, blocks: `optimize` makes each input gate
    the database holds, by name and bitwise matrix, its object first
    (`_owned`).

    Each kept gate remembers how far back its scan reached. A slot that
    changes (a merged gate written, a gate removed) is scanned again from
    itself if it holds a merged gate, and so is every kept gate after it
    whose scan reached it; so the result is a fixpoint, which another call
    leaves as it is. Gates are only removed or merged into an earlier
    slot, so neither the gate count nor the ASAP depth can rise.
    """
    rules = _Rules(n, db, report)
    rules.place(gates)
    return [gate for gate in rules.out if gate is not None]


class _Rules:
    """The kept gates of one `apply_rules` call, by slot: each gate (None
    once removed), its name in the database (None for a gate that is not
    one of the database's gate objects, which blocks), and the lowest slot
    its last scan reached (−1 when it met no earlier gate); and per qubit,
    the slots of the kept gates on it, ascending. A scan reads each pair it
    meets from the database's table of placed pairs, keyed by names
    (`IdentityDatabase.placed_rule`), kept across calls and circuits."""

    def __init__(self, n: int, db: IdentityDatabase, report: OptimizeReport):
        self.rules, self.placed_rule = db._placed_rules, db.placed_rule
        self.report = report
        self.out: list[Gate | None] = []
        self.own: list[str | None] = []
        self.reach: list[int] = []
        self.wires: list[list[int]] = [[] for _ in range(n)]
        self.names: dict[GateDef, str] = {g: g.name for g in db.meta.gate_set}

    def place(self, gates: list[Gate]) -> None:
        """Place the gates in order; after each, scan again, earliest
        first, every slot its rewrites make stale."""
        out, own, reach, wires, names = self.out, self.own, self.reach, self.wires, self.names
        scan = self._scan
        for gate in gates:
            qs, g = gate
            name = names.get(g)
            j = len(out)
            out.append(gate)
            own.append(name)
            reach.append(j)
            for x in qs:
                wires[x].append(j)
            changed = scan(j) if name is not None else ()
            if not changed:
                continue
            todo: list[int] = []
            while changed:
                for c, on in changed:
                    # the merged gate in slot c, and each gate whose scan met c
                    stale = {m for x in on for m in wires[x] if m > c and reach[m] <= c}
                    if out[c] is not None:
                        stale.add(c)
                    for m in stale:
                        heappush(todo, m)
                changed = ()
                while todo and not changed:
                    k = heappop(todo)
                    if out[k] is not None and not (todo and todo[0] == k):
                        changed = scan(k)  # unless gone, or queued again

    def _scan(self, j: int) -> Sequence[tuple[int, tuple[int, ...]]]:
        """Scan the gate in slot j back over the kept gates before it. On a
        cancel or a merge, remove it, remove or rewrite the slot it met,
        and return both slots with the qubits their gates held; else record
        how far back it reached and return nothing."""
        out, own, wires, rules = self.out, self.own, self.wires, self.rules
        qs, name = out[j][0], own[j]
        passed = 0
        if len(qs) == 1:
            w = wires[qs[0]]
            if w[-1] == j:
                earlier = reversed(w)
                next(earlier)  # slot j itself
            else:
                earlier = reversed(w[: bisect_left(w, j)])
        else:
            earlier = _latest_first(wires[qs[0]], wires[qs[1]], j)
        reach = -1  # no earlier gate on its qubits
        for k in earlier:
            other = own[k]
            reach = k
            if other is None:
                break
            qk = out[k][0]
            key = (other, qk, name, qs)
            rule = rules.get(key) or self.placed_rule(*key)
            kind = rule.kind
            if kind == COMMUTE:
                passed += 1
                continue
            if kind == CANCEL:
                self.report.cancels += 1
                self._remove(k)
            elif kind == MERGE:
                keep = rule.merged[0]
                self.report.merges += 1
                out[k], own[k] = rule.merged, rule.merged[1].name
                for x in qk:
                    if x not in keep:
                        wires[x].remove(k)
            else:
                break
            self.report.commutes += passed
            self._remove(j)
            return [(k, qk), (j, qs)]
        self.reach[j] = reach
        return ()

    def _remove(self, k: int) -> None:
        for x in self.out[k][0]:
            self.wires[x].remove(k)
        self.out[k] = None


def _latest_first(a: list[int], b: list[int], below: int):
    """The indices below `below` in the ascending lists a and b, latest
    first, each once: the kept gates before a slot on either qubit of a
    pair."""
    i, j = bisect_left(a, below) - 1, bisect_left(b, below) - 1
    while i >= 0 or j >= 0:
        x = a[i] if i >= 0 else -1
        y = b[j] if j >= 0 else -1
        if x >= y:
            yield x
            i -= 1
            j -= x == y
        else:
            yield y
            j -= 1


class _Slices:
    """What a sweep remembers of its windows: a record of each slice it
    has read, kept across sweeps, calls and circuits, and, for one
    `optimize` call, the windows that yielded nothing and the lookups made.

    `records` maps (slice, qubit offset) -> (text, cuts, cells, gates), for
    the slice the i cells of a layer from that offset, each made on first
    use by one walk of the slice (`_record`):
      * `text` is the slice in the normalized, padded window as the
        database spells it: `encode_layer`'s text, with partners rebased
        by the offset, a half whose partner lies outside the slice written
        as the Identity's name, and Identity on the rows past it up to the
        database's n. A gate is spelled by its name when it is the
        database's gate object; another gate of a database gate's name is
        "?" and its name, which no member holds. So a window whose text is
        a member's computes that member's unitary, float for float;
      * `cuts` are the slice's cut halves as a splice writes them back
        (`_splice`), (q, cell) with q window-local and the grid's shared
        cell (`circuit.shared_cell`), and `cells` counts its non-Identity
        cells, cut halves left out: a slice with cuts makes a window
        Invalid unless it is the window's first or last, and the busy
        slices (cells > 0) are the window's effective depth;
      * `gates` are the slice's gates as `circuit.gate_list` lists them in
        that window: singles other than the exact Identity, and each pair
        once, at its lower half, in operand order, its qubits rebased by
        the offset. Cut halves and padding are Identity, left out when the
        database's Identity is exactly the 2×2 identity (`spare`). A
        window's gate list is its slices' lists in order, then `spare`
        for each padding layer.

    A sweep fetches a valid window's records once (`read`) and takes its
    encoding, depth, gate list, cut halves and cells from them; only what
    lies outside the window's rows is read from the grid (`_Window`).

    A record reads nothing but the slice, its offset and the database, so
    the table is the database's (`IdentityDatabase`): a slice is recorded
    once for every call and circuit optimized against it. Only slices whose
    cells hold the database's own gates or builtin ones go there; a slice
    holding any other gate object, such as a parsed `u1(pi/8)` the
    database lacks, is kept in `call_records`, for this call alone, so no
    table keeps a circuit's gates. `optimize` has already made each gate
    the database holds, by name and bitwise matrix, its object (`_owned`).

    Slices are keyed by themselves, cells compared by identity. Cells are
    shared per (gate, role, partner) (`circuit.shared_cell`), so a slice
    with the same gates as one seen before, in a layer the rules pass
    packed anew, repeated in the circuit or in another circuit, finds its
    record; and a record stays right after a splice and in every later
    sweep. `failed` maps each valid window that yielded no substitution,
    keyed by (qubit offset, span), to the collisions it skipped
    (`_sweep`). `looked` maps the padded gate list and the depth of each
    window looked up, as a tuple, to what `lookup` answered."""

    def __init__(self, db: IdentityDatabase, i: int):
        gates = self.gates = db.meta.gate_set
        ident = gates.identity
        self.i, self.ident, self.pad = i, ident.name, f",{ident.name}" * (db.meta.n - i)
        self.idle = "|" + ",".join([ident.name] * db.meta.n)  # a padding layer
        self.d = db.meta.d
        # the Identity on each of the n qubits, as `gate_list` lists it
        self.spare: list[Gate] = (
            [] if ident.exact_identity else [((q,), ident) for q in range(db.meta.n)]
        )
        self.names: dict[GateDef, str] = {g: g.name for g in gates}
        # the gates whose slices the database keeps: none dies with a circuit
        self.kept = {*gates, *BUILTIN_GATES.values()}
        self.records: dict[tuple[Layer, int], _Record] = db._slice_records
        self.call_records: dict[tuple[Layer, int], _Record] = {}
        self.failed: dict[_WindowKey, int] = {}
        self.looked: dict[tuple[tuple[Gate, ...], int], Match] = {}

    def cut_inside(self, span: tuple[Layer, ...], qs: int) -> bool:
        """Whether a slice of the window over `span` at qubit offset qs
        other than its first and last has a cut half: an Invalid tile."""
        records, calls, i = self.records, self.call_records, self.i
        for layer in span[1:-1]:
            key = (layer[qs : qs + i], qs)
            if (records.get(key) or calls.get(key) or self._record(*key))[1]:
                return True
        return False

    def read(self, span: tuple[Layer, ...], qs: int) -> list[_Record]:
        """The records of the slices of the window over `span` at qubit
        offset qs, in layer order."""
        records, calls, i = self.records, self.call_records, self.i
        read = []
        for layer in span:
            key = (layer[qs : qs + i], qs)
            read.append(records.get(key) or calls.get(key) or self._record(*key))
        return read

    def _record(self, cells: Layer, qs: int) -> _Record:
        i, spare, names, kept = self.i, self.spare, self.names, self.kept
        count = 0
        texts: list[str] = []
        cuts: list[tuple[int, Cell]] = []
        gates: list[Gate] = []
        for q, cell in enumerate(cells):
            g = cell.gate
            name = names.get(g) or ("?" + g.name if g.name in self.gates else g.name)
            if cell.role is None:
                texts.append(name)
                count += not g.is_identity
                if not g.exact_identity:
                    gates.append(((q,), g))
                continue
            p = cell.partner - qs
            if not 0 <= p < i:
                texts.append(self.ident)
                cuts.append((q, shared_cell(g, cell.role, cell.partner)))
                gates += spare[q : q + 1]  # a cut half
                continue
            texts.append(f"{name}:{cell.role}:{p}")
            count += 1
            if q < p:
                # the pair's gate is its first operand's, as `gate_list` reads it
                gates.append(((q, p), g) if cell.role == FIRST else ((p, q), cells[p].gate))
        rec = (",".join(texts) + self.pad, tuple(cuts), count, gates + spare[i:])
        table = self.records if all(cell.gate in kept for cell in cells) else self.call_records
        table[cells, qs] = rec
        return rec


def _sweep(
    c: CircuitGrid,
    db: IdentityDatabase,
    spec: TileSpec,
    report: OptimizeReport,
    memo: _Slices,
) -> tuple[CircuitGrid, bool]:
    """One pass over the window positions in (layer, qubit) order. Each
    window is read from the current circuit, so the pass continues forward
    over the circuit as the last substitution left it.

    A window is read from its slice records (`memo`, each made once and
    kept with the database), which give its validity, its padded encoding,
    its depth, its gate list, its cut halves and its cells with no cell
    rebuilt. An Invalid window is passed over first, from the cut halves
    of its inner slices' records, so none is remembered as failed; a valid
    window's records are then fetched once (`_Slices.read`). This is the
    one place that decides whether its candidates are trusted: a member of
    a sound bucket tries that bucket's shallower rows unchecked, and every
    other window, no member or a member of an unsound bucket, takes its
    rows from `lookup` and its slices' gates, to be checked. A lookup is
    made once per padded gate list and depth (`memo.looked`); a window
    that repeats one takes its rows (`OptimizeReport.lookups_reused`).
    A window that has candidate rows is made from its records (`_Window`,
    `OptimizeReport.tiles_built`), and no `Tile` is cut; each candidate is
    judged from its rank row before any splice, so a span is built only
    for the substitution made (`_substitute`).

    `memo.failed` maps each valid window that yielded no substitution to
    the collisions it skipped. The potential (effective depth,
    non-Identity cells, layer texts in order; `_Window.lowers`) reads
    nothing past the span, so a window with an equal key, the same layers
    at the same qubit offset, is skipped, its collisions counted again.
    """
    i = memo.i  # min(spec.i, c.n), fixed for the call
    failed, looked = memo.failed, memo.looked
    idle, spare, d = memo.idle, memo.spare, memo.d
    offsets, m = c.n - i + 1, c.m
    changed = False
    idx = 0
    while True:
        j = min(spec.j, m)
        ls, qs = divmod(idx, offsets)
        if j == 0 or ls > m - j:
            break
        idx += 1
        span = c.layers[ls : ls + j]
        if memo.cut_inside(span, qs):
            continue  # an Invalid tile
        key = (qs, span)
        skipped = failed.get(key)
        if skipped is not None:
            report.collisions_skipped += skipped
            report.windows_reused += 1
            continue
        before = report.collisions_skipped
        texts, cuts, cells, slice_gates = zip(*memo.read(span, qs))
        text = "|".join(texts) + idle * (d - j)
        depth = j - cells.count(0)
        trial = None
        fp = db.by_circuit.get(text)
        if fp is not None:
            table = db.rank_table(fp)
            shallower = bisect_left(table, (depth,))
        if fp is None or shallower:
            if fp is not None and db.sound(fp):
                rows = Match(table[:shallower])
            else:
                gates = [g for part in slice_gates for g in part] + spare * (d - j)
                asked = (tuple(gates), depth)
                rows = looked.get(asked)
                if rows is None:
                    rows = looked[asked] = lookup(gates, depth, db)
                    report.unitary_lookups += 1
                    report.filtered_misses += rows.unitary is None
                else:
                    report.lookups_reused += 1
            if rows:
                report.tiles_built += 1
                w = _Window(c, ls, qs, i, cuts, sum(cells), db.meta.n)
                trial = _substitute(c, w, depth, rows, db, report)
        if trial is None:
            failed[key] = report.collisions_skipped - before
            continue
        c, m = trial, trial.m
        changed = True
    return c, changed


class _Window:
    """The valid window of a sweep at layer ls and qubit qs of c, i rows by
    one layer per entry of `cuts`, as its slice records give it
    (`_Slices`): `span`, its layers; `cuts`, per layer, the halves whose
    partner lies outside its rows, (q, cell) with q window-local and the
    grid's shared cell, which a splice writes back (`_splice`); `cells`,
    its non-Identity cells, cut halves left out. Only `free` is read from
    the grid, since it needs the cells outside the window's rows: the
    `RankRow.occupied` mask of each layer that is idle outside its rows
    (so it has no cut half, whose partner would lie there)."""

    __slots__ = ("ls", "qs", "i", "span", "cuts", "cells", "free")

    def __init__(
        self, c: CircuitGrid, ls: int, qs: int, i: int, cuts: Sequence, cells: int, n: int
    ):
        self.ls, self.qs, self.i, self.cuts, self.cells = ls, qs, i, cuts, cells
        self.span = c.layers[ls : ls + len(cuts)]
        self.free = [
            ((1 << n) - 1) << (li * n)
            for li, layer in enumerate(self.span)
            if layer_is_identity(layer[:qs]) and layer_is_identity(layer[qs + i :])
        ]

    def lowers(self, row: RankRow, db: IdentityDatabase) -> bool:
        """Whether splicing the member of `row`, which leaves every
        `_blocked` slot Identity, strictly lowers the circuit's potential
        (effective depth, non-Identity cells, layer texts in order), read
        with no span built. The layers before the span are shared, and
        neither the circuit nor a spliced span holds an all-Identity
        layer, so:
          * the span loses a layer where the member leaves a `free` layer
            empty, and then the depth falls;
          * else the cells change by the member's cells less the window's;
          * else the span keeps its length, so the first layer whose text
            changes decides, and what follows the span never counts: each
            layer is rebuilt (`_rebuilt`) only until one's text differs.
        """
        if any(not row.occupied & mask for mask in self.free):
            return True
        if row.cells != self.cells:
            return row.cells < self.cells
        qs, i = self.qs, self.i
        for layer, piece, cut in zip(self.span, db.decode(row.enc).layers, self.cuts):
            new = _rebuilt(layer, piece, qs, i, cut)
            if new != layer:
                a, b = encode_layer(new), encode_layer(layer)
                if a != b:
                    return a < b
        return False


def _substitute(
    c: CircuitGrid,
    w: _Window,
    depth: int,
    rows: Match,
    db: IdentityDatabase,
    report: OptimizeReport,
) -> CircuitGrid | None:
    """c with the cheapest candidate that passes the collision guard and
    lowers the potential spliced into the window, or None; `depth` is the
    window's effective depth, which the rows are all shallower than. Rows
    with a unitary have each candidate checked against it; trusted rows
    have none (`_sweep`). Each candidate is judged from its rank row and
    the window's cells (`_Window.lowers`), so the one span built, by
    `_splice`, is the substitution's."""
    blocked = _blocked(w.i, w.cuts, db.meta.n)
    for row in rows:
        if row.occupied & blocked:
            continue
        if rows.unitary is not None:
            report.trials_checked += 1
            if not rows.equals(row.enc, db):
                report.collisions_skipped += 1
                continue
        # a cheaper tile may still not help the whole circuit when other
        # rows keep its old layers alive; a strict drop in the potential
        # keeps depth monotone and rules out cycles between sweeps
        if w.lowers(row, db):
            report.substitutions.append(AppliedSubstitution(w.ls, w.qs, row.enc, depth, row.depth))
            return _splice(c, w.ls, w.qs, w.i, w.cuts, db.decode(row.enc).layers)
    return None
