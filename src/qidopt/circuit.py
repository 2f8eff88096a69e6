"""Grid representation of quantum circuits and unitary evaluation.

A circuit is a grid of layers (time steps) over n qubits. Every cell is
filled: single-qubit cells hold a gate (Identity where nothing acts), and
a two-qubit gate occupies two cells of the same layer, split into a
first-operand half (role 'C') and a second-operand half (role 'T'), each
pointing at its partner's qubit index.

Cells are shared. A gate holds a table of its cells, keyed by (role,
partner) and made on first use (`GateDef.cells`, `shared_cell`), and
every builder here and in the optimizer takes its cells from it: at most
1 + 2w per gate for grids w qubits wide. Cells still compare by identity,
so two layers with the same gates in the same places are equal tuples
with equal hashes, and a layer packed anew is the key the old one was.

Conventions fixed here and relied on everywhere else:
  * qubit 0 is the most-significant tensor factor;
  * the circuit unitary is U = L_m ··· L_1 with the first layer applied
    first (rightmost in the product).

Unitaries are evaluated by one gate kernel (`_apply`), folded over a gate
list: `gates_unitary` for a list, and `layer_unitary` and
`circuit_unitary` over `gate_list`, which leaves out cells whose matrix is
exactly the 2×2 identity. Each gate multiplies the axes of its qubits in
a reshaped view of the 2^n × 2^n operator, so a circuit costs
O(gates·4^n) rather than the O(layers·8^n) of dense layer products:
  * a single-qubit gate on qubit q multiplies axis q of 2^q × 2 × rest;
  * a pair on neighbouring qubits multiplies their 4-axis, with the
    gate's operand-swapped matrix (`GateDef.swapped`, made once with the
    gate) when its first operand is the higher qubit;
  * any other pair has its two axes brought together by one transpose,
    for one batched matmul.
Every layer of the builtin gates comes out bitwise as a cell-by-cell walk
makes it (a test compares the two), so database bytes, which the layer
unitaries feed, do not depend on the kernel. A list's determinant needs
no unitary at all: it is a product of its gates' own (`gates_det`).

This walk is the one path whose bits anything reads: the build's layer
unitaries, the lookups' fingerprints, the candidate checks and the
database's bucket soundness all start from `gates_unitary` or its two
wrappers, `layer_unitary` and `circuit_unitary`.
One caller reads only how far apart two unitaries are: the optimizer's
final check (`optimizer.check_residual`), which takes both from
`pair_unitaries`. On k ≤ TREE_QUBITS qubits that stacks each gate's
operator, made once per placement by the kernel and kept on the gate
(`GateDef.operators`), and multiplies neighbours level by level in
⌈log₂G⌉ batched matmuls, within float error of the walk but not bitwise;
wider, it walks.

The gate-list form, [(qubits in operand order, gate)] in layer order, is
owned here: `gate_list` reads a grid's gates, walked once per grid and
kept (`CircuitGrid.gates`), and `pack` is the one ASAP packer back to a
grid (each gate in the earliest layer where its qubits are free), which
records the list as it places the gates, so a packed grid is never
walked. `qasm.parse` packs the gates it reads,
`qasm.emit` writes the gate list, and `asap_depth` and `unshared_gates`
take one. `asap_depth` keeps only a per-qubit frontier, the layers
that qubit's gates fill once packed, and builds no grid.

Two circuits are compared on their unshared span (`unshared_gates`), from
their gate lists: the gates both begin or both end with are removed
first, read off one per-qubit index of each list from both ends, and
the dense check runs on the k qubits the rest touches (`pair_unitaries`):
O(gates·8^k) in ⌈log₂ gates⌉ numpy calls up to TREE_QUBITS, O(gates·4^k)
in one call per gate past it.

The layers over a gate set are enumerated here (`enumerate_layers`), in
lexicographic order: qubit index major, gate declaration order, and per
anchor qubit its pairs after its singles, partner ascending, first-operand
orientation first. A database build and a database load both take their
layer table (`database.layer_table`) from this one list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gates import I as IDENTITY_GATE
from .gates import GateDef, GateSet
from .matrices import ComplexMatrix, identity

FIRST = "C"
SECOND = "T"


class StructuralError(ValueError):
    """A grid violates the two-qubit pairing rules."""


@dataclass(frozen=True, eq=False)
class Cell:
    """One grid slot: a single-qubit gate, or half of a two-qubit gate.

    Cells compare by identity. The grid builders take theirs from the
    gate's cell table (`shared_cell`), so two layers with the same gates
    in the same places are equal tuples with equal hashes; a cell built
    directly is equal to itself alone."""

    gate: GateDef
    role: str | None = None  # FIRST/SECOND for two-qubit halves
    partner: int | None = None

    @property
    def is_single(self) -> bool:
        return self.role is None

    def __repr__(self):
        if self.is_single:
            return f"Cell({self.gate.name})"
        return f"Cell({self.gate.name}:{self.role}:{self.partner})"


def shared_cell(gate: GateDef, role: str | None = None, partner: int | None = None) -> Cell:
    """The one cell of the gate in that role with that partner, held by
    the gate (`GateDef.cells`) and made on its first use. Unchecked: the
    callers pass a partner inside their grid."""
    cells = gate.cells
    cell = cells.get((role, partner))
    if cell is None:
        cell = cells[role, partner] = Cell(gate, role, partner)
    return cell


def single(gate: GateDef) -> Cell:
    """The gate's shared single-qubit cell."""
    if gate.arity != 1:
        raise ValueError(f"gate {gate.name} is not single-qubit")
    return shared_cell(gate)


def half(gate: GateDef, role: str, partner: int) -> Cell:
    """The gate's shared half in `role` whose partner is on qubit `partner`."""
    if gate.arity != 2:
        raise ValueError(f"gate {gate.name} is not two-qubit")
    if role not in (FIRST, SECOND):
        raise ValueError(f"bad two-qubit role {role!r}")
    return shared_cell(gate, role, partner)


Layer = tuple[Cell, ...]


@dataclass(frozen=True, eq=False)
class CircuitGrid:
    """n qubits × m layers of cells. Immutable after construction."""

    n: int
    layers: tuple[Layer, ...]

    @property
    def m(self) -> int:
        return len(self.layers)

    @cached_property
    def gates(self) -> list[Gate]:
        """The gate list (`gate_list`): for a grid `pack` made, the list it
        recorded; for any other, walked on first use and kept, since the
        layers never change. Read it through `gate_list`, which hands out
        a copy."""
        return _walk(self)

    @classmethod
    def from_lists(cls, n: int, layers) -> "CircuitGrid":
        return cls(n, tuple(tuple(layer) for layer in layers))

    def __repr__(self):
        return f"CircuitGrid(n={self.n}, m={self.m})"


def validate(c: CircuitGrid) -> list[str]:
    """Return structural violations (empty list when the grid is valid).

    Each violation names the layer, qubit, and broken rule.
    """
    problems: list[str] = []
    if c.n < 1:
        problems.append("circuit must have at least one qubit")
        return problems
    for li, layer in enumerate(c.layers):
        if len(layer) != c.n:
            problems.append(f"layer {li}: expected {c.n} cells, got {len(layer)}")
            continue
        for q, cell in enumerate(layer):
            if cell.role is None:
                if cell.gate.arity != 1:
                    problems.append(
                        f"layer {li}, qubit {q}: two-qubit gate in a single cell"
                    )
                continue
            p = cell.partner
            if p is None or not (0 <= p < c.n) or p == q:
                problems.append(
                    f"layer {li}, qubit {q}: partner index {p} out of range"
                )
                continue
            other = layer[p]
            if other.is_single:
                problems.append(f"layer {li}, qubit {q}: unpaired two-qubit half")
                continue
            if other.partner != q or other.gate.name != cell.gate.name:
                problems.append(
                    f"layer {li}, qubit {q}: mismatched two-qubit halves"
                )
                continue
            if other.role == cell.role:
                problems.append(f"layer {li}, qubit {q}: duplicate role {cell.role}")
    return problems


def enumerate_layers(n: int, gate_set: GateSet, neighbors_only: bool = False) -> list[Layer]:
    """All distinct single layers over the gate set.

    Every assignment of arity-1 gates, plus every placement of each
    arity-2 gate on an ordered qubit pair (both orientations), including
    multiple disjoint two-qubit gates per layer. With neighbors_only,
    pairs are restricted to |a-b| = 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    singles, twos = gate_set.singles, gate_set.twos
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
                    cells[a] = half(gate, FIRST, b)
                    cells[b] = half(gate, SECOND, a)
                    fill(q + 1)
            cells[q] = None
            cells[p] = None

    fill(0)
    return layers


def layer_count(n: int, g: int, t: int, neighbors_only: bool, most: int | None = None) -> int:
    """How many layers `enumerate_layers` makes from g single and t pair
    gates, or, given `most`, a count above `most`. Over k qubits, the
    first takes one of g single gates, or one of t pair gates with a later
    qubit (the next, with neighbors_only), either way: c_k = g·c_(k−1) +
    2t(k−1)·c_(k−2) (2t·c_(k−2))."""
    if t == 0 or g == 0 and n % 2:  # gⁿ, or with g ≥ 2 a power past `most`
        return g ** (n if most is None else min(n, most.bit_length() + 1))
    fewer, count = 1, g  # the counts over 0 and 1 qubits
    # the count rises with each qubit, or, with g = 0, each second one
    for k in range(2, n + 1):
        if most is not None and count > most:
            break
        fewer, count = count, g * count + 2 * t * (1 if neighbors_only else k - 1) * fewer
    return count


Gate = tuple[tuple[int, ...], GateDef]  # (qubits in operand order, gate)


def _apply(u: ComplexMatrix, gates: list[Gate], n: int) -> ComplexMatrix:
    """G_k ··· G_1 · u for the gates G_1 … G_k of a gate list, each applied
    to a reshaped u in O(4^n) work.

    A gate on qubit q multiplies axis q of u viewed as 2^q × 2 × rest
    (qubit 0 most significant). A pair on qubits lo < hi multiplies the
    4-axis of u viewed as 2^lo × 4 × rest when they are adjacent;
    otherwise one transpose of u viewed as 2^lo × 2 × 2^(hi−lo−1) × 2 ×
    rest brings the pair's two axes together, for one batched matmul. A
    pair listed with its higher qubit first takes its gate's
    operand-swapped matrix (`GateDef.swapped`), made once with the gate.
    """
    dim, matmul = 1 << n, np.matmul
    for qs, g in gates:
        if len(qs) == 1:
            u = matmul(g.matrix, u.reshape(1 << qs[0], 2, -1))
            continue
        x, y = qs
        lo, hi, m = (x, y, g.matrix) if x < y else (y, x, g.swapped)
        if hi == lo + 1:
            u = matmul(m, u.reshape(1 << lo, 4, -1))
        else:
            t = u.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, -1).transpose(0, 2, 1, 3, 4)
            shape = t.shape
            t = matmul(m, t.reshape(-1, 4, shape[4]))
            u = t.reshape(shape).transpose(0, 2, 1, 3, 4)
    return u.reshape(dim, dim)


def gates_unitary(gates: list[Gate], n: int) -> ComplexMatrix:
    """2^n × 2^n unitary of a gate list, its first gate applied first.
    Each gate multiplies its qubits' axes of the reshaped operator once
    (`_apply`), so a list costs O(gates·4^n), not the O(layers·8^n) of
    dense layer products."""
    return _apply(identity(1 << n), gates, n)


# The widest span `pair_unitaries` multiplies as dense products. Two lists
# of G random builtin gates each, on a 2-core x86-64 VM with OpenBLAS on
# one thread, walked (`gates_unitary` twice) against the tree:
#   G =          10          20          40
#   k = 3    60 / 44 µs  124 / 75    240 / 138
#   k = 4    82 / 69     153 / 119   284 / 222
#   k = 5   134 / 205    265 / 454   432 / 936
# A gate costs O(4^k) walked and its share of a product O(8^k), so past
# k = 4 the walk wins at every length. At k = 4 the tree wins alone but
# not inside `optimize`: on the opt-deep bench (k = 4 for 69 of 70
# remainders, about 20 gates a side, padded to 32) `opt_p50_s` rose 3–6 %
# in all 6 parent/change pairs, so the bound is 3.
TREE_QUBITS = 3


def _operator(qs: tuple[int, ...], g: GateDef, k: int) -> ComplexMatrix:
    """g on qubits qs as a 2^k × 2^k operator, made by the gate kernel
    (`_apply`) on first use and kept on the gate (`GateDef.operators`)."""
    ops = g.operators
    op = ops.get((qs, k))
    if op is None:
        op = ops[qs, k] = _apply(identity(1 << k), [(qs, g)], k)
    return op


def pair_unitaries(
    ra: list[Gate], rb: list[Gate], k: int
) -> tuple[ComplexMatrix, ComplexMatrix]:
    """(A, B), the 2^k × 2^k unitaries of the gate lists ra and rb over k
    qubits, for a check that reads only how far apart they are: within
    float error of `gates_unitary` of each, not bitwise.

    Over at most TREE_QUBITS qubits, each gate's operator (`_operator`) is
    stacked, both lists in one (2, 2^⌈log₂G⌉, 2^k, 2^k) array with the
    shorter list and the rest padded by the identity, and neighbours are
    multiplied in one batched matmul per level, the later on the left:
    ⌈log₂G⌉ numpy calls in place of one per gate. Wider lists take
    `gates_unitary`, whose O(4^k) per gate beats a dense product's O(8^k).
    """
    if k > TREE_QUBITS:
        return gates_unitary(ra, k), gates_unitary(rb, k)
    dim = 1 << k
    span = 1 << (max(len(ra), len(rb), 1) - 1).bit_length()
    eye = identity(dim)
    ops = [_operator(qs, g, k) for qs, g in ra]
    ops += [eye] * (span - len(ra))
    ops += [_operator(qs, g, k) for qs, g in rb]
    ops += [eye] * (span - len(rb))
    u = np.array(ops).reshape(2, span, dim, dim)
    while u.shape[1] > 1:
        u = np.matmul(u[:, 1::2], u[:, 0::2])
    return u[0, 0], u[1, 0]


def gates_det(gates: list[Gate], n: int) -> complex:
    """The determinant of `gates_unitary(gates, n)` from the gates'
    determinants alone (`GateDef.det`), with no unitary: a gate on k of
    the n qubits acts as its matrix tensored with the identity on the
    other n − k, of determinant det(g)^(2^(n−k)). NaN when a gate's
    determinant is."""
    one = two = 1
    for qs, g in gates:
        if len(qs) == 1:
            one *= g.det
        else:
            two *= g.det
    if n == 1:
        return complex(one)
    det = one * one * two  # to the power 2^(n−2), by squaring
    for _ in range(n - 2):
        det *= det
    return complex(det)


def layer_unitary(layer: Layer, n: int) -> ComplexMatrix:
    """2^n × 2^n unitary of one layer: its gates (`gate_list`), cells
    that are exactly the 2×2 identity skipped. Raises StructuralError on
    an unpaired half."""
    return gates_unitary(gate_list(CircuitGrid(n, (layer,))), n)


def circuit_unitary(c: CircuitGrid) -> ComplexMatrix:
    """Temporal product of layer unitaries, U = L_m ··· L_1, folded over
    the circuit's gate list. Raises StructuralError on an unpaired half."""
    return gates_unitary(gate_list(c), c.n)


def gate_list(c: CircuitGrid) -> list[Gate]:
    """The gates of c in layer order, qubits ascending within a layer; a
    pair is listed once, at its lower-indexed half. Single cells whose
    matrix is exactly the 2×2 identity are left out: evaluating them
    (`_apply`) would change nothing. Raises StructuralError on an unpaired
    half. A copy of the list the grid keeps (`CircuitGrid.gates`), so a
    grid is walked at most once however often its gates are asked for,
    and a grid `pack` made, never."""
    return list(c.gates)


def _walk(c: CircuitGrid) -> list[Gate]:
    gates: list[Gate] = []
    append, n = gates.append, c.n
    for layer in c.layers:
        for q, cell in enumerate(layer):
            role = cell.role
            if role is None:
                if not cell.gate.exact_identity:
                    append(((q,), cell.gate))
                continue
            p = cell.partner
            # a single cell's partner is None, so this also finds a half
            # paired with a single cell
            if p is None or not 0 <= p < n or layer[p].partner != q:
                raise StructuralError(f"unpaired two-qubit half on qubit {q}")
            if q < p:
                qs = (q, p) if role == FIRST else (p, q)
                append((qs, layer[qs[0]].gate))
    return gates


def pack(gates: list[Gate], n: int) -> CircuitGrid:
    """The gates as a grid over n qubits, each in the earliest layer where
    its qubits are free; empty cells hold the exact Identity. Every cell
    is its gate's shared one (`shared_cell`), so packing equal gate lists
    gives equal layers.

    The grid keeps its gate list (`CircuitGrid.gates`), recorded as the
    gates are placed: each entry as given, in the slot of its layer and
    its lower qubit, a single unless it is the exact Identity, a pair once.
    Read in order, the slots are the walk `gate_list` would make, so no
    grid packed here is walked. Each entry's qubits must be a tuple of
    distinct qubits below n."""
    ident = single(IDENTITY_GATE)
    layers: list[list[Cell]] = []
    slots: list[Gate | None] = []  # per layer, per qubit: the gate listed there
    idle = [None] * n
    frontier = [0] * n
    for gate in gates:
        qs, g = gate
        if len(qs) == 1:
            (x,) = qs
            level = frontier[x]
            if level == len(layers):
                layers.append([ident] * n)
                slots += idle
            layers[level][x] = shared_cell(g)
            frontier[x] = level + 1
            if not g.exact_identity:
                slots[level * n + x] = gate
        else:
            x, y = qs
            level = frontier[x] if frontier[x] > frontier[y] else frontier[y]
            if level == len(layers):
                layers.append([ident] * n)
                slots += idle
            layer = layers[level]
            layer[x] = shared_cell(g, FIRST, y)
            layer[y] = shared_cell(g, SECOND, x)
            frontier[x] = frontier[y] = level + 1
            slots[level * n + (x if x < y else y)] = gate
    grid = CircuitGrid.from_lists(n, layers)
    # the grid is frozen: its cached `gates` is filled here
    object.__setattr__(grid, "gates", [gate for gate in slots if gate is not None])
    return grid


def _trim(a: list[Gate], b: list[Gate], n: int) -> tuple[list[Gate], list[Gate]]:
    """a and b without the gates both begin with, then without the gates
    both end with. From the front: while one exists, remove a gate that is
    first on each of its qubits in both lists, on the same qubits in the
    same order, with an exactly equal matrix; each such gate commutes
    exactly with every gate listed before it, so both lists lose the same
    right factor. Then the same from the back, for the left factor.

    Each list's gates are indexed per qubit once. One read position per
    qubit at each end serves both lists: a gate leaves both at once, so
    each qubit has lost as many gates from the one as from the other."""
    on_a: list[list[int]] = [[] for _ in range(n)]
    on_b: list[list[int]] = [[] for _ in range(n)]
    for gates, on in ((a, on_a), (b, on_b)):
        for i, (qs, _) in enumerate(gates):
            for x in qs:
                on[x].append(i)
    keep_a, keep_b = [True] * len(a), [True] * len(b)
    front, back = [0] * n, [0] * n
    # the k-th gate of a qubit from the front is at index k, from the back
    # at ~k (−1 − k): index k ^ flip
    for taken, flip in ((front, 0), (back, -1)):
        todo = list(range(n))
        while todo:
            q = todo.pop()
            wa, wb = on_a[q], on_b[q]
            left = front[q] + back[q]
            if left == len(wa) or left == len(wb):
                continue
            k = taken[q] ^ flip
            i, j = wa[k], wb[k]
            (qs, g), (qs_b, h) = a[i], b[j]
            if qs != qs_b or not (g is h or np.array_equal(g.matrix, h.matrix)):
                continue
            if len(qs) == 2:
                # the pair is listed on its other qubit too, not yet
                # passed from this end: it must be next there as well
                x = qs[0] if qs[1] == q else qs[1]
                k = taken[x] ^ flip
                if on_a[x][k] != i or on_b[x][k] != j:
                    continue
            for x in qs:
                taken[x] += 1
            todo.extend(qs)
            keep_a[i] = keep_b[j] = False
    return (
        [gate for gate, kept in zip(a, keep_a) if kept],
        [gate for gate, kept in zip(b, keep_b) if kept],
    )


def unshared_gates(
    ga: list[Gate], gb: list[Gate], n: int
) -> tuple[list[Gate], list[Gate], int]:
    """(ra, rb, k): the gates of the lists ga and gb over n qubits that
    remain once the gates both begin with and the gates both end with are
    removed (`_trim`), in order, over the k qubits they touch (renumbered
    in order; k = 0 when nothing remains).

    Gates on disjoint qubits commute exactly, so with A and B the
    remainders' k-qubit unitaries, U(a) − U(b) = S·((A − B) ⊗ I)·P for
    unitary S and P (qubits reordered): U(a) = U(b) iff A = B, and
    max|U(a) − U(b)| ≤ ‖A − B‖₂ ≤ ‖A − B‖_F. A gate is removed only with a
    gate of exactly equal matrix; one that is merely close to its partner
    or to the identity stays.
    """
    ga, gb = _trim(ga, gb, n)
    touched = sorted({x for qs, _ in ga + gb for x in qs})
    if len(touched) < n:
        at = {x: i for i, x in enumerate(touched)}.__getitem__
        ga, gb = ([(tuple(map(at, qs)), g) for qs, g in gs] for gs in (ga, gb))
    return ga, gb, len(touched)


def cell_is_identity(cell: Cell) -> bool:
    return cell.role is None and cell.gate.is_identity


def layer_is_identity(layer: Layer) -> bool:
    for cell in layer:
        if cell.role is not None or not cell.gate.is_identity:
            return False
    return True


def effective_depth(c: CircuitGrid) -> int:
    """Number of layers containing at least one non-Identity cell."""
    return sum(1 for layer in c.layers if not layer_is_identity(layer))


def asap_depth(gates: list[Gate], n: int) -> int:
    """Depth of a gate list over n qubits once every non-Identity gate is
    in the earliest layer where its qubits are free: for the list of a
    grid c, the effective depth of `qasm.parse(qasm.emit(c))`, never more
    than effective_depth(c). Folds a per-qubit frontier over the list."""
    frontier = [0] * n  # per qubit, the layers its gates fill
    for qs, g in gates:
        if g.is_identity:
            continue
        if len(qs) == 1:
            frontier[qs[0]] += 1
        else:
            x, y = qs
            frontier[x] = frontier[y] = max(frontier[x], frontier[y]) + 1
    return max(frontier, default=0)
