"""The identity database: circuit encodings, the two lookup tables, and
the QIDB/1 file format.

Encoding: cells joined by ',' (`encode_layer`), layers by '|'. A
single-qubit cell is the gate name; a two-qubit half is NAME:C:p or
NAME:T:p with p the partner qubit index. Example (3 layers, 2 qubits):

    H,H|CX:C:1,CX:T:0|H,H

QIDB/1 files are UTF-8 text: a header block (format tag, digest algorithm,
product-convention tag, n/d/dp/neighbors_only, one line per gate with its
matrix), a body of buckets in fingerprint-hex order, and an END footer
carrying the circuit count and an MD5 checksum of the body; nothing
follows the footer. Same database -> same bytes.

A load (`loads`) splits the text into one tuple of lines once, then walks
the bucket headers in one pass: per bucket, one split of its header, one
key, one size and one dict store, the bucket being a slice of the lines.
The checksum is one MD5 over the body, and the member index
(`member_index`) the one pass over every member; members themselves are
read on first use.

`DatabaseMeta.gate_set` is the one gate table, and `decode` evaluates it.
A build keeps the gates it was given, except that a gate with no QASM
rendering whose name resolves to it exactly is made the named gate, as a
load makes it (`resolved_gates`); a load gives the gates back bitwise.
A gate whose name resolves to it exactly (a builtin, or an instantiated
template such as 'U1[pi/2]' with that template's matrix) gets a line with
its dp-rounded matrix, and a load resolves the name again. Any other gate
(a custom gate, or a name that clashes with a builtin but holds another
unitary) gets a line with every entry at full precision (`repr`), which a
load parses back to the same floats. A rounded line of such a gate, as
files written before full-precision lines hold, loads with its rounded
matrix.

Members are read through a layer table (`layer_table`) of the L layers
of `circuit.enumerate_layers(n, gate_set, neighbors_only)`: a build passes
the layers it enumerated, and `loads` enumerates them from the header and
gate table. A member is split on '|' and each piece looked up; `decode`
and the rank rows are assembled from the entries. A member of other than d
pieces, or with a piece that is not an enumerated layer's text (an unknown
gate, an unpaired cell, a wrong width, a spelling `encode_circuit` never
writes, a non-neighbour pair in a `neighbors_only` file), raises
DatabaseFormatError naming it when the member is first read. A database
indexes its members (`member_index`) on first use: a build leaves the
index to its first reader, and `loads` makes it at once, so a load
rejects a member listed twice, as it rejects a bucket listed twice.

A database evaluates its members itself, from the unitaries of its L
layers, made once: a member's unitary is a batched product of d of them.
It checks a bucket once, the first time it is asked (`sound`): the bucket
is sound when every member lies within a quarter of the optimizer's
collision guard of its first member, so the optimizer need not compare a
member window with each candidate. And it rules out, with no unitary, a
window that no bucket holds. A form filter keeps the phase of the
determinant of each bucket's first member. A window whose determinant, a
product of its gates' (`circuit.gates_det`), lies farther from every
phase than rounding at dp can move it is in no bucket (`may_hold_det`);
any other window is found by its fingerprint. The filter is made on
first use and trusted only when every bucket's first member reproduces
its key and every phase is a number; a member that does not decode
still raises when its bucket is first ranked, never when the filter is
made.

A database also says what two of its gates do when one follows the other
on a qubit they share (`pair_rule`): cancel, merge into one gate, commute
or block, read from the bucket of their two-gate member and trusted only
when that bucket is sound. The rule of each pair as a circuit places it
(`placed_rule`), on its own qubits, is made on first use and kept, for
the optimizer's rules pass. The database also keeps the optimizer's
record of each window slice it reads (`optimizer._Slices`), which depends
on the slice and the database alone.

A database does not change once a build or `loads` has made it: its
tables are read-only mappings and its buckets tuples, so everything it
derives from them is made once and kept, with nothing to invalidate.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .circuit import Cell, CircuitGrid, Gate, Layer, cell_is_identity, enumerate_layers
from .circuit import gate_list, gates_det, layer_count, layer_unitary
from .fingerprint import DIGEST_ALGORITHM, Fingerprint, canonicalize, fingerprint
from .gates import UNITARY_TOL, AngleRangeError, GateDef, GateSet, gate_from_name, make_gate

FORMAT_VERSION = "QIDB/1"
CONVENTION = "temporal-right"  # first layer rightmost in the matrix product


class DatabaseFormatError(ValueError):
    """Base class for malformed database files."""


class VersionMismatchError(DatabaseFormatError):
    pass


class DigestMismatchError(DatabaseFormatError):
    pass


class TruncatedFileError(DatabaseFormatError):
    pass


class ChecksumMismatchError(DatabaseFormatError):
    pass


# ── circuit encodings ───────────────────────────────────────────────

def encode_cell(cell: Cell) -> str:
    if cell.is_single:
        return cell.gate.name
    return f"{cell.gate.name}:{cell.role}:{cell.partner}"


def encode_layer(layer: Layer) -> str:
    return ",".join(map(encode_cell, layer))


def encode_circuit(c: CircuitGrid) -> str:
    return "|".join(map(encode_layer, c.layers))


class RankRow(NamedTuple):
    """One member as the optimizer ranks it. Rows sort by (depth, cells,
    enc); `occupied` has bit li·n + q set for each non-Identity cell."""

    depth: int
    cells: int
    enc: str
    occupied: int


CANCEL, MERGE, COMMUTE, BLOCK = "cancel", "merge", "commute", "block"


class PairRule(NamedTuple):
    """What a database's buckets say of two of its gates, the later placed
    after the earlier on qubits they share (`IdentityDatabase.pair_rule`):
    CANCEL, MERGE, COMMUTE or BLOCK. `merged` is, for MERGE only, the one
    gate that replaces the two, on qubits within the earlier gate's."""

    kind: str
    merged: Gate | None = None


class LayerEntry(NamedTuple):
    """One enumerated layer of a database, as its members are read: in a
    `neighbors_only` database, only layers whose pairs are adjacent."""

    layer: Layer
    mask: int  # bit q set for each non-Identity cell
    index: int  # its place in the enumeration, and in the layer unitaries


def layer_table(layers: list[Layer]) -> dict[str, LayerEntry]:
    """Each layer's text (`encode_layer`) -> its entry, in
    the order of `layers`: a database's enumeration, `enumerate_layers`."""
    table = {}
    for index, layer in enumerate(layers):
        mask = sum(1 << q for q, cell in enumerate(layer) if not cell_is_identity(cell))
        table[encode_layer(layer)] = LayerEntry(layer, mask, index)
    return table


# ── the database ────────────────────────────────────────────────────

@dataclass(frozen=True)
class DatabaseMeta:
    """The header of a database.

    `gate_set` is the gate table that `IdentityDatabase.decode` evaluates:
    the gates a build was given (a gate with no QASM rendering that its
    name resolves to, bitwise, made the named gate: `resolved_gates`), or
    the gates a load read from the file's gate lines, bitwise those the
    file was written from (a rounded line of a gate its name does not
    resolve to, in an older file, gives its rounded matrix). The format tag, digest algorithm and convention are
    the module's constants, the only ones a file may hold.
    """

    n: int
    d: int
    dp: int
    neighbors_only: bool
    gate_set: GateSet

    @property
    def guard(self) -> float:
        """The collision guard, 2·10^-dp·2ⁿ: the largest max|U − V| the
        optimizer accepts between a window's unitary and a candidate's."""
        return 2.0 * 10.0**-self.dp * (1 << self.n)


# buckets whose representatives the form filter evaluates together
_FORM_SLICE = 256


@dataclass(frozen=True)
class IdentityDatabase:
    """Fingerprint -> cost-sorted equivalent encodings, over one
    enumeration. `layers` is the layer table of that enumeration
    (`layer_table`), and members are read only through it: a member must
    have d '|'-separated pieces, each the text of an enumerated layer over
    `meta.gate_set`, or it raises DatabaseFormatError.

    A database is read-only: its tables are kept behind read-only views
    and each bucket is a tuple. Six things are made on first use and kept
    with the database:
      * the member index (`by_circuit`), each member -> the key of its
        bucket, as `member_index` makes it: a build leaves it to its first
        reader, `optimize` or a pair rule, and `loads` makes it at once;
      * the unitaries of its L layers over `meta.gate_set`, one (L, 2ⁿ, 2ⁿ)
        stack; a member's unitary is a batched product of d of them;
      * one rank table per bucket (`rank_table`), made on the bucket's
        first lookup, and with it one soundness flag (`sound`), made when
        first asked;
      * a form filter (`may_hold_det`), made on the first lookup of a
        window that is no member, 8 bytes per bucket: the phase of its
        first member's determinant;
      * one rule per pair as a circuit places it (`placed_rule`), on the
        circuit's qubits, made on the pair's first call: at most the
        placements of its gates over the widest circuit's qubits, squared.
        Keys are gate names, so no circuit's gate object is kept;
      * the optimizer's slice records (`optimizer._Slices`), one per
        (slice of a layer, qubit offset), each with the slice's gates:
        only slices whose cells hold its own gates or builtin ones, so at
        most those gates' cells over the widest circuit, per offset; a
        slice holding any other gate object, such as a parsed `u1(pi/8)`
        the database lacks, is remembered by its call alone.
    """

    meta: DatabaseMeta
    layers: Mapping[str, LayerEntry] = field(repr=False, compare=False)
    by_fingerprint: Mapping[Fingerprint, tuple[str, ...]] = field(default_factory=dict)
    # fingerprint -> [the bucket's rank rows, sound or None until asked]
    _rank_tables: dict[Fingerprint, list] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # (earlier gate name, its qubits, later gate name, its qubits) -> rule,
    # the qubits as placed (`placed_rule`)
    _placed_rules: dict[tuple, PairRule] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # (slice, qubit offset) -> (text, cut halves as (q, cell), non-Identity
    # cells, gates) (`optimizer._Slices`)
    _slice_records: dict[tuple, tuple[str, tuple, int, list[Gate]]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        for name in ("layers", "by_fingerprint"):
            object.__setattr__(self, name, MappingProxyType(getattr(self, name)))

    @cached_property
    def by_circuit(self) -> Mapping[str, Fingerprint]:
        """Each member -> the key of the bucket that holds it (`member_index`),
        made on first use. DatabaseFormatError naming a member listed twice."""
        return MappingProxyType(member_index(self.by_fingerprint))

    @property
    def total_circuits(self) -> int:
        return sum(map(len, self.by_fingerprint.values()))

    def bucket(self, fp: Fingerprint) -> tuple[str, ...]:
        return self.by_fingerprint.get(fp, ())

    def rank_table(self, fp: Fingerprint) -> list[RankRow]:
        """Rows of the bucket's members shallower than d, sorted by (depth,
        cells, encoding). A tile is at most d layers deep, so a member of
        depth d never ranks below it. The table is made on the bucket's
        first call and kept."""
        return self._table(fp)[0]

    def sound(self, fp: Fingerprint) -> bool:
        """Whether the unitary of every member of the bucket lies within
        guard/4 of its first member's, less a bound on float error
        (`_spread_limit`). Any two members of a sound bucket, each
        evaluated gate by gate (`circuit.circuit_unitary`), then differ by
        less than the guard, so the optimizer's check of a candidate
        against a member would accept every pair.

        Computed on the first call, from the layer unitaries, and kept
        with the bucket's rank table. Every member is read, so one that
        does not decode raises DatabaseFormatError. A key no bucket has is
        sound: its empty bucket has no member to disagree, as its rank
        table has no row."""
        table = self._table(fp)
        if table[1] is None:
            # `rank` has read every member, so each has d pieces, all layers
            layers, members = self.layers, self.bucket(fp)
            if not members:
                return True
            index = [layers[text].index for text in "|".join(members).split("|")]
            u = self._unitaries(index, len(members))
            # max|U − U₀| over the members' unitaries U, U₀ the first's
            table[1] = float(np.abs(u - u[0]).max()) <= self._spread_limit
        return table[1]

    def _table(self, fp: Fingerprint) -> list:
        """[the bucket's rank rows, whether it is sound or None until
        `sound` is asked], made on the first call for a bucket."""
        table = self._rank_tables.get(fp)
        if table is None:
            members = self.bucket(fp)
            table = [self.rank(members, self.meta.d - 1), None]
            if members:
                self._rank_tables[fp] = table
        return table

    def pair_rule(self, a: str, qa: tuple[int, ...], b: str, qb: tuple[int, ...]) -> PairRule:
        """The rule for the gate named b on qubits qb placed after the gate
        named a on qa, both gates of `meta.gate_set` and every qubit below
        n, read from the bucket of the two-gate member that holds a in its
        first layer and b in its second (Identity elsewhere and after).
        The rule counts only when that bucket is sound (`sound`):
          * CANCEL: the bucket is the Identity's;
          * MERGE: its cheapest row is one gate on qubits within qa;
          * COMMUTE: the member with b first and a second is in it too.
        Anything else is BLOCK, as is a pair that is no member (d < 2, a
        pair no neighbours-only database holds) or shares no qubit.
        Computed on each call: the rules pass reads it through
        `placed_rule`, which keeps what it finds."""
        n, ident = self.meta.n, self.meta.gate_set.identity.name

        def layer(name: str, qs: tuple[int, ...]) -> str:
            cells = [ident] * n
            if len(qs) == 1:
                cells[qs[0]] = name
            else:
                x, y = qs
                cells[x], cells[y] = f"{name}:C:{y}", f"{name}:T:{x}"
            return ",".join(cells)

        idle = [",".join([ident] * n)] * (self.meta.d - 2)
        fp = self.by_circuit.get("|".join([layer(a, qa), layer(b, qb)] + idle))
        if fp is None or not set(qa) & set(qb) or not self.sound(fp):
            return PairRule(BLOCK)
        # the bucket's cheapest row, if any is shallower than d
        cheaper = self.rank_table(fp)[:1]
        if cheaper and cheaper[0].depth == 0:
            return PairRule(CANCEL)
        if cheaper and cheaper[0].depth == 1:
            row = gate_list(self.decode(cheaper[0].enc))
            gates = [(qs, g) for qs, g in row if not g.is_identity]
            if len(gates) == 1 and set(gates[0][0]) <= set(qa):
                return PairRule(MERGE, gates[0])
        if self.by_circuit.get("|".join([layer(b, qb), layer(a, qa)] + idle)) == fp:
            return PairRule(COMMUTE)
        return PairRule(BLOCK)

    def placed_rule(self, a: str, qa: tuple[int, ...], b: str, qb: tuple[int, ...]) -> PairRule:
        """`pair_rule` for the gates named a and b as a circuit places
        them, on qubits qa and qb of any number: the pair's qubits are
        renumbered over the ascending qubits it covers (`_relative`), and a
        merged gate is given back on the circuit's qubits, within qa. A
        pair over more than n qubits, or that shares no qubit, is BLOCK.
        Made on the first call for the placed pair and kept, for the rules
        pass to read (`optimizer._Rules`)."""
        key = (a, qa, b, qb)
        rule = self._placed_rules.get(key)
        if rule is None:
            rel = _relative(qa, qb, self.meta.n) if set(qa) & set(qb) else None
            rule = PairRule(BLOCK) if rel is None else self.pair_rule(a, rel[0], b, rel[1])
            if rule.kind == MERGE:
                mq, mg = rule.merged
                # the merged gate's qubits, numbered as the earlier gate's are
                keep = qa if mq == rel[0] else tuple(qa[rel[0].index(r)] for r in mq)
                rule = PairRule(MERGE, (keep, mg))
            self._placed_rules[key] = rule
        return rule

    def rank(self, encs, max_depth: int) -> list[RankRow]:
        """Rows of the encodings with effective depth at most max_depth,
        sorted. Every encoding is read, so a member that does not decode
        raises DatabaseFormatError whatever its depth."""
        n = self.meta.n
        rows = []
        for enc in encs:
            entries = self._entries(enc)
            depth = sum(1 for e in entries if e.mask)
            if depth <= max_depth:
                cells = sum(e.mask.bit_count() for e in entries)
                # the shifted masks share no bit, so their sum is their OR
                occupied = sum(e.mask << (li * n) for li, e in enumerate(entries))
                rows.append(RankRow(depth, cells, enc, occupied))
        rows.sort()
        return rows

    def may_hold_det(self, det: complex) -> bool:
        """Whether some bucket may hold a unitary of determinant det, as
        `circuit.gates_det` gives it from a window's gates, with no
        unitary. False only when the form filter is verified and the phase
        of det lies farther than `_det_limit`, as a chord of the unit
        circle, from the determinant phase of every bucket's first member,
        its representative; never for a NaN det.

        The filter holds the representatives' sorted determinant phases
        (`_form`). The nearest of them on the circle is one of the two
        that det's phase falls between, by bisection, wrapping at ±π.
        """
        phases = self._form
        if phases is None:
            return True
        if not len(phases):
            return False
        theta, half = math.atan2(det.imag, det.real), self._det_limit / 2
        at = int(phases.searchsorted(theta))
        # |e^iα − e^iβ| = 2·|sin((α − β)/2)|; a NaN compares false
        return not (
            abs(math.sin((theta - phases[at - 1]) / 2)) > half
            and abs(math.sin((theta - phases[at % len(phases)]) / 2)) > half
        )

    def decode(self, enc: str) -> CircuitGrid:
        """The circuit over `meta.gate_set`, the same gates after a load as
        at the build. A member with a piece outside the layer table raises
        DatabaseFormatError naming it."""
        return CircuitGrid(self.meta.n, tuple(e.layer for e in self._entries(enc)))

    def _entries(self, enc: str) -> list[LayerEntry]:
        """The layer-table entries of a member's '|'-separated pieces, of
        which there must be d."""
        table, pieces = self.layers, enc.split("|")
        if len(pieces) != self.meta.d:
            raise DatabaseFormatError(
                f"member {enc!r}: {len(pieces)} layers, not the database's d = {self.meta.d}"
            )
        try:
            return [table[text] for text in pieces]
        except KeyError as e:
            raise DatabaseFormatError(
                f"member {enc!r}: {e.args[0]!r} is not a layer of this database"
            ) from None

    @cached_property
    def _layer_unitaries(self) -> np.ndarray:
        """The unitaries of the enumerated layers, in enumeration order."""
        return np.stack([layer_unitary(e.layer, self.meta.n) for e in self.layers.values()])

    def _unitaries(self, index: list[int], count: int) -> np.ndarray:
        """The unitaries L_d···L_1 of `count` members given by the layer
        indices of their pieces, in order, as a (count, 2ⁿ, 2ⁿ) stack: each
        is its first layer's unitary left-multiplied by the next one's, in
        turn, as a build multiplies."""
        rows = np.array(index, dtype=np.intp).reshape(count, self.meta.d)
        mats = self._layer_unitaries
        u = mats[rows[:, 0]]
        for k in range(1, self.meta.d):
            u = np.matmul(mats[rows[:, k]], u)
        return u

    @cached_property
    def _spread_limit(self) -> float:
        """The largest spread of a sound bucket: guard/4 less E, where E
        bounds the float error of evaluating a member both ways, as d
        layer products here or as at most n·d gates in `circuit_unitary`.
        Each way is within d·(n + 2ⁿ)·2ⁿ·2⁻⁴⁹ of the exact unitary,
        entrywise, to first order in the unit roundoff. E is far below
        guard/4 except at large dp (from dp = 13 at n = 2, d = 4), where
        no bucket is sound."""
        n, d = self.meta.n, self.meta.d
        dim = 1 << n
        return self.meta.guard / 4 - d * (n + dim) * dim * 2.0**-48

    @cached_property
    def _det_limit(self) -> float:
        """The largest chord |e^iα − e^iβ| between the determinant phase α
        of a window (`circuit.gates_det` of its gates) and β of a bucket's
        representative (of its layers) when the bucket holds the window:
        √2·4ⁿ·10^-dp, plus E for float error and for gates that are
        unitary only within τ = UNITARY_TOL (`GateDef.det` is NaN past it).

        Let D = 2ⁿ. A bucket holds a window's unitary U only when U rounds
        at dp to the form of the representative's R, so each (re, im)
        component of U − R is below 10^-dp, and each entry below
        ε = √2·10^-dp. For D×D matrices A and B whose rows have 2-norm at
        most ρ, changing one row at a time and bounding each step by
        Hadamard's inequality gives |det A − det B| ≤ D·√D·max|A − B|·ρ^(D−1),
        which is at most D²·max|A − B| while ρ^(D−1) ≤ √D. A product of at
        most n·d gates, each unitary within τ, has ρ ≤ 1 + 2·n·d·τ, so
        this holds for any database that can be built, and the exact
        determinants differ by at most 4ⁿ·ε.

        E covers the rest, to first order:
          * U and R are float evaluations of the products whose exact
            determinants `gates_det` multiplies, each within
            d·(n + D)·D·2⁻⁴⁹ entrywise (`_spread_limit`); with the rounding
            of the gate determinants and their products, at most
            8ⁿ·d·(n + D)·2⁻⁴⁶ in all;
          * a phase is a determinant moved onto the unit circle, which
            lengthens the chord by each determinant's distance from it: a
            k×k gate's |det| lies within k²τ/2 of 1, so at most 2·n·d·D·τ
            for each product, 4·n·d·D·τ for both.
        """
        n, d, dim = self.meta.n, self.meta.d, 1 << self.meta.n
        rounding = math.sqrt(2) * 4.0**n * 10.0**-self.meta.dp
        return rounding + 4 * n * d * dim * UNITARY_TOL + 8.0**n * d * (n + dim) * 2.0**-46

    @cached_property
    def _form(self) -> np.ndarray | None:
        """The form filter, made once from the layer unitaries, a slice of
        buckets at a time: the sorted determinant phases of the buckets'
        representatives, each the product of its layers' determinants
        (`circuit.gates_det`). None when some bucket has no representative,
        or one that does not decode or whose fingerprint, made by one
        batched `fingerprint` call per slice, is not the bucket's key; and
        None when a phase is NaN."""
        n, dp, d, keys = self.meta.n, self.meta.dp, self.meta.d, list(self.by_fingerprint)
        layer_dets = np.array(
            [gates_det(gate_list(CircuitGrid(n, (e.layer,))), n) for e in self.layers.values()]
        )
        dets = []
        for s in range(0, len(keys), _FORM_SLICE):
            part = keys[s : s + _FORM_SLICE]
            try:
                reps = [self._entries(self.by_fingerprint[fp][0]) for fp in part]
            except (IndexError, DatabaseFormatError):  # an empty bucket, a malformed member
                return None
            index = [e.index for es in reps for e in es]
            if fingerprint(self._unitaries(index, len(part)), dp) != part:
                return None
            dets.append(layer_dets[np.reshape(index, (len(part), d))].prod(axis=1))
        phases = np.angle(np.concatenate(dets)) if dets else np.empty(0)
        return np.sort(phases) if np.isfinite(phases).all() else None


def _relative(qa: tuple[int, ...], qb: tuple[int, ...], n: int):
    """(qa, qb) renumbered over the ascending qubits they cover, or None
    when they cover more than n."""
    qubits = sorted({*qa, *qb})
    if len(qubits) > n:
        return None
    at = qubits.index
    return tuple(map(at, qa)), tuple(map(at, qb))


def member_index(by_fingerprint: Mapping[Fingerprint, tuple[str, ...]]) -> dict[str, Fingerprint]:
    """Each member of the buckets -> its bucket's fingerprint, in bucket
    order. DatabaseFormatError naming a member listed twice."""
    index = {enc: fp for fp, encs in by_fingerprint.items() for enc in encs}
    if len(index) != sum(map(len, by_fingerprint.values())):
        seen = Counter(enc for encs in by_fingerprint.values() for enc in encs)
        member = next(enc for enc, times in seen.items() if times > 1)
        raise DatabaseFormatError(f"member {member!r} is listed twice")
    return index


def _named_gate(name: str) -> GateDef | None:
    """The builtin or instantiated template gate named exactly `name`, or
    None ('U1[2*pi/4]' instantiates the gate named 'U1[pi/2]', so it names
    none). DatabaseFormatError when `name` is a template gate whose angle
    does not fit a float."""
    try:
        gate = gate_from_name(name)
    except AngleRangeError as e:
        raise DatabaseFormatError(f"gate {name}: {e}") from None
    except ValueError:
        return None
    return gate if gate.name == name else None


def resolved_gates(gates: GateSet) -> GateSet:
    """The gate set a build runs on: `gates` with each gate that has
    neither a QASM token nor a template, but whose name resolves to a gate
    with a bitwise-equal matrix (`_named_gate`), such as
    `make_gate("H", H.matrix)`, made that named gate, as a load of its line
    makes it; so a built database and its loaded copy hold gates that
    render alike. The set itself when no gate is swapped. File bytes do
    not change: a swapped gate's line is the named gate's (`_gate_line`)."""

    def named(gate: GateDef) -> GateDef:
        if gate.qasm_name is None and gate.template is None:
            try:
                found = _named_gate(gate.name)
            except DatabaseFormatError:
                return gate
            if found is not None and np.array_equal(found.matrix, gate.matrix):
                return found
        return gate

    swapped = [named(g) for g in gates]
    return gates if swapped == list(gates) else GateSet(swapped)


# ── persistence ─────────────────────────────────────────────────────

def _gate_line(gate: GateDef, dp: int) -> str:
    """The gate's line: its dp-rounded matrix when its name resolves to it
    (`_named_gate`, with a bitwise-equal matrix), else every entry at full
    precision, which `_parse_gate_line` reads back bitwise."""
    named = _named_gate(gate.name)
    if named is not None and np.array_equal(named.matrix, gate.matrix):
        return f"gate {gate.name} {gate.arity} {canonicalize(gate.matrix, dp)}"
    entries = [f"{z.real!r},{z.imag!r}" for z in gate.matrix.ravel().tolist()]
    text = ";".join([str(len(gate.matrix))] + entries)
    if named is not None and text == canonicalize(named.matrix, dp):
        # every entry is a dp-digit decimal, so the line would read as the
        # named gate's rounded line: one more digit tells them apart
        text += "0"
    return f"gate {gate.name} {gate.arity} {text}"


def _parse_gate_line(line: str, dp: int) -> GateDef:
    """The gate a gate line stores: the gate its name resolves to
    (`_named_gate`) when the line holds that gate's dp-rounded matrix,
    else a gate with the stored matrix and no QASM token or template."""
    fields = line.split(" ")
    if len(fields) != 4 or fields[0] != "gate":
        raise DatabaseFormatError(f"malformed gate line: {line!r}")
    name, canon = fields[1], fields[3]
    arity = _int(fields[2], f"gate {name} arity")
    named = _named_gate(name)
    if named is not None and named.arity == arity and canonicalize(named.matrix, dp) == canon:
        return named
    toks = canon.split(";")
    dim = _int(toks[0], f"gate {name} matrix size")
    if len(toks) != dim * dim + 1:
        raise DatabaseFormatError(f"gate {name}: bad matrix payload")
    # a rounded line (an older file's, for a gate no name resolves to)
    # cannot meet the registration tolerance; scale it
    tol = max(1e-10, 4.0 * dim * 10.0**-dp)
    try:
        entries = []
        for tok in toks[1:]:
            re_s, im_s = tok.split(",")
            entries.append(complex(float(re_s), float(im_s)))
        rows = [entries[r * dim : (r + 1) * dim] for r in range(dim)]
        return make_gate(name, rows, arity=arity, tol=tol)
    except ValueError as e:
        raise DatabaseFormatError(f"gate {name}: {e}") from None


def _gate_table(lines: tuple[str, ...], dp: int) -> GateSet:
    gates = [_parse_gate_line(line, dp) for line in lines]
    try:
        return GateSet(gates)
    except ValueError as e:
        raise DatabaseFormatError(f"gate table: {e}") from None


def dumps(db: IdentityDatabase) -> str:
    meta = db.meta
    header = [
        FORMAT_VERSION,
        f"digest {DIGEST_ALGORITHM}",
        f"convention {CONVENTION}",
        f"n {meta.n}",
        f"d {meta.d}",
        f"dp {meta.dp}",
        f"neighbors_only {'true' if meta.neighbors_only else 'false'}",
        f"gates {len(meta.gate_set.gates)}",
    ]
    header.extend(_gate_line(g, meta.dp) for g in meta.gate_set.gates)

    body_lines: list[str] = []
    # 16 digest bytes sort as their lowercase hex does
    for fp in sorted(db.by_fingerprint, key=bytes):
        encs = db.by_fingerprint[fp]
        body_lines.append(f"FP {bytes.hex(fp)} {len(encs)}")
        body_lines.extend(encs)
    body = "\n".join(body_lines) + "\n" if body_lines else ""
    checksum = hashlib.md5(body.encode("utf-8")).hexdigest()
    return "\n".join(header) + "\n" + body + f"END {db.total_circuits} {checksum}\n"


def save(db: IdentityDatabase, path) -> None:
    data = dumps(db)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)


def _header_value(lines: tuple[str, ...], idx: int, key: str) -> str:
    if idx >= len(lines):
        raise TruncatedFileError(f"missing {key} header line")
    parts = lines[idx].split(" ", 1)
    if parts[0] != key or len(parts) != 2:
        raise DatabaseFormatError(f"expected '{key} ...' header, got {lines[idx]!r}")
    return parts[1]


def _int(text: str, what: str, lo: int = 0, hi: int | None = None) -> int:
    """`text` as an integer in [lo, hi] (no upper bound when hi is None)."""
    try:
        value = int(text)
    except ValueError:
        raise DatabaseFormatError(f"{what}: {text!r} is not an integer") from None
    if value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise DatabaseFormatError(f"{what}: {value} is not {bound}")
    return value


def _bucket_error(line: str) -> DatabaseFormatError:
    """The error of a bucket header `loads` could not read, for its first
    fault: its field count, its fingerprint or its size (`_int`, which
    raises it)."""
    fields = line.split(" ")
    if len(fields) != 3:
        return DatabaseFormatError(f"malformed bucket header {line!r}")
    try:
        fp = bytes.fromhex(fields[1])
    except ValueError:
        fp = b""
    if len(fp) != 16:
        return DatabaseFormatError(f"bad fingerprint {fields[1]!r}")
    _int(fields[2], "bucket size", 1)
    return DatabaseFormatError(f"malformed bucket header {line!r}")


def loads(text: str) -> IdentityDatabase:
    """Parse a QIDB/1 file; raises DatabaseFormatError (or a subclass) for
    any header, gate line, bucket or footer it cannot interpret, and for a
    member or bucket listed twice: the member index is made here, once.

    It costs one split of the text, one pass over the bucket headers (one
    header split, key, size and store per bucket, each bucket a slice of
    the lines), one MD5 of the body, and the member index, the one pass
    over every member. Members are read on first use."""
    # one tuple of the lines, so that each bucket is a slice of it; the
    # list it is made from is dropped at once
    split = text.split("\n")
    if split[-1] == "":
        split.pop()
    lines = tuple(split)
    del split
    if not lines:
        raise TruncatedFileError("empty database file")
    if lines[0] != FORMAT_VERSION:
        raise VersionMismatchError(
            f"unsupported format {lines[0]!r}, expected {FORMAT_VERSION}"
        )
    digest = _header_value(lines, 1, "digest")
    if digest != DIGEST_ALGORITHM:
        raise DigestMismatchError(
            f"digest algorithm {digest!r}, expected {DIGEST_ALGORITHM}"
        )
    convention = _header_value(lines, 2, "convention")
    if convention != CONVENTION:
        raise DatabaseFormatError(f"convention {convention!r}, expected {CONVENTION}")
    n = _int(_header_value(lines, 3, "n"), "n", 1, len(text))  # a member spells n cells
    d = _int(_header_value(lines, 4, "d"), "d", 1, len(text))  # a member spells d layers
    dp = _int(_header_value(lines, 5, "dp"), "dp", 1, 15)
    neighbors = _header_value(lines, 6, "neighbors_only")
    if neighbors not in ("true", "false"):
        raise DatabaseFormatError(f"neighbors_only {neighbors!r}, expected true or false")
    gate_count = _int(_header_value(lines, 7, "gates"), "gates")

    pos = 8
    if pos + gate_count > len(lines):
        raise TruncatedFileError("gate table cut short")
    gate_set = _gate_table(lines[pos : pos + gate_count], dp)
    pos += gate_count
    meta = DatabaseMeta(n, d, dp, neighbors == "true", gate_set)
    by_fingerprint: dict[Fingerprint, tuple[str, ...]] = {}

    # the one loop over buckets: per bucket one split, one key made in C
    # calls (`Fingerprint.from_hex`), one int() and one dict store, which
    # is also the test for a bucket listed twice; a header any of them
    # cannot read is re-read by `_bucket_error`, which names its fault
    body_start, size, new, fromhex = pos, len(lines), bytes.__new__, bytes.fromhex
    store = by_fingerprint.setdefault
    while pos < size and lines[pos][:3] == "FP ":
        try:
            _, hex_, count = lines[pos].split(" ")
            fp = new(Fingerprint, fromhex(hex_))
            count = int(count)
        except ValueError:
            count = 0
        if count < 1 or len(fp) != 16:
            raise _bucket_error(lines[pos])
        pos += 1
        end = pos + count
        if end > size:
            raise TruncatedFileError("bucket cut short")
        bucket = lines[pos:end]
        if store(fp, bucket) is not bucket:
            raise DatabaseFormatError(f"bucket {hex_} is listed twice")
        pos = end

    if pos >= size or not lines[pos].startswith("END "):
        raise TruncatedFileError("missing END footer")
    if pos + 1 < size:
        raise DatabaseFormatError(f"content after the END line: {lines[pos + 1][:40]!r}")
    fields = lines[pos].split(" ")
    if len(fields) != 3:
        raise DatabaseFormatError(f"malformed END line {lines[pos]!r}")
    total, checksum = _int(fields[1], "END circuit count"), fields[2]
    # the body runs from the first bucket header to the END line, the last
    # line: sliced from `text` at offsets summed over the lines outside it
    start = sum(len(line) + 1 for line in lines[:body_start])
    end = len(text) - len(lines[pos]) - text.endswith("\n")
    actual = hashlib.md5(text[start:end].encode("utf-8")).hexdigest()
    if actual != checksum:
        raise ChecksumMismatchError("body checksum mismatch")
    # a database holds every circuit of its enumeration, so at least its
    # layers: this also bounds the enumeration by the file's size
    held = sum(map(len, by_fingerprint.values()))
    if layer_count(n, gate_set.g, gate_set.t, meta.neighbors_only, held) > held:
        raise DatabaseFormatError(
            f"n {n} and the gate table give more layers than the file's {held} circuits"
        )
    try:
        layers = enumerate_layers(n, gate_set, meta.neighbors_only)
    except RecursionError:  # it recurses once per qubit
        raise DatabaseFormatError(f"n {n} is too large to enumerate") from None
    db = IdentityDatabase(meta, layer_table(layers), by_fingerprint)
    # the member index, made here once: it rejects a member listed twice
    if total != len(db.by_circuit):
        raise DatabaseFormatError(f"footer says {total} circuits, file holds {held}")
    return db


def load(path) -> IdentityDatabase:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
