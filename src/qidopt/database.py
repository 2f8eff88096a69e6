"""The identity database: circuit encodings, the two lookup tables, and
the QIDB/1 file format.

Encoding: layers joined by '|', cells by ','. A single-qubit cell is the
gate name; a two-qubit half is NAME:C:p or NAME:T:p with p the partner
qubit index. Example (3 layers, 2 qubits):

    H,H|CX:C:1,CX:T:0|H,H

QIDB/1 files are UTF-8 text: a header block (format tag, digest algorithm,
product-convention tag, n/d/dp/neighbors_only, one line per gate with its
matrix), a body of buckets in fingerprint-hex order, and an END footer
carrying the circuit count and an MD5 checksum of the body; nothing
follows the footer. Same database -> same bytes.

`DatabaseMeta.gate_set` is the one gate table, and `decode` evaluates it.
A build keeps the gates it was given, and a load gives them back bitwise.
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
DatabaseFormatError naming it when the member is first read. A build and
`loads` index members the same way (`member_index`), and `loads` rejects
a member or bucket listed twice.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .circuit import Cell, CircuitGrid, Layer, cell_is_identity, enumerate_layers, single
from .circuit import layer_count
from .fingerprint import DIGEST_ALGORITHM, Fingerprint, canonicalize
from .gates import AngleRangeError, GateDef, GateSet, gate_from_name, make_gate

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


def encode_circuit(c: CircuitGrid) -> str:
    return "|".join([",".join(map(encode_cell, layer)) for layer in c.layers])


class RankRow(NamedTuple):
    """One member as the optimizer ranks it. Rows sort by (depth, cells,
    enc); `occupied` has bit li·n + q set for each non-Identity cell."""

    depth: int
    cells: int
    enc: str
    occupied: int


class LayerEntry(NamedTuple):
    """One enumerated layer of a database, as its members are read: in a
    `neighbors_only` database, only layers whose pairs are adjacent."""

    layer: Layer
    mask: int  # bit q set for each non-Identity cell


def layer_table(layers: list[Layer]) -> dict[str, LayerEntry]:
    """Each layer's text (as `encode_circuit` spells it) -> its entry, in
    the order of `layers`: a database's enumeration, `enumerate_layers`."""
    table = {}
    for layer in layers:
        mask = sum(1 << q for q, cell in enumerate(layer) if not cell_is_identity(cell))
        table[",".join(map(encode_cell, layer))] = LayerEntry(layer, mask)
    return table


# ── the database ────────────────────────────────────────────────────

@dataclass(frozen=True)
class DatabaseMeta:
    """The header of a database.

    `gate_set` is the gate table that `IdentityDatabase.decode` evaluates:
    the gates a build was given, or the gates a load read from the file's
    gate lines, bitwise those the file was written from (a rounded line of
    a gate its name does not resolve to, in an older file, gives its
    rounded matrix). The format tag, digest algorithm and convention are
    the module's constants, the only ones a file may hold.
    """

    n: int
    d: int
    dp: int
    neighbors_only: bool
    gate_set: GateSet

    @cached_property
    def identity_cell(self) -> Cell:
        """The gate table's Identity as a cell, made once: every window
        smaller than n×d that the optimizer looks up is padded with it."""
        return single(self.gate_set.identity)


@dataclass
class IdentityDatabase:
    """Two hash tables over one enumeration: encoding -> fingerprint, and
    fingerprint -> cost-sorted equivalent encodings. `layers` is the layer
    table of that enumeration (`layer_table`), and members are read only
    through it: a member must have d '|'-separated pieces, each the text of
    an enumerated layer over `meta.gate_set`, or it raises
    DatabaseFormatError.

    Buckets are ranked lazily: `rank_table` builds a bucket's rows on its
    first call and keeps them, at most one table per bucket, for as long
    as the bucket equals the members they were built from. A bucket edited
    in place is re-ranked on its next call.
    """

    meta: DatabaseMeta
    layers: dict[str, LayerEntry] = field(repr=False, compare=False)
    by_circuit: dict[str, Fingerprint] = field(default_factory=dict)
    by_fingerprint: dict[Fingerprint, list[str]] = field(default_factory=dict)
    # fingerprint -> (the bucket's members when ranked, their rows)
    _rank_tables: dict[Fingerprint, tuple[list[str], list[RankRow]]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    @property
    def total_circuits(self) -> int:
        return len(self.by_circuit)

    def bucket(self, fp: Fingerprint) -> list[str]:
        return self.by_fingerprint.get(fp, [])

    def rank_table(self, fp: Fingerprint) -> list[RankRow]:
        """Rows of the bucket's members shallower than d, sorted by (depth,
        cells, encoding). A tile is at most d layers deep, so a member of
        depth d never ranks below it. The table is reused only while the
        bucket still equals the snapshot it was built from; comparing the
        two lists costs one identity check per member."""
        members = self.bucket(fp)
        cached = self._rank_tables.get(fp)
        if cached is not None and cached[0] == members:
            return cached[1]
        rows = self.rank(members, self.meta.d - 1)
        if members:
            self._rank_tables[fp] = (list(members), rows)
        return rows

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


def member_index(by_fingerprint: dict[Fingerprint, list[str]]) -> dict[str, Fingerprint]:
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


def _gate_table(lines: list[str], dp: int) -> GateSet:
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
    for fp in sorted(db.by_fingerprint, key=lambda f: f.hex):
        encs = db.by_fingerprint[fp]
        body_lines.append(f"FP {fp.hex} {len(encs)}")
        body_lines.extend(encs)
    body = "\n".join(body_lines) + "\n" if body_lines else ""
    checksum = hashlib.md5(body.encode("utf-8")).hexdigest()
    return "\n".join(header) + "\n" + body + f"END {db.total_circuits} {checksum}\n"


def save(db: IdentityDatabase, path) -> None:
    data = dumps(db)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)


def _header_value(lines: list[str], idx: int, key: str) -> str:
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


def loads(text: str) -> IdentityDatabase:
    """Parse a QIDB/1 file; raises DatabaseFormatError (or a subclass) for
    any header, gate line, bucket or footer it cannot interpret, and for a
    member or bucket listed twice. Members are read on first use."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
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
    d = _int(_header_value(lines, 4, "d"), "d", 1)
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
    by_fingerprint: dict[Fingerprint, list[str]] = {}

    body_start = pos
    while pos < len(lines) and lines[pos].startswith("FP "):
        fields = lines[pos].split(" ")
        if len(fields) != 3:
            raise DatabaseFormatError(f"malformed bucket header {lines[pos]!r}")
        try:
            fp = Fingerprint.from_hex(fields[1])
        except ValueError:
            raise DatabaseFormatError(f"bad fingerprint {fields[1]!r}") from None
        count = _int(fields[2], "bucket size")
        pos += 1
        if pos + count > len(lines):
            raise TruncatedFileError("bucket cut short")
        encs = lines[pos : pos + count]
        pos += count
        if by_fingerprint.setdefault(fp, encs) is not encs:
            raise DatabaseFormatError(f"bucket {fields[1]} is listed twice")

    if pos >= len(lines) or not lines[pos].startswith("END "):
        raise TruncatedFileError("missing END footer")
    if pos + 1 < len(lines):
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
    by_circuit = member_index(by_fingerprint)
    if total != len(by_circuit):
        raise DatabaseFormatError(
            f"footer says {total} circuits, file holds {len(by_circuit)}"
        )
    # a database holds every circuit of its enumeration, so at least its
    # layers: this also bounds the enumeration by the file's size
    if layer_count(n, gate_set, meta.neighbors_only, total) > total:
        raise DatabaseFormatError(
            f"n {n} and the gate table give more layers than the file's {total} circuits"
        )
    try:
        layers = enumerate_layers(n, gate_set, meta.neighbors_only)
    except RecursionError:  # it recurses once per qubit
        raise DatabaseFormatError(f"n {n} is too large to enumerate") from None
    return IdentityDatabase(meta, layer_table(layers), by_circuit, by_fingerprint)


def load(path) -> IdentityDatabase:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
