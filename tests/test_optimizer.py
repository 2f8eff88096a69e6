"""Tile extraction, classification, lookup, selection, and optimization."""

import hashlib
import math
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gate, gate_set, grid

from qidopt import circuit as circuit_module
from qidopt import optimizer as optimizer_module
from qidopt.cli import parse_gate_set
from qidopt.circuit import (
    CircuitGrid,
    StructuralError,
    asap_depth,
    cell_is_identity,
    circuit_unitary,
    effective_depth,
    gate_list,
    gates_det,
    gates_unitary,
    half,
    layer_is_identity,
    pack,
    single,
    validate,
)
from qidopt.database import (
    BLOCK,
    CANCEL,
    COMMUTE,
    MERGE,
    IdentityDatabase,
    _relative,
    dumps,
    encode_circuit,
    encode_layer,
    loads,
)
from qidopt.fingerprint import Fingerprint, fingerprint
from qidopt.gates import U1, AngleExpr, GateSet, instantiate_param_gate, make_gate
from qidopt.generator import GeneratorConfig, build_database, enumerate_layers
from qidopt.matrices import identity, max_abs_diff
from qidopt.optimizer import (
    AppliedSubstitution,
    OptimizeReport,
    TileClass,
    TileSpec,
    _candidate_order,
    _Slices,
    _Window,
    _window,
    apply_rules,
    apply_substitution,
    classify_tile,
    extract_tiles,
    lookup,
    normalize_cut_tile,
    optimize,
)
from qidopt.qasm import emit, parse

# the 3-qubit circuits around the boundary-cut figures
FIG11 = grid(
    "H,Y,S",
    "CX:C:1,CX:T:0,H",
    "I,X,I",
    "S,S,H",
)
FIG13 = grid(
    "H,Y,S",
    "CX:C:1,CX:T:0,Y",
    "I,X,H",
    "I,X,H",
)


def window(c, spec, qubit_offset, layer_offset):
    return next(
        t
        for t in extract_tiles(c, spec)
        if t.qubit_offset == qubit_offset and t.layer_offset == layer_offset
    )


def whole(c):
    """The tile of all of c, as `extract_tiles` cuts it."""
    return _window(c, 0, 0, c.n, c.m)


def cut_slots(cuts):
    """The (layer, qubit) of each cut half of per-layer cuts."""
    return [(li, q) for li, cut in enumerate(cuts) for q, _ in cut]


class TestExtractTiles:
    def test_four_tiles(self):
        c = grid("H,Y,S", "X,H,H", "I,X,I")  # 3 qubits, 3 layers
        assert len(extract_tiles(c, TileSpec(2, 2))) == 4

    def test_whole_circuit_single_tile(self):
        c = grid("H,H", "X,X")
        tiles = extract_tiles(c, TileSpec(2, 2))
        assert len(tiles) == 1
        assert encode_circuit(tiles[0].sub) == encode_circuit(c)

    def test_window_formula(self):
        c = grid(*(["H,H"] * 7))  # n=2, m=7
        assert len(extract_tiles(c, TileSpec(2, 3))) == 5

    def test_order_layer_major(self):
        c = grid("H,Y,S", "X,H,H", "I,X,I")
        coords = [(t.layer_offset, t.qubit_offset) for t in extract_tiles(c, TileSpec(2, 2))]
        assert coords == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_too_large_spec(self):
        with pytest.raises(ValueError, match="does not fit"):
            extract_tiles(grid("H,H"), TileSpec(2, 2))


class TestClassifyTile:
    def test_cut_in_middle_layer_is_invalid(self):
        t = window(FIG11, TileSpec(2, 3), 1, 0)
        assert classify_tile(t) is TileClass.INVALID

    def test_cut_in_first_layer_is_valid_with_cut(self):
        t = window(FIG11, TileSpec(2, 3), 1, 1)
        assert classify_tile(t) is TileClass.VALID_WITH_CUT

    def test_cut_in_last_layer_is_valid_with_cut(self):
        c = grid("I,X,I", "S,S,H", "CX:C:1,CX:T:0,H")
        t = window(c, TileSpec(2, 3), 1, 0)
        assert classify_tile(t) is TileClass.VALID_WITH_CUT

    def test_internal_pair_is_valid(self):
        t = window(FIG11, TileSpec(2, 3), 0, 0)
        assert classify_tile(t) is TileClass.VALID

    def test_single_qubit_tiles_always_valid(self):
        t = window(FIG11, TileSpec(1, 2), 1, 0)
        assert classify_tile(t) in (TileClass.VALID, TileClass.VALID_WITH_CUT)


class TestNormalizeCutTile:
    def test_cut_replaced_and_recorded(self):
        t = window(FIG13, TileSpec(2, 3), 1, 1)
        norm = normalize_cut_tile(t)
        assert encode_circuit(norm.sub) == "I,Y|X,H|X,H"
        assert cut_slots(norm.cuts) == [(0, 0)]
        ((_, cell),) = norm.cuts[0]
        # the circuit's own half, its partner on the circuit's qubit 0
        assert cell is FIG13.layers[1][1] is half(gate("CX"), "T", 0)
        assert validate(norm.sub) == []

    def test_valid_tile_unchanged(self):
        t = window(FIG13, TileSpec(2, 3), 0, 0)
        norm = normalize_cut_tile(t)
        assert norm.cuts == [[], [], []]
        assert encode_circuit(norm.sub) == encode_circuit(t.sub)

    def test_cuts_at_both_ends_recorded(self):
        c = grid(
            "CX:C:1,CX:T:0,I",
            "I,X,X",
            "CX:C:1,CX:T:0,H",
        )
        t = window(c, TileSpec(2, 3), 1, 0)
        norm = normalize_cut_tile(t)
        assert cut_slots(norm.cuts) == [(0, 0), (2, 0)]
        assert encode_circuit(norm.sub) == "I,I|X,X|I,H"

    def test_invalid_tile_rejected(self):
        t = window(FIG11, TileSpec(2, 3), 1, 0)
        with pytest.raises(ValueError, match="invalid tile"):
            normalize_cut_tile(t)


def encs(rows):
    return [row.enc for row in rows]


def rows_of(db, *candidates):
    """The database's rank rows of the candidates, none dropped for depth."""
    return db.rank(candidates, max_depth=db.meta.d)


def padded(t, db):
    """The tile's window with Identity rows and layers up to n×d."""
    n, d = db.meta.n, db.meta.d
    ident = single(db.meta.gate_set.identity)
    layers = [layer + (ident,) * (n - t.sub.n) for layer in t.sub.layers]
    return CircuitGrid(n, tuple(layers + [(ident,) * n] * (d - t.sub.m)))


def tile_lookup(t, db):
    """`lookup` of a normalized tile: the gate list of its window padded
    to n×d, and its effective depth."""
    return lookup(gate_list(padded(t, db)), effective_depth(t.sub), db)


class TestLookup:
    def test_hh_tile_finds_identity(self, db_ih_1q):
        c = grid("H", "H")
        (t,) = extract_tiles(c, TileSpec(1, 2))
        cands = encs(tile_lookup(normalize_cut_tile(t), db_ih_1q))
        assert "I|I" in cands
        assert "H|H" not in cands  # the tile itself is excluded

    def test_lookup_without_cheaper_equal(self):
        db = build_database(GeneratorConfig(n=1, d=1, gate_set=gate_set("I", "X")))
        c = grid("X")
        (t,) = extract_tiles(c, TileSpec(1, 1))
        assert tile_lookup(normalize_cut_tile(t), db) == []

    def test_cut_tile_candidates(self):
        gs = gate_set("I", "X", "Y", "H")
        db = build_database(GeneratorConfig(n=2, d=3, gate_set=gs))
        t = normalize_cut_tile(window(FIG13, TileSpec(2, 3), 1, 1))
        cands = encs(tile_lookup(t, db))
        assert "I,Y|I,I|I,I" in cands
        # members as deep as the tile cannot rank below it
        bucket = db.bucket(db.by_circuit["I,Y|I,H|I,H"])
        assert "I,Y|X,I|X,I" in bucket and "I,Y|X,I|X,I" not in cands
        assert all(effective_depth(db.decode(enc)) < 3 for enc in cands)

    @pytest.mark.parametrize("spec", [TileSpec(3, 2), TileSpec(2, 4)], ids=["wide", "deep"])
    def test_tile_larger_than_database_rejected(self, db_ihxzcx, spec):
        t = normalize_cut_tile(window(grid(*["H,H,X"] * 4), spec, 0, 0))
        with pytest.raises(ValueError, match="exceeds database bounds"):
            tile_lookup(t, db_ihxzcx)

    def test_fingerprint_fallback_for_foreign_gates(self, db_ih_1q):
        # S is not in the database gate set; lookup goes through the unitary
        c = grid("S", "SDG")
        (t,) = extract_tiles(c, TileSpec(1, 2))
        cands = encs(tile_lookup(normalize_cut_tile(t), db_ih_1q))
        assert "I|I" in cands

    def test_no_strict_improvement_means_none(self, db_ihxzcx):
        c = grid("I,X", "I,I", "I,I")
        (t,) = extract_tiles(c, TileSpec(2, 3))
        # another cost-1 circuit with the same unitary is not an improvement
        assert "I,I|I,X|I,I" in db_ihxzcx.bucket(db_ihxzcx.by_circuit["I,X|I,I|I,I"])
        assert tile_lookup(normalize_cut_tile(t), db_ihxzcx) == []


class TestCandidateCost:
    def test_cost_is_decoded_effective_depth(self, db_ihxzcx):
        # a 2x4 tile blocks no slot of a 2x3 member, so every member is
        # ranked and each cost read off the tokens is checked
        tile = whole(grid("H,H", "H,H", "H,H", "H,H"))
        checked = 0
        for bucket in db_ihxzcx.by_fingerprint.values():
            ordered = _candidate_order(tile, rows_of(db_ihxzcx, *bucket), db_ihxzcx)
            assert len(ordered) == len(bucket)
            for c, enc in ordered:
                assert c == effective_depth(db_ihxzcx.decode(enc))
            checked += len(ordered)
        assert checked == 5832


IHXZCX = ("I", "H", "X", "Z", "CX")


@pytest.fixture(scope="module")
def db_near():
    """n=3, d=2, {I,H,X,Z,CX}, built with adjacent pairs only."""
    return build_database(
        GeneratorConfig(n=3, d=2, gate_set=gate_set(*IHXZCX), neighbors_only=True)
    )


@pytest.fixture(scope="module")
def db_near_ihcx():
    """n=3, d=3, {I,H,CX}, adjacent pairs only. Its full build rewrites
    CX(2,1)·CX(3,2)·CX(2,1) with a CX on qubits 3 and 1, a pair the input
    lacks."""
    return build_database(
        GeneratorConfig(n=3, d=3, gate_set=gate_set("I", "H", "CX"), neighbors_only=True)
    )


@pytest.fixture(scope="module")
def rank_dbs(db_ihxzcx, db_near):
    # n3d2 holds pairs on qubits 0 and 2; its neighbours-only build, whose
    # buckets are n3d2's without them, does not
    return {
        "n2d3": db_ihxzcx,
        "n2d4": build_database(GeneratorConfig(n=2, d=4, gate_set=gate_set(*IHXZCX))),
        "n3d2": build_database(GeneratorConfig(n=3, d=2, gate_set=gate_set(*IHXZCX))),
        "n3d2-near": db_near,
    }


def fresh_copy(db):
    """The database's tables in a new database, none of its buckets ranked
    yet, and no form filter or member index made."""
    return IdentityDatabase(db.meta, db.layers, db.by_fingerprint)


def poisoned(db, member, fp):
    """A fresh copy whose bucket fp leads with `member`, moved there from
    its own bucket, which is dropped if that leaves it empty: as a
    malformed file's buckets arrive, each member in one bucket."""
    own = db.by_circuit[member]
    buckets = {**db.by_fingerprint, fp: (member, *db.bucket(fp))}
    buckets[own] = tuple(enc for enc in db.bucket(own) if enc != member)
    return IdentityDatabase(db.meta, db.layers, {key: encs for key, encs in buckets.items() if encs})


def poisoned_xx(db):
    """A fresh copy whose X⊗X bucket claims I⊗Z is equivalent to it: the
    poison's single gate cell makes it sort ahead of every honest cost-1
    candidate."""
    return poisoned(db, "I,I|I,I|I,Z", db.by_circuit["X,X|I,I|I,I"])


def far_pair(layer):
    """The layer holds a pair of qubits more than one apart."""
    return any(not cell.is_single and abs(cell.partner - q) > 1 for q, cell in enumerate(layer))


# layers of circuits one qubit wider than each database
WIDER_LAYERS = {n: enumerate_layers(n + 1, gate_set(*IHXZCX)) for n in (2, 3)}


def crosses(layer, qs, n):
    """A pair in the layer has one half inside qubits qs..qs+n-1."""
    inside = range(qs, qs + n)
    return any(
        not cell.is_single and (q in inside) != (cell.partner in inside)
        for q, cell in enumerate(layer)
    )


def reference_order(t, db):
    """The ranking done on every lookup: split every member of the padded
    tile's whole bucket, filter, then sort on (depth, cells, encoding). It
    applies a neighbours-only database's rule itself, which the optimizer
    leaves to the database's enumeration."""
    ident = db.meta.gate_set.identity.name
    tile_cost = effective_depth(t.sub)
    # every slot past the window and every cut slot must hold Identity
    window = {(li, q) for li in range(t.sub.m) for q in range(t.sub.n)}
    free = window.difference(cut_slots(t.cuts))
    ranked = []
    for enc in db.bucket(fingerprint(circuit_unitary(padded(t, db)), db.meta.dp)):
        rows = [layer.split(",") for layer in enc.split("|")]
        depth = sum(1 for row in rows if any(tok != ident for tok in row))
        if depth >= tile_cost:
            continue
        if any(
            tok != ident and (li, q) not in free
            for li, row in enumerate(rows)
            for q, tok in enumerate(row)
        ):
            continue
        if db.meta.neighbors_only and any(
            abs(int(tok.rsplit(":", 1)[1]) - q) > 1
            for row in rows
            for q, tok in enumerate(row)
            if ":" in tok
        ):
            continue
        cells = sum(1 for row in rows for tok in row if tok != ident)
        ranked.append((depth, cells, enc))
    return [(depth, enc) for depth, _, enc in sorted(ranked)]


class TestRankTable:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_table_ranking_matches_reference(self, rank_dbs, data):
        db = rank_dbs[data.draw(st.sampled_from(sorted(rank_dbs)), label="db")]
        n, d = db.meta.n, db.meta.d
        qs = data.draw(st.sampled_from([0, 1]), label="qubit offset")
        j = data.draw(st.integers(1, d), label="window depth")
        pool = WIDER_LAYERS[n]
        cut = [l for l in pool if crosses(l, qs, n)]
        whole = [l for l in pool if not crosses(l, qs, n)]
        # a pair may reach out of the window in its first and last layer only
        ends = {0: data.draw(st.booleans(), label="cut first"),
                j - 1: data.draw(st.booleans(), label="cut last")}
        layers = [
            data.draw(st.sampled_from(cut if ends.get(li) else whole))
            for li in range(j)
        ]
        if j > 1 and data.draw(st.booleans(), label="echo"):
            # undo some single gates of the first layer (all are self-inverse),
            # so a one-layer member, pairs kept, equals the tile
            undo = data.draw(st.lists(st.booleans(), min_size=n + 1, max_size=n + 1))
            layers[1] = tuple(
                cell if cell.is_single and u else single(gate("I"))
                for cell, u in zip(layers[0], undo)
            )
        tile = _window_tile(CircuitGrid(n + 1, tuple(layers)), qs, n, j)
        norm = normalize_cut_tile(tile)
        assert _candidate_order(norm, tile_lookup(norm, db), db) == reference_order(norm, db)


    def test_neighbour_rule_filters_table_rows(self, rank_dbs):
        # CX on qubits 0 and 2 has two one-layer equals in n3d2, and both
        # break the neighbour rule, so the neighbours-only build has none
        norm = normalize_cut_tile(whole(grid("CX:C:2,X,CX:T:0", "I,X,I")))
        for name, count in (("n3d2", 2), ("n3d2-near", 0)):
            db = rank_dbs[name]
            got = _candidate_order(norm, tile_lookup(norm, db), db)
            assert got == reference_order(norm, db)
            assert len(got) == count


def _window_tile(c, qs, i, j):
    (t,) = [t for t in extract_tiles(c, TileSpec(i, j)) if t.qubit_offset == qs]
    return t


@pytest.fixture(scope="module")
def db_ixyh():
    return build_database(
        GeneratorConfig(n=2, d=3, gate_set=gate_set("I", "X", "Y", "H"))
    )


class TestCandidateOrder:

    def test_picks_cheapest_of_three(self, db_ixyh):
        t = normalize_cut_tile(window(FIG13, TileSpec(2, 3), 1, 1))
        candidates = ["I,Y|I,H|I,H", "I,Y|X,I|X,I", "I,Y|I,I|I,I"]
        assert _candidate_order(t, rows_of(db_ixyh, *candidates), db_ixyh)[0][1] == "I,Y|I,I|I,I"

    def test_cut_slot_must_hold_identity(self, db_ixyh):
        t = normalize_cut_tile(window(FIG13, TileSpec(2, 3), 1, 1))
        # Y,Y in the first layer is equal to the tile but occupies the cut slot
        assert _candidate_order(t, rows_of(db_ixyh, "Y,Y|Y,I|I,I"), db_ixyh) == []

    def test_neighbours_only_database_places_adjacent_pair(self, db_near_ihcx):
        # CX(0,2)·CX(1,2)·CX(0,2) = CX(1,2): the window is no member of the
        # neighbours-only database, so its bucket is found by fingerprint
        db = db_near_ihcx
        c = grid("CX:C:2,I,CX:T:0", "I,CX:C:2,CX:T:1", "CX:C:2,I,CX:T:0")
        assert encode_circuit(c) not in db.by_circuit
        norm = normalize_cut_tile(window(c, TileSpec(3, 3), 0, 0))
        ((_, chosen), *_) = _candidate_order(norm, tile_lookup(norm, db), db)
        assert chosen == "I,CX:C:2,CX:T:1|I,I,I|I,I,I"
        halves = [
            (q, cell) for layer in db.decode(chosen).layers
            for q, cell in enumerate(layer) if not cell.is_single
        ]
        assert halves and all(abs(cell.partner - q) == 1 for q, cell in halves)

    def test_tie_break_prefers_fewer_cells(self, db_ihxzcx):
        c = grid("X,I", "I,X", "X,X")  # depth 3, equal to the identity
        (t,) = extract_tiles(c, TileSpec(2, 3))
        norm = normalize_cut_tile(t)
        # both candidates are depth-2 identities; the four-cell one sorts
        # first by encoding, but the two-cell one wins
        many, few = "H,H|H,H|I,I", "H,I|H,I|I,I"
        assert many < few
        ((_, chosen), *_) = _candidate_order(norm, rows_of(db_ihxzcx, many, few), db_ihxzcx)
        assert chosen == few


class TestApplySubstitution:
    def test_full_boundary_cut_sequence(self):
        gs = gate_set("I", "X", "Y", "H")
        db = build_database(GeneratorConfig(n=2, d=3, gate_set=gs))
        t = normalize_cut_tile(window(FIG13, TileSpec(2, 3), 1, 1))
        new = apply_substitution(FIG13, t, "I,Y|I,I|I,I", db)
        assert encode_circuit(new) == "H,Y,S|CX:C:1,CX:T:0,Y"
        assert effective_depth(new) == 2
        assert max_abs_diff(circuit_unitary(FIG13), circuit_unitary(new)) <= 1e-9
        assert validate(new) == []

    def test_identity_layers_dropped(self, db_ihxzcx):
        c = grid("I,H", "I,H", "I,I")
        (t,) = extract_tiles(c, TileSpec(2, 3))
        norm = normalize_cut_tile(t)
        new = apply_substitution(c, norm, "I,I|I,I|I,I", db_ihxzcx)
        assert new.m == 0

    def test_corrupt_splice_raises(self, db_ihxzcx):
        # a recorded cut half whose partner slot the splice fills with Identity
        c = grid("H,H", "H,H")
        t = normalize_cut_tile(window(c, TileSpec(2, 2), 0, 0))
        t.cuts = [[(0, half(gate("CX"), "C", 1))], []]
        with pytest.raises(AssertionError, match="invalid span"):
            apply_substitution(c, t, "I,I|I,I|I,I", db_ihxzcx)

    def test_splice_keeps_layers_outside_its_span(self, db_ihxzcx):
        c = grid("H,X", "I,Z", "I,Z", "X,H")
        t = normalize_cut_tile(window(c, TileSpec(2, 2), 0, 1))
        new = apply_substitution(c, t, "I,I|I,I|I,I", db_ihxzcx)
        assert new.m == 2
        assert new.layers[0] is c.layers[0] and new.layers[1] is c.layers[3]

    @pytest.mark.parametrize(
        "rows, spec, chosen",
        [
            (("H,H", "H,H"), TileSpec(2, 2), "I,I|I,I|H,H"),  # a gate past the window's layers
            (("H,X", "H,X"), TileSpec(1, 2), "I,X|I,X|I,I"),  # a gate past its rows
            (("H,H,X", "H,H,X"), TileSpec(3, 2), "I,I|I,I|I,I"),  # a window wider than n
            (("H,H",) * 4, TileSpec(2, 4), "I,I|I,I|I,I"),  # a window deeper than d
        ],
        ids=["layers", "rows", "wide-window", "deep-window"],
    )
    def test_candidate_outside_window_raises(self, db_ihxzcx, rows, spec, chosen):
        c = grid(*rows)
        t = normalize_cut_tile(window(c, spec, 0, 0))
        with pytest.raises(ValueError, match="does not fit the"):
            apply_substitution(c, t, chosen, db_ihxzcx)

    def test_partial_height_substitution(self):
        gs = gate_set("I", "H")
        db = build_database(GeneratorConfig(n=1, d=2, gate_set=gs))
        c = grid("H,X", "H,X")
        t = window(c, TileSpec(1, 2), 0, 0)
        norm = normalize_cut_tile(t)
        new = apply_substitution(c, norm, "I|I", db)
        assert encode_circuit(new) == "I,X|I,X"
        assert max_abs_diff(circuit_unitary(c), circuit_unitary(new)) <= 1e-9


class TestOptimize:
    def test_headline_five_layer_circuit(self, db_ihxzcx):
        c = grid("I,H", "CX:C:1,CX:T:0", "Z,Z", "CX:C:1,CX:T:0", "I,H")
        out, report = optimize(c, db_ihxzcx)
        assert report.initial_depth == 5
        assert report.final_depth == 1
        assert encode_circuit(out) == "I,X"
        assert report.residual <= 1e-9

    def test_cz_sandwich(self):
        gs = gate_set("I", "Z", "CZ")
        db = build_database(GeneratorConfig(n=2, d=3, gate_set=gs))
        c = grid("CZ:C:1,CZ:T:0", "Z,I", "CZ:C:1,CZ:T:0")
        out, report = optimize(c, db)
        assert report.final_depth == 1
        assert encode_circuit(out) == "Z,I"

    def test_already_optimal_is_fixpoint(self, db_ihxzcx):
        c = grid("I,X")
        out, report = optimize(c, db_ihxzcx)
        assert report.substitutions == []
        assert encode_circuit(out) == "I,X"
        assert report.final_depth == 1

    def test_no_substitution_checks_no_qubit(self, db_ihxzcx):
        _, report = optimize(grid("H,X", "CX:C:1,CX:T:0"), db_ihxzcx)
        assert report.substitutions == []
        assert (report.check_qubits, report.residual) == (0, 0.0)

    def test_check_runs_on_unshared_qubits(self, db_ihxzcx):
        # H·X·H on qubit 0 is Z, which no pair rule finds and a sweep does;
        # the gates on qubits 2 to 8 are shared
        c = CircuitGrid.from_lists(9, [
            grid("H,X,Z,H,X,Z,H,X,Z").layers[0],
            grid("X,I,I,I,CX:C:5,CX:T:4,I,I,I").layers[0],
            grid("H,Z,X,Z,I,I,Z,H,X").layers[0],
        ])
        out, report = optimize(c, db_ihxzcx)
        assert report.substitutions and (report.cancels, report.merges) == (0, 0)
        assert 0 < report.check_qubits < 9
        assert report.residual <= 1e-12

    def test_depth_never_increases(self, db_ihxzcx, rng):
        layers = enumerate_layers(2, db_ihxzcx.meta.gate_set)
        for _ in range(60):
            m = int(rng.integers(1, 7))
            picks = rng.integers(0, len(layers), size=m)
            c = CircuitGrid(2, tuple(layers[i] for i in picks))
            out, report = optimize(c, db_ihxzcx)
            assert report.final_depth <= report.initial_depth
            assert report.residual <= 1e-12
            assert validate(out) == []

    def test_builtin_database_splices_exact_gates(self, db_ihxzcx):
        # every gate of this database resolves to an exact builtin, so the
        # output of an exact input carries no dp-rounding noise
        rng = np.random.default_rng(4242)
        layers = enumerate_layers(4, gate_set("I", "H", "X", "Z", "CX"))
        applied = 0
        for _ in range(8):
            picks = rng.integers(0, len(layers), size=10)
            c = CircuitGrid(4, tuple(layers[i] for i in picks))
            _, report = optimize(c, db_ihxzcx)
            applied += len(report.substitutions)
            assert report.residual <= 1e-12
        assert applied > 0

    def test_substitutions_strictly_improve_tiles(self, db_ihxzcx):
        c = grid("H,H", "H,H", "I,Z", "Z,Z")
        out, report = optimize(c, db_ihxzcx)
        for sub in report.substitutions:
            assert sub.cost_after < sub.cost_before
        assert max_abs_diff(circuit_unitary(c), circuit_unitary(out)) <= 1e-6

    def test_neighbors_only_output_clean(self):
        gs = gate_set("I", "H", "CX")
        db = build_database(
            GeneratorConfig(n=3, d=2, gate_set=gs, neighbors_only=True)
        )
        c = grid("H,I,H", "CX:C:1,CX:T:0,I", "CX:C:1,CX:T:0,I", "H,I,H")
        out, report = optimize(c, db, TileSpec(3, 2))
        for layer in out.layers:
            for q, cell in enumerate(layer):
                if not cell.is_single:
                    assert abs(cell.partner - q) == 1
        assert report.residual <= 1e-6

    def test_sweeps_reach_fixpoint(self, db_ihxzcx):
        # 4 of these 10 circuits used to cycle until the iteration cap
        rng = np.random.default_rng(7)
        layers = enumerate_layers(4, gate_set("I", "H", "X", "Z", "CX"))
        for _ in range(10):
            picks = rng.integers(0, len(layers), size=40)
            c = CircuitGrid(4, tuple(layers[i] for i in picks))
            out, report = optimize(c, db_ihxzcx)
            assert report.iterations < 10
            _, again = optimize(out, db_ihxzcx)
            assert again.substitutions == []

    @pytest.mark.parametrize(
        "rows, spec",
        [
            (("H,I,I", "H,I,X"), None),
            (("H,I,I", "H,I,X", "I,X,I", "Z,I,I"), TileSpec(2, 2)),
        ],
        ids=["default-tile", "tile-2x2"],
    )
    def test_candidate_taller_than_window(self, db_ihxzcx, rows, spec):
        # a window shorter than the database depth is matched padded to its
        # 3 layers and takes a candidate whose gates lie in the window's own
        # layers, while the rows outside it stay
        _, report = optimize(grid(*rows), db_ihxzcx, spec)
        assert report.final_depth == 1
        assert report.residual <= 1e-12

    def test_iters_bound_respected(self, db_ihxzcx):
        c = grid("H,H", "H,H", "H,H", "H,H")
        _, report = optimize(c, db_ihxzcx, iters=1)
        assert report.iterations == 1

    def test_collision_guard_skips_poisoned_bucket(self, db_ihxzcx):
        db = poisoned_xx(db_ihxzcx)
        # H·Z·H is X on each qubit: no pair rule applies, so the sweep
        # meets the X⊗X bucket
        c = grid("H,H", "Z,Z", "H,H")
        out, report = optimize(c, db)
        assert report.collisions_skipped >= 1
        assert max_abs_diff(circuit_unitary(c), circuit_unitary(out)) <= 1e-6
        assert report.final_depth == 1

    def test_final_depth_is_depth_of_emitted_circuit(self, db_ihxzcx):
        # the returned grid keeps the layers the splices left; the report
        # counts the depth its QASM parses back to
        rng = np.random.default_rng(31)
        layers = enumerate_layers(4, gate_set(*IHXZCX))
        packed = 0
        for _ in range(10):
            picks = rng.integers(0, len(layers), size=12)
            c = CircuitGrid(4, tuple(layers[i] for i in picks))
            out, report = optimize(c, db_ihxzcx)
            assert report.final_depth == effective_depth(parse(emit(out)))
            assert report.final_depth <= report.initial_depth == effective_depth(c)
            packed += report.final_depth < effective_depth(out)
        assert packed > 0

    def test_unpaired_half_outside_every_splice_raises(self, db_ihxzcx):
        # the half on qubit 0 names qubit 3, which holds Identity; every
        # window holding it is invalid or all Identity, so nothing is
        # spliced, the check skips the layers it shares with the input, and
        # the output's depth, read over all of it, finds the half
        bad = (grid("CX:C:3,CX:T:0,I,I").layers[0][0],) + (single(gate("I")),) * 3
        c = CircuitGrid(4, grid("X,I,I,I").layers + (bad,) + grid("X,I,I,I").layers)
        with pytest.raises(StructuralError, match="unpaired"):
            optimize(c, db_ihxzcx)

    def test_spec_larger_than_db_rejected(self, db_ihxzcx):
        c = grid("H,H")
        with pytest.raises(ValueError, match="exceeds database"):
            optimize(c, db_ihxzcx, TileSpec(2, 4))


def pin_corpus(count=60):
    """Seeded QASM circuits on 4 and 9 qubits: h, x, z, cx (on any pair or
    on neighbours only) and `t`, a gate the IHXZCX database lacks."""
    rng = random.Random("optimize-pin")
    texts = []
    for k in range(count):
        n = 4 if k % 3 else 9
        neighbours = k % 2 == 0
        lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
        for _ in range(rng.randrange(20, 41)):
            r = rng.random()
            if r < 0.3:
                a = rng.randrange(n - 1)
                b = a + 1 if neighbours else rng.choice([x for x in range(n) if x != a])
                a, b = (a, b) if rng.random() < 0.5 else (b, a)
                lines.append(f"cx q[{a}],q[{b}];")
            else:
                token = "t" if r < 0.4 else rng.choice("hxz")
                lines.append(f"{token} q[{rng.randrange(n)}];")
        texts.append("\n".join(lines) + "\n")
    return texts


def test_optimize_output_pinned(db_ihxzcx):
    # what every optimize of this corpus returns and reports, pinned the
    # way QIDB bytes are: a faster sweep must leave all of it unchanged
    digest = hashlib.md5()
    for text in pin_corpus():
        out, report = optimize(parse(text), db_ihxzcx)
        subs = [
            (s.layer_offset, s.qubit_offset, s.encoding, s.cost_before, s.cost_after)
            for s in report.substitutions
        ]
        facts = (report.iterations, subs, report.collisions_skipped, report.final_depth)
        digest.update(emit(out).encode())
        digest.update(repr(facts).encode())
    assert digest.hexdigest() == "07e04666a05d5947350907090e837408"


def test_check_pinned(db_ihxzcx):
    # the final check's residual (bit for bit), its k and the depth of
    # the output, over the same corpus: a cheaper check must leave them
    digest = hashlib.md5()
    for text in pin_corpus():
        _, report = optimize(parse(text), db_ihxzcx)
        facts = (report.residual.hex(), report.check_qubits, report.final_depth)
        digest.update(repr(facts).encode())
    assert digest.hexdigest() == "a6fc6f2e54bacea30c89af2a92b3754d"


# ── incremental sweeps: the span accept rule and the failed-window memo ──


def full_potential(c):
    """(effective depth, non-Identity cells, layer texts in order) of the
    whole circuit."""
    cells = sum(1 for layer in c.layers for cell in layer if not cell_is_identity(cell))
    return effective_depth(c), cells, [encode_layer(layer) for layer in c.layers]


def _lowers(old, new):
    """The span rule, kept as a reference for `_Window.lowers`: whether
    replacing the span `old` of a circuit by the built span `new` strictly
    lowers its potential. Neither the circuit nor `new` holds an
    all-Identity layer, so the depths differ by the span lengths and the
    cells by the spans' cells; when both tie, the spans are as long, so
    the first layer text that differs lies inside them."""
    if len(new) != len(old):
        return len(new) < len(old)

    def cells(span):
        return sum(1 for layer in span for cell in layer if not cell_is_identity(cell))

    if cells(new) != cells(old):
        return cells(new) < cells(old)
    return list(map(encode_layer, new)) < list(map(encode_layer, old))


def reference_sweep(c, db, spec, report, memo):
    """The full-recompute sweep, kept as an oracle: every window is tried
    on every sweep (`memo` is ignored), and each trial is validated and
    judged on the whole circuit's potential."""
    i = min(spec.i, c.n)
    level = full_potential(c)
    changed = False
    idx = 0
    while True:
        j = min(spec.j, c.m)
        ls, qs = divmod(idx, c.n - i + 1)
        if j == 0 or ls > c.m - j:
            break
        idx += 1
        tile = _window(c, qs, ls, i, j)
        if classify_tile(tile) is TileClass.INVALID:
            continue
        norm = normalize_cut_tile(tile, db.meta.gate_set.identity)
        rows = tile_lookup(norm, db)
        if not rows:
            continue
        tile_unitary = circuit_unitary(norm.sub)
        for cand_cost, enc in _candidate_order(norm, rows, db):
            if max_abs_diff(tile_unitary, circuit_unitary(db.decode(enc))) > db.meta.guard:
                report.collisions_skipped += 1
                continue
            trial = apply_substitution(c, norm, enc, db)
            assert validate(trial) == []
            trial_level = full_potential(trial)
            if trial_level >= level:
                continue
            report.substitutions.append(
                AppliedSubstitution(ls, qs, enc, effective_depth(norm.sub), cand_cost)
            )
            c, level = trial, trial_level
            changed = True
            break
    return c, changed


def window_text(slices, records):
    """The padded encoding a sweep reads off a window's slice records."""
    return "|".join(rec[0] for rec in records) + slices.idle * (slices.d - len(records))


def read_window(slices, span, qs):
    """What a sweep reads off the records of the valid window over `span`
    at qubit offset qs (`_Slices.read`): its padded encoding, its
    effective depth (its slices with a non-Identity cell), and its padded
    gate list."""
    records = slices.read(span, qs)
    gates = [g for rec in records for g in rec[3]]
    return (
        window_text(slices, records),
        sum(rec[2] > 0 for rec in records),
        gates + slices.spare * (slices.d - len(span)),
    )


def sweep_window(c, ls, qs, i, j, db):
    """The `_Window` a sweep makes of the valid i×j window at layer ls and
    qubit qs of c, from its slice records."""
    _, cuts, cells, _ = zip(*_Slices(db, i).read(c.layers[ls : ls + j], qs))
    return _Window(c, ls, qs, i, cuts, sum(cells), db.meta.n)


def assert_records_are_the_tile(records, norm):
    """Each slice record's cut halves are the normalized tile's in that
    layer, cell for cell, and its cells the layer's non-Identity cells."""
    assert [list(rec[1]) for rec in records] == norm.cuts
    assert [rec[2] for rec in records] == [
        sum(not cell_is_identity(cell) for cell in layer) for layer in norm.sub.layers
    ]


def assert_same_as_reference(monkeypatch, c, db, **kwargs):
    out, report = optimize(c, db, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(optimizer_module, "_sweep", reference_sweep)
        ref_out, ref = optimize(c, db, **kwargs)
    assert emit(out) == emit(ref_out)
    assert encode_circuit(out) == encode_circuit(ref_out)
    for name in (
        "initial_depth",
        "final_depth",
        "substitutions",
        "iterations",
        "residual",
        "collisions_skipped",
        "check_qubits",
    ):
        assert getattr(report, name) == getattr(ref, name), name
    assert ref.windows_reused == 0
    return report


# layers without an all-Identity one, holding `t`, which IHXZCX lacks
SPAN_LAYERS = {
    n: [l for l in enumerate_layers(n, gate_set(*IHXZCX, "T")) if not layer_is_identity(l)]
    for n in (2, 3, 4)
}


class TestIncrementalSweep:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_span_rule_matches_full_potential(self, db_ihxzcx, data):
        db = db_ihxzcx
        n = data.draw(st.integers(2, 4), label="qubits")
        layers = []
        for _ in range(data.draw(st.integers(1, 6), label="layers")):
            if layers and data.draw(st.booleans(), label="echo"):
                # keep some single gates of the previous layer, so cells
                # cancel (h, x, z) or not (t) across the two
                keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
                echo = tuple(
                    cell if cell.is_single and k else single(gate("I"))
                    for cell, k in zip(layers[-1], keep)
                )
                if not layer_is_identity(echo):
                    layers.append(echo)
                    continue
            layers.append(data.draw(st.sampled_from(SPAN_LAYERS[n])))
        c = CircuitGrid(n, tuple(layers))
        j = data.draw(st.integers(1, min(db.meta.d, c.m)), label="window depth")
        ls = data.draw(st.integers(0, c.m - j), label="layer offset")
        qs = data.draw(st.integers(0, n - db.meta.n), label="qubit offset")
        tile = _window(c, qs, ls, db.meta.n, j)
        if classify_tile(tile) is TileClass.INVALID:
            return
        norm = normalize_cut_tile(tile)
        old = c.layers[ls : ls + j]
        # the sweep's window, made from its slice records: its cut halves
        # are the tile's, cell for cell, and its cells the normalized tile's
        w = sweep_window(c, ls, qs, db.meta.n, j, db)
        assert [list(cut) for cut in w.cuts] == norm.cuts
        assert w.cells == sum(not cell_is_identity(x) for l in norm.sub.layers for x in l)
        rows = {row.enc: row for row in tile_lookup(norm, db)}
        for _, enc in _candidate_order(norm, list(rows.values()), db):
            trial = apply_substitution(c, norm, enc, db)
            k = trial.m - c.m + j
            # the splice leaves every layer outside its span as it was
            assert all(a is b for a, b in zip(trial.layers[:ls], c.layers))
            assert all(a is b for a, b in zip(trial.layers[ls + k :], c.layers[ls + j :]))
            assert validate(trial) == []
            new = trial.layers[ls : ls + k]
            want = full_potential(trial) < full_potential(c)
            # the span rule on the built span, and the verdict with none
            assert _lowers(old, new) == want
            assert w.lowers(rows[enc], db) == want

    def test_pinned_corpus_matches_reference_sweep(self, db_ihxzcx, monkeypatch):
        reused = 0
        for text in pin_corpus()[::2]:
            reused += assert_same_as_reference(monkeypatch, parse(text), db_ihxzcx).windows_reused
        assert reused > 0

    def test_neighbors_only_matches_reference_sweep(self, db_near, monkeypatch):
        rng = np.random.default_rng(12)
        for _ in range(6):
            picks = rng.integers(0, len(SPAN_LAYERS[4]), size=8)
            c = CircuitGrid(4, tuple(SPAN_LAYERS[4][i] for i in picks))
            assert_same_as_reference(monkeypatch, c, db_near)

    def test_memo_counts_collisions_again(self, db_ihxzcx, monkeypatch):
        db = poisoned_xx(db_ihxzcx)
        # the window on qubits 1-2 of the first three layers is X⊗X behind a
        # cut half: the poison is skipped as a collision, and both honest
        # candidates raise the encoding, so the window fails; the H·X·H on
        # qubit 3, which no pair rule rewrites, is spliced after it, so a
        # second sweep meets it again
        c = grid(
            "H,I,I,H",
            "Z,X,I,Z",
            "CX:C:1,CX:T:0,X,X",
            "T,T,T,T",
            "H,Z,X,H",
            "I,I,I,X",
            "I,I,I,H",
        )
        report = assert_same_as_reference(monkeypatch, c, db)
        assert report.iterations == 2
        assert report.collisions_skipped == 2
        assert report.windows_reused > 0
        rng = np.random.default_rng(5)
        layers = enumerate_layers(4, gate_set(*IHXZCX))
        for _ in range(10):
            picks = rng.integers(0, len(layers), size=6)
            assert_same_as_reference(monkeypatch, CircuitGrid(4, tuple(layers[i] for i in picks)), db)

    def test_idle_layers_are_dropped_up_front(self, db_ihxzcx):
        idle = tuple(single(gate("I")) for _ in range(4))
        for text in pin_corpus()[:12]:
            c = parse(text)
            if c.n != 4:
                continue
            padded = CircuitGrid(4, (idle,) + sum(((l, idle) for l in c.layers), ()))
            out, report = optimize(c, db_ihxzcx)
            out_p, report_p = optimize(padded, db_ihxzcx)
            assert encode_circuit(out_p) == encode_circuit(out)
            assert report_p.substitutions == report.substitutions
            assert (report_p.initial_depth, report_p.final_depth, report_p.iterations) == (
                report.initial_depth,
                report.final_depth,
                report.iterations,
            )
            assert (report_p.residual, report_p.check_qubits) == (
                report.residual,
                report.check_qubits,
            )

    def test_windows_reused_counts_memo_hits(self, db_ihxzcx):
        _, one = optimize(grid("H,X", "CX:C:1,CX:T:0"), db_ihxzcx)
        assert one.iterations == 1 and one.windows_reused == 0
        c = grid("H,I,I,H", "Z,X,I,Z", "X,T,X,X", "T,T,T,T", "H,Z,X,H", "I,I,I,X", "I,I,I,H")
        _, many = optimize(c, db_ihxzcx)
        assert many.iterations > 1 and many.windows_reused > 0

    def test_lowers_compares_layer_texts(self):
        # "H,T" is a proper prefix of "H,TDG": as a list of layer texts the
        # `T` span is lower wherever it stands; as one '|'-joined string it
        # was higher mid-circuit, since 'D' < '|'
        t_span, tdg_span = grid("H,T").layers, grid("H,TDG").layers
        assert _lowers(tdg_span, t_span) and not _lowers(t_span, tdg_span)
        for rest in (grid("X,X").layers, ()):  # mid-circuit, then at the end
            t_level = full_potential(CircuitGrid(2, t_span + rest))
            assert t_level < full_potential(CircuitGrid(2, tdg_span + rest))

    def test_verdict_compares_layer_texts(self):
        # the same tie, judged with no span built: a one-qubit window on
        # qubit 1 of "H,T" or "H,TDG", whose layer the H on qubit 0 keeps,
        # and a one-cell member, so length and cells tie and the rebuilt
        # layer's text decides
        db = build_database(GeneratorConfig(n=1, d=1, gate_set=gate_set("I", "T", "TDG")))
        (t_row,), (tdg_row,) = rows_of(db, "T"), rows_of(db, "TDG")
        for rest in (grid("X,X").layers, ()):
            with_t = CircuitGrid(2, grid("H,T").layers + rest)
            with_tdg = CircuitGrid(2, grid("H,TDG").layers + rest)
            assert sweep_window(with_tdg, 0, 1, 1, 1, db).lowers(t_row, db)
            assert not sweep_window(with_t, 0, 1, 1, 1, db).lowers(tdg_row, db)
            # a member equal to the window, cell for cell, lowers nothing
            assert not sweep_window(with_t, 0, 1, 1, 1, db).lowers(t_row, db)

    def test_one_span_built_per_substitution(self, db_ihxzcx, monkeypatch):
        # every candidate is judged before any splice, so the one splice
        # path runs once for each substitution made, though many candidates
        # that pass the guard are turned down
        spans, verdicts = [], Counter()
        real_splice, real_lowers = optimizer_module._splice, _Window.lowers

        def splice(*args):
            spans.append(args)
            return real_splice(*args)

        def lowers(w, row, db):
            verdict = real_lowers(w, row, db)
            verdicts[verdict] += 1
            return verdict

        monkeypatch.setattr(optimizer_module, "_splice", splice)
        monkeypatch.setattr(_Window, "lowers", lowers)
        made = 0
        for text in pin_corpus()[::4]:
            made += len(optimize(parse(text), db_ihxzcx)[1].substitutions)
        assert verdicts[False] > 0
        assert len(spans) == made == verdicts[True] > 0

    def test_memo_reuses_the_final_span(self, db_ihxzcx):
        # t is no gate of IHXZCX, so no pair rule rewrites it and no window
        # of these layers has a candidate; the last window's span is the
        # first's, the same layer objects at the same offset, so its
        # verdict is read from the memo though it ends the circuit
        first = grid("T,T", "T,I", "I,T").layers
        _, report = optimize(CircuitGrid(2, first + first), db_ihxzcx)
        assert report.iterations == 1 and not report.substitutions
        assert report.windows_reused == 1


# ── slice records: a sweep reads each window from per-layer texts ──


@st.composite
def wide_layer(draw, n):
    """A layer of n qubits: CX on disjoint pairs, any distance apart, and
    single gates with `t`, which IHXZCX lacks, everywhere else."""
    order = draw(st.permutations(range(n)))
    cells = [None] * n
    for k in range(draw(st.integers(0, n // 2))):
        a, b = order[2 * k], order[2 * k + 1]
        cells[a], cells[b] = half(gate("CX"), "C", b), half(gate("CX"), "T", a)
    return tuple(
        cell or single(gate(draw(st.sampled_from(("I", "H", "X", "Z", "T")))))
        for cell in cells
    )


def wide_corpus(count, n=9, gates=30):
    """Seeded QASM circuits shaped like the opt-wide benchmark's: cx on
    neighbours only, and one single gate in ten a `t`."""
    rng = random.Random("slice-wide")
    texts = []
    for _ in range(count):
        lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
        for _ in range(gates):
            if rng.random() < 0.3:
                a = rng.randrange(n - 1)
                a, b = (a, a + 1) if rng.random() < 0.5 else (a + 1, a)
                lines.append(f"cx q[{a}],q[{b}];")
            else:
                token = "t" if rng.random() < 0.1 else rng.choice("hxz")
                lines.append(f"{token} q[{rng.randrange(n)}];")
        texts.append("\n".join(lines) + "\n")
    return texts


class TestSliceRecords:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_records_read_every_window_as_its_tile(self, rank_dbs, data):
        db = rank_dbs[data.draw(st.sampled_from(sorted(rank_dbs)), label="db")]
        n, d = db.meta.n, db.meta.d
        qubits = data.draw(st.integers(2, 9), label="qubits")
        layers = data.draw(st.lists(wide_layer(qubits), min_size=1, max_size=6), label="layers")
        c = CircuitGrid(qubits, tuple(layers))
        i = data.draw(st.integers(1, min(n, qubits)), label="window width")
        j = data.draw(st.integers(1, min(d, c.m)), label="window depth")
        identity = db.meta.gate_set.identity
        # one table for every window, as in a sweep
        slices = _Slices(db, i)
        for ls in range(c.m - j + 1):
            for qs in range(qubits - i + 1):
                tile = _window(c, qs, ls, i, j)
                span = c.layers[ls : ls + j]
                invalid = slices.cut_inside(span, qs)
                assert invalid == (classify_tile(tile) is TileClass.INVALID)
                if not invalid:
                    norm = normalize_cut_tile(tile, identity)
                    text, depth, _ = read_window(slices, span, qs)
                    assert text == encode_circuit(padded(norm, db))
                    assert depth == effective_depth(norm.sub)
                    assert_records_are_the_tile(slices.read(span, qs), norm)

    def test_wide_circuits_match_reference_sweep(self, db_ihxzcx, monkeypatch):
        offsets = set()
        tiles = 0
        for text in wide_corpus(4):
            report = assert_same_as_reference(monkeypatch, parse(text), db_ihxzcx)
            offsets.update(s.qubit_offset for s in report.substitutions)
            # a Tile is cut only for a window with candidates, and every
            # substitution is made from one
            assert report.tiles_built >= len(report.substitutions)
            tiles += report.tiles_built
        assert tiles > 0
        assert 7 in offsets  # the last offset of a two-row window


def repeated_blocks(block):
    """A 4-qubit circuit holding a two-qubit block (its statements over
    qubits A and B) at qubit offsets 0 and 2, then, past a cx joining the
    two, at both again."""
    def at(a):
        return [f"{line.replace('A', f'q[{a}]').replace('B', f'q[{a + 1}]')};" for line in block]

    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[4];"]
    return "\n".join(lines + at(0) + at(2) + ["cx q[1],q[2];"] + at(0) + at(2)) + "\n"


# blocks holding `t`, which IHXZCX lacks, so their windows are looked up
T_BLOCKS = (
    ("t A", "cx A,B", "t B", "h A"),
    ("cx A,B", "x A", "cx A,B", "t A", "h B"),
    ("t A", "h B", "cx A,B", "x A", "cx A,B", "z B"),
)


class _Forgetful(dict):
    """A lookup memo that keeps nothing."""

    def __setitem__(self, key, value):
        pass


class _ForgetfulSlices(_Slices):
    """Slice records whose sweeps remember no lookup."""

    def __init__(self, *args):
        super().__init__(*args)
        self.looked = _Forgetful()


def repack_corpus(count=100, n=4, size=40):
    """Seeded gate lists shaped like the opt-deep benchmark's: cx on
    neighbours, h, x, z and `t` on one qubit."""
    rng = random.Random("repack")
    corpus = []
    for _ in range(count):
        gates = []
        for _ in range(size):
            if rng.random() < 0.3:
                a = rng.randrange(n - 1)
                gates.append(((a, a + 1) if rng.random() < 0.5 else (a + 1, a), gate("CX")))
            else:
                gates.append(((rng.randrange(n),), gate(rng.choice("HXZT"))))
        corpus.append(pack(gates, n))
    return corpus


class TestEqualLayers:
    """Cells are shared per (gate, role, partner), so layers with the same
    gates are equal keys: what a sweep remembers of a layer holds for
    every layer equal to it."""

    def test_equal_windows_are_looked_up_once(self, rank_dbs, monkeypatch):
        db = rank_dbs["n2d4"]
        real_lookup = optimizer_module.lookup
        asked = []

        def noted_lookup(gates, depth, db):
            asked.append((tuple(gates), depth))
            return real_lookup(gates, depth, db)

        monkeypatch.setattr(optimizer_module, "lookup", noted_lookup)
        reused = []
        for block in T_BLOCKS:
            c = parse(repeated_blocks(block))
            asked.clear()
            out, r = optimize(c, db)
            assert len(asked) == len(set(asked)) == r.unitary_lookups
            reused.append(r.lookups_reused)
            # a sweep that remembers no lookup asks again for each window
            # the memo answered, and reaches the same result
            with monkeypatch.context() as m:
                m.setattr(optimizer_module, "_Slices", _ForgetfulSlices)
                asked.clear()
                again, ra = optimize(c, db)
            assert len(asked) - len(set(asked)) == r.lookups_reused
            assert ra.lookups_reused == 0 and ra.unitary_lookups == len(asked)
            assert emit(again) == emit(out) and ra.substitutions == r.substitutions
        # the first block's windows at offset 2 repeat those at offset 0
        assert reused[0] == 2 and min(reused) > 0

    def test_records_made_once_per_layer_content(self, rank_dbs, monkeypatch):
        db = rank_dbs["n2d4"]
        real_record, real_sweep, real_pack = _Slices._record, optimizer_module._sweep, optimizer_module.pack
        made, state = [], {"swept": False, "repacks": 0}

        def noted_record(self, layer, qs):
            made.append((tuple((cell.gate, cell.role, cell.partner) for cell in layer), qs))
            return real_record(self, layer, qs)

        def noted_sweep(*args):
            state["swept"] = True
            return real_sweep(*args)

        def noted_pack(*args):
            state["repacks"] += state["swept"]
            return real_pack(*args)

        monkeypatch.setattr(_Slices, "_record", noted_record)
        monkeypatch.setattr(optimizer_module, "_sweep", noted_sweep)
        monkeypatch.setattr(optimizer_module, "pack", noted_pack)
        repacked = 0
        for c in repack_corpus():
            made.clear()
            state.update(swept=False, repacks=0)
            optimize(c, db)
            # a layer the rules pass packs anew is the layer read before
            assert len(made) == len(set(made))
            repacked += state["repacks"] > 0
        assert repacked >= 5


# a gate named H whose matrix is not the builtin H's: the records spell it
# "?H", and its own matrix must be what a lookup evaluates
CLASH_H = make_gate("H", [[math.cos(math.pi / 8), -math.sin(math.pi / 8)],
                          [math.sin(math.pi / 8), math.cos(math.pi / 8)]])


@st.composite
def record_layer(draw, n):
    """A layer of n qubits: CX on disjoint pairs, any distance apart and
    in either orientation, and single gates with `t`, which IHXZCX lacks,
    and CLASH_H everywhere else."""
    order = draw(st.permutations(range(n)))
    cells = [None] * n
    for k in range(draw(st.integers(0, n // 2))):
        a, b = order[2 * k], order[2 * k + 1]
        cells[a], cells[b] = half(gate("CX"), "C", b), half(gate("CX"), "T", a)
    singles = st.sampled_from([gate(name) for name in ("I", "H", "X", "Z", "T")] + [CLASH_H])
    return tuple(cell or single(draw(singles)) for cell in cells)


@pytest.fixture(scope="module")
def record_dbs(rank_dbs):
    # an Identity within 1e-9 of the 2×2 identity but not exactly it, as a
    # hand-written file may hold: `gate_list` lists each padding cell
    near_i = make_gate("I", np.diag([1, np.exp(1e-12j)]))
    gs = GateSet([near_i, gate("H"), gate("X"), gate("CX")])
    return {**rank_dbs, "n2d2-inexact-I": build_database(GeneratorConfig(n=2, d=2, gate_set=gs))}


class TestRecordGates:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_record_gates_are_the_padded_tiles(self, record_dbs, data):
        # every valid window: cut halves in its first or last layer, pairs
        # of either orientation, gates the database lacks or spells "?H"
        db = record_dbs[data.draw(st.sampled_from(sorted(record_dbs)), label="db")]
        n, d = db.meta.n, db.meta.d
        qubits = data.draw(st.integers(2, 6), label="qubits")
        layers = data.draw(st.lists(record_layer(qubits), min_size=1, max_size=6), label="layers")
        c = CircuitGrid(qubits, tuple(layers))
        i = data.draw(st.integers(1, min(n, qubits)), label="window width")
        j = data.draw(st.integers(1, min(d, c.m)), label="window depth")
        identity = db.meta.gate_set.identity
        slices = _Slices(db, i)
        for ls in range(c.m - j + 1):
            for qs in range(qubits - i + 1):
                span = c.layers[ls : ls + j]
                if slices.cut_inside(span, qs):
                    continue
                norm = normalize_cut_tile(_window(c, qs, ls, i, j), identity)
                _, depth, gates = read_window(slices, span, qs)
                assert gates == gate_list(padded(norm, db))
                assert_records_are_the_tile(slices.read(span, qs), norm)
                rows, want = lookup(gates, depth, db), tile_lookup(norm, db)
                assert list(rows) == list(want)
                # a miss the determinant answers computes no unitary; any
                # other lookup computes the padded grid's, bitwise
                by_det = not db.may_hold_det(gates_det(gates, n))
                assert (rows.unitary is None) == (want.unitary is None) == by_det
                if not by_det:
                    assert np.array_equal(rows.unitary, want.unitary)
                    assert np.array_equal(rows.unitary, circuit_unitary(padded(norm, db)))

    def test_records_cover_cuts_swaps_and_clashes(self, db_ihxzcx):
        # one window of each kind the property draws, spelled out
        c = CircuitGrid(3, (
            (half(gate("CX"), "T", 2), single(CLASH_H), half(gate("CX"), "C", 0)),
            (half(gate("CX"), "T", 1), half(gate("CX"), "C", 0), single(gate("T"))),
            (single(gate("X")), half(gate("CX"), "C", 2), half(gate("CX"), "T", 1)),
        ))
        slices = _Slices(db_ihxzcx, 2)
        text, depth, gates = read_window(slices, c.layers, 0)
        # the cut halves on qubit 0 and 1 are Identity; the pair on qubits
        # 0 and 1 is listed once, first operand first
        assert text == "I,?H|CX:T:1,CX:C:0|X,I"
        assert depth == 3
        assert gates == [((1,), CLASH_H), ((1, 0), gate("CX")), ((0,), gate("X"))]
        # each cut half is the grid's own, at its window-local qubit
        records = slices.read(c.layers, 0)
        assert [rec[1] for rec in records] == [((0, c.layers[0][0]),), (), ((1, c.layers[2][1]),)]
        assert [rec[2] for rec in records] == [1, 2, 1]


class TestTilesOnlyWithCandidates:
    def test_filtered_miss_cuts_no_tile(self):
        db = build_database(GeneratorConfig(n=2, d=2, gate_set=gate_set(*IHXZCX)))
        _, report = optimize(grid("T,I"), db)
        assert report.tiles_built == 0
        assert report.unitary_lookups == report.filtered_misses == 1

    def test_window_with_candidates_cuts_one_tile(self):
        db = build_database(GeneratorConfig(n=2, d=2, gate_set=gate_set(*IHXZCX)))
        # S is no gate of the database, so no pair rule merges S·S; the
        # window's unitary is Z's, a one-layer member
        out, report = optimize(grid("S,I", "S,I"), db)
        assert encode_circuit(out) == "Z,I"
        assert report.unitary_lookups == 1 and len(report.substitutions) == 1
        assert report.tiles_built == 1

    def test_each_record_made_once_per_database(self, db_ihxzcx, monkeypatch):
        # the records, each with its gate list, are the database's: each is
        # made once for every call against it, and none when a call repeats
        db = fresh_copy(db_ihxzcx)
        slices, real_sweep = optimizer_module._Slices, optimizer_module._sweep
        made = {"_record": Counter()}
        read = {"read": {}}
        sweeps = []

        def noted(table, real):
            def note(memo, cells, qs):
                table[cells, qs] += 1
                return real(memo, cells, qs)
            return note

        def noted_reads(table, real):
            def note(memo, span, qs):
                for layer in span:
                    table.setdefault((id(layer), qs), set()).add(len(sweeps))
                return real(memo, span, qs)
            return note

        def noted_sweep(*args):
            sweeps.append(args)
            return real_sweep(*args)

        for name, table in made.items():
            monkeypatch.setattr(slices, name, noted(table, getattr(slices, name)))
        for name, table in read.items():
            monkeypatch.setattr(slices, name, noted_reads(table, getattr(slices, name)))
        monkeypatch.setattr(optimizer_module, "_sweep", noted_sweep)
        c = grid("H,I,I,H", "Z,X,I,Z", "X,T,X,X", "T,T,T,T", "H,Z,X,H", "I,I,I,X", "I,I,I,H")
        other = CircuitGrid(4, c.layers[::-1])
        _, report = optimize(c, db)
        assert report.iterations == len(sweeps) > 1 and report.unitary_lookups > 0
        # slices are read again in a later sweep, from what is kept
        for name, table in read.items():
            assert any(len(seen) > 1 for seen in table.values()), name
        optimize(other, db)
        for name, table in made.items():
            assert table and set(table.values()) == {1}, name
        assert len(db._slice_records) == len(made["_record"])
        counts = {name: dict(table) for name, table in made.items()}
        _, again = optimize(c, db)
        assert {name: dict(table) for name, table in made.items()} == counts
        assert again.substitutions == report.substitutions


# ── the neighbour rule: a database's enumeration decides the pairs ──

# layers of 4 and 5 qubits holding a pair more than one qubit apart, with
# `t`, which IHXZCX lacks
FAR_LAYERS = {
    n: [l for l in enumerate_layers(n, gate_set(*IHXZCX, "T")) if far_pair(l)] for n in (4, 5)
}


def echo(layer, keep):
    """The single gates of `layer` whose `keep` flag is set, Identity
    elsewhere: h, x and z cancel their copies in `layer`."""
    ident = single(gate("I"))
    return tuple(cell if cell.is_single and k else ident for cell, k in zip(layer, keep))


def far_corpus(count=100):
    """Seeded circuits of 4 and 5 qubits. Each layer holds a non-adjacent
    pair, or, half the time, echoes the layer before it, each single gate
    kept with probability 0.7."""
    rng = random.Random("neighbour-rule")
    circuits = []
    for k in range(count):
        n = 4 + k % 2
        layers = []
        for _ in range(rng.randrange(3, 7)):
            if layers and rng.random() < 0.5:
                layers.append(echo(layers[-1], [rng.random() < 0.7 for _ in range(n)]))
            else:
                layers.append(rng.choice(FAR_LAYERS[n]))
        circuits.append(CircuitGrid(n, tuple(layers)))
    return circuits


def far_gates(c):
    """The non-adjacent pairs of c, counted by (qubits, gate name)."""
    return Counter(
        (qs, g.name) for qs, g in gate_list(c) if len(qs) == 2 and abs(qs[0] - qs[1]) > 1
    )


class TestNeighbourRule:
    def test_neighbours_only_database_pinned(self, rank_dbs):
        # the outputs and reports of `optimize` over the neighbours-only
        # database, whose buckets are the full n3d2 ones without the
        # members that hold a non-adjacent pair, pinned
        inputs = far_corpus()

        def run(db):
            # the digest of everything, and of all but `windows_reused`
            digest, outcome, outs = hashlib.md5(), hashlib.md5(), []
            for c in inputs:
                out, r = optimize(c, db)
                subs = [
                    (s.layer_offset, s.qubit_offset, s.encoding, s.cost_before, s.cost_after)
                    for s in r.substitutions
                ]
                facts = (r.initial_depth, r.final_depth, subs, r.iterations,
                         r.collisions_skipped, r.windows_reused, r.check_qubits)
                for h, seen in ((digest, facts), (outcome, facts[:5] + facts[6:])):
                    h.update(emit(out).encode())
                    h.update(repr(seen).encode())
                outs.append(out)
            return digest.hexdigest(), outcome.hexdigest(), outs

        near, outcome, near_outs = run(rank_dbs["n3d2-near"])
        assert near == "1ffdd42aea47af0dc4bd936f56345cf4"
        # the outputs and every other count, apart from `windows_reused`,
        # which depends on how the sweeps key the windows they skip
        assert outcome == "10da7bf4dd49176e07b59085d5ccd71f"
        # the full database's members with non-adjacent pairs rewrite some
        # of these circuits otherwise, so the corpus tells the two apart
        _, _, full_outs = run(rank_dbs["n3d2"])
        assert any(emit(a) != emit(b) for a, b in zip(near_outs, full_outs))
        for out, c in zip(near_outs, inputs):
            assert not far_gates(out) - far_gates(c)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_output_adds_no_far_pair(self, db_near_ihcx, data):
        n = data.draw(st.sampled_from([4, 5]), label="qubits")
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        near = st.sampled_from([p for p in pairs if abs(p[0] - p[1]) == 1])
        far = st.sampled_from([p for p in pairs if abs(p[0] - p[1]) > 1])
        # chains of adjacent CX are what a database with every pair
        # rewrites into a non-adjacent CX, so they are drawn most
        cx = st.one_of(near, near, far).map(lambda qs: (qs, gate("CX")))
        one = st.builds(lambda name, q: ((q,), gate(name)), st.sampled_from("HT"),
                        st.integers(0, n - 1))
        gates = data.draw(st.lists(st.one_of(cx, cx, one), min_size=1, max_size=12))
        c = pack(gates, n)
        out, report = optimize(c, db_near_ihcx)
        # every non-adjacent pair of the output is one of the input's
        assert not far_gates(out) - far_gates(c)
        assert report.residual <= 1e-12


# ── windows matched in the database's n×d shape ──

# every layer of 1 to 4 qubits, with `t`, which IHXZCX lacks
SHAPE_LAYERS = {n: enumerate_layers(n, gate_set(*IHXZCX, "T")) for n in (1, 2, 3, 4)}


class TestDatabaseShape:
    def test_one_qubit_circuit_against_two_qubit_database(self, db_ihxzcx):
        # the 1×3 window is matched as H,I|Z,I|H,I: the bucket of X on qubit 0
        c = grid("H", "Z", "H")
        out, report = optimize(c, db_ihxzcx)
        assert encode_circuit(out) == "X"
        assert emit(out).endswith("qreg q[1];\nx q[0];\n")
        assert report.residual <= 1e-12

    def test_short_window_with_cut_in_last_layer(self, db_ihxzcx):
        # the 2×2 window on qubits 0-1 is X·X behind the half of a CX whose
        # other half is on qubit 2, in the window's last layer; this X is no
        # gate of the database, so no pair rule cancels the two
        x = single(make_gate("Xs", gate("X").matrix))
        first, second = grid("X,I,I", "X,CX:C:2,CX:T:1").layers
        c = CircuitGrid(3, ((x, *first[1:]), (x, *second[1:])))
        norm = normalize_cut_tile(window(c, TileSpec(2, 2), 0, 0))
        assert cut_slots(norm.cuts) == [(1, 1)]
        ordered = _candidate_order(norm, tile_lookup(norm, db_ihxzcx), db_ihxzcx)
        assert ordered and ordered == reference_order(norm, db_ihxzcx)
        out, report = optimize(c, db_ihxzcx)
        assert report.substitutions[0].layer_offset == report.substitutions[0].qubit_offset == 0
        assert encode_circuit(out) == "I,CX:C:2,CX:T:1"
        assert report.residual <= 1e-12

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_tile_shape_stays_exact(self, db_ihxzcx, data):
        db = db_ihxzcx
        n = data.draw(st.integers(1, 4), label="qubits")
        m = data.draw(st.integers(1, 6), label="layers")
        layers = []
        for _ in range(m):
            if layers and data.draw(st.booleans(), label="echo"):
                # repeat the previous layer's single gates, most of which cancel
                layers.append(tuple(
                    cell if cell.is_single else single(gate("I")) for cell in layers[-1]
                ))
            else:
                layers.append(data.draw(st.sampled_from(SHAPE_LAYERS[n])))
        c = CircuitGrid(n, tuple(layers))
        spec = TileSpec(
            data.draw(st.integers(1, db.meta.n), label="tile qubits"),
            data.draw(st.integers(1, db.meta.d), label="tile depth"),
        )
        out, report = optimize(c, db, spec)
        assert report.residual <= 1e-12
        assert validate(out) == []
        assert full_potential(out)[:2] <= full_potential(c)[:2]  # (depth, cells)


# ── checked once per bucket: soundness flags and the form filter ──


def poisoned_first(db):
    """A fresh copy whose first bucket leads with the last bucket's first
    member, moved from it: its representative no longer gives its key, so
    the filter is unverified."""
    first, *_, last = db.by_fingerprint
    return poisoned(db, db.bucket(last)[0], first)


def reference_lookup(t, db):
    """The rows of the padded window's bucket found through its unitary,
    shallower than the window: `lookup` without the form filter."""
    table = db.rank_table(fingerprint(circuit_unitary(padded(t, db)), db.meta.dp))
    return table[: bisect_left(table, (effective_depth(t.sub),))]


# layers one qubit wider than each database, of its own gates only or
# with `t`, which IHXZCX lacks
LOOKUP_LAYERS = {
    n: {"own": WIDER_LAYERS[n], "t": enumerate_layers(n + 1, gate_set(*IHXZCX, "T"))}
    for n in (2, 3)
}


@pytest.fixture(scope="module")
def lookup_dbs(rank_dbs):
    # built and loaded, as `optimize --db` reads them
    dbs = {name: fresh_copy(db) for name, db in rank_dbs.items()}
    dbs.update({f"{name}-loaded": loads(dumps(db)) for name, db in rank_dbs.items()})
    dbs.update({f"{name}-unverified": poisoned_first(db) for name, db in rank_dbs.items()})
    return dbs


class TestCheckedOnce:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_lookup_matches_unitary_reference(self, lookup_dbs, data):
        # members, `t`-holding windows that are no member, cut tiles and
        # windows padded to the database's shape, on verified databases and
        # on copies whose filter is unverified
        db = lookup_dbs[data.draw(st.sampled_from(sorted(lookup_dbs)), label="db")]
        n, d = db.meta.n, db.meta.d
        i = data.draw(st.integers(1, n), label="window rows")
        j = data.draw(st.integers(1, d), label="window depth")
        qs = data.draw(st.integers(0, n + 1 - i), label="qubit offset")
        pool = LOOKUP_LAYERS[n][data.draw(st.sampled_from(["own", "t"]), label="layers")]
        ends = {0: data.draw(st.booleans(), label="cut first"),
                j - 1: data.draw(st.booleans(), label="cut last")}
        layers = []
        for li in range(j):
            if layers and data.draw(st.booleans(), label="echo"):
                # the previous layer's single gates, some undone: h, x and z
                # cancel, so the window often has a shallower member
                keep = data.draw(st.lists(st.booleans(), min_size=n + 1, max_size=n + 1))
                layers.append(echo(layers[-1], keep))
            else:
                cut = ends.get(li, False)
                layers.append(data.draw(st.sampled_from(
                    [l for l in pool if crosses(l, qs, i) == cut]
                )))
        tile = _window(CircuitGrid(n + 1, tuple(layers)), qs, 0, i, j)
        norm = normalize_cut_tile(tile, db.meta.gate_set.identity)
        rows = tile_lookup(norm, db)
        assert list(rows) == reference_lookup(norm, db)
        member = encode_circuit(padded(norm, db)) in db.by_circuit
        # the determinant answers a miss with no unitary; any other lookup
        # computes the padded grid's, bitwise
        by_det = not db.may_hold_det(gates_det(gate_list(padded(norm, db)), n))
        assert (rows.unitary is None) == by_det
        assert not by_det or not (member or rows)
        if not by_det:
            assert np.array_equal(rows.unitary, circuit_unitary(padded(norm, db)))

    def test_unverified_filter_rules_nothing_out(self, lookup_dbs):
        for name, db in lookup_dbs.items():
            n = db.meta.n
            # every circuit of these gates has determinant ±1
            assert db.may_hold_det(1j) == name.endswith("-unverified"), name
            # S then SDG is no member, but it is the identity: the form of
            # the first bucket, whose representative the poison replaced
            idle = ",I" * (n - 1)
            t = whole(grid("S" + idle, "SDG" + idle))
            rows = tile_lookup(t, db)
            assert rows.unitary is not None
            assert list(rows) == reference_lookup(t, db) != []

    def test_every_bucket_sound(self, db_ihxzcx):
        db = fresh_copy(db_ihxzcx)
        assert all(map(db.sound, db.by_fingerprint))

    def test_no_bucket_sound_below_float_error(self, monkeypatch):
        # at dp = 15 a quarter of the guard is below the float error of
        # evaluating a member two ways, so every window checks every trial
        db = build_database(GeneratorConfig(n=2, d=2, gate_set=gate_set("I", "H", "X"), dp=15))
        assert not any(map(db.sound, db.by_fingerprint))
        report = assert_same_as_reference(monkeypatch, grid("H,X", "H,X", "X,I"), db)
        assert report.substitutions and report.trials_checked > 0

    def test_bucket_poisoned_after_ranking_is_checked_again(self, monkeypatch):
        db = build_database(GeneratorConfig(n=2, d=3, gate_set=gate_set(*IHXZCX)))
        c = grid("H,H", "Z,Z", "H,H")  # X⊗X, which no pair rule finds
        _, first = optimize(c, db)
        xx = db.by_circuit["X,X|I,I|I,I"]
        assert first.collisions_skipped == first.trials_checked == 0 and db.sound(xx)
        # the poison of test_collision_guard_skips_poisoned_bucket, in a
        # database made from the tables of one already ranked
        db = poisoned_xx(db)
        assert not db.sound(xx)
        report = assert_same_as_reference(monkeypatch, c, db)
        assert report.collisions_skipped >= 1
        assert report.trials_checked >= report.collisions_skipped

    def test_report_counts_lookups_and_trials(self, db_ihxzcx, monkeypatch):
        db = fresh_copy(db_ihxzcx)
        real_lookup, real_read = optimizer_module.lookup, optimizer_module._Slices.read
        real_unitary, real_gates_unitary = (
            optimizer_module.circuit_unitary, optimizer_module.gates_unitary
        )
        real_fingerprint = optimizer_module.fingerprint
        real_pair_unitaries = optimizer_module.pair_unitaries
        calls = Counter()

        def noted_read(slices, span, qs):
            records = real_read(slices, span, qs)
            calls["text"] = window_text(slices, records)
            return records

        def noted_lookup(gates, depth, db):
            # a sweep looks up the window it read last
            calls["members"] += calls["text"] in db.by_circuit
            calls["by unitary"] += 1
            fp = fingerprint(real_gates_unitary(gates, db.meta.n), db.meta.dp)
            calls["misses"] += fp not in db.by_fingerprint
            calls["by det"] += not db.may_hold_det(gates_det(gates, db.meta.n))
            return real_lookup(gates, depth, db)

        def noted_unitary(c):
            calls["unitaries"] += 1
            return real_unitary(c)

        def noted_gates_unitary(gates, n):
            calls["gate lists"] += 1
            return real_gates_unitary(gates, n)

        def noted_fingerprint(u, dp):
            calls["fingerprints"] += 1
            return real_fingerprint(u, dp)

        def noted_pair_unitaries(ra, rb, k):
            calls["pairs"] += 1
            return real_pair_unitaries(ra, rb, k)

        monkeypatch.setattr(optimizer_module._Slices, "read", noted_read)
        monkeypatch.setattr(optimizer_module, "lookup", noted_lookup)
        monkeypatch.setattr(optimizer_module, "circuit_unitary", noted_unitary)
        monkeypatch.setattr(optimizer_module, "gates_unitary", noted_gates_unitary)
        monkeypatch.setattr(optimizer_module, "fingerprint", noted_fingerprint)
        monkeypatch.setattr(optimizer_module, "pair_unitaries", noted_pair_unitaries)
        totals = Counter()
        # s is no gate of the database, but s·s is its Z: a window found
        # through its unitary that has candidates
        for c in [parse(text) for text in pin_corpus()[:20]] + [grid("S,H", "S,H", "X,X")]:
            calls.clear()
            _, r = optimize(c, db)
            # every bucket is sound and every gate is the database's own,
            # so only windows that are no member are looked up
            assert calls["members"] == 0
            assert r.unitary_lookups == calls["by unitary"]
            # the misses the determinant answers are some of the misses
            assert r.filtered_misses == calls["by det"] <= calls["misses"]
            # every lookup it does not answer is found by its fingerprint
            assert calls["fingerprints"] == r.unitary_lookups - r.filtered_misses
            # every bucket is sound, so only windows found through their
            # unitary check their candidates, each trial on a grid
            # (`circuit_unitary`); each lookup the determinant does not
            # answer evaluates its gate list (`gates_unitary`), and the
            # final check evaluates both remainders in one call
            # (`pair_unitaries`) when it covers a qubit
            assert calls["unitaries"] == r.trials_checked
            assert calls["gate lists"] == r.unitary_lookups - r.filtered_misses
            assert calls["pairs"] == (r.check_qubits > 0)
            totals.update(lookups=r.unitary_lookups, misses=calls["misses"],
                          det=r.filtered_misses, trials=r.trials_checked)
        assert totals["lookups"] > totals["misses"] > totals["det"] > 0
        assert totals["trials"] > 0

    @pytest.mark.parametrize(
        "gates, d, rows",
        [
            # the fake H of test_clashing_name_keeps_stored_matrix, on n=2, d=2
            (("I", "X"), 2, ("H,X", "X,H", "H,H", "I,X", "X,I")),
            # the fake H, a rotation about Y, commutes with Y, so the
            # member Y·H·Y shares the bucket of H; with the real H, Y·H·Y
            # is −H, and a splice of H trusted by its encoding is wrong
            (("I", "Y"), 3, ("Y,I", "H,I", "Y,I")),
        ],
        ids=["h-x", "y-h-y"],
    )
    def test_clashing_name_checks_every_trial(self, monkeypatch, gates, d, rows):
        c_, s_ = math.cos(math.pi / 8), math.sin(math.pi / 8)
        fake_h = make_gate("H", [[c_, -s_], [s_, c_]])
        gs = GateSet([gate(gates[0]), fake_h, *map(gate, gates[1:])])
        db = build_database(GeneratorConfig(n=2, d=d, gate_set=gs))
        c = grid(*rows)  # builtin h, x and y
        report = assert_same_as_reference(monkeypatch, c, db)
        # a window of the builtin H is encoded like a member, but its slice
        # text is none: it is looked up by its unitary
        text, _, _ = read_window(_Slices(db, 2), c.layers[:d], 0)
        assert text not in db.by_circuit
        padded_window = padded(whole(CircuitGrid(2, c.layers[:d])), db)
        assert encode_circuit(padded_window) in db.by_circuit
        assert report.unitary_lookups > 0
        assert report.residual <= 1e-12

    def test_template_gates_parsed_per_call_are_members(self):
        # each parse makes new u1 gates, each with the matrix of the
        # database's gate of its name, so every window is a member and
        # every bucket is sound: none is looked up, no trial is checked
        db = build_database(GeneratorConfig(n=2, d=2, gate_set=parse_gate_set("ibm-legacy")))
        body = "u1(pi/2) q[0]; u1(pi/2) q[0]; cx q[0],q[1]; u1(pi/4) q[1]; u1(-pi/4) q[1];"
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n' + body + "\n"
        out, report = optimize(parse(text), db)
        assert (report.unitary_lookups, report.trials_checked) == (0, 0)
        # the pair rules merge u1(pi/2)·u1(pi/2) and cancel u1(pi/4)·u1(-pi/4)
        assert report.final_depth == 2 and (report.cancels, report.merges) == (1, 1)
        assert emit(out).endswith("qreg q[2];\nu1(pi) q[0];\ncx q[0],q[1];\n")
        # no rule rewrites these, so the sweeps read windows of parsed gates
        body = "u1(pi/2) q[0]; cx q[0],q[1]; u1(pi/4) q[1];"
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n' + body + "\n"
        out, report = optimize(parse(text), db)
        assert (report.cancels, report.merges, report.iterations) == (0, 0, 1)
        assert (report.unitary_lookups, report.trials_checked) == (0, 0)


# ── the determinant stage: a lookup rules a window out with no unitary ──

CLIFFORD_T = ("I", "H", "S", "SDG", "T", "TDG", "CX")


@pytest.fixture(scope="module")
def det_dbs(rank_dbs):
    # verified, loaded and unverified; and a Clifford+T set, whose
    # circuits' determinants are powers of e^(iπ/4), so many coincide
    dbs = {name: fresh_copy(rank_dbs[name]) for name in ("n2d3", "n2d4", "n3d2")}
    clifford_t = GeneratorConfig(n=2, d=2, gate_set=gate_set(*CLIFFORD_T))
    dbs["n2d2-clifford-t"] = build_database(clifford_t)
    built = list(dbs.items())
    dbs.update({f"{name}-loaded": loads(dumps(db)) for name, db in built})
    dbs.update({f"{name}-unverified": poisoned_first(db) for name, db in built})
    return dbs


def u1(angle):
    return instantiate_param_gate(U1, [angle])


# single gates of a window: t, s, sdg, and u1 at multiples of π/4 (several
# of them a database gate's matrix) and at an angle no circuit reaches
DET_SINGLES = [gate(name) for name in ("I", "H", "X", "Z", "S", "SDG", "T", "TDG")] + [
    u1(AngleExpr(Fraction(k, 4))) for k in range(-3, 5)
] + [u1(0.3)]


@st.composite
def det_window(draw, n, d):
    """Up to d layers over n qubits: a CX on any two qubits, either way
    round, and single gates from DET_SINGLES; half the time a layer
    repeats the single gates before it, so that T·T = S, S·S = Z and
    their kin make windows some bucket holds."""
    layers = []
    for _ in range(draw(st.integers(1, d))):
        if layers and draw(st.booleans()):
            layers.append(tuple(c if c.is_single else single(gate("I")) for c in layers[-1]))
            continue
        cells = [None] * n
        if n > 1 and draw(st.booleans()):
            a, b = draw(st.permutations(range(n)))[:2]
            cells[a], cells[b] = half(gate("CX"), "C", b), half(gate("CX"), "T", a)
        layers.append(tuple(c or single(draw(st.sampled_from(DET_SINGLES))) for c in cells))
    return whole(CircuitGrid(n, tuple(layers)))


class TestDeterminantStage:
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_never_rules_out_a_held_window(self, det_dbs, data):
        db = det_dbs[data.draw(st.sampled_from(sorted(det_dbs)), label="db")]
        n = db.meta.n
        t = data.draw(det_window(n, db.meta.d), label="window")
        gates = gate_list(padded(t, db))
        held = fingerprint(gates_unitary(gates, n), db.meta.dp) in db.by_fingerprint
        assert db.may_hold_det(gates_det(gates, n)) or not held
        assert list(tile_lookup(t, db)) == reference_lookup(t, db)

    def test_held_windows_of_foreign_gates_reach_the_unitary(self, det_dbs):
        # s·s and t⁴ are z, u1(π/2)·u1(-π/2) the identity: each has a
        # database circuit's determinant, and is held
        cases = [
            [gate("S")] * 2,
            [gate("T")] * 4,
            [u1(AngleExpr(Fraction(1, 2))), u1(AngleExpr(Fraction(-1, 2)))],
        ]
        for name, db in det_dbs.items():
            n, d = db.meta.n, db.meta.d
            for column in cases:
                if len(column) > d:
                    continue
                t = whole(pack([((0,), g) for g in column], n))
                rows = tile_lookup(t, db)
                assert rows.unitary is not None, (name, column)
                assert fingerprint(rows.unitary, db.meta.dp) in db.by_fingerprint, (name, column)
                assert list(rows) == reference_lookup(t, db), (name, column)

    def test_foreign_determinant_is_a_miss_with_no_unitary(self, det_dbs):
        # T's determinant on two qubits is i, and every {I,H,X,Z,CX}
        # circuit's is ±1
        db = det_dbs["n2d3"]
        rows = lookup([((0,), gate("T"))], 1, db)
        assert (list(rows), rows.unitary) == ([], None)
        _, report = optimize(grid("T,I"), db)
        assert report.unitary_lookups == report.filtered_misses == 1
        # the unverified copy rules nothing out: the fingerprint finds no bucket
        rows = lookup([((0,), gate("T"))], 1, det_dbs["n2d3-unverified"])
        assert rows.unitary is not None and not rows

    def test_determinant_passed_window_no_bucket_holds_is_fingerprinted(
        self, det_dbs, monkeypatch
    ):
        # T·T is S: S⊗I has determinant −1, as many {I,H,X,Z,CX} circuits
        # do, but it is no real matrix, so no bucket holds it. The
        # determinant passes it, and its fingerprint alone finds no bucket
        db = fresh_copy(det_dbs["n2d4"])
        real_fingerprint, calls = optimizer_module.fingerprint, Counter()

        def noted_fingerprint(u, dp):
            calls["fingerprints"] += 1
            return real_fingerprint(u, dp)

        monkeypatch.setattr(optimizer_module, "fingerprint", noted_fingerprint)
        gates = [((0,), gate("T")), ((0,), gate("T"))]
        rows = lookup(gates, 2, db)
        assert list(rows) == [] and calls["fingerprints"] == 1
        assert np.array_equal(rows.unitary, gates_unitary(gates, 2))
        # h·h cancels, and the window of t, t and cx is found the same way
        body = "t q[0]; t q[0]; cx q[0],q[1]; h q[1]; h q[1];"
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n' + body + "\n"
        _, report = optimize(parse(text), db)
        assert (report.unitary_lookups, report.filtered_misses) == (1, 0)
        assert (len(report.substitutions), report.cancels, report.final_depth) == (0, 1, 3)

    def test_unitary_moved_under_a_rounding_unit_is_not_ruled_out(self, det_dbs):
        # a held unitary lies within one rounding unit of its bucket's
        # representative in every component; move each component of the
        # representative by just under a unit, the way that turns the
        # determinant's phase most (its derivative in entry jk is
        # det·conj(r_jk)), and the determinant still passes
        worst = 0.0
        for name, db in det_dbs.items():
            if name.endswith("-unverified"):
                continue
            unit = (1 - 2.0**-20) * 10.0**-db.meta.dp
            for members in db.by_fingerprint.values():
                r = circuit_unitary(db.decode(members[0]))
                step = unit * (-np.sign(r.imag) + 1j * np.sign(r.real))
                for moved in (r + step, r - step):
                    det = np.linalg.det(moved)
                    assert db.may_hold_det(det), name
                    chord = abs(det / abs(det) - np.linalg.det(r))
                    worst = max(worst, chord / db._det_limit)
        # the moves reach a good part of the bound
        assert worst > 0.25

    def test_limit_is_the_rounding_bound_and_a_little_more(self, det_dbs):
        for db in det_dbs.values():
            n, dp = db.meta.n, db.meta.dp
            rounding = math.sqrt(2) * 4**n * 10.0**-dp
            assert rounding < db._det_limit < 1.1 * rounding


# ── rules from the database: the pair table and the rules pass ──

RULE_GATES = ("I", "H", "X", "Z", "S", "T", "CX")


@pytest.fixture(scope="module")
def rule_db():
    """n=2, d=2 over {I,H,X,Z,S,T,CX}: T·T is S, S·S is Z, and T commutes
    with the first operand of CX."""
    return build_database(GeneratorConfig(n=2, d=2, gate_set=gate_set(*RULE_GATES)))


def placed(g, qs):
    """The 2-qubit unitary of g on qs."""
    return gates_unitary([(qs, g)], 2)


def same(u, v):
    return max_abs_diff(u, v) <= 1e-9


# Z on the first operand, then CZ: one two-qubit gate, on more qubits than Z
ZCZ = make_gate("ZCZ", np.diag([1, 1, -1, 1]))


@pytest.fixture(scope="module")
def wide_merge_db():
    gates = GateSet([gate("I"), gate("Z"), gate("H"), gate("CZ"), ZCZ])
    return build_database(GeneratorConfig(n=2, d=2, gate_set=gates))


class TestPairRules:
    @pytest.mark.parametrize(
        "db_name, want_kinds",
        [
            # H·H, X·X, Z·Z and CX·CX cancel; S·S and T·T merge
            ("rule_db", {CANCEL: 8, MERGE: 4, COMMUTE: 28, BLOCK: 54}),
            # Z·CZ is ZCZ, which holds a qubit Z does not: no merge
            ("wide_merge_db", {CANCEL: 10, MERGE: 14, COMMUTE: 12, BLOCK: 20}),
        ],
    )
    def test_every_entry_matches_dense_two_gate_unitaries(self, request, db_name, want_kinds):
        # brute force: each pair of placed gates sharing a qubit, against
        # the dense unitaries of both orders and of every one-gate circuit
        db = request.getfixturevalue(db_name)
        placements = {1: [(0,), (1,)], 2: [(0, 1), (1, 0)]}
        gates = db.meta.gate_set.gates[1:]
        one_gate = [(qs, g) for g in gates for qs in placements[g.arity]]
        kinds = Counter()
        for qa, a in one_gate:
            for qb, b in one_gate:
                if not set(qa) & set(qb):
                    continue
                ab, ba = placed(b, qb) @ placed(a, qa), placed(a, qa) @ placed(b, qb)
                merged = [
                    (qs, g) for qs, g in one_gate if set(qs) <= set(qa) and same(placed(g, qs), ab)
                ]
                if same(ab, identity(4)):
                    want = CANCEL
                elif merged:
                    want = MERGE
                elif same(ab, ba):
                    want = COMMUTE
                else:
                    want = BLOCK
                rule = db.pair_rule(a.name, qa, b.name, qb)
                assert rule.kind == want, (a.name, qa, b.name, qb)
                assert (rule.merged in merged) if want == MERGE else rule.merged is None
                kinds[want] += 1
        assert kinds == want_kinds

    def test_pairs_over_more_than_n_qubits_block(self, rule_db):
        # CX(0,1) then CX(0,2) commute, but not on the database's 2 qubits
        gates = [((0, 1), gate("CX")), ((0, 2), gate("CX")), ((0, 1), gate("CX"))]
        report = OptimizeReport(0, 0)
        assert apply_rules(gates, 3, rule_db, report) == gates
        # on 2 qubits, T passes the control of CX and merges with T
        gates = [((0,), gate("T")), ((0, 1), gate("CX")), ((0,), gate("T"))]
        assert apply_rules(gates, 2, rule_db, report) == [((0,), gate("S")), ((0, 1), gate("CX"))]
        assert (report.cancels, report.merges, report.commutes) == (0, 1, 1)

    @pytest.mark.parametrize(
        "other",
        [make_gate("Hs", gate("H").matrix), make_gate("H", gate("X").matrix)],
        ids=["other-name", "other-matrix"],
    )
    def test_gate_not_the_databases_own_blocks(self, rule_db, other):
        gates = [((0,), gate("H")), ((0,), other)]
        assert apply_rules(gates, 1, rule_db, OptimizeReport(0, 0)) == gates
        # a gate of the same name and a bitwise-equal matrix is another
        # object: `optimize` makes it the database's, and it cancels with H
        same_h = make_gate("H", gate("H").matrix)
        gates = [((0,), gate("H")), ((0,), same_h)]
        out, report = optimize(pack(gates, 2), rule_db)
        assert gate_list(out) == [] and report.cancels == 1
        # the check compares the input as given, same_h and all
        assert report.check_qubits == 1 and report.residual <= 1e-12

    def test_grid_the_pass_packs_is_never_walked(self, rule_db, monkeypatch):
        # T·T merges into S, and S, CX, H has no cheaper form: the pass
        # rewrites, the sweep changes nothing, and every grid read, the
        # input and the pass's, was made by `pack`, which kept its list
        gates = [((0,), gate("T")), ((0,), gate("T")), ((0, 1), gate("CX")), ((1,), gate("H"))]
        optimize(pack(gates, 2), rule_db)  # a warm pass reads the database's tables
        monkeypatch.setattr(circuit_module, "_walk", lambda c: pytest.fail("a grid was walked"))
        out, report = optimize(pack(gates, 2), rule_db)
        assert (report.merges, report.substitutions) == (1, [])
        assert gate_list(out) == [((0,), gate("S")), ((0, 1), gate("CX")), ((1,), gate("H"))]

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_pass_never_worsens_and_keeps_the_unitary(self, rule_db, data):
        n = data.draw(st.integers(1, 4), label="qubits")
        # Y is no gate of the database, so it blocks every rule
        one = st.builds(
            lambda name, q: ((q,), gate(name)), st.sampled_from("HXZSTY"), st.integers(0, n - 1)
        )
        cx = st.permutations(range(n)).map(lambda p: ((p[0], p[1]), gate("CX")))
        gates = data.draw(st.lists(st.one_of(one, one, cx) if n > 1 else one, max_size=30))
        report = OptimizeReport(0, 0)
        out = apply_rules(gates, n, rule_db, report)
        assert len(out) == len(gates) - 2 * report.cancels - report.merges
        assert asap_depth(out, n) <= asap_depth(gates, n)
        assert max_abs_diff(gates_unitary(out, n), gates_unitary(gates, n)) <= 1e-12
        # one walk reaches the rules' fixpoint, listed in order or by layer
        for again in (out, gate_list(pack(out, n))):
            assert apply_rules(again, n, rule_db, report) == again


# ── what the database keeps of placed gates, across calls and circuits ──


def table_sizes(db):
    return len(db._placed_rules), len(db._slice_records)


@st.composite
def placed_gate(draw, gates, n):
    """One of the gates on qubits below n, a pair's in either order."""
    g = draw(st.sampled_from([g for g in gates if g.arity == 1 or n > 1]))
    if g.arity == 1:
        return (draw(st.integers(0, n - 1)),), g
    return tuple(draw(st.permutations(range(n)))[:2]), g


class TestKeptTables:
    """The rules pass reads each placed pair, and a sweep each slice, from
    tables the database keeps: made once for every call against it."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_placed_rule_is_the_pair_rule_placed(self, rule_db, wide_merge_db, data):
        db = data.draw(st.sampled_from([rule_db, wide_merge_db]), label="db")
        n = data.draw(st.integers(1, 6), label="qubits")
        gates = db.meta.gate_set.gates[1:]
        (qa, a), (qb, b) = data.draw(st.tuples(placed_gate(gates, n), placed_gate(gates, n)))
        listed = data.draw(st.lists(placed_gate(gates, n), max_size=20), label="gates")
        before = set(db._placed_rules)
        db.placed_rule(a.name, qa, b.name, qb)
        # the rules pass over more qubits than the database's fills the
        # same table
        out = apply_rules(listed, n, db, OptimizeReport(0, 0))
        assert len(out) <= len(listed)
        for key in set(db._placed_rules) - before | {(a.name, qa, b.name, qb)}:
            ka, kqa, kb, kqb = key
            rule = db._placed_rules[key]
            assert db.placed_rule(*key) is rule
            # a fresh reading: renumber, look the pair up, place the merge
            qubits = sorted({*kqa, *kqb})
            if len(qubits) > db.meta.n or not set(kqa) & set(kqb):
                assert rule.kind == BLOCK
                continue
            rel = _relative(kqa, kqb, db.meta.n)
            assert rel == (tuple(map(qubits.index, kqa)), tuple(map(qubits.index, kqb)))
            want = db.pair_rule(ka, rel[0], kb, rel[1])
            assert rule.kind == want.kind
            if want.kind == MERGE:
                assert rule.merged == (tuple(qubits[r] for r in want.merged[0]), want.merged[1])
                assert set(rule.merged[0]) <= set(kqa)
            else:
                assert rule.merged is None

    def test_merges_placed_on_reordered_qubits(self, wide_merge_db):
        # CZ on qubits 0 and 2, in either order, then Z on 2: one gate on
        # the pair's qubits, with the pair's unitary
        for qa in [(0, 2), (2, 0)]:
            rule = wide_merge_db.placed_rule("CZ", qa, "Z", (2,))
            assert rule.kind == MERGE and set(rule.merged[0]) == {0, 2}
            u = gates_unitary([(qa, gate("CZ")), ((2,), gate("Z"))], 3)
            assert max_abs_diff(gates_unitary([rule.merged], 3), u) <= 1e-12

    def test_foreign_gate_enters_neither_table(self, db_ihxzcx):
        db = fresh_copy(db_ihxzcx)
        foreign = make_gate("H", gate("X").matrix)
        gates = [((0,), gate("X")), ((0,), foreign), ((0,), foreign), ((0, 1), gate("CX")),
                 ((1,), foreign), ((1,), gate("Z")), ((0,), gate("X")), ((1,), gate("Z"))]
        report = OptimizeReport(0, 0)
        apply_rules(gates, 2, db, report)
        # X·X on qubit 0 is blocked by the foreign H between them, Z·Z on
        # qubit 1 cancels; no rule is read for the foreign H
        assert report.cancels == 1
        assert all("H" not in (key[0], key[2]) for key in db._placed_rules)
        assert db._placed_rules
        _, report = optimize(pack(gates, 2), db)
        assert report.unitary_lookups > 0
        assert all(cell.gate is not foreign for cells, _ in db._slice_records for cell in cells)
        # its slices are kept for the call alone
        slices = _Slices(db, 2)
        c = pack(gates, 2)
        slices.read(c.layers[:3], 0)
        assert slices.call_records
        assert all(any(cell.gate is foreign for cell in cells) for cells, _ in slices.call_records)

    def test_second_pass_grows_neither_table(self, db_ihxzcx):
        db = fresh_copy(db_ihxzcx)
        corpus = wide_corpus(6)
        first = []
        for text in corpus:
            out, report = optimize(parse(text), db)
            first.append((emit(out), report.substitutions))
        sizes = table_sizes(db)
        assert min(sizes) > 0
        for text, (emitted, subs) in zip(corpus, first):
            out, report = optimize(parse(text), db)
            assert (emit(out), report.substitutions) == (emitted, subs)
        assert table_sizes(db) == sizes

    def test_parsed_template_gates_add_nothing_after_the_first(self, monkeypatch):
        # each parse makes new u1 gates: `optimize` makes each the
        # database's own, so their rules and their slices are kept with it
        db = build_database(GeneratorConfig(n=2, d=2, gate_set=parse_gate_set("ibm-legacy")))
        header = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
        body = "u1(pi/2) q[0]; u1(pi/2) q[0]; cx q[0],q[1]; u1(pi/4) q[1]; h q[1]; u1(pi/2) q[0];"
        text = header + body + "\n"
        outputs = set()
        for k in range(50):
            out, report = optimize(parse(text), db)
            outputs.add(emit(out))
            if k == 0:
                sizes = table_sizes(db), len(db._rank_tables)
                assert report.merges == 2 and sizes[0][0] > 0
        assert (table_sizes(db), len(db._rank_tables)) == sizes
        assert len(outputs) == 1

        made = []
        real_record = _Slices._record

        def noted(memo, cells, qs):
            made.append(cells)
            return real_record(memo, cells, qs)

        monkeypatch.setattr(_Slices, "_record", noted)
        # a second optimize of a u1/u2/u3/cx text makes no record
        uuu = header + (
            "u1(pi/2) q[0]; u2(0,pi) q[1]; cx q[0],q[1]; u3(pi,0,pi) q[0]; "
            "u1(pi/2) q[1]; cx q[1],q[0]; u1(-pi/4) q[0]; u2(0,pi) q[0];\n"
        )
        optimize(parse(uuu), db)
        assert made
        made.clear()
        optimize(parse(uuu), db)
        assert made == []
        # its u1(pi/2) slices are the database's
        u1 = db.meta.gate_set.by_name("U1[pi/2]")
        assert any(cell.gate is u1 for cells, _ in db._slice_records for cell in cells)
        # u1(pi/8) is no ibm-legacy gate: it blocks every rule, and a slice
        # holding it is recorded for the call alone, so each call makes it
        eighth = header + "u1(pi/8) q[0]; u1(pi/8) q[0]; cx q[0],q[1];\n"
        for _ in range(2):
            made.clear()
            _, report = optimize(parse(eighth), db)
            assert report.merges == 0
            foreign = [cells for cells in made if any(c.gate.name == "U1[pi/8]" for c in cells)]
            assert foreign
        assert all(c.gate.name != "U1[pi/8]" for cells, _ in db._slice_records for c in cells)
