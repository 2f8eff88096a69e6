"""Grid model: validation, layer/circuit unitaries, effective depth."""

import cmath
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gate, gate_set, grid

import qidopt.circuit as circuit_module
import qidopt.optimizer as optimizer_module
from qidopt.circuit import (
    TREE_QUBITS,
    FIRST,
    SECOND,
    Cell,
    CircuitGrid,
    StructuralError,
    asap_depth,
    circuit_unitary,
    effective_depth,
    gate_list,
    gates_det,
    gates_unitary,
    half,
    layer_unitary,
    pack,
    pair_unitaries,
    single,
    unshared_gates,
    validate,
)
from qidopt.database import encode_circuit
from qidopt.gates import (
    BUILTIN_GATES,
    U1,
    AngleExpr,
    GateSet,
    instantiate_param_gate,
    make_gate,
)
from qidopt.generator import GeneratorConfig, enumerate_circuits, enumerate_layers
from qidopt.matrices import frobenius_diff, identity, is_unitary, max_abs_diff
from qidopt.optimizer import CheckSpanError, check_residual, optimize
from qidopt.qasm import emit, parse


def basis_oracle_unitary(n, apply_fn):
    """Independent oracle: build a 2^n matrix column by column from a
    basis-state transition function bits -> list of (bits, amplitude)."""
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = tuple((col >> (n - 1 - q)) & 1 for q in range(n))
        for out_bits, amp in apply_fn(bits):
            row = 0
            for b in out_bits:
                row = (row << 1) | b
            u[row, col] += amp
    return u


def gate_oracle(mat, qubits, n):
    """A gate on `qubits` (first operand most significant) as a 2^n matrix,
    scattered one basis state at a time by basis_oracle_unitary."""
    k = len(qubits)

    def apply(bits):
        cin = int("".join(str(bits[q]) for q in qubits), 2)
        out = []
        for cout in range(1 << k):
            new = list(bits)
            for i, q in enumerate(qubits):
                new[q] = (cout >> (k - 1 - i)) & 1
            out.append((new, mat[cout, cin]))
        return out

    return basis_oracle_unitary(n, apply)


def scatter_unitary(c):
    """Reference evaluator: every gate embedded densely, one at a time."""
    u = identity(1 << c.n)
    for layer in c.layers:
        for q, cell in enumerate(layer):
            if cell.is_single:
                u = gate_oracle(cell.gate.matrix, (q,), c.n) @ u
            elif cell.role == FIRST:
                u = gate_oracle(cell.gate.matrix, (q, cell.partner), c.n) @ u
    return u


def _random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# within 1e-9 of the identity (so `is_identity`), but not exactly it
NEAR_I = instantiate_param_gate(U1, [AngleExpr(const=Fraction(1, 10**12))])
SINGLES = [gate(g) for g in ("I", "H", "X", "S", "T")] + [
    make_gate("R2", _random_unitary(2, 1)),
    NEAR_I,
]
# neither is symmetric in its operands, so a swapped orientation shows
PAIRS = [gate("CX"), make_gate("R4", _random_unitary(4, 2))]


@st.composite
def layers_over(draw, n):
    """One layer over n qubits; two-qubit gates on any pair, either
    orientation."""
    cells = [None] * n
    for q in range(n):
        if cells[q] is not None:
            continue
        free = [p for p in range(q + 1, n) if cells[p] is None]
        if free and draw(st.booleans()):
            p = draw(st.sampled_from(free))
            g = draw(st.sampled_from(PAIRS))
            a, b = (q, p) if draw(st.booleans()) else (p, q)
            cells[a], cells[b] = half(g, FIRST, b), half(g, SECOND, a)
        else:
            cells[q] = single(draw(st.sampled_from(SINGLES)))
    return tuple(cells)


@st.composite
def grids(draw, max_n=5, max_m=4):
    """Grids of 1-max_n qubits and up to max_m layers."""
    n = draw(st.integers(1, max_n))
    layers = [draw(layers_over(n)) for _ in range(draw(st.integers(0, max_m)))]
    return CircuitGrid(n, tuple(layers))


class TestAgainstScatterReference:
    @given(grids())
    @settings(max_examples=200, deadline=None)
    def test_circuit_unitary_matches_reference(self, c):
        assert max_abs_diff(circuit_unitary(c), scatter_unitary(c)) <= 1e-12
        for layer in c.layers:
            want = scatter_unitary(CircuitGrid(c.n, (layer,)))
            assert max_abs_diff(layer_unitary(layer, c.n), want) <= 1e-12

    def test_near_identity_gate_is_applied(self):
        # is_identity is a 1e-9 test; only an exact identity may be skipped
        p = make_gate("P", np.diag([1, np.exp(1e-10j)]))
        assert p.is_identity
        assert np.array_equal(circuit_unitary(CircuitGrid(1, ((single(p),),))), p.matrix)
        i = single(gate("I"))
        c = CircuitGrid(3, ((i, single(p), i),))
        assert np.array_equal(circuit_unitary(c), np.kron(np.kron(identity(2), p.matrix), identity(2)))

    def test_circuit_unitary_raises_on_unpaired_half(self):
        bad = (grid("CX:C:1,CX:T:0").layers[0][0], single(gate("I")))
        with pytest.raises(StructuralError, match="unpaired"):
            circuit_unitary(CircuitGrid(2, (grid("H,H").layers[0], bad)))


class TestGatesDet:
    @given(grids())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_unitarys_determinant(self, c):
        # up to 5 qubits, pairs of either orientation on any two qubits
        gates = gate_list(c)
        want = np.linalg.det(gates_unitary(gates, c.n))
        assert abs(gates_det(gates, c.n) - want) <= 1e-10

    def test_nan_for_a_gate_unitary_only_past_the_tolerance(self):
        rough = make_gate("R", [[0.7071, 0.7071], [0.7071, -0.7071]], tol=1e-3)
        assert cmath.isnan(rough.det)
        assert cmath.isnan(gates_det([((0,), gate("H")), ((1,), rough)], 2))


class TestLayerUnitary:
    def test_pure_tensor(self):
        layer = grid("I,X").layers[0]
        got = layer_unitary(layer, 2)
        assert max_abs_diff(got, np.kron(identity(2), gate("X").matrix)) == 0.0

    def test_cx_layer_matches_gate_matrix(self):
        layer = grid("CX:C:1,CX:T:0").layers[0]
        assert max_abs_diff(layer_unitary(layer, 2), gate("CX").matrix) == 0.0

    def test_nonadjacent_cx_against_basis_oracle(self):
        # control q0, target q2: flip bit 2 when bit 0 is set
        def cx02(bits):
            b0, b1, b2 = bits
            return [((b0, b1, b2 ^ b0), 1.0)]

        want = basis_oracle_unitary(3, cx02)
        layer = grid("CX:C:2,I,CX:T:0").layers[0]
        assert max_abs_diff(layer_unitary(layer, 3), want) == 0.0

    def test_reversed_cx_against_basis_oracle(self):
        # control q1, target q0
        def xc(bits):
            b0, b1 = bits
            return [((b0 ^ b1, b1), 1.0)]

        want = basis_oracle_unitary(2, xc)
        layer = grid("CX:T:1,CX:C:0").layers[0]
        assert max_abs_diff(layer_unitary(layer, 2), want) == 0.0

    def test_unpaired_half_raises(self):
        bad = (grid("CX:C:1,CX:T:0").layers[0][0], single(gate("I")))
        with pytest.raises(StructuralError, match="unpaired"):
            layer_unitary(bad, 2)

    @pytest.mark.parametrize("n, count", [(2, 91), (3, 999), (4, 11721)])
    def test_bitwise_equal_to_the_cell_walk(self, n, count):
        # every layer of the 14 builtin gates, the layers every database
        # build multiplies: its bytes depend on these unitaries bit for bit
        layers = enumerate_layers(n, GateSet(list(BUILTIN_GATES.values())))
        assert len(layers) == count
        for layer in layers:
            assert np.array_equal(layer_unitary(layer, n), cell_walk_layer_unitary(layer, n))

    def test_swapped_operands_made_once(self):
        for g in BUILTIN_GATES.values():
            if g.arity == 1:
                assert g.swapped is None
                continue
            assert np.array_equal(g.swapped, g.matrix[np.ix_(SWAP_OPERANDS, SWAP_OPERANDS)])
            assert not g.swapped.flags.writeable


SWAP_OPERANDS = [0, 2, 1, 3]  # |ab> <-> |ba> in the 4x4 basis


def cell_walk_layer_unitary(layer, n):
    """The layer unitary as it was made before the gate kernel folded the
    gate list: each cell in qubit order, a pair at its first operand, a
    reversed neighbour pair through an `np.ix_` gather and any other pair
    through `tensordot` and `moveaxis`."""
    dim = 1 << n
    u = identity(dim)
    for q, cell in enumerate(layer):
        g = cell.gate.matrix
        if cell.is_single:
            if not cell.gate.exact_identity:
                u = np.matmul(g, u.reshape(1 << q, 2, -1))
            continue
        p = cell.partner
        if cell.role != FIRST:
            continue
        if abs(p - q) == 1:
            if p < q:
                g = g[np.ix_(SWAP_OPERANDS, SWAP_OPERANDS)]
            u = np.matmul(g, u.reshape(1 << min(p, q), 4, -1))
        else:
            t = u.reshape((2,) * n + (dim,))
            t = np.tensordot(g.reshape(2, 2, 2, 2), t, axes=([2, 3], [q, p]))
            u = np.moveaxis(t, (0, 1), (q, p))
    return u.reshape(dim, dim)


class TestCircuitUnitary:
    def test_single_layer(self):
        c = grid("H,H")
        assert max_abs_diff(circuit_unitary(c), np.kron(gate("H").matrix, gate("H").matrix)) == 0.0

    def test_headline_five_layer_circuit_equals_x_on_q1(self):
        c = grid("I,H", "CX:C:1,CX:T:0", "Z,Z", "CX:C:1,CX:T:0", "I,H")
        want = circuit_unitary(grid("I,X"))
        assert max_abs_diff(circuit_unitary(c), want) <= 1e-12

    def test_h_h_is_identity(self):
        c = grid("H", "H")
        assert max_abs_diff(circuit_unitary(c), identity(2)) <= 1e-15

    def test_empty_circuit_is_identity(self):
        c = CircuitGrid(2, ())
        assert max_abs_diff(circuit_unitary(c), identity(4)) == 0.0

    def test_temporal_order_first_layer_applied_first(self):
        # X then H on one qubit: U = H·X, not X·H
        c = grid("X", "H")
        want = gate("H").matrix @ gate("X").matrix
        assert max_abs_diff(circuit_unitary(c), want) == 0.0


class TestEffectiveDepth:
    def test_all_identity(self):
        assert effective_depth(grid("I,I", "I,I", "I,I")) == 0

    def test_cost_table_cheap_candidate(self):
        assert effective_depth(grid("I,Y", "I,I", "I,I")) == 1

    def test_cost_table_expensive_candidate(self):
        assert effective_depth(grid("I,Y", "I,H", "I,H")) == 3

    def test_halves_always_count(self):
        assert effective_depth(grid("CX:C:1,CX:T:0")) == 1


EMITTABLE_LAYERS = enumerate_layers(4, gate_set("I", "H", "X", "S", "CX"))


def asap(c):
    """`asap_depth` of a grid's gate list."""
    return asap_depth(gate_list(c), c.n)


class TestAsapDepth:
    def test_gates_move_to_earliest_free_layer(self):
        assert asap(grid("H,I", "I,H")) == 1
        assert effective_depth(grid("H,I", "I,H")) == 2

    def test_pair_waits_for_both_qubits(self):
        # h q[0]; h q[0]; cx q[1],q[0]; h q[2] -> cx sits in layer 3
        c = grid("H,I,I", "H,I,I", "CX:T:1,CX:C:0,H")
        assert asap(c) == 3

    def test_identity_only(self):
        assert asap(grid("I,I", "I,I")) == 0
        assert asap(CircuitGrid(2, ())) == 0

    @given(grids(max_n=5, max_m=8))
    @example(CircuitGrid(2, ()))
    @example(CircuitGrid(1, ((single(NEAR_I),), (single(gate("H")),), (single(NEAR_I),))))
    @settings(max_examples=200, deadline=None)
    def test_equals_depth_of_packed_gates(self, c):
        # the fold against the grid the emitted gates pack into; a near
        # Identity is left out like any other Identity gate
        assert asap(c) == pack([(qs, g) for qs, g in gate_list(c) if not g.is_identity], c.n).m

    @given(st.lists(st.integers(0, len(EMITTABLE_LAYERS) - 1), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_equals_depth_of_emitted_circuit(self, picks):
        c = CircuitGrid(4, tuple(EMITTABLE_LAYERS[i] for i in picks))
        assert asap(c) == effective_depth(parse(emit(c)))
        assert asap(c) <= effective_depth(c)


class TestGateList:
    def test_pair_listed_once_at_its_lower_half_in_operand_order(self):
        c = grid("H,CX:T:2,CX:C:1", "CX:C:2,I,CX:T:0")
        got = [(qs, g.name) for qs, g in gate_list(c)]
        assert got == [((0,), "H"), ((2, 1), "CX"), ((0, 2), "CX")]

    def test_exact_identities_left_out(self):
        assert [(qs, g.name) for qs, g in gate_list(grid("I,X", "I,I"))] == [((1,), "X")]
        near = CircuitGrid(1, ((single(NEAR_I),),))
        assert gate_list(near) == [((0,), NEAR_I)]

    def test_unpaired_half_raises(self):
        bad = CircuitGrid(2, ((grid("CX:C:1,CX:T:0").layers[0][0], single(gate("I"))),))
        with pytest.raises(StructuralError, match="unpaired"):
            gate_list(bad)

    def test_pack_places_each_gate_in_earliest_free_layer(self):
        gates = [((0,), gate("H")), ((1, 0), gate("CX")), ((2,), gate("X")), ((0,), gate("Z"))]
        assert encode_circuit(pack(gates, 3)) == "H,I,X|CX:T:1,CX:C:0,I|Z,I,I"
        assert pack([], 2).m == 0

    def test_pack_inverts_gate_list(self):
        c = grid("I,H,I", "CX:T:2,I,CX:C:0", "T,I,I")
        assert encode_circuit(pack(gate_list(c), c.n)) == "CX:T:2,H,CX:C:0|T,I,I"


    def test_grid_walked_once_and_each_caller_gets_a_copy(self):
        c = grid("H,CX:C:2,CX:T:1", "T,X,I")
        first = gate_list(c)
        assert c.gates is c.gates and first == c.gates and first is not c.gates
        first.clear()
        assert gate_list(c) == c.gates and len(c.gates) == 4

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=300, deadline=None)
    def test_packed_list_is_the_walk(self, n, data):
        # singles, the exact Identity (never listed) and one exact only
        # within 1e-9 (listed), a parsed u1, and pairs in both operand
        # orders, neighbours or not
        one = st.builds(lambda g, q: ((q,), g), st.sampled_from(PACK_SINGLES), st.integers(0, n - 1))
        pair = st.builds(
            lambda p, g: ((p[0], p[1]), g), st.permutations(range(n)), st.sampled_from(PACK_PAIRS)
        )
        gates = data.draw(st.lists(one | pair if n > 1 else one, max_size=24))
        c = pack(gates, n)
        assert c.gates == circuit_module._walk(c)
        listed = gate_list(c)
        assert listed == c.gates and listed is not c.gates


PACK_SINGLES = [gate(name) for name in ("I", "H", "X", "T")] + [
    instantiate_param_gate(U1, [AngleExpr(const=Fraction(1, 10**12))]),
    gate_list(parse('OPENQASM 2.0;\nqreg q[1];\nu1(pi/8) q[0];\n'))[0][1],
]
PACK_PAIRS = [gate("CX"), gate("CZ"), gate("SWAP")]


class TestSharedCells:
    """The grid builders take each cell from its gate's table, so equal
    gates in equal places make equal layers."""

    def test_single_and_half_are_shared(self):
        assert single(gate("H")) is single(gate("H"))
        assert half(gate("CX"), FIRST, 2) is half(gate("CX"), FIRST, 2)
        assert half(gate("CX"), FIRST, 2) is not half(gate("CX"), SECOND, 2)
        assert half(gate("CX"), FIRST, 2) is not half(gate("CX"), FIRST, 1)
        # a cell built directly is equal to itself alone
        assert Cell(gate("H")) != single(gate("H"))

    def test_equal_inputs_give_equal_layers(self):
        gates = [((0,), gate("H")), ((1, 0), gate("CX")), ((2,), gate("T")), ((0, 2), gate("CX"))]
        a, b = pack(gates, 3), pack(list(gates), 3)
        assert a.layers == b.layers and hash(a.layers) == hash(b.layers)
        assert [hash(layer) for layer in a.layers] == [hash(layer) for layer in b.layers]
        text = emit(a)
        c, d = parse(text), parse(text)
        assert c.layers == d.layers == a.layers and hash(c.layers) == hash(d.layers)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cell_table_bounded_by_width(self, w, data):
        g = make_gate("CXB", BUILTIN_GATES["CX"].matrix)  # a table of its own
        h = make_gate("HB", BUILTIN_GATES["H"].matrix)
        for n in data.draw(st.lists(st.integers(1, w), min_size=1, max_size=4), label="widths"):
            if n == 1:
                pack([((0,), h)], n)
                continue
            pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
            drawn = data.draw(st.lists(pairs, max_size=8), label="pairs")
            pack([(qs, g) for qs in drawn] + [((0,), h)], n)
        assert len(h.cells) <= 1
        assert len(g.cells) <= 2 * w
        assert all(cell.partner < w for cell in g.cells.values())


class TestValidate:
    def test_valid_pair(self):
        assert validate(grid("CX:C:1,CX:T:0")) == []

    def test_unpaired_half(self):
        assert any(
            "unpaired two-qubit half" in v for v in validate(grid("CX:C:1,I,I"))
        )

    def test_duplicate_role(self):
        c = grid("CX:C:1,CX:C:0")
        assert any("duplicate role" in v for v in validate(c))

    def test_partner_out_of_range(self):
        c = grid("CX:C:5,CX:T:0")
        assert any("out of range" in v for v in validate(c))

    def test_mismatched_gates(self):
        c = grid("CX:C:1,CZ:T:0")
        assert any("mismatched" in v for v in validate(c))


class TestModelProperties:
    def test_circuit_unitary_is_unitary(self):
        gs = gate_set("I", "H", "S", "CX")
        for c in enumerate_circuits(GeneratorConfig(n=2, d=2, gate_set=gs)):
            assert is_unitary(circuit_unitary(c), 1e-9)

    def test_appending_identity_layer_changes_nothing(self):
        c = grid("H,H", "CX:C:1,CX:T:0")
        padded = CircuitGrid(2, c.layers + (grid("I,I").layers[0],))
        assert max_abs_diff(circuit_unitary(c), circuit_unitary(padded)) <= 1e-12
        assert effective_depth(padded) == effective_depth(c)

    def test_single_qubit_layer_is_kron_fold(self, rng):
        names = ["I", "X", "Y", "Z", "H", "S"]
        for _ in range(20):
            picks = [names[i] for i in rng.integers(0, len(names), size=3)]
            layer = grid(",".join(picks)).layers[0]
            want = np.kron(np.kron(gate(picks[0]).matrix, gate(picks[1]).matrix), gate(picks[2]).matrix)
            assert max_abs_diff(layer_unitary(layer, 3), want) == 0.0

    def test_swapping_cx_roles_reverses_it(self):
        fwd = circuit_unitary(grid("CX:C:1,CX:T:0"))
        rev = circuit_unitary(grid("CX:T:1,CX:C:0"))

        def reversed_cx(bits):
            b0, b1 = bits
            return [((b0 ^ b1, b1), 1.0)]

        assert max_abs_diff(rev, basis_oracle_unitary(2, reversed_cx)) == 0.0
        assert max_abs_diff(fwd, rev) > 0.5  # genuinely different


@st.composite
def one_gate_edits(draw):
    """(c, c′): a grid of 1-6 qubits and a copy with one single cell
    replaced (by Identity too) or one gate inserted in a layer of its own."""
    c = draw(grids(max_n=6, max_m=8))
    layers = [list(layer) for layer in c.layers]
    singles = [
        (li, q)
        for li, layer in enumerate(layers)
        for q, cell in enumerate(layer)
        if cell.is_single
    ]
    if singles and draw(st.booleans()):
        li, q = draw(st.sampled_from(singles))
        layers[li][q] = single(draw(st.sampled_from(SINGLES)))
    else:
        cells = [single(gate("I"))] * c.n
        q = draw(st.integers(0, c.n - 1))
        if c.n > 1 and draw(st.booleans()):
            p = draw(st.sampled_from([x for x in range(c.n) if x != q]))
            g = draw(st.sampled_from(PAIRS))
            cells[q], cells[p] = half(g, FIRST, p), half(g, SECOND, q)
        else:
            cells[q] = single(draw(st.sampled_from(SINGLES)))
        layers.insert(draw(st.integers(0, len(layers))), cells)
    return c, CircuitGrid.from_lists(c.n, layers)


def assert_check_bounds(a, b):
    """The residual lies between the max-abs and the Frobenius difference of
    the whole unitaries; both remainders validate and share one k."""
    ra, rb = unshared(a, b)
    assert ra.n == rb.n <= a.n
    if ra.n:
        assert validate(ra) == [] and validate(rb) == []
    else:
        assert ra.m == rb.m == 0
    residual, k = check(a, b)
    assert k == ra.n
    ua, ub = circuit_unitary(a), circuit_unitary(b)
    assert max_abs_diff(ua, ub) - 1e-12 <= residual <= frobenius_diff(ua, ub) + 1e-12
    assert check(a, a) == (0.0, 0)
    return residual, k


def check(a, b):
    """`check_residual` of two grids' gate lists."""
    return check_residual(gate_list(a), gate_list(b), a.n)


def unshared(a, b):
    """The remainders of `unshared_gates` of two grids, packed as grids."""
    ga, gb, k = unshared_gates(gate_list(a), gate_list(b), a.n)
    return pack(ga, k), pack(gb, k)


def reference_unshared(ga, gb, n):
    """`unshared_gates` by rescanning: while some gate is first on each of
    its qubits in both lists, on the same qubits with an equal matrix,
    remove it from both; then the same from the back."""

    def heads(gates):
        seen, out = set(), {}
        for i, (qs, _) in enumerate(gates):
            if not seen.intersection(qs):
                out[qs] = i
            seen.update(qs)
        return out

    def trim(a, b):
        a, b = list(a), list(b)
        while True:
            hb = heads(b)
            for qs, i in heads(a).items():
                j = hb.get(qs)
                if j is not None and np.array_equal(a[i][1].matrix, b[j][1].matrix):
                    del a[i], b[j]
                    break
            else:
                return a, b

    ga, gb = trim(ga, gb)
    ga, gb = (x[::-1] for x in trim(ga[::-1], gb[::-1]))
    touched = sorted({x for qs, _ in ga + gb for x in qs})
    at = touched.index
    return ([(tuple(map(at, qs)), g) for qs, g in x] for x in (ga, gb)), len(touched)


OPT_LAYERS = {n: enumerate_layers(n, gate_set("I", "H", "X", "Z", "CX")) for n in (2, 3, 4)}


class TestUnshared:
    def test_circuit_against_itself_leaves_nothing(self):
        c = grid("H,CX:C:2,CX:T:1", "T,X,I")
        for ra, rb in (unshared(c, c), unshared(c, parse(emit(c)))):
            assert (ra.n, ra.m, rb.n, rb.m) == (0, 0, 0, 0)

    def test_trims_front_and_back_around_one_edit(self):
        a = grid("H,I,X", "CX:C:1,CX:T:0,I", "Z,I,I", "I,H,H")
        b = grid("H,I,X", "CX:C:1,CX:T:0,I", "S,I,I", "I,H,H")
        ra, rb = unshared(a, b)
        assert (ra.n, encode_circuit(ra), encode_circuit(rb)) == (1, "Z", "S")

    def test_gate_behind_a_difference_on_its_qubit_stays(self):
        # in a, CX is neither first nor last on qubit 0, so it cannot move
        # past X or Z; H on qubit 2 goes either way
        a = grid("X,I,I", "CX:C:1,CX:T:0,H", "Z,I,I")
        b = grid("CX:C:1,CX:T:0,H")
        ra, rb = unshared(a, b)
        assert encode_circuit(ra) == "X,I|CX:C:1,CX:T:0|Z,I"
        assert encode_circuit(rb) == "CX:C:1,CX:T:0"

    def test_pair_in_other_operand_order_stays(self):
        a, b = grid("CX:C:1,CX:T:0"), grid("CX:T:1,CX:C:0")
        assert unshared(a, b)[0].n == 2
        assert check(a, b)[0] > 1

    def test_remainder_qubits_renumbered_in_order(self):
        a = grid("CX:C:3,H,I,CX:T:0", "I,I,X,I")
        b = grid("CX:C:3,H,I,CX:T:0", "I,I,Z,I", "T,I,I,I")
        ra, rb = unshared(a, b)
        # qubits 0 and 2 remain, as 0 and 1
        assert (encode_circuit(ra), encode_circuit(rb)) == ("I,X", "T,Z")

    def test_exact_identity_skipped_whatever_its_name(self):
        u1_0 = instantiate_param_gate(U1, [AngleExpr()])
        a = CircuitGrid(2, ((single(u1_0), single(gate("X"))),))
        assert unshared(a, grid("I,X"))[0].n == 0
        assert check(a, grid("I,X")) == (0.0, 0)

    def test_near_identity_gate_is_never_skipped_or_trimmed(self):
        assert NEAR_I.is_identity and not np.array_equal(NEAR_I.matrix, identity(2))
        near = single(NEAR_I)
        a = CircuitGrid(2, grid("H,X").layers + ((near, single(gate("I"))),) + grid("H,X").layers)
        b = grid("H,X", "H,X")
        ra, rb = unshared(a, b)
        assert ra.n == 1 and ra.layers[0][0].gate is NEAR_I and rb.m == 0
        residual, k = check(a, b)
        assert k == 1 and residual > 0
        # nor is it trimmed against a gate merely close to it
        other = single(instantiate_param_gate(U1, [AngleExpr(const=Fraction(2, 10**12))]))
        c = CircuitGrid(1, ((other,),))
        assert check(CircuitGrid(1, ((near,),)), c)[0] > 0

    def test_unpaired_half_raises(self):
        bad = CircuitGrid(2, ((grid("CX:C:1,CX:T:0").layers[0][0], single(gate("I"))),))
        with pytest.raises(StructuralError, match="unpaired"):
            unshared(bad, grid("I,I"))

    def test_unpaired_half_in_shared_leading_layer_raises(self):
        # a leading layer both grids hold as one object is listed like any
        # other, so an unpaired half there is found
        bad = (grid("CX:C:1,CX:T:0").layers[0][0], single(gate("I")))
        a, b = CircuitGrid(2, (bad,) + grid("H,I").layers), CircuitGrid(2, (bad,) + grid("X,I").layers)
        with pytest.raises(StructuralError, match="unpaired"):
            unshared(a, b)

    @pytest.mark.parametrize("k", [20, 24])
    def test_span_too_wide_to_hold_refused(self, k):
        # H on each qubit against nothing: the remainders span all k, whose
        # unitaries (16·4^k bytes each) are refused before any is made
        ga = [((q,), gate("H")) for q in range(k)]
        with pytest.raises(CheckSpanError, match=f"k = {k} qubits") as exc:
            check_residual(ga, [], k)
        assert exc.value.k == k
        # the gates both lists hold are trimmed before the span is sized
        assert check_residual(ga + [((0,), gate("X"))], ga + [((0,), gate("Z"))], k)[1] == 1

    def test_first_span_too_wide_refused_before_any_unitary(self, monkeypatch):
        # 3·16·4^13 bytes is the first span over the budget; a CX chain
        # over 13 qubits against nothing is one remainder on all of them
        def refuse(*args):
            raise AssertionError("a unitary was made")

        monkeypatch.setattr(optimizer_module, "pair_unitaries", refuse)
        monkeypatch.setattr(optimizer_module, "gates_unitary", refuse)
        monkeypatch.setattr(circuit_module, "_apply", refuse)
        ga = [((q, q + 1), gate("CX")) for q in range(12)]
        with pytest.raises(CheckSpanError, match="k = 13 qubits") as exc:
            check_residual(ga, [], 13)
        assert exc.value.k == 13

    @given(one_gate_edits(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_trims_as_a_rescan_does(self, pair, reverse):
        a, b = pair
        if reverse:  # lists that share far less
            b = pack(gate_list(b)[::-1], b.n)
        ga, gb = gate_list(a), gate_list(b)
        (ra, rb), k = reference_unshared(ga, gb, a.n)
        assert unshared_gates(ga, gb, a.n) == (ra, rb, k)

    @given(one_gate_edits())
    @settings(max_examples=300, deadline=None)
    def test_residual_bounds_one_gate_edit(self, pair):
        assert_check_bounds(*pair)

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_residual_bounds_optimize_output(self, db_ihxzcx, n, data):
        picks = data.draw(st.lists(st.sampled_from(range(len(OPT_LAYERS[n]))), max_size=8))
        c = CircuitGrid(n, tuple(OPT_LAYERS[n][i] for i in picks))
        out, report = optimize(c, db_ihxzcx)
        residual, k = assert_check_bounds(c, out)
        assert (report.residual, report.check_qubits) == (residual, k)
        assert residual <= 1e-12


# every builtin gate, Identity, SWAP, ISWAP and CY among them, and a gate a
# parse makes per call, which no gate table holds
U1_PI_8 = gate_list(parse('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nu1(pi/8) q[0];\n'))[0][1]
OPERATOR_GATES = list(BUILTIN_GATES.values()) + [U1_PI_8]


@st.composite
def gate_lists(draw, k):
    """Up to 16 gates over k qubits, pairs on any two of them (neighbours
    or not) in either operand order."""
    pool = [g for g in OPERATOR_GATES if g.arity == 1 or k > 1]
    gates = []
    for _ in range(draw(st.integers(0, 16))):
        g = draw(st.sampled_from(pool))
        qs = draw(st.permutations(range(k)))[: g.arity]
        gates.append((tuple(qs), g))
    return gates


@st.composite
def list_pairs(draw):
    """(k, ra, rb): two gate lists of any lengths over 1 to 4 qubits, on
    both sides of TREE_QUBITS, rb often ra with one gate replaced, so the
    two share gates."""
    k = draw(st.integers(1, 4))
    ra = draw(gate_lists(k))
    if ra and draw(st.booleans()):
        rb = list(ra)
        rb[draw(st.integers(0, len(ra) - 1))] = draw(gate_lists(k).filter(len))[0]
    else:
        rb = draw(gate_lists(k))
    return k, ra, rb


def operator_keys():
    return {g.name: set(g.operators) for g in OPERATOR_GATES}


class TestPairUnitaries:
    @given(list_pairs())
    @example((1, [], []))
    @example((2, [], [((1, 0), gate("ISWAP"))]))
    @example((4, [((3, 0), gate("CY")), ((0,), U1_PI_8)], [((2, 0), gate("SWAP"))]))
    @settings(max_examples=300, deadline=None)
    def test_matches_gate_by_gate(self, case):
        k, ra, rb = case
        a, b = pair_unitaries(ra, rb, k)
        assert max_abs_diff(a, gates_unitary(ra, k)) <= 1e-13
        assert max_abs_diff(b, gates_unitary(rb, k)) <= 1e-13
        # the check's residual against the remainders' per-gate one
        ta, tb, span = unshared_gates(ra, rb, k)
        want = frobenius_diff(gates_unitary(ta, span), gates_unitary(tb, span)) if span else 0.0
        residual, got_span = check_residual(ra, rb, k)
        assert got_span == span and abs(residual - want) <= 1e-13
        # each gate keeps its operators only up to the bound, at most one
        # per placement on each k
        for g in OPERATOR_GATES:
            sizes = [qk for _, qk in g.operators]
            assert all(1 <= qk <= TREE_QUBITS for qk in sizes)
            for qk in set(sizes):
                places = qk if g.arity == 1 else qk * (qk - 1)
                assert sizes.count(qk) <= places

    def test_operators_are_the_kernels(self):
        for g in OPERATOR_GATES:
            for k in range(g.arity, TREE_QUBITS + 1):
                for qs in itertools.permutations(range(k), g.arity):
                    a, _ = pair_unitaries([(qs, g)], [], k)
                    assert np.array_equal(a, gates_unitary([(qs, g)], k))

    def test_wider_check_adds_no_operator(self):
        k = TREE_QUBITS + 1
        ra = [((q % k, (q + 1) % k), g) for q, g in enumerate(OPERATOR_GATES) if g.arity == 2]
        ra += [((q % k,), g) for q, g in enumerate(OPERATOR_GATES) if g.arity == 1]
        rb = ra[::-1]
        before = operator_keys()
        a, b = pair_unitaries(ra, rb, k)
        assert np.array_equal(a, gates_unitary(ra, k)) and np.array_equal(b, gates_unitary(rb, k))
        assert check_residual(ra, rb, k)[1] == k
        assert operator_keys() == before
