"""QASM subset: parsing, ASAP layering, emission, round trips, diagnostics."""

import math

import pytest

from conftest import gate, gate_set, grid

from qidopt.circuit import CircuitGrid, circuit_unitary, effective_depth
from qidopt.database import encode_circuit
from qidopt.gates import AngleExpr
from qidopt.generator import enumerate_layers
from qidopt.matrices import max_abs_diff
from qidopt.qasm import QasmError, emit, parse, parse_angle

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def qasm(n, *stmts):
    return HEADER + f"qreg q[{n}];\n" + "\n".join(stmts) + "\n"


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("pi/2", math.pi / 2),
            ("-3*pi/4", -3 * math.pi / 4),
            ("0", 0.0),
            ("pi", math.pi),
            ("2*pi", 2 * math.pi),
            ("0.5", 0.5),
            ("1/2", 0.5),
            ("pi/2+1/4", math.pi / 2 + 0.25),
            ("-pi", -math.pi),
        ],
    )
    def test_values(self, text, value):
        assert parse_angle(text).value() == pytest.approx(value)

    def test_render_parse_round_trip(self):
        for text in ("pi/2", "-3*pi/4", "0", "pi", "1/2"):
            assert parse_angle(parse_angle(text).render()) == parse_angle(text)

    def test_rejects_garbage(self):
        for text in ("", "pie", "1//2", "pi/0"):
            with pytest.raises(ValueError):
                parse_angle(text)


class TestParse:
    def test_two_h_on_one_qubit(self):
        c = parse(qasm(1, "h q[0];", "h q[0];"))
        assert encode_circuit(c) == "H|H"

    def test_headline_circuit_packs_zs_together(self):
        text = qasm(
            2,
            "h q[1];",
            "cx q[0],q[1];",
            "z q[0];",
            "z q[1];",
            "cx q[0],q[1];",
            "h q[1];",
        )
        c = parse(text)
        assert c.m == 5
        assert encode_circuit(c) == (
            "I,H|CX:C:1,CX:T:0|Z,Z|CX:C:1,CX:T:0|I,H"
        )

    def test_cx_grid(self):
        c = parse(qasm(2, "cx q[0],q[1];"))
        assert encode_circuit(c) == "CX:C:1,CX:T:0"

    def test_reversed_operands(self):
        c = parse(qasm(2, "cx q[1],q[0];"))
        assert encode_circuit(c) == "CX:T:1,CX:C:0"

    def test_u_gates_instantiated(self):
        c = parse(qasm(1, "u1(pi/2) q[0];", "u2(0,pi) q[0];"))
        names = [cell.gate.name for layer in c.layers for cell in layer]
        assert names == ["U1[pi/2]", "U2[0;pi]"]
        assert max_abs_diff(
            circuit_unitary(c),
            gate("H").matrix @ gate("S").matrix,
        ) <= 1e-12

    def test_asap_packing_gate_count_preserved(self):
        text = qasm(3, "h q[0];", "h q[1];", "cx q[0],q[1];", "x q[2];", "h q[0];")
        c = parse(text)
        cells = sum(
            1
            for layer in c.layers
            for cell in layer
            if not (cell.is_single and cell.gate.is_identity)
        )
        assert cells == 6  # cx occupies two cells
        assert c.m <= 5

    def test_comments_and_blanks_ignored(self):
        c = parse(HEADER + "// a comment\n\nqreg q[1];\nx q[0]; // trailing\n")
        assert encode_circuit(c) == "X"

    def test_iswap_definition_block_skipped(self):
        text = (
            HEADER
            + "gate iswap a,b { s a; s b; h a; cx a,b; cx b,a; h b; }\n"
            + "qreg q[2];\niswap q[0],q[1];\n"
        )
        c = parse(text)
        assert encode_circuit(c) == "ISWAP:C:1,ISWAP:T:0"


class TestParseDiagnostics:
    def test_missing_header(self):
        with pytest.raises(QasmError, match="OPENQASM 2.0"):
            parse("qreg q[1];\nx q[0];\n")

    def test_openqasm3_rejected(self):
        with pytest.raises(QasmError, match="OpenQASM 3"):
            parse("OPENQASM 3.0;\nqubit[2] q;\n")

    def test_unsupported_gate(self):
        with pytest.raises(QasmError, match="unsupported gate 'ccx'"):
            parse(qasm(3, "ccx q[0],q[1],q[2];"))

    def test_out_of_range_operand(self):
        with pytest.raises(QasmError, match="out of range"):
            parse(qasm(1, "x q[3];"))

    def test_measurement_rejected(self):
        with pytest.raises(QasmError, match="measurement"):
            parse(HEADER + "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\n".replace("creg c[1];\n", ""))

    def test_creg_rejected(self):
        with pytest.raises(QasmError, match="classical registers"):
            parse(HEADER + "qreg q[1];\ncreg c[1];\n")

    def test_error_positions_reported(self):
        try:
            parse(qasm(1, "x q[0];", "bogus q[0];"))
        except QasmError as e:
            assert e.line == 5
        else:
            pytest.fail("expected QasmError")

    def test_two_qregs_rejected(self):
        with pytest.raises(QasmError, match="one quantum register"):
            parse(HEADER + "qreg q[1];\nqreg r[1];\n")

    def test_angle_arity_checked(self):
        with pytest.raises(QasmError, match="angle"):
            parse(qasm(1, "u2(pi) q[0];"))

    def test_angle_beyond_float_range_rejected(self):
        with pytest.raises(QasmError, match="too large") as info:
            parse(qasm(1, "x q[0];", f"u1({'9' * 400}) q[0];"))
        assert info.value.line == 5

    def test_statement_missing_semicolon(self):
        with pytest.raises(QasmError, match="missing ';'"):
            parse(HEADER + "qreg q[1];\nx q[0]\n")


class TestEmit:
    def test_x_on_second_qubit(self):
        text = emit(grid("I,X"))
        assert text == HEADER + "qreg q[2];\nx q[1];\n"

    def test_identity_cells_omitted(self):
        assert "id" not in emit(grid("I,X", "I,I"))

    def test_deterministic(self):
        c = grid("H,H", "CX:C:1,CX:T:0")
        assert emit(c) == emit(c)

    def test_iswap_gets_definition(self):
        text = emit(grid("ISWAP:C:1,ISWAP:T:0"))
        assert "gate iswap a,b" in text
        assert "iswap q[0],q[1];" in text
        # and the emitted file parses back to the same unitary
        c2 = parse(text)
        assert max_abs_diff(circuit_unitary(c2), gate("ISWAP").matrix) <= 1e-12

    def test_u_gate_emission(self):
        c = parse(qasm(1, "u1(pi/2) q[0];"))
        out = emit(c)
        assert "u1(pi/2) q[0];" in out

    def test_unrenderable_gate_named(self):
        from qidopt.gates import make_gate
        from qidopt.circuit import single

        odd = make_gate("ODD", [[1, 0], [0, 1j]])
        c = CircuitGrid(1, ((single(odd),),))
        with pytest.raises(ValueError, match="ODD"):
            emit(c)


class TestRoundTrip:
    def test_emit_parse_unitary_stable(self, rng):
        gs = gate_set("I", "X", "Y", "Z", "H", "S", "SDG", "T", "TDG", "CX", "CZ")
        layers = enumerate_layers(2, gs)
        for _ in range(80):
            m = int(rng.integers(1, 5))
            picks = rng.integers(0, len(layers), size=m)
            c = CircuitGrid(2, tuple(layers[i] for i in picks))
            c2 = parse(emit(c))
            assert max_abs_diff(circuit_unitary(c), circuit_unitary(c2)) <= 1e-12
            assert effective_depth(c2) <= effective_depth(c)

    def test_three_qubit_swap_iswap_round_trip(self, rng):
        gs = gate_set("I", "H", "SWAP", "ISWAP", "CY")
        layers = enumerate_layers(3, gs)
        for _ in range(40):
            m = int(rng.integers(1, 4))
            picks = rng.integers(0, len(layers), size=m)
            c = CircuitGrid(3, tuple(layers[i] for i in picks))
            c2 = parse(emit(c))
            assert max_abs_diff(circuit_unitary(c), circuit_unitary(c2)) <= 1e-12
