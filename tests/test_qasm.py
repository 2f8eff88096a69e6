"""QASM subset: parsing, ASAP layering, emission, round trips, diagnostics."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gate, gate_set, grid

from qidopt.circuit import (
    CircuitGrid,
    asap_depth,
    circuit_unitary,
    effective_depth,
    gate_list,
    pack,
    single,
)
from qidopt.database import encode_circuit
from qidopt.gates import BUILTIN_GATES, U1, U2, U3, AngleExpr, GateSet, instantiate_param_gate
from qidopt.generator import enumerate_layers
from qidopt.matrices import max_abs_diff
from qidopt.qasm import (
    _DELIMITER,
    _NON_SPACE,
    QasmError,
    _error,
    _statements,
    emit,
    parse,
    parse_angle,
)

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

    def test_identity_application_takes_no_layer(self):
        for stmt in ("id q[0];", "u1(0) q[0];"):
            c = parse(qasm(2, "x q[1];", stmt, "h q[0];"))
            assert encode_circuit(c) == "H,X"
            assert effective_depth(c) == asap_depth(gate_list(c), c.n) == 1

    def test_identity_application_operands_still_checked(self):
        with pytest.raises(QasmError, match="out of range"):
            parse(qasm(1, "id q[1];"))

    def test_equal_angles_share_one_gate(self):
        c = parse(qasm(2, "u1(pi/4) q[0];", "u1(pi/4) q[1];"))
        assert c.layers[0][0].gate is c.layers[0][1].gate

    def test_repeated_identity_application_takes_no_layer(self):
        c = parse(qasm(2, "id q[0];", "x q[1];", "id q[0];", "id q[0];"))
        assert encode_circuit(c) == "I,X"

    def test_repeated_statement_gives_one_gate(self):
        c = parse(qasm(1, "u1(pi/4) q[0];", "h q[0];", "u1(pi/4) q[0];"))
        assert encode_circuit(c) == "U1[pi/4]|H|U1[pi/4]"
        assert c.layers[0][0].gate is c.layers[2][0].gate

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

    def test_repeated_qreg_rejected(self):
        with pytest.raises(QasmError, match="exactly one quantum register") as info:
            parse(HEADER + "qreg q[1];\nx q[0];\nqreg q[1];\n")
        assert (info.value.line, info.value.column) == (5, 1)

    def test_repeated_bad_statement_reports_its_first_position(self):
        with pytest.raises(QasmError, match="out of range") as info:
            parse(qasm(3, "x q[0];", "h q[7];", "x q[0];", "h q[7];"))
        assert (info.value.line, info.value.column) == (5, 1)

    def test_angle_arity_checked(self):
        with pytest.raises(QasmError, match="angle"):
            parse(qasm(1, "u2(pi) q[0];"))

    def test_angle_beyond_float_range_rejected(self):
        with pytest.raises(QasmError, match="too large") as info:
            parse(qasm(1, "x q[0];", f"u1({'9' * 400}) q[0];"))
        assert info.value.line == 5

    def test_empty_statement_rejected(self):
        with pytest.raises(QasmError) as info:
            parse(qasm(1, "x q[0];;"))
        assert (str(info.value), info.value.line, info.value.column) == (
            "line 4, column 8: empty statement",
            4,
            8,
        )

    def test_statement_missing_semicolon(self):
        with pytest.raises(QasmError, match="missing ';'"):
            parse(HEADER + "qreg q[1];\nx q[0]\n")


# Every diagnostic as (message, line, column): the exact text and position
# of each QasmError the parser raises for these inputs.
DIAGNOSTICS = [
    ("creg", HEADER + "qreg q[1];\ncreg c[1];\n", "classical registers are not supported", 4, 1),
    ("measure", qasm(1, "measure q[0] -> c[0];"), "measurement is not supported", 4, 1),
    ("reset", qasm(1, "reset q[0];"), "reset is not supported", 4, 1),
    ("barrier", qasm(2, "h q[0];", "barrier q[0],q[1];"), "barriers are not supported", 5, 1),
    ("if", qasm(1, "if(c==1) x q[0];"), "classical control is not supported", 4, 1),
    ("opaque", HEADER + "opaque g a;\nqreg q[1];\n", "opaque gates are not supported", 3, 1),
    ("bad_operand", qasm(2, "cx q[0], q1;"), "cannot parse operand 'q1'", 4, 1),
    ("unknown_register", qasm(1, "x r[0];"), "unknown register 'r'", 4, 1),
    ("out_of_range", qasm(1, "x q[3];"), "operand q[3] out of range (size 1)", 4, 1),
    ("bad_angle", qasm(1, "u1(pie) q[0];"), "cannot parse angle term 'pie' in 'pie'", 4, 1),
    (
        "angle_too_large",
        qasm(1, "x q[0];", f"u1({'9' * 400}) q[0];"),
        "angle is too large to evaluate as a float",
        5,
        1,
    ),
    ("angle_count", qasm(1, "u2(pi) q[0];"), "u2 takes 2 angle(s), got 1", 4, 1),
    ("angles_on_builtin", qasm(1, "h(pi) q[0];"), "h takes no angles", 4, 1),
    ("unsupported_gate", qasm(3, "ccx q[0],q[1],q[2];"), "unsupported gate 'ccx'", 4, 1),
    ("operand_count", qasm(2, "cx q[0];"), "cx takes 2 operand(s), got 1", 4, 1),
    ("same_operands", qasm(2, "cx q[1],q[1];"), "two-qubit gate operands must differ", 4, 1),
    ("cannot_parse", qasm(1, "x;"), "cannot parse statement 'x'", 4, 1),
    # only `include "<file>"` is an include; other statements that begin
    # with the word are read as gate applications
    ("include_prefix", qasm(1, "include_x q[0];"), "unsupported gate 'include_x'", 4, 1),
    ("include_bare", qasm(1, "x q[0]; include;"), "cannot parse statement 'include'", 4, 9),
    ("mid_line", qasm(2, "h q[0]; bogus q[1];"), "unsupported gate 'bogus'", 4, 9),
    (
        "mid_line_third",
        qasm(2, "h q[0];  x q[1];   cz q[0],q[0];"),
        "two-qubit gate operands must differ",
        4,
        20,
    ),
    (
        "after_trailing_comment",
        qasm(1, "x q[0]; // trailing ; comment", "   bogus q[0];"),
        "unsupported gate 'bogus'",
        5,
        4,
    ),
    ("after_comment_line", qasm(1, "// only a comment", "bogus q[0];"), "unsupported gate 'bogus'", 5, 1),
    (
        "after_iswap_block_over_lines",
        HEADER
        + "gate iswap a,b\n{\n  s a; s b; h a;\n  cx a,b; cx b,a; h b;\n}\nqreg q[2];  iswap q[0],q[2];\n",
        "operand q[2] out of range (size 2)",
        8,
        13,
    ),
    (
        "gate_block_over_lines",
        HEADER + "qreg q[1];\n  gate foo a\n  {\n    x a;\n  }\n",
        "gate definitions are not supported (foo)",
        4,
        3,
    ),
    ("statement_over_lines", qasm(2, "cx q[0],", "   q[5];"), "operand q[5] out of range (size 2)", 4, 1),
    ("semicolons_before_header", ";;" + HEADER, "file must start with 'OPENQASM 2.0;'", 1, 1),
    ("missing_semicolon_at_eof", HEADER + "qreg q[1];\nx q[0];\n  x q[0]", "statement missing ';': 'x q[0]'", 5, 3),
    (
        "missing_semicolon_long",
        HEADER + "qreg q[1];\nx q[0]\n" + "h q[0]\n" * 10,
        "statement missing ';': 'x q[0]\\nh q[0]\\nh q[0]\\nh q[0]\\nh q[0]\\nh q[0'",
        4,
        1,
    ),
    (
        "unclosed_brace",
        HEADER + "gate iswap a,b { s a;\nqreg q[2];\n",
        "statement missing ';': 'gate iswap a,b { s a;\\nqreg q[2];'",
        3,
        1,
    ),
    ("braced_statement", qasm(1, "{ x q[0]; }"), "cannot parse statement '{ x q[0]; }'", 4, 1),
    ("stray_close_brace", qasm(1, "x q[0] }", "; y q[0];"), "unmatched '}'", 4, 8),
    (
        "stray_close_brace_in_include",
        'OPENQASM 2.0;\ninclude "qe}lib1.inc";\nqreg q[1];\nx q[0];\n',
        "unmatched '}'",
        2,
        12,
    ),
    ("missing_header", "qreg q[1];\nx q[0];\n", "file must start with 'OPENQASM 2.0;'", 1, 1),
    ("header_after_comment", "// c\n  qreg q[1];\n", "file must start with 'OPENQASM 2.0;'", 2, 3),
    ("empty_file", "", "file must start with 'OPENQASM 2.0;'", 1, 1),
    ("openqasm3", "OPENQASM 3.0;\nqubit[2] q;\n", "OpenQASM 3 is not supported; use 2.0", 1, 1),
    ("bad_version", "OPENQASM 2.1;\n", "unsupported OPENQASM version '2.1'", 1, 1),
    ("gate_before_qreg", HEADER + "x q[0];\nqreg q[1];\n", "gate before qreg declaration", 3, 1),
    ("two_qregs", HEADER + "qreg q[1];\nqreg r[1];\n", "exactly one quantum register is supported", 4, 1),
    ("empty_qreg", HEADER + "qreg q[0];\n", "quantum register must have at least one qubit", 3, 1),
    ("missing_qreg", HEADER, "missing qreg declaration", 1, 1),
    ("tab_indent", qasm(1, "\tbogus q[0];"), "unsupported gate 'bogus'", 4, 2),
]


class TestDiagnosticTable:
    @pytest.mark.parametrize(
        "text,message,line,column", [case[1:] for case in DIAGNOSTICS], ids=[case[0] for case in DIAGNOSTICS]
    )
    def test_message_and_position(self, text, message, line, column):
        with pytest.raises(QasmError) as info:
            parse(text)
        assert type(info.value) is QasmError
        assert (str(info.value), info.value.line, info.value.column) == (
            f"line {line}, column {column}: {message}",
            line,
            column,
        )


def delimiter_statements(src):
    """`_statements` as a walk over every delimiter, braces counted, kept as
    the reference for texts with no brace, which are cut at each ';'."""
    depth = 0
    start = _NON_SPACE.search(src)
    for d in _DELIMITER.finditer(src):
        if d[0] == "{":
            depth += 1
            continue
        if d[0] == "}":
            if depth == 0:
                raise _error(src, "unmatched '}'", d.start())
            depth -= 1
        if depth == 0:
            end = d.end() if d[0] == "}" else d.start()
            yield src[start.start() : end].rstrip(), start.start()
            start = _NON_SPACE.search(src, d.end())
    if start is not None:
        at = start.start()
        raise _error(src, f"statement missing ';': {src[at:].rstrip()[:40]!r}", at)


def statements_or_error(split, src):
    try:
        return list(split(src))
    except QasmError as e:
        return str(e)


class TestStatements:
    PIECES = [";", " ", "\n", "\t", "\x1c", "h q[0]", "x", "{", "}"]

    @given(st.lists(st.sampled_from(PIECES), max_size=14))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_delimiter_walk(self, pieces):
        src = "".join(pieces)
        assert statements_or_error(_statements, src) == statements_or_error(delimiter_statements, src)


class TestEmit:
    def test_x_on_second_qubit(self):
        text = emit(grid("I,X"))
        assert text == HEADER + "qreg q[2];\nx q[1];\n"

    def test_identity_cells_omitted(self):
        assert "id" not in emit(grid("I,X", "I,I"))
        # a gate within 1e-9 of the identity is omitted too
        near = instantiate_param_gate(U1, [AngleExpr(const=Fraction(1, 10**12))])
        c = CircuitGrid(2, ((single(near), single(gate("X"))),))
        assert emit(c) == HEADER + "qreg q[2];\nx q[1];\n"

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


# every builtin gate plus one instance of each template
ROUND_TRIP_GATES = GateSet(
    list(BUILTIN_GATES.values())
    + [
        instantiate_param_gate(U1, [AngleExpr(Fraction(1, 8))]),
        instantiate_param_gate(U2, [AngleExpr(Fraction(1, 3)), AngleExpr(Fraction(-1, 2))]),
        instantiate_param_gate(
            U3, [AngleExpr(Fraction(1, 5)), AngleExpr(Fraction(2, 3)), AngleExpr(Fraction(-1, 7))]
        ),
    ]
)
ROUND_TRIP_LAYERS = {n: enumerate_layers(n, ROUND_TRIP_GATES) for n in (1, 2, 3)}


@st.composite
def round_trip_grids(draw):
    n = draw(st.integers(1, 3))
    pool = ROUND_TRIP_LAYERS[n]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=6))
    return CircuitGrid(n, tuple(pool[i] for i in picks))


class TestRoundTripProperties:
    @given(round_trip_grids())
    @settings(max_examples=200, deadline=None)
    def test_emit_parse_round_trip(self, c):
        text = emit(c)
        back = parse(text)
        assert max_abs_diff(circuit_unitary(back), circuit_unitary(c)) <= 1e-12
        assert effective_depth(back) == asap_depth(gate_list(c), c.n)
        again = emit(back)
        assert emit(parse(again)) == again

    @given(round_trip_grids())
    @settings(max_examples=200, deadline=None)
    def test_pack_gate_list_keeps_unitary(self, c):
        packed = pack(gate_list(c), c.n)
        assert max_abs_diff(circuit_unitary(packed), circuit_unitary(c)) <= 1e-12
