"""QASM subset: parsing, ASAP layering, emission, round trips, diagnostics."""

import math
import re
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
from qidopt.gates import (
    BUILTIN_BY_QASM,
    BUILTIN_GATES,
    TEMPLATES_BY_QASM,
    U1,
    U2,
    U3,
    AngleExpr,
    GateSet,
    instantiate_param_gate,
)
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

    def test_no_space_after_angle_list(self):
        # OpenQASM 2.0 needs no space between an angle list and its operands
        c = parse(qasm(2, "u1(pi/2)q[0];", "u2(0,pi)\tq[1];", "u1(pi/2) q[1];"))
        assert emit(c) == emit(parse(qasm(2, "u1(pi/2) q[0];", "u2(0,pi) q[1];", "u1(pi/2) q[1];")))

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

    @pytest.mark.parametrize("stmt", ["hq[0]", "u1(pi)+q[0]", "x(pi),q[0]"])
    def test_token_joined_to_operand_refused(self, stmt):
        # only an operand may follow an angle list with no space between
        with pytest.raises(QasmError) as info:
            parse(qasm(1, stmt + ";"))
        assert str(info.value) == f"line 4, column 1: cannot parse statement {stmt!r}"

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


def listed_statements(src):
    """`_statements` as the delimiter walk reads them: (statement, offset)
    pairs, each statement stripped, then the error past them."""
    stmts, where, fault = _statements(src)
    yield from ((stmt.strip(), where(k)) for k, stmt in enumerate(stmts))
    if fault is not None:
        raise fault


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
        assert statements_or_error(listed_statements, src) == statements_or_error(delimiter_statements, src)


# The statement-by-statement parse that `parse` replaced, kept as its
# reference: every new statement goes through the checks in order, and
# an application is accepted where they end. Unlike `parse`, it cannot
# read an angle list with no space before its operands (`u1(pi/2)q[0]`).
REF_INCLUDE = re.compile(r'^include\s*"[^"]*"$')
REF_QREG = re.compile(r"^qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
REF_GATE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(?:\(([^)]*)\))?\s+(.*)$", re.S)
REF_OPERAND = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
REF_REJECTED = {
    "creg": "classical registers are not supported",
    "measure": "measurement is not supported",
    "reset": "reset is not supported",
    "barrier": "barriers are not supported",
    "if": "classical control is not supported",
    "opaque": "opaque gates are not supported",
}


def reference_parse(text):
    src = re.sub(r"//[^\n]*", "", text)

    def error(message, at):
        return _error(src, message, at)

    register, size, saw_header = None, 0, False
    gates, instances, accepted = [], {}, {}
    for stmt, at in delimiter_statements(src):
        if not saw_header:
            if not stmt.startswith("OPENQASM"):
                raise error("file must start with 'OPENQASM 2.0;'", at)
            version = stmt[len("OPENQASM") :].strip()
            if version.startswith("3"):
                raise error("OpenQASM 3 is not supported; use 2.0", at)
            if version != "2.0":
                raise error(f"unsupported OPENQASM version {version!r}", at)
            saw_header = True
            continue
        if stmt in accepted:
            if accepted[stmt] is not None:
                gates.append(accepted[stmt])
            continue
        if not stmt:
            raise error("empty statement", at)
        if REF_INCLUDE.match(stmt):
            continue
        if stmt.startswith("gate "):
            name = stmt.split(None, 2)[1].split("(")[0]
            if name == "iswap":
                continue
            raise error(f"gate definitions are not supported ({name})", at)
        word = stmt.split(None, 1)[0].split("(")[0]
        if word in REF_REJECTED:
            raise error(REF_REJECTED[word], at)
        qreg = REF_QREG.match(stmt)
        if qreg:
            if register is not None:
                raise error("exactly one quantum register is supported", at)
            register, size = qreg.group(1), int(qreg.group(2))
            if size < 1:
                raise error("quantum register must have at least one qubit", at)
            continue
        app = REF_GATE.match(stmt)
        if not app:
            raise error(f"cannot parse statement {stmt!r}", at)
        token, arg_text, operand_text = app.groups()
        if register is None:
            raise error("gate before qreg declaration", at)
        angles = ()
        if arg_text is not None:
            try:
                angles = tuple(parse_angle(a) for a in arg_text.split(","))
                for a in angles:
                    a.value()
            except ValueError as e:
                raise error(str(e), at) from None
        gate = BUILTIN_BY_QASM.get(token)
        if token in TEMPLATES_BY_QASM:
            expected = TEMPLATES_BY_QASM[token].angle_count
            if len(angles) != expected:
                raise error(f"{token} takes {expected} angle(s), got {len(angles)}", at)
        elif gate is None:
            raise error(f"unsupported gate {token!r}", at)
        elif angles:
            raise error(f"{token} takes no angles", at)
        qubits = []
        for op in operand_text.split(","):
            om = REF_OPERAND.match(op.strip())
            if not om:
                raise error(f"cannot parse operand {op.strip()!r}", at)
            if om.group(1) != register:
                raise error(f"unknown register {om.group(1)!r}", at)
            idx = int(om.group(2))
            if idx >= size:
                raise error(f"operand {register}[{idx}] out of range (size {size})", at)
            qubits.append(idx)
        arity = 1 if gate is None else gate.arity
        if len(qubits) != arity:
            raise error(f"{token} takes {arity} operand(s), got {len(qubits)}", at)
        if arity == 2 and qubits[0] == qubits[1]:
            raise error("two-qubit gate operands must differ", at)
        if gate is None:
            gate = instances.get((token, angles))
            if gate is None:
                gate = instances[token, angles] = instantiate_param_gate(TEMPLATES_BY_QASM[token], angles)
        known = accepted[stmt] = None if gate.is_identity else (tuple(qubits), gate)
        if known is not None:
            gates.append(known)
    if not saw_header:
        raise QasmError("file must start with 'OPENQASM 2.0;'", 1, 1)
    if register is None:
        raise QasmError("missing qreg declaration", 1, 1)
    return pack(gates, size)


def parsed_or_error(read, text):
    """The emitted text of what `read` parses, or its QasmError's message,
    line and column."""
    try:
        return emit(read(text))
    except QasmError as e:
        return str(e), e.line, e.column


SPACES = st.sampled_from(["", " ", "\t", "  "])
# (token, operands, angles) of the gates drawn
GATES = [("h", 1, 0), ("x", 1, 0), ("id", 1, 0), ("t", 1, 0), ("cx", 2, 0), ("cz", 2, 0),
         ("swap", 2, 0), ("u1", 1, 1), ("u2", 1, 2), ("u3", 1, 3)]
WORDS = ["ccx", "bogus", "h_1", "measure", "barrier", "reset", "creg", "qreg", "include", "gate"]
ANGLES = ["pi/2", "0", "-pi/4", " 1/2 ", "pie", ""]


@st.composite
def operand(draw, register=st.sampled_from(["q", "q", "q", "r"]), index=st.integers(0, 3)):
    """`reg[i]` with spaces inside the brackets and a leading zero or two."""
    zeros = draw(st.sampled_from(["", "0", "00"]))
    return f"{draw(register)}{draw(SPACES)}[{draw(SPACES)}{zeros}{draw(index)}{draw(SPACES)}]"


@st.composite
def statement(draw):
    """(as spelled, as the reference reads it): mostly a gate with its
    operands and angles, else any token (unknown, rejected, not a gate)
    with any angles and zero to three operands, a register other than q
    or one operand twice. After an angle list comes a space, a tab,
    nothing, or junk ('+', ','). The two texts differ only where the angle
    list meets its operands with no space, which the reference spells with
    one."""
    if draw(st.integers(0, 2)):
        token, arity, count = draw(st.sampled_from(GATES))
        qubits = draw(st.permutations(range(3)))[:arity]
        ops = [draw(operand(st.just("q"), st.just(q))) for q in qubits]
        angles = draw(st.lists(st.sampled_from(ANGLES[:4]), min_size=count, max_size=count))
    else:
        token = draw(st.sampled_from([g[0] for g in GATES] + WORDS))
        ops = draw(st.lists(operand(), max_size=3) | operand().map(lambda op: [op, op]))
        angles = draw(st.lists(st.sampled_from(ANGLES), max_size=3))
    operands = (draw(SPACES) + "," + draw(SPACES)).join(ops)
    if not angles:
        return (token + draw(st.sampled_from([" ", "  ", "\t"])) + operands,) * 2
    head = f"{token}{draw(st.sampled_from(['', ' ']))}({','.join(angles)})"
    after = draw(st.sampled_from(["", "", " ", "\t", "+", ","]))
    return head + after + operands, head + (after or " ") + operands


@st.composite
def program(draw):
    """(as spelled, as the reference reads it): a header, a qreg line of
    one to three qubits and statements drawn from a pool of up to four, so
    some repeat. A statement whose angle list meets its operands ends its
    line, so both texts place every statement alike."""
    pool = draw(st.lists(statement(), min_size=1, max_size=4))
    body = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))]
    n = draw(st.sampled_from([1, 2, 3, 3]))
    at = draw(st.integers(0, len(body))) if draw(st.integers(0, 3)) == 0 else 0
    body.insert(at, (f"qreg q[{n}]",) * 2)
    spelled = spaced = HEADER
    for a, b in body:
        lead = draw(SPACES)
        end = ";\n" if a != b else ";" + draw(st.sampled_from(["\n", " ", "\n\t"]))
        spelled += lead + a + end
        spaced += lead + b + end
    return spelled, spaced


class TestReferenceParse:
    @given(program())
    @settings(max_examples=600, deadline=None)
    def test_matches_the_reference(self, texts):
        spelled, spaced = texts
        assert parsed_or_error(parse, spelled) == parsed_or_error(reference_parse, spaced)


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
