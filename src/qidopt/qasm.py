"""OpenQASM 2.0 subset: parsing into circuit grids and emission back out.

Supported input: the "OPENQASM 2.0;" header, optional `include "<file>"`
lines (the file is not read), exactly one quantum register, and
applications of id/x/y/z/h/s/sdg/t/tdg/cx/cz/cy/swap/iswap plus u1/u2/u3
with literal angles (rational multiples of pi). A literal `gate iswap`
definition block is tolerated so emitted files round-trip. Classical
registers, measurement, reset, barriers, and OpenQASM 3 constructs are
rejected with positioned diagnostics.

This module keeps only the syntax; the gate-list form lives in `circuit`.
`parse` reads each gate statement as a (qubits, gate) pair and ASAP-packs
the list with `circuit.pack`: each application lands in the earliest layer
where all its operands are free. Applications of an Identity gate (`id`,
`u1(0)`) are dropped once their operands are checked, so they take up no
layer. `emit` writes `circuit.gate_list` with the Identity gates left out.

Each distinct statement text is checked once per parse: the text of every
gate statement that was accepted maps, for the rest of that parse, to its
(qubits, gate), or to None for an Identity application. Only accepted
statements are kept, so a bad statement raises at its first occurrence,
and a `qreg` line is checked every time it appears.
"""

from __future__ import annotations

import re

from .circuit import CircuitGrid, Gate, gate_list, pack, validate
from .gates import (
    BUILTIN_BY_QASM,
    AngleExpr,
    GateDef,
    TEMPLATES_BY_QASM,
    instantiate_param_gate,
    parse_angle,
)

ISWAP_DEFINITION = "gate iswap a,b { s a; s b; h a; cx a,b; cx b,a; h b; }"


class QasmError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# ── parsing ─────────────────────────────────────────────────────────

_COMMENT = re.compile(r"//[^\n]*")
_DELIMITER = re.compile(r"[;{}]")
_NON_SPACE = re.compile(r"\S")
_STMT_INCLUDE = re.compile(r'^include\s*"[^"]*"$')
_STMT_QREG = re.compile(r"^qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
_STMT_GATE = re.compile(
    r"^([A-Za-z_][A-Za-z0-9_]*)\s*(?:\(([^)]*)\))?\s+(.*)$", re.S
)
_OPERAND = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")

_REJECTED = {
    "creg": "classical registers are not supported",
    "measure": "measurement is not supported",
    "reset": "reset is not supported",
    "barrier": "barriers are not supported",
    "if": "classical control is not supported",
    "opaque": "opaque gates are not supported",
}


def _error(src: str, message: str, at: int) -> QasmError:
    """A QasmError positioned at offset `at` of `src`."""
    line = src.count("\n", 0, at) + 1
    return QasmError(message, line, at - src.rfind("\n", 0, at))


def _statements(src: str):
    """Yield (statement, offset of its first character), the statement
    stripped: the text up to a ';' outside braces, or through the '}' that
    closes its braces, so a `gate ... { ... }` block is one statement.
    Raises QasmError at a '}' that closes no '{', and at an unterminated
    rest of the text. A text with no brace is cut at each ';'."""
    if "{" not in src and "}" not in src:
        *parts, rest = src.split(";")
        pos = 0
        for part in parts:
            stmt = part.lstrip()
            yield stmt.rstrip(), pos + len(part) - len(stmt)
            pos += len(part) + 1
        stmt = rest.lstrip()
        if stmt:
            at = pos + len(rest) - len(stmt)
            raise _error(src, f"statement missing ';': {stmt.rstrip()[:40]!r}", at)
        return
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


def parse(text: str) -> CircuitGrid:
    """Parse QASM text and ASAP-pack its gates into a circuit grid."""
    src = _COMMENT.sub("", text)  # cuts line ends only: positions hold

    def error(message: str, at: int) -> QasmError:
        return _error(src, message, at)

    register: str | None = None
    size = 0
    saw_header = False
    gates: list[Gate] = []
    # equal angles give one gate object within a parse
    instances: dict[tuple[str, tuple[AngleExpr, ...]], GateDef] = {}
    # the text of each gate statement accepted so far: its gate, or None
    # for an Identity application, which takes no layer
    accepted: dict[str, Gate | None] = {}

    for stmt, at in _statements(src):
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
            known = accepted[stmt]
            if known is not None:
                gates.append(known)
            continue
        if not stmt:
            raise error("empty statement", at)
        if _STMT_INCLUDE.match(stmt):
            continue
        if stmt.startswith("gate "):
            name = stmt.split(None, 2)[1].split("(")[0]
            if name == "iswap":
                continue  # the block we emit ourselves; semantics are built in
            raise error(f"gate definitions are not supported ({name})", at)
        word = stmt.split(None, 1)[0].split("(")[0]
        if word in _REJECTED:
            raise error(_REJECTED[word], at)
        qreg = _STMT_QREG.match(stmt)
        if qreg:
            if register is not None:
                raise error("exactly one quantum register is supported", at)
            register, size = qreg.group(1), int(qreg.group(2))
            if size < 1:
                raise error("quantum register must have at least one qubit", at)
            continue
        app = _STMT_GATE.match(stmt)
        if not app:
            raise error(f"cannot parse statement {stmt!r}", at)
        token, arg_text, operand_text = app.groups()
        if register is None:
            raise error("gate before qreg declaration", at)

        angles: tuple[AngleExpr, ...] = ()
        if arg_text is not None:
            try:
                angles = tuple(parse_angle(a) for a in arg_text.split(","))
                for a in angles:
                    a.value()  # raises when the angle does not fit a float
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
            om = _OPERAND.match(op.strip())
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
                tmpl = TEMPLATES_BY_QASM[token]
                gate = instances[token, angles] = instantiate_param_gate(tmpl, angles)
        known = accepted[stmt] = None if gate.is_identity else (tuple(qubits), gate)
        if known is not None:
            gates.append(known)

    if not saw_header:
        raise QasmError("file must start with 'OPENQASM 2.0;'", 1, 1)
    if register is None:
        raise QasmError("missing qreg declaration", 1, 1)
    return pack(gates, size)


# ── emission ────────────────────────────────────────────────────────

def _gate_token(gate: GateDef) -> str:
    if gate.qasm_name is not None:
        return gate.qasm_name
    if gate.template is not None and gate.angles is not None:
        return f"{gate.template}({','.join(a.render() for a in gate.angles)})"
    raise ValueError(f"gate {gate.name} has no QASM rendering")


def emit(c: CircuitGrid) -> str:
    """Render a grid as OpenQASM 2.0: `circuit.gate_list` order (layers in
    temporal order, qubits ascending within a layer), Identity gates
    omitted. Deterministic."""
    problems = validate(c)
    if problems:
        raise ValueError(f"cannot emit invalid circuit: {problems[0]}")
    gates = [(_gate_token(g), *qs) for qs, g in gate_list(c) if not g.is_identity]
    header = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    if any(gate[0] == "iswap" for gate in gates):
        header.append(ISWAP_DEFINITION)
    header.append(f"qreg q[{c.n}];")
    one, two = "%s q[%d];", "%s q[%d],q[%d];"
    body = [(one if len(gate) == 2 else two) % gate for gate in gates]
    return "\n".join(header + body) + "\n"
