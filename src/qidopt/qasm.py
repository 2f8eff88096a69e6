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

A gate statement is accepted in one place: one full match of
`_APPLICATION` (a token, an optional angle list, with or without a space
after its ')', and one or two `reg[i]` operands) whose gate and operands
pass `_gate`, the register, angle, gate, range, arity and
distinct-operand checks. Every other statement, an application the match
or `_gate` refused included, is read by `_declaration`, whose checks run
in a fixed order: it accepts an include line, the `gate iswap` block and
the qreg line, and for anything else it only names the first fault,
reading an application's operands one by one into the same `_gate`.
A text with no brace is cut into statements by one split at ';', and a
statement's offset is summed only for an error (`_statements`).

Each distinct statement text, the space around it included, is checked
once per parse: the text of every gate statement that was accepted maps,
for the rest of that parse, to its (qubits, gate), or to None for an
Identity application. Only accepted statements are kept, so a bad
statement raises at its first occurrence, and a `qreg` line is checked
every time it appears.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable
from functools import partial

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
    r"^([A-Za-z_][A-Za-z0-9_]*)(?:\s*\(([^)]*)\)(?:\s+|(?=[A-Za-z_]))|\s+)(.*)$", re.S
)
_OPERAND = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
# a gate application whole: token, angle list, one or two operands
_APPLICATION = re.compile(
    r"\s*([A-Za-z_][A-Za-z0-9_]*)(?:\s*\(([^)]*)\)\s*|\s+)"
    r"([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]"
    r"(?:\s*,\s*([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\])?\s*"
)

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


def _statements(src: str) -> tuple[list[str], Callable[[int], int], QasmError | None]:
    """The statements of src, each with the space around it; the offset of
    the k-th's first non-space character, as a function of k; and the
    error of the text past the last statement, or None: a '}' that closes
    no '{', or a rest that no ';' ends. A statement is the text up to a
    ';' outside braces, or through the '}' that closes its braces, so a
    `gate ... { ... }` block is one statement. A text with no brace is cut
    by one split at ';', and an offset is summed only when asked for."""
    if "{" in src or "}" in src:
        return _braced(src)
    parts = src.split(";")
    where = partial(_offset, parts)
    if parts[-1].strip():
        return parts[:-1], where, _unterminated(src, where(len(parts) - 1))
    return parts[:-1], where, None


def _offset(parts: list[str], k: int) -> int:
    """The offset of the first non-space character of parts[k] (or of the
    ';' after it) in the text cut at each ';' into `parts`."""
    part = parts[k]
    return sum(map(len, parts[:k])) + k + len(part) - len(part.lstrip())


def _braced(src: str) -> tuple[list[str], Callable[[int], int], QasmError | None]:
    """`_statements` of a text with braces: a walk over its delimiters,
    braces counted, that stops at a '}' closing no '{'."""
    stmts: list[str] = []
    starts: list[int] = []
    depth = 0
    start = _NON_SPACE.search(src)
    after = 0  # where the current statement's text begins
    for d in _DELIMITER.finditer(src):
        if d[0] == "{":
            depth += 1
            continue
        if d[0] == "}":
            if depth == 0:
                return stmts, starts.__getitem__, _error(src, "unmatched '}'", d.start())
            depth -= 1
        if depth == 0:
            stmts.append(src[after : d.end() if d[0] == "}" else d.start()])
            starts.append(start.start())
            after = d.end()
            start = _NON_SPACE.search(src, after)
    fault = None if start is None else _unterminated(src, start.start())
    return stmts, starts.__getitem__, fault


def _unterminated(src: str, at: int) -> QasmError:
    """The error of the text from offset `at` on, which no ';' ends."""
    return _error(src, f"statement missing ';': {src[at:].rstrip()[:40]!r}", at)


def parse(text: str) -> CircuitGrid:
    """Parse QASM text and ASAP-pack its gates into a circuit grid.

    A gate statement is accepted in one place: a full match of
    `_APPLICATION` whose operands and gate pass `_gate`. Any other
    statement, and a match `_gate` refuses, goes to `_declaration`, which
    reads the include, iswap block and qreg lines and names the first
    fault of the rest."""
    src = _COMMENT.sub("", text)  # cuts line ends only: positions hold

    register: str | None = None
    size = 0
    saw_header = False
    gates: list[Gate] = []
    # equal angles give one gate object within a parse
    instances: dict[tuple[str, tuple[AngleExpr, ...]], GateDef] = {}
    # the text of each gate statement accepted so far: its gate, or None
    # for an Identity application, which takes no layer
    accepted: dict[str, Gate | None] = {}

    stmts, where, fault = _statements(src)
    for k, stmt in enumerate(stmts):
        if not saw_header:
            head = stmt.strip()
            if not head.startswith("OPENQASM"):
                raise _error(src, "file must start with 'OPENQASM 2.0;'", where(k))
            version = head[len("OPENQASM") :].strip()
            if version.startswith("3"):
                raise _error(src, "OpenQASM 3 is not supported; use 2.0", where(k))
            if version != "2.0":
                raise _error(src, f"unsupported OPENQASM version {version!r}", where(k))
            saw_header = True
            continue
        if stmt in accepted:
            known = accepted[stmt]
            if known is not None:
                gates.append(known)
            continue
        gate = None
        app = _APPLICATION.fullmatch(stmt)
        if app is not None:
            token, arg_text, reg, x, reg2, y = app.groups()
            operands = ((reg, x),) if reg2 is None else ((reg, x), (reg2, y))
            try:
                gate = _gate(token, arg_text, operands, register, size, instances)
            except ValueError:
                pass  # named below, in the checks' order
        if gate is None:
            try:
                register, size = _declaration(stmt.strip(), register, size)
            except ValueError as e:
                raise _error(src, str(e), where(k)) from None
            continue
        known = accepted[stmt] = None if gate[1].is_identity else gate
        if known is not None:
            gates.append(known)
    if fault is not None:
        raise fault

    if not saw_header:
        raise QasmError("file must start with 'OPENQASM 2.0;'", 1, 1)
    if register is None:
        raise QasmError("missing qreg declaration", 1, 1)
    return pack(gates, size)


def _gate(
    token: str,
    arg_text: str | None,
    operands: Iterable[tuple[str, str]],
    register: str | None,
    size: int,
    instances: dict[tuple[str, tuple[AngleExpr, ...]], GateDef],
) -> Gate:
    """(qubits, gate) of an application of `token`, with the angle list
    `arg_text` (None when it has none), on `operands`, (register, index
    digits) pairs. Raises ValueError naming the first fault, in this
    order: no register declared, an angle that does not parse or fit a
    float, a token that names no gate, angles a template takes another
    count of or a builtin takes none of, then per operand a register not
    the declared one or an index past its size, then an operand count off
    the gate's arity and a pair on one qubit. A template's gate is made
    once per angles per parse (`instances`)."""
    if register is None:
        raise ValueError("gate before qreg declaration")
    angles: tuple[AngleExpr, ...] = ()
    if arg_text is not None:
        angles = tuple(parse_angle(a) for a in arg_text.split(","))
        for a in angles:
            a.value()  # raises when the angle does not fit a float
    gate = BUILTIN_BY_QASM.get(token)
    if gate is None:
        tmpl = TEMPLATES_BY_QASM.get(token)
        if tmpl is None:
            raise ValueError(f"unsupported gate {token!r}")
        if len(angles) != tmpl.angle_count:
            raise ValueError(f"{token} takes {tmpl.angle_count} angle(s), got {len(angles)}")
    elif angles:
        raise ValueError(f"{token} takes no angles")
    qubits = []
    for reg, index in operands:
        if reg != register:
            raise ValueError(f"unknown register {reg!r}")
        x = int(index)
        if x >= size:
            raise ValueError(f"operand {register}[{x}] out of range (size {size})")
        qubits.append(x)
    arity = 1 if gate is None else gate.arity
    if len(qubits) != arity:
        raise ValueError(f"{token} takes {arity} operand(s), got {len(qubits)}")
    if arity == 2 and qubits[0] == qubits[1]:
        raise ValueError("two-qubit gate operands must differ")
    if gate is None:
        gate = instances.get((token, angles))
        if gate is None:
            gate = instances[token, angles] = instantiate_param_gate(tmpl, angles)
    return tuple(qubits), gate


def _operand(op: str) -> tuple[str, str]:
    """The (register, index digits) of an operand's text."""
    om = _OPERAND.match(op.strip())
    if not om:
        raise ValueError(f"cannot parse operand {op.strip()!r}")
    return om.groups()


def _declaration(stmt: str, register: str | None, size: int) -> tuple[str | None, int]:
    """The register and its size after a statement that is no gate
    application `parse` accepted: an include line and the `gate iswap`
    block (the one we emit; its semantics are built in) leave them as
    they are, and a qreg line declares them. Raises ValueError naming the
    first fault of any other statement; for an application, naming it is
    all this does, with the checks of `_gate` once its operands are read
    (`_operand`)."""
    if not stmt:
        raise ValueError("empty statement")
    if _STMT_INCLUDE.match(stmt):
        return register, size
    if stmt.startswith("gate "):
        name = stmt.split(None, 2)[1].split("(")[0]
        if name == "iswap":
            return register, size
        raise ValueError(f"gate definitions are not supported ({name})")
    word = stmt.split(None, 1)[0].split("(")[0]
    if word in _REJECTED:
        raise ValueError(_REJECTED[word])
    qreg = _STMT_QREG.match(stmt)
    if qreg:
        if register is not None:
            raise ValueError("exactly one quantum register is supported")
        if int(qreg.group(2)) < 1:
            raise ValueError("quantum register must have at least one qubit")
        return qreg.group(1), int(qreg.group(2))
    app = _STMT_GATE.match(stmt)
    if not app:
        raise ValueError(f"cannot parse statement {stmt!r}")
    token, arg_text, operand_text = app.groups()
    _gate(token, arg_text, map(_operand, operand_text.split(",")), register, size, {})
    # `_APPLICATION` reads every statement the checks pass
    raise ValueError(f"cannot parse statement {stmt!r}")


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
