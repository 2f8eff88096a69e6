"""OpenQASM 2.0 subset: parsing into circuit grids and emission back out.

Supported input: the "OPENQASM 2.0;" header, optional includes, exactly one
quantum register, and applications of
id/x/y/z/h/s/sdg/t/tdg/cx/cz/cy/swap/iswap plus u1/u2/u3 with literal
angles (rational multiples of pi). A literal `gate iswap` definition block
is tolerated so emitted files round-trip. Classical registers, measurement,
reset, barriers, and OpenQASM 3 constructs are rejected with positioned
diagnostics.

Gates are scheduled into grid layers ASAP: each application lands in the
earliest layer where all its operands are free.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .circuit import FIRST, SECOND, CircuitGrid, half, single, validate
from .gates import (
    BUILTIN_BY_QASM,
    AngleExpr,
    GateDef,
    TEMPLATES_BY_QASM,
    I,
    instantiate_param_gate,
    parse_angle,
)

ISWAP_DEFINITION = "gate iswap a,b { s a; s b; h a; cx a,b; cx b,a; h b; }"


class QasmError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class GateApplication:
    token: str
    angles: tuple[AngleExpr, ...]
    qubits: tuple[int, ...]
    line: int
    column: int


@dataclass(frozen=True)
class QasmProgram:
    register: str
    size: int
    applications: tuple[GateApplication, ...]


# ── parsing ─────────────────────────────────────────────────────────

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


def _statements(text: str):
    """Yield (statement, line, column) with comments stripped.

    A `gate ... { ... }` block is yielded as one statement.
    """
    # strip comments but keep layout for positions
    lines = []
    for raw in text.split("\n"):
        cut = raw.find("//")
        lines.append(raw if cut < 0 else raw[:cut])
    src = "\n".join(lines)

    i, line, col = 0, 1, 1
    start = None
    start_line = start_col = 1
    depth = 0
    while i < len(src):
        ch = src[i]
        if start is None and not ch.isspace():
            start, start_line, start_col = i, line, col
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0 and start is not None:
                yield src[start : i + 1].strip(), start_line, start_col
                start = None
        elif ch == ";" and depth == 0:
            if start is not None:
                yield src[start:i].strip(), start_line, start_col
                start = None
        if ch == "\n":
            line += 1
            col = 1
        else:
            col += 1
        i += 1
    if start is not None and src[start:].strip():
        rest = src[start:].strip()
        raise QasmError(f"statement missing ';': {rest[:40]!r}", start_line, start_col)


# instantiated parameterized gates are shared so equal angles give one gate
@functools.lru_cache(maxsize=1024)
def _param_gate(token: str, angles: tuple[AngleExpr, ...]) -> GateDef:
    return instantiate_param_gate(TEMPLATES_BY_QASM[token], angles)


def parse_program(text: str) -> QasmProgram:
    """Parse the supported subset into a flat gate list."""
    register: str | None = None
    size = 0
    apps: list[GateApplication] = []
    saw_header = False

    for stmt, ln, col in _statements(text):
        if not saw_header:
            if stmt.startswith("OPENQASM"):
                version = stmt[len("OPENQASM") :].strip()
                if version.startswith("3"):
                    raise QasmError(
                        "OpenQASM 3 is not supported; use 2.0", ln, col
                    )
                if version != "2.0":
                    raise QasmError(f"unsupported OPENQASM version {version!r}", ln, col)
                saw_header = True
                continue
            raise QasmError("file must start with 'OPENQASM 2.0;'", ln, col)
        if stmt.startswith("include"):
            continue
        if stmt.startswith("gate "):
            name = stmt.split(None, 2)[1].split("(")[0]
            if name == "iswap":
                continue  # the block we emit ourselves; semantics are built in
            raise QasmError(f"gate definitions are not supported ({name})", ln, col)
        word = stmt.split(None, 1)[0].split("(")[0]
        if word in _REJECTED:
            raise QasmError(_REJECTED[word], ln, col)
        m = _STMT_QREG.match(stmt)
        if m:
            if register is not None:
                raise QasmError("exactly one quantum register is supported", ln, col)
            register, size = m.group(1), int(m.group(2))
            if size < 1:
                raise QasmError("quantum register must have at least one qubit", ln, col)
            continue
        m = _STMT_GATE.match(stmt)
        if not m:
            raise QasmError(f"cannot parse statement {stmt!r}", ln, col)
        token, arg_text, operand_text = m.group(1), m.group(2), m.group(3)
        if register is None:
            raise QasmError("gate before qreg declaration", ln, col)

        angles: tuple[AngleExpr, ...] = ()
        if arg_text is not None:
            try:
                angles = tuple(parse_angle(a) for a in arg_text.split(","))
                for a in angles:
                    a.value()  # raises when the angle does not fit a float
            except ValueError as e:
                raise QasmError(str(e), ln, col) from None

        if token in TEMPLATES_BY_QASM:
            expected = TEMPLATES_BY_QASM[token].angle_count
            if len(angles) != expected:
                raise QasmError(
                    f"{token} takes {expected} angle(s), got {len(angles)}", ln, col
                )
        elif token in BUILTIN_BY_QASM:
            if angles:
                raise QasmError(f"{token} takes no angles", ln, col)
        else:
            raise QasmError(f"unsupported gate {token!r}", ln, col)

        qubits = []
        for op in operand_text.split(","):
            om = _OPERAND.match(op.strip())
            if not om:
                raise QasmError(f"cannot parse operand {op.strip()!r}", ln, col)
            if om.group(1) != register:
                raise QasmError(f"unknown register {om.group(1)!r}", ln, col)
            idx = int(om.group(2))
            if idx >= size:
                raise QasmError(
                    f"operand {register}[{idx}] out of range (size {size})", ln, col
                )
            qubits.append(idx)
        arity = 2 if token in BUILTIN_BY_QASM and BUILTIN_BY_QASM[token].arity == 2 else 1
        if len(qubits) != arity:
            raise QasmError(
                f"{token} takes {arity} operand(s), got {len(qubits)}", ln, col
            )
        if arity == 2 and qubits[0] == qubits[1]:
            raise QasmError("two-qubit gate operands must differ", ln, col)
        apps.append(GateApplication(token, angles, tuple(qubits), ln, col))

    if not saw_header:
        raise QasmError("file must start with 'OPENQASM 2.0;'", 1, 1)
    if register is None:
        raise QasmError("missing qreg declaration", 1, 1)
    return QasmProgram(register, size, tuple(apps))


def parse(text: str) -> CircuitGrid:
    """Parse QASM text and ASAP-pack its gates into a circuit grid."""
    prog = parse_program(text)
    n = prog.size
    frontier = [0] * n
    placed: list[dict[int, object]] = []

    for app in prog.applications:
        if app.token in TEMPLATES_BY_QASM:
            gate = _param_gate(app.token, app.angles)
        else:
            gate = BUILTIN_BY_QASM[app.token]
        layer_idx = max(frontier[q] for q in app.qubits)
        while len(placed) <= layer_idx:
            placed.append({})
        if gate.arity == 1:
            placed[layer_idx][app.qubits[0]] = single(gate)
        else:
            a, b = app.qubits
            placed[layer_idx][a] = half(gate, FIRST, b)
            placed[layer_idx][b] = half(gate, SECOND, a)
        for q in app.qubits:
            frontier[q] = layer_idx + 1

    layers = tuple(
        tuple(layer.get(q, single(I)) for q in range(n)) for layer in placed
    )
    grid = CircuitGrid(n, layers)
    problems = validate(grid)
    if problems:  # unreachable for parser-produced grids
        raise QasmError(problems[0], 1, 1)
    return grid


# ── emission ────────────────────────────────────────────────────────

def _gate_token(gate: GateDef) -> str:
    if gate.qasm_name is not None:
        return gate.qasm_name
    if gate.template is not None and gate.angles is not None:
        return f"{gate.template}({','.join(a.render() for a in gate.angles)})"
    raise ValueError(f"gate {gate.name} has no QASM rendering")


def emit(c: CircuitGrid) -> str:
    """Render a grid as OpenQASM 2.0: layers in temporal order, qubits
    ascending within a layer, Identity cells omitted. Deterministic."""
    problems = validate(c)
    if problems:
        raise ValueError(f"cannot emit invalid circuit: {problems[0]}")
    body: list[str] = []
    uses_iswap = False
    for layer in c.layers:
        for q, cell in enumerate(layer):
            if cell.is_single:
                if cell.gate.is_identity:
                    continue
                body.append(f"{_gate_token(cell.gate)} q[{q}];")
            else:
                if q > cell.partner:
                    continue  # emitted at the lower-indexed half
                first, second = (q, cell.partner) if cell.role == FIRST else (
                    cell.partner,
                    q,
                )
                token = _gate_token(cell.gate)
                if token == "iswap":
                    uses_iswap = True
                body.append(f"{token} q[{first}],q[{second}];")
    header = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    if uses_iswap:
        header.append(ISWAP_DEFINITION)
    header.append(f"qreg q[{c.n}];")
    return "\n".join(header + body) + "\n"
