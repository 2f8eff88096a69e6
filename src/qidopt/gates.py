"""Gate definitions, gate sets, the angle grammar ('pi/2', '-3*pi/4'), and
fixed-angle instantiation of parameterized gates.

Conventions:
  1-qubit gates are 2×2, 2-qubit gates are 4×4 complex128 matrices.
  2-qubit matrices act on the ordered (first, second) operand pair in
  big-endian sub-space order, so CX below has its control on the first
  operand. Every gate set contains exactly one Identity gate.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .matrices import ComplexMatrix, as_matrix, identity, is_unitary, max_abs_diff

UNITARY_TOL = 1e-10

# Cell/layer encodings use ',' '|' ':' as separators, so names cannot.
_NAME_RE = re.compile(r"^[A-Za-z0-9_+\-*/;.\[\]()]+$")

_SWAP_OPERANDS = [0, 2, 1, 3]  # |ab> <-> |ba> in the 4x4 basis


class AngleRangeError(ValueError):
    """An angle whose value does not fit a finite float."""


@dataclass(frozen=True)
class AngleExpr:
    """Exact angle of the form (pi_coeff)·π + const, both rational."""

    pi_coeff: Fraction = Fraction(0)
    const: Fraction = Fraction(0)

    def value(self) -> float:
        """The angle in radians; AngleRangeError when it is not a finite float."""
        try:
            v = float(self.pi_coeff) * math.pi + float(self.const)
        except OverflowError:  # a Fraction beyond the float range
            v = math.inf
        if not math.isfinite(v):
            raise AngleRangeError("angle is too large to evaluate as a float")
        return v

    def render(self) -> str:
        """Deterministic text form, e.g. 'pi/2', '-3*pi/4', '0', '1/2'."""
        parts: list[str] = []
        if self.pi_coeff:
            p, q = self.pi_coeff.numerator, self.pi_coeff.denominator
            if p == 1:
                s = "pi"
            elif p == -1:
                s = "-pi"
            else:
                s = f"{p}*pi"
            if q != 1:
                s += f"/{q}"
            parts.append(s)
        if self.const:
            r, s_ = self.const.numerator, self.const.denominator
            txt = str(r) if s_ == 1 else f"{r}/{s_}"
            if parts and r > 0:
                txt = "+" + txt
            parts.append(txt)
        return "".join(parts) if parts else "0"

    @classmethod
    def from_float(cls, x: float) -> "AngleExpr":
        """Recover p/q·π (q ≤ 48) when x is that multiple up to float
        rounding (4 ulps of x), else an exact decimal constant: a distinct
        angle, however close, is never snapped."""
        if not math.isfinite(x):
            raise ValueError("angle must be finite")
        frac = Fraction(x / math.pi).limit_denominator(48)
        if abs(float(frac) * math.pi - x) <= 4 * math.ulp(x):
            return cls(pi_coeff=frac)
        return cls(const=Fraction(repr(x)))


_NUM_RE = r"(?:\d+(?:\.\d+)?|\.\d+)"
_TERM_PI = re.compile(rf"^(?:({_NUM_RE})\*)?pi(?:/({_NUM_RE}))?$")
_TERM_NUM = re.compile(rf"^({_NUM_RE})(?:/({_NUM_RE}))?$")


def _fraction(tok: str) -> Fraction:
    return Fraction(tok)  # exact for integer and decimal literals


def parse_angle(text: str) -> AngleExpr:
    """Parse literals like 'pi/2', '-3*pi/4', '0', '0.5', '1/2'."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty angle expression")
    # split into signed terms
    terms: list[tuple[int, str]] = []
    sign, start = 1, 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        start = 1
    buf = ""
    for ch in s[start:]:
        if ch in "+-":
            terms.append((sign, buf))
            sign = -1 if ch == "-" else 1
            buf = ""
        else:
            buf += ch
    terms.append((sign, buf))

    pi_coeff = Fraction(0)
    const = Fraction(0)
    for sgn, term in terms:
        m = _TERM_PI.match(term)
        if m:
            num = _fraction(m.group(1)) if m.group(1) else Fraction(1)
            den = _fraction(m.group(2)) if m.group(2) else Fraction(1)
            if den == 0:
                raise ValueError(f"zero denominator in angle {text!r}")
            pi_coeff += sgn * num / den
            continue
        m = _TERM_NUM.match(term)
        if m:
            num = _fraction(m.group(1))
            den = _fraction(m.group(2)) if m.group(2) else Fraction(1)
            if den == 0:
                raise ValueError(f"zero denominator in angle {text!r}")
            const += sgn * num / den
            continue
        raise ValueError(f"cannot parse angle term {term!r} in {text!r}")
    return AngleExpr(pi_coeff, const)


def _det(m: ComplexMatrix) -> complex:
    """The determinant of a 2×2 or 4×4 matrix: a 4×4 one by the 2×2 minors
    of its top two rows times their complements in the bottom two. No
    LAPACK call, whose first use costs about 0.6 MB of resident memory."""
    a = m.tolist()

    def minor(r: int, j: int, k: int) -> complex:
        return a[r][j] * a[r + 1][k] - a[r][k] * a[r + 1][j]

    if len(a) == 2:
        return complex(minor(0, 0, 1))
    return complex(
        minor(0, 0, 1) * minor(2, 2, 3) - minor(0, 0, 2) * minor(2, 1, 3)
        + minor(0, 0, 3) * minor(2, 1, 2) + minor(0, 1, 2) * minor(2, 0, 3)
        - minor(0, 1, 3) * minor(2, 0, 2) + minor(0, 2, 3) * minor(2, 0, 1)
    )


@dataclass(frozen=True, eq=False)
class GateDef:
    """A named gate with a fixed unitary matrix.

    `qasm_name` is the lowercase token used in QASM I/O (None when the
    gate has no direct token); instantiated parameterized gates carry
    their template token and angles instead. What the evaluation paths
    read of the matrix (`swapped`, `det`) is made once, here.
    """

    name: str
    arity: int
    matrix: ComplexMatrix
    qasm_name: str | None = None
    template: str | None = None
    angles: tuple[AngleExpr, ...] | None = None
    # within 1e-9 of the 2×2 identity: what the optimizer's costs ignore
    is_identity: bool = field(init=False, default=False)
    # exactly the 2×2 identity: what unitary evaluation may skip
    exact_identity: bool = field(init=False, default=False)
    # a two-qubit gate's matrix with its operands swapped, |ab> <-> |ba>:
    # what it is on a (second, first) pair of ascending qubits; None for
    # a single-qubit gate
    swapped: ComplexMatrix | None = field(init=False, default=None, repr=False)
    # the matrix's determinant, NaN unless the matrix is unitary within
    # UNITARY_TOL: what `circuit.gates_det` multiplies, so that a lookup
    # can rule a window out with no unitary (`IdentityDatabase.may_hold_det`)
    det: complex = field(init=False, default=complex("nan"), repr=False)
    # (role, partner) -> the one grid cell of this gate in that role with
    # that partner (`circuit.shared_cell`), made on first use: at most
    # 1 + 2w cells for circuits w qubits wide
    cells: dict = field(init=False, default_factory=dict, repr=False)
    # (qubits, k) -> this gate's 2^k × 2^k operator on those of k qubits
    # (`circuit.pair_unitaries`), made on first use and only for k ≤
    # `circuit.TREE_QUBITS`: per k at most k placements of a single-qubit
    # gate, k(k−1) of a pair
    operators: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        dim = self.matrix.shape[0]
        ident = dim == 2 and max_abs_diff(self.matrix, identity(2)) <= 1e-9
        object.__setattr__(self, "is_identity", ident)
        exact = dim == 2 and np.array_equal(self.matrix, identity(2))
        object.__setattr__(self, "exact_identity", exact)
        if dim == 4:
            swapped = self.matrix[np.ix_(_SWAP_OPERANDS, _SWAP_OPERANDS)]
            swapped.flags.writeable = False
            object.__setattr__(self, "swapped", swapped)
        if is_unitary(self.matrix, UNITARY_TOL):
            object.__setattr__(self, "det", _det(self.matrix))

    def __repr__(self):  # matrices are noisy; show the name
        return f"GateDef({self.name!r}, arity={self.arity})"


def make_gate(
    name: str,
    matrix,
    qasm_name: str | None = None,
    *,
    arity: int | None = None,
    tol: float = UNITARY_TOL,
    template: str | None = None,
    angles: tuple[AngleExpr, ...] | None = None,
) -> GateDef:
    """Validate and register a gate definition.

    Raises ValueError for bad names, wrong dimensions, or a matrix that
    fails the unitarity check at `tol`.
    """
    if not name or not _NAME_RE.match(name):
        raise ValueError(f"invalid gate name {name!r}")
    m = as_matrix(matrix)
    dim = m.shape[0]
    if dim not in (2, 4):
        raise ValueError(f"gate {name}: matrix must be 2x2 or 4x4, got {dim}x{dim}")
    derived_arity = 1 if dim == 2 else 2
    if arity is not None and arity != derived_arity:
        raise ValueError(f"gate {name}: arity {arity} does not match matrix dim {dim}")
    if not is_unitary(m, tol):
        raise ValueError(f"gate {name}: matrix is not unitary within {tol}")
    return GateDef(name, derived_arity, m, qasm_name, template, angles)


@dataclass(frozen=True, eq=False)
class ParamGateTemplate:
    """Single-qubit gate family: angles (radians) -> unitary matrix."""

    name: str
    angle_count: int
    builder: Callable[..., ComplexMatrix]
    qasm_name: str


def instantiate_param_gate(
    tmpl: ParamGateTemplate, angles: Sequence[AngleExpr | float]
) -> GateDef:
    """Fix a template's angles, producing a named GateDef.

    The name encodes the angles deterministically, e.g. 'U1[pi/2]' or
    'U2[pi;0]'. Raises ValueError when the builder output is not unitary.
    """
    if len(angles) != tmpl.angle_count:
        raise ValueError(
            f"{tmpl.name} expects {tmpl.angle_count} angles, got {len(angles)}"
        )
    exprs = tuple(
        a if isinstance(a, AngleExpr) else AngleExpr.from_float(float(a))
        for a in angles
    )
    matrix = tmpl.builder(*(e.value() for e in exprs))
    name = f"{tmpl.name}[{';'.join(e.render() for e in exprs)}]"
    return make_gate(name, matrix, template=tmpl.qasm_name, angles=exprs)


class GateSet:
    """Ordered collection of gates; always contains exactly one Identity."""

    def __init__(self, gates: Sequence[GateDef]):
        names = [g.name for g in gates]
        if len(set(names)) != len(names):
            raise ValueError("duplicate gate names in gate set")
        idents = [g for g in gates if g.arity == 1 and g.is_identity]
        if len(idents) != 1:
            raise ValueError("gate set must contain exactly one Identity gate")
        self.gates: tuple[GateDef, ...] = tuple(gates)
        self.identity: GateDef = idents[0]
        self._by_name = {g.name: g for g in gates}

    @property
    def singles(self) -> tuple[GateDef, ...]:
        return tuple(g for g in self.gates if g.arity == 1)

    @property
    def twos(self) -> tuple[GateDef, ...]:
        return tuple(g for g in self.gates if g.arity == 2)

    @property
    def g(self) -> int:
        """Arity-1 gate count, Identity included."""
        return len(self.singles)

    @property
    def t(self) -> int:
        return len(self.twos)

    def by_name(self, name: str) -> GateDef:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown gate {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self.gates)

    def __repr__(self):
        return f"GateSet([{', '.join(g.name for g in self.gates)}])"


# ── built-in gates ──────────────────────────────────────────────────

_S2 = 1.0 / math.sqrt(2.0)
_T_PHASE = np.exp(1j * math.pi / 4)

I = make_gate("I", [[1, 0], [0, 1]], "id")
X = make_gate("X", [[0, 1], [1, 0]], "x")
Y = make_gate("Y", [[0, -1j], [1j, 0]], "y")
Z = make_gate("Z", [[1, 0], [0, -1]], "z")
H = make_gate("H", [[_S2, _S2], [_S2, -_S2]], "h")
S = make_gate("S", [[1, 0], [0, 1j]], "s")
SDG = make_gate("SDG", [[1, 0], [0, -1j]], "sdg")
T = make_gate("T", [[1, 0], [0, _T_PHASE]], "t")
TDG = make_gate("TDG", [[1, 0], [0, _T_PHASE.conjugate()]], "tdg")

CX = make_gate(
    "CX",
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    "cx",
)
CZ = make_gate(
    "CZ",
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
    "cz",
)
CY = make_gate(
    "CY",
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]],
    "cy",
)
SWAP = make_gate(
    "SWAP",
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    "swap",
)
ISWAP = make_gate(
    "ISWAP",
    [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]],
    "iswap",
)

BUILTIN_GATES: dict[str, GateDef] = {
    g.name: g for g in (I, X, Y, Z, H, S, SDG, T, TDG, CX, CZ, CY, SWAP, ISWAP)
}
BUILTIN_BY_QASM: dict[str, GateDef] = {g.qasm_name: g for g in BUILTIN_GATES.values()}


# ── parameterized templates ─────────────────────────────────────────

def _u1(lam: float) -> ComplexMatrix:
    return as_matrix([[1, 0], [0, np.exp(1j * lam)]])


def _u2(psi: float, lam: float) -> ComplexMatrix:
    return as_matrix(
        [
            [_S2, -_S2 * np.exp(1j * lam)],
            [_S2 * np.exp(1j * psi), _S2 * np.exp(1j * (lam + psi))],
        ]
    )


def _u3(theta: float, psi: float, lam: float) -> ComplexMatrix:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return as_matrix(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * psi) * s, np.exp(1j * (lam + psi)) * c],
        ]
    )


U1 = ParamGateTemplate("U1", 1, _u1, "u1")
U2 = ParamGateTemplate("U2", 2, _u2, "u2")
U3 = ParamGateTemplate("U3", 3, _u3, "u3")

TEMPLATES: dict[str, ParamGateTemplate] = {"U1": U1, "U2": U2, "U3": U3}
TEMPLATES_BY_QASM: dict[str, ParamGateTemplate] = {
    t.qasm_name: t for t in TEMPLATES.values()
}

_PARAM_NAME_RE = re.compile(r"^(U[123])\[(.*)\]$")


def gate_from_name(name: str) -> GateDef:
    """Resolve a builtin name or an instantiated template name like 'U1[pi/2]'."""
    if name in BUILTIN_GATES:
        return BUILTIN_GATES[name]
    m = _PARAM_NAME_RE.match(name)
    if m:
        tmpl = TEMPLATES[m.group(1)]
        angles = [parse_angle(tok) for tok in m.group(2).split(";")]
        return instantiate_param_gate(tmpl, angles)
    raise ValueError(f"unknown gate {name!r}")
