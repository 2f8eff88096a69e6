"""Gate definitions, gate sets, and fixed-angle template instantiation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qidopt.gates import (
    BUILTIN_GATES,
    TEMPLATES,
    AngleExpr,
    GateSet,
    I,
    S,
    X,
    Z,
    gate_from_name,
    instantiate_param_gate,
    make_gate,
)
from qidopt.matrices import identity, is_unitary, max_abs_diff


def pi_over(num, den=1):
    return AngleExpr(pi_coeff=Fraction(num, den))


class TestBuiltins:
    def test_all_unitary(self):
        for g in BUILTIN_GATES.values():
            assert is_unitary(g.matrix, 1e-10), g.name

    def test_determinants(self):
        for g in BUILTIN_GATES.values():
            assert abs(g.det - np.linalg.det(g.matrix)) <= 1e-15, g.name
        assert (S.det, X.det) == (1j, -1)
        rng = np.random.default_rng(7)
        for dim in (2, 4, 4, 4):
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q, _ = np.linalg.qr(z)
            g = make_gate("Q", q)
            assert abs(g.det - np.linalg.det(q)) <= 1e-14

    def test_arities(self):
        assert {g.name for g in BUILTIN_GATES.values() if g.arity == 2} == {
            "CX", "CZ", "CY", "SWAP", "ISWAP",
        }

    def test_identity_flag(self):
        assert I.is_identity
        assert not X.is_identity

    def test_exact_identity_flag(self):
        assert I.exact_identity and not X.exact_identity
        assert not BUILTIN_GATES["CZ"].exact_identity
        # within 1e-9 of the identity, but not exactly it
        near = instantiate_param_gate(TEMPLATES["U1"], [AngleExpr(const=Fraction(1, 10**12))])
        assert near.is_identity and not near.exact_identity

    def test_cx_matrix(self):
        want = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        np.testing.assert_array_equal(BUILTIN_GATES["CX"].matrix, want)

    def test_sdg_is_s_inverse(self):
        assert max_abs_diff(S.matrix @ BUILTIN_GATES["SDG"].matrix, identity(2)) <= 1e-15


class TestMakeGate:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            make_gate("BAD", [[1, 0], [0, 2]])

    def test_rejects_separator_names(self):
        for name in ("A,B", "A|B", "A:B", "A B"):
            with pytest.raises(ValueError, match="name"):
                make_gate(name, [[1, 0], [0, 1]])

    def test_rejects_odd_dims(self):
        with pytest.raises(ValueError):
            make_gate("BIG", np.eye(8))


class TestGateSet:
    def test_counts(self):
        gs = GateSet([BUILTIN_GATES[n] for n in ("I", "X", "H", "CX")])
        assert gs.g == 3  # Identity counts toward g
        assert gs.t == 1
        assert gs.identity is I

    def test_requires_identity(self):
        with pytest.raises(ValueError, match="Identity"):
            GateSet([X, Z])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            GateSet([I, X, X])

    def test_by_name(self):
        gs = GateSet([I, X])
        assert gs.by_name("X") is X
        with pytest.raises(ValueError):
            gs.by_name("H")


class TestTemplates:
    def test_u1_pi_is_z(self):
        g = instantiate_param_gate(TEMPLATES["U1"], [pi_over(1)])
        assert g.name == "U1[pi]"
        assert max_abs_diff(g.matrix, Z.matrix) <= 1e-12

    def test_u2_0_pi_is_h(self):
        # the true Hadamard instantiation is U2(0, pi)
        g = instantiate_param_gate(TEMPLATES["U2"], [pi_over(0), pi_over(1)])
        assert g.name == "U2[0;pi]"
        assert max_abs_diff(g.matrix, BUILTIN_GATES["H"].matrix) <= 1e-12

    def test_u1_zero_is_identity(self):
        g = instantiate_param_gate(TEMPLATES["U1"], [pi_over(0)])
        assert g.is_identity

    def test_u1_half_pi_is_s(self):
        g = instantiate_param_gate(TEMPLATES["U1"], [pi_over(1, 2)])
        assert g.name == "U1[pi/2]"
        assert max_abs_diff(g.matrix, S.matrix) <= 1e-12

    def test_u3_angle_count_enforced(self):
        with pytest.raises(ValueError, match="angles"):
            instantiate_param_gate(TEMPLATES["U3"], [pi_over(1)])

    def test_float_angles_recover_pi_fractions(self):
        g = instantiate_param_gate(TEMPLATES["U1"], [math.pi / 2])
        assert g.name == "U1[pi/2]"

    def test_float_angle_near_a_pi_fraction_is_kept(self):
        g = instantiate_param_gate(TEMPLATES["U1"], [1e-12])
        assert g.name != "U1[0]"
        assert not g.exact_identity
        assert AngleExpr.from_float(1e-12).value() == 1e-12
        assert AngleExpr.from_float(math.pi / 2 + 1e-13).pi_coeff == 0

    def test_instantiated_gates_are_unitary(self):
        for angles in ([pi_over(1, 3)], [pi_over(-3, 4)], [pi_over(2, 5)]):
            g = instantiate_param_gate(TEMPLATES["U1"], angles)
            assert is_unitary(g.matrix, 1e-10)


class TestAngleExpr:
    @pytest.mark.parametrize(
        "expr,text",
        [
            (pi_over(1, 2), "pi/2"),
            (pi_over(-3, 4), "-3*pi/4"),
            (AngleExpr(), "0"),
            (pi_over(1), "pi"),
            (AngleExpr(const=Fraction(1, 2)), "1/2"),
            (AngleExpr(Fraction(1, 2), Fraction(1, 4)), "pi/2+1/4"),
        ],
    )
    def test_render(self, expr, text):
        assert expr.render() == text

    def test_value(self):
        assert pi_over(1, 2).value() == pytest.approx(math.pi / 2)

    def test_from_float_snaps_every_written_pi_fraction(self):
        # each way of writing p/q·π in Python rounds differently; all snap
        for q in range(1, 49):
            for p in range(-2 * q, 2 * q + 1):
                want = AngleExpr(pi_coeff=Fraction(p, q))
                for x in (p * math.pi / q, math.pi * p / q, p / q * math.pi):
                    assert AngleExpr.from_float(x) == want, (p, q, x)

    @pytest.mark.parametrize(
        "expr",
        [
            AngleExpr(const=Fraction(10**400)),  # float() overflows
            pi_over(10**308),  # finite coefficient, infinite product
        ],
        ids=["const-overflow", "pi-overflow"],
    )
    def test_value_out_of_float_range_is_value_error(self, expr):
        with pytest.raises(ValueError, match="too large"):
            expr.value()


class TestGateFromName:
    def test_builtin(self):
        assert gate_from_name("CX") is BUILTIN_GATES["CX"]

    def test_param_name_round_trip(self):
        g = gate_from_name("U1[pi/2]")
        assert g.name == "U1[pi/2]"
        assert max_abs_diff(g.matrix, S.matrix) <= 1e-12

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown gate"):
            gate_from_name("WAT")
