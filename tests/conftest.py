"""Shared fixtures: gate shortcuts, grid builders, and session databases."""

import math
import re

import numpy as np
import pytest


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    m = re.search(r"criterion_(\d+)", report.nodeid)
    if m:
        verdict = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE CRITERION {int(m.group(1))}: {verdict}")

from qidopt import GateSet, GeneratorConfig, build_database
from qidopt.circuit import FIRST, SECOND, CircuitGrid, half, single
from qidopt.gates import BUILTIN_GATES, gate_from_name


def gate(name):
    return BUILTIN_GATES[name]


def cell(token):
    """Build a cell from an encoding-style token like 'H' or 'CX:C:1'."""
    if ":" in token:
        name, role, partner = token.split(":")
        return half(gate(name), role, int(partner))
    return single(gate(token))


def grid(*layer_specs):
    """Grid from token rows: grid('H,H', 'CX:C:1,CX:T:0')."""
    layers = [tuple(cell(tok) for tok in spec.split(",")) for spec in layer_specs]
    n = len(layers[0])
    return CircuitGrid(n, tuple(layers))


def gate_set(*names):
    """Builtin names or instantiated template names ('U1[pi/8]')."""
    return GateSet([gate_from_name(n) for n in names])


def factorial_layer_count(n, g, t):
    """The layers over n qubits from g single and t pair gates, summed by
    the number r of pairs: sum_r n!/(r!(n−2r)!) · g^(n−2r) · t^r, a
    reference for the recurrence `circuit.layer_count` takes."""
    return sum(
        math.factorial(n) // (math.factorial(r) * math.factorial(n - 2 * r)) * g ** (n - 2 * r) * t**r
        for r in range(n // 2 + 1)
    )


@pytest.fixture(scope="session")
def db_ihxzcx():
    """The n=2, d=3, {I,H,X,Z,CX} database (5832 circuits)."""
    return build_database(GeneratorConfig(n=2, d=3, gate_set=gate_set("I", "H", "X", "Z", "CX")))


@pytest.fixture(scope="session")
def db_ih_1q():
    """n=1, d=2, {I,H}: four circuits, three buckets."""
    return build_database(GeneratorConfig(n=1, d=2, gate_set=gate_set("I", "H")))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
