"""Shared oracles and settings for the test suite.

The recurrence evaluators here are deliberately independent of the library's
hypergeometric machinery: they are the reference values the series code is
checked against.

Every Hypothesis property runs under one profile: its examples are fixed
(``derandomize``), so a run repeats, and no example has a deadline.  A
property's own ``@settings`` gives only its number of examples.
"""

from __future__ import annotations

import cmath
import struct
from random import Random

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def legendre_via_recurrence(n: int, x: complex) -> complex:
    """Legendre polynomial by the three-term recurrence."""
    if n == 0:
        return 1.0 + 0.0j
    pm, pc = 1.0 + 0.0j, complex(x)
    for k in range(1, n):
        pm, pc = pc, ((2 * k + 1) * x * pc - k * pm) / (k + 1)
    return pc


def jacobi_poly_via_recurrence(n: int, a: complex, b: complex, x: complex) -> complex:
    """General Jacobi polynomial by the three-term recurrence."""
    if n == 0:
        return 1.0 + 0.0j
    pm = 1.0 + 0.0j
    pc = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    for k in range(2, n + 1):
        c1 = 2 * k * (k + a + b) * (2 * k + a + b - 2)
        c2 = (2 * k + a + b - 1) * (
            (2 * k + a + b) * (2 * k + a + b - 2) * x + a * a - b * b
        )
        c3 = 2 * (k + a - 1) * (k + b - 1) * (2 * k + a + b)
        pm, pc = pc, (c2 * pc - c3 * pm) / c1
    return pc


def legendre_q_via_recurrence(n: int, z: complex) -> complex:
    """Legendre second-kind function by the same recurrence, seeded with logs."""
    q0 = 0.5 * cmath.log((z + 1.0) / (z - 1.0))
    if n == 0:
        return q0
    q1 = z * q0 - 1.0
    qm, qc = q0, q1
    for k in range(1, n):
        qm, qc = qc, ((2 * k + 1) * z * qc - k * qm) / (k + 1)
    return qc


def bits(z) -> bytes:
    """The bits of a complex or real value, signed zeros and NaN payloads included."""
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


@pytest.fixture
def rng() -> Random:
    return Random(20260810)
