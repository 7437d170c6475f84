import cmath
import math
from random import Random

import numpy as np
import pytest

from conftest import legendre_q_via_recurrence
from jacobifn.errors import (
    CoefficientZeroError,
    ConvergenceConstraintError,
    DomainCutError,
    NonConvergence,
    ValidityError,
    VanishingValue,
)
from jacobifn.jacobi_first import JacobiParams, Representation
from jacobifn.jacobi_second import (
    QIntegralSpec,
    choose_shift_k,
    jacobi_q,
    jacobi_q_integral,
    jacobi_q_integral_shifted,
    jacobi_q_log,
    neumann_q,
)


def test_legendre_q0_closed_form():
    r = jacobi_q(JacobiParams(0, 0, 0), 2.0)
    assert r.value == pytest.approx(0.5 * math.log(3.0), rel=1e-12)


def test_legendre_reduction(rng: Random):
    for n in (0, 1, 2, 4):
        for z in (2.0, 1.5 + 0.8j, -0.4 + 1.6j, 3.2 - 0.5j):
            got = jacobi_q(JacobiParams(0, 0, n), z).value
            want = legendre_q_via_recurrence(n, z)
            # The forward recurrence oracle itself loses ~1e-10 relative
            # accuracy at higher degree (minimal-solution growth).
            assert abs(got - want) <= 1e-9 * max(abs(want), 1e-12) + 1e-13


def test_cross_representation_agreement():
    p = JacobiParams(0.5, 0.5, 1.2)
    vals = [jacobi_q(p, 3.0, Representation(k)).value for k in (1, 2, 3, 4)]
    for v in vals[1:]:
        assert abs(v - vals[0]) <= 1e-10 * abs(vals[0])


def test_cross_representation_agreement_sweep(rng: Random):
    done = 0
    while done < 50:
        p = JacobiParams(
            complex(rng.uniform(-0.9, 3), rng.uniform(-0.4, 0.4)),
            complex(rng.uniform(-0.9, 3), rng.uniform(-0.4, 0.4)),
            complex(rng.uniform(-0.9, 3), rng.uniform(-0.4, 0.4)),
        )
        if not p.second_kind_valid():
            continue
        z = complex(rng.uniform(1.3, 4.0), rng.uniform(-1.0, 1.0))
        vals = []
        for k in (1, 2, 3, 4):
            try:
                vals.append(jacobi_q(p, z, Representation(k)).value)
            except Exception:
                pass
        assert len(vals) >= 2
        for v in vals[1:]:
            assert abs(v - vals[0]) <= 1e-9 * max(abs(vals[0]), 1e-12)
        done += 1


def test_validity_error():
    with pytest.raises(ValidityError):
        jacobi_q(JacobiParams(0.5, 0.3, -1.5), 2.0)  # alpha+gamma = -1


def test_domain_cut_error():
    with pytest.raises(DomainCutError):
        jacobi_q(JacobiParams(0, 0, 0), 0.5)


def test_decay_exponent(rng: Random):
    # |Q| ~ |z|^(-Re(alpha+beta+gamma+1)): fitted log-log slope within 0.05.
    for _ in range(6):
        p = JacobiParams(
            complex(rng.uniform(-0.4, 1.6), rng.uniform(-0.3, 0.3)),
            complex(rng.uniform(-0.4, 1.6), rng.uniform(-0.3, 0.3)),
            complex(rng.uniform(-0.3, 1.6), rng.uniform(-0.3, 0.3)),
        )
        th = rng.uniform(0.15, 0.7)
        radii = (10.0, 20.0, 40.0)
        ys = [math.log(abs(jacobi_q(p, r * cmath.exp(1j * th)).value)) for r in radii]
        s01 = (ys[1] - ys[0]) / math.log(2.0)
        s12 = (ys[2] - ys[1]) / math.log(2.0)
        # Fitted slope with the leading 1/R curvature removed.
        slope = 2.0 * s12 - s01
        expect = -(p.alpha + p.beta + p.gamma + 1).real
        assert abs(slope - expect) < 0.05


def test_q_log_matches_value():
    p = JacobiParams(0.5, 0.5, 1.2)
    z = 3.0 + 1.0j
    assert cmath.exp(jacobi_q_log(p, z)) == pytest.approx(
        jacobi_q(p, z).value, rel=1e-12
    )


def test_q_log_of_a_vanishing_value_raises_a_library_error():
    # At gamma = -1 this triple's 2F1 sum is 0, so Q is 0: its log is not a value.
    p = JacobiParams(0.5, -0.5, -1.0)
    assert jacobi_q(p, 2.0).value == 0
    for z in (2.0, np.array([2.0, 3.0 + 1.0j])):
        with pytest.raises(VanishingValue, match="vanishing"):
            jacobi_q_log(p, z)


def test_integral_representation_log_case():
    r = jacobi_q_integral(QIntegralSpec(JacobiParams(0, 0, 0), 2.0))
    assert r.value == pytest.approx(0.5 * math.log(3.0), rel=1e-10)


def test_integral_matches_hypergeometric():
    p = JacobiParams(0.5, 0.5, 1.2)
    want = jacobi_q(p, 3.0).value
    got = jacobi_q_integral(QIntegralSpec(p, 3.0)).value
    assert abs(got - want) <= 1e-8 * abs(want)


def test_integral_constraint_error():
    with pytest.raises(ConvergenceConstraintError):
        jacobi_q_integral(QIntegralSpec(JacobiParams(-0.7, 0.2, -0.5), 2.0))


def test_shifted_integral_matches():
    p = JacobiParams(0.5, 0.5, 1.2)
    want = jacobi_q(p, 3.0).value
    got = jacobi_q_integral_shifted(QIntegralSpec(p, 3.0, 1)).value
    assert abs(got - want) <= 1e-8 * abs(want)

    p2 = JacobiParams(0.25, 0.75, 2.5)
    want2 = jacobi_q(p2, 1.8).value
    got2 = jacobi_q_integral_shifted(QIntegralSpec(p2, 1.8, 2)).value
    assert abs(got2 - want2) <= 1e-7 * abs(want2)


def test_shifted_integral_complex_params(rng: Random):
    p = JacobiParams(0.4 + 0.2j, 0.8 - 0.1j, 2.3 + 0.3j)
    want = jacobi_q(p, 2.0 + 0.7j).value
    for k in (0, 1, 2, 3):
        got = jacobi_q_integral_shifted(QIntegralSpec(p, 2.0 + 0.7j, k)).value
        assert abs(got - want) <= 1e-7 * abs(want)


def test_shift_coefficient_zero():
    with pytest.raises(CoefficientZeroError):
        jacobi_q_integral_shifted(QIntegralSpec(JacobiParams(0.5, 0.5, 1.0), 3.0, 2))


def test_choose_shift_k():
    assert choose_shift_k(JacobiParams(0.5, 0.5, 1.2)) == 0
    with pytest.raises(ConvergenceConstraintError):
        choose_shift_k(JacobiParams(-0.8, 0.2, -0.5))


def test_neumann_examples():
    assert neumann_q(0, 0, 0, 2.0).value == pytest.approx(
        0.5 * math.log(3.0), rel=1e-10
    )
    want = jacobi_q(JacobiParams(0, 0, 1), 2.0).value
    assert neumann_q(1, 0, 0, 2.0).value == pytest.approx(want, rel=1e-8)
    p = JacobiParams(0.5, -0.25, 3)
    want = jacobi_q(p, 1.5 + 0.5j).value
    got = neumann_q(3, 0.5, -0.25, 1.5 + 0.5j).value
    assert abs(got - want) <= 1e-7 * abs(want)


def test_neumann_constraint():
    with pytest.raises(ConvergenceConstraintError):
        neumann_q(2, -1.2, 0.0, 2.0)


def test_neumann_stalled_gauss_doubling_raises():
    # Close to the cut the kernel (z - t)^-1 defeats every Gauss rule up to
    # 256 nodes; the last estimate changed by 4x its value, so no value.
    with pytest.raises(NonConvergence):
        neumann_q(2, 0.2, 0.3, 0.3 + 1e-3j)


def test_negative_zero_imaginary_part_takes_the_limit_from_below():
    # On (-oo, -1) Q jumps; an imaginary part of -0.0 must give the limit
    # from below in the series, its batch, its log and the integral.  The
    # literal -2-0j has a +0.0 imaginary part, hence complex(-2, -0.0).
    p = JacobiParams(0.35, 0.2, 0.75)
    z, below = complex(-2, -0.0), -2 - 1e-12j
    want = jacobi_q(p, below).value
    got = (
        jacobi_q(p, z).value,
        jacobi_q(p, np.array([z])).value[0],
        cmath.exp(jacobi_q_log(p, z)),
        cmath.exp(jacobi_q_log(p, np.array([z]))[0]),
        jacobi_q_integral_shifted(QIntegralSpec(p, z, choose_shift_k(p))).value,
    )
    for value in got:
        assert abs(value - want) <= 1e-10 * abs(want)
    assert abs(want - jacobi_q(p, -2 + 1e-12j).value) > 0.1
