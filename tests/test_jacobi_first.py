import cmath
import math
from random import Random

import numpy as np
import pytest

from conftest import jacobi_poly_via_recurrence, legendre_via_recurrence
from jacobifn.errors import DomainCutError, NoConvergentPath, ValidityError
from jacobifn.jacobi_first import (
    JacobiParams,
    Representation,
    jacobi_p,
    jacobi_p_at_one,
    jacobi_p_scaled,
    jacobi_polynomial,
    taylor_section,
)


def test_legendre_p2_value():
    r = jacobi_p(JacobiParams(0, 0, 2), 0.6)
    assert r.value == pytest.approx(0.04, abs=1e-12)


def test_value_at_one_alpha_zero():
    assert jacobi_p(JacobiParams(0, 0.7, 2.3), 1.0).value == pytest.approx(
        1.0, rel=1e-12
    )


def test_at_one_examples():
    assert jacobi_p_at_one(JacobiParams(0, 1.4, 0.9)) == pytest.approx(1.0, rel=1e-13)
    assert jacobi_p_at_one(JacobiParams(1, 0.5, 2)) == pytest.approx(3.0, rel=1e-13)
    assert jacobi_p_at_one(JacobiParams(3.5, 0.1, -2)) == 0.0


def test_at_one_validity():
    with pytest.raises(ValidityError):
        jacobi_p_at_one(JacobiParams(1.5, 0.0, -2.5))


def test_at_one_matches_gamma_ratio(rng: Random):
    from jacobifn.scalar_kernel import gamma

    for _ in range(100):
        a = complex(rng.uniform(0.2, 3), rng.uniform(-0.4, 0.4))
        g = complex(rng.uniform(0.2, 3), rng.uniform(-0.4, 0.4))
        got = jacobi_p_at_one(JacobiParams(a, 0.3, g))
        want = gamma(a + g + 1) / (gamma(a + 1) * gamma(g + 1))
        assert abs(got - want) <= 1e-12 * abs(want)


def test_polynomial_examples():
    assert jacobi_polynomial(0, 0.7, -0.3, 0.4) == 1.0
    assert jacobi_polynomial(1, 1, 0, 0.0) == pytest.approx(0.5, rel=1e-14)
    assert jacobi_polynomial(2, 0, 0, 0.6) == pytest.approx(0.04, abs=1e-14)


def test_polynomial_matches_recurrence(rng: Random):
    for _ in range(40):
        n = rng.randint(0, 9)
        a = rng.uniform(-0.8, 2.5)
        b = rng.uniform(-0.8, 2.5)
        x = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        got = jacobi_polynomial(n, a, b, x)
        want = jacobi_poly_via_recurrence(n, a, b, x)
        assert abs(got - want) <= 1e-11 * max(abs(want), 1.0)


def test_polynomial_reduction_of_p(rng: Random):
    # gamma = n in 0..10 reduces the function to the polynomial.
    for n in range(11):
        for _ in range(5):
            a = rng.uniform(-0.6, 2.0)
            b = rng.uniform(-0.6, 2.0)
            z = complex(rng.uniform(0.0, 1.8), rng.uniform(0.2, 1.0))
            got = jacobi_p(JacobiParams(a, b, n), z).value
            want = jacobi_polynomial(n, a, b, z)
            assert abs(got - want) <= 1e-11 * max(abs(want), 1.0)


def test_cross_representation_agreement_spec_point():
    p = JacobiParams(0.3, -0.4, 1.7)
    z = 2 + 1j
    vals = [jacobi_p(p, z, Representation(k)).value for k in (1, 2, 3, 4)]
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
        if not p.first_kind_valid():
            continue
        r = rng.uniform(0.2, 3.0)
        th = rng.uniform(0.1, math.pi - 0.1) * (1 if rng.random() < 0.5 else -1)
        z = 1 + r * cmath.exp(1j * th)
        vals = []
        for k in (1, 2, 3, 4):
            try:
                vals.append(jacobi_p(p, z, Representation(k)))
            except Exception:
                pass
        if not vals:
            # Annulus corner where no single series converges; AUTO still
            # reaches it through the connection path.
            jacobi_p(p, z)
            continue
        base = vals[0]
        for v in vals[1:]:
            # Pairwise to 1e-9, honoring each value's reported error bar
            # (marginal arguments near the disk boundary are ill-conditioned
            # and say so in their estimates).
            bound = max(
                1e-9 * max(abs(base.value), 1e-12),
                3.0 * (v.abs_error_estimate + base.abs_error_estimate),
            )
            assert abs(v.value - base.value) <= bound
        done += 1


def test_domain_cut_error():
    with pytest.raises(DomainCutError):
        jacobi_p(JacobiParams(0.2, 0.1, 1.1), -2.0)
    with pytest.raises(DomainCutError):
        jacobi_p(JacobiParams(0.2, 0.1, 1.1), -1.0)  # endpoint excluded


def test_validity_error():
    with pytest.raises(ValidityError):
        jacobi_p(JacobiParams(0.5, 0.2, -1.5), 0.3)


def test_boundary_limit_toward_one():
    p = JacobiParams(0.4, -0.2, 1.3)
    base = jacobi_p_at_one(p)
    diffs = []
    for eps in (1e-3, 1e-4, 1e-5):
        val = jacobi_p(p, 1.0 + eps * cmath.exp(0.4j)).value
        diffs.append(abs(val - base))
    # Linear decay in eps: each decade shrinks the difference ~10x.
    assert diffs[1] <= 0.3 * diffs[0]
    assert diffs[2] <= 0.3 * diffs[1]
    assert diffs[0] <= 10.0 * abs(base) * 1e-3 + 1e-12


def test_scaled_value_matches_plain():
    p = JacobiParams(0.3, -0.45, 1.63)
    for z in (0.5 + 0.5j, 3.0 + 2.0j, 150.0 + 40.0j):
        log_scale, mant = jacobi_p_scaled(p, z)
        plain = jacobi_p(p, z).value
        assert abs(cmath.exp(log_scale) * mant - plain) <= 1e-11 * abs(plain)


def test_large_z_connection_matches_series():
    p = JacobiParams(0.3, -0.45, 1.63)
    z = 150 + 40j
    auto = jacobi_p(p, z)
    assert auto.provenance == "connection"
    rep3 = jacobi_p(p, z, Representation.REP3).value
    assert abs(auto.value - rep3) <= 1e-9 * abs(rep3)


def test_taylor_section_n1_equals_at_one():
    p = JacobiParams(0.3, 0.2, 1.6)
    lhs, rhs = taylor_section(p, 1, 1.5)
    assert lhs == pytest.approx(jacobi_p_at_one(p), rel=1e-13)
    assert rhs == pytest.approx(jacobi_p_at_one(p), rel=1e-12)


def test_taylor_section_pairs():
    lhs, rhs = taylor_section(JacobiParams(0.3, 0.2, 1.6), 2, 1.5)
    assert abs(lhs - rhs) <= 1e-11 * abs(lhs)
    lhs, rhs = taylor_section(JacobiParams(0.5, -0.25, 2.2), 3, 0.7)
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_taylor_section_rejects_bad_input():
    with pytest.raises(ValueError):
        taylor_section(JacobiParams(0.3, 0.2, 1.6), 0, 1.5)
    with pytest.raises(ValueError):
        taylor_section(JacobiParams(0.3, 0.2, 1.6), 2, 1.0)
    with pytest.raises(ValidityError):
        taylor_section(JacobiParams(0.5, 0.5, 1.0), 2, 1.5)  # sum is integer


def test_legendre_reduction_on_real_axis():
    for n in (0, 1, 2, 5, 8):
        for x in (0.0, 0.35, -0.6, 0.9):
            got = jacobi_p(JacobiParams(0, 0, n), x).value
            want = legendre_via_recurrence(n, x)
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_real_interval_near_minus_one_uses_series():
    # On (-1, -0.5) AUTO is past the preferred disk, and the connection's
    # second-kind pair is undefined on [-1, 1]: the series must answer.
    for p in (JacobiParams(0.3 + 0.1j, -0.2, 1.3 - 0.2j), JacobiParams(1.1, 0.4, 2.6)):
        for z in (-0.6, -0.95):
            auto = jacobi_p(p, z)
            rep1 = jacobi_p(p, z, Representation.REP1)
            rep3 = jacobi_p(p, z, Representation.REP3)
            assert auto == rep1
            bound = max(
                1e-9 * abs(rep1.value),
                3.0 * (rep1.abs_error_estimate + rep3.abs_error_estimate),
            )
            assert abs(rep1.value - rep3.value) <= bound
            assert jacobi_p_scaled(p, z) == (0.0, rep1.value)


def test_real_interval_past_every_argument_map():
    # At z = -0.985 both maps leave modulus 0.9925 > 0.99.
    p = JacobiParams(0.3 + 0.1j, -0.2, 1.3 - 0.2j)
    with pytest.raises(NoConvergentPath):
        jacobi_p(p, -0.985)
    with pytest.raises(NoConvergentPath):
        jacobi_p_scaled(p, -0.985)


# At gamma = n REP1 is the terminating sum of the degree-n polynomial, valid
# at every z, and AUTO sums it everywhere beyond the preferred disk: on and
# near [-1, 1], where the 2F1's argument map has no path, and off the axis,
# where the large-z connection would lose digits near -1 (it was 2.5e-3 off
# at the fifth triple's first point, against an estimate of 3.6e-11).  Away
# from -1 the polynomial's own sum rounds more, so the values there are
# compared within 10x their estimates.
@pytest.mark.parametrize(
    "params, zs",
    [
        (JacobiParams(0.3 + 0.1j, -0.2, 5), (-0.99, -0.985, -0.95, -0.9999, -1.1 + 0.1j, -2 - 1j)),
        (JacobiParams(2.2 + 0.1j, 2.9 - 0.2j, 8), (-0.999, -0.9)),
        (JacobiParams(0, 0, 5), (-0.99, -0.999 + 0.001j, -0.99 - 0.01j, -0.97 + 0.02j)),
        (JacobiParams(1, 0.5, 3), (-0.995, -0.995 - 0.002j, -0.98 + 0.03j)),
        (
            JacobiParams(
                2.185979001711062 + 0.12206769939878975j,
                2.8731758444324105 - 0.16279863227507035j,
                8,
            ),
            (-1.0673542577515662 + 0.054534937037355735j, -3 + 1j, -0.5 + 1.8j),
        ),
        (JacobiParams(1.7 - 0.3j, 0.4 + 0.2j, 6), (-1.05 - 0.08j, -2.5 - 1.5j, -3.9 + 0.2j)),
    ],
)
def test_polynomial_degree_beyond_the_disk(params, zs):
    n = int(params.gamma.real)
    want = [jacobi_polynomial(n, params.alpha, params.beta, z) for z in zs]
    array = jacobi_p(params, np.array(zs))
    log_scale, mantissa = jacobi_p_scaled(params, np.array(zs))
    assert array.provenance == "rep1"
    assert np.all(log_scale == 0) and np.all(mantissa == array.value)
    for i, z in enumerate(zs):
        slack = 1.0 if abs(z + 1.0) < 0.2 else 10.0
        got = jacobi_p(params, z)
        assert got.provenance == "rep1"
        assert abs(got.value - want[i]) <= slack * got.abs_error_estimate
        assert abs(array.value[i] - want[i]) <= slack * array.abs_error_estimate[i]
        assert jacobi_p_scaled(params, z) == (0.0, got.value)


def test_legendre_far_out_sums_the_polynomial():
    # The connection is degenerate at alpha+gamma = 5; REP1 terminates, so
    # P_5(1000) = (63 z^5 - 70 z^3 + 15 z) / 8 = 7874991250001875 exactly.
    p = JacobiParams(0, 0, 5)
    for got in (jacobi_p(p, 1000.0), jacobi_p(p, np.array([1000.0]))):
        assert abs(got.value - 7874991250001875) <= got.abs_error_estimate
    # At 1e75 the sum's leading term, 1e375, is past double range.
    for z in (1e75, np.array([0.5, 1e75])):
        with pytest.raises(NoConvergentPath):
            jacobi_p(p, z)
        with pytest.raises(NoConvergentPath):
            jacobi_p_scaled(p, z)


@pytest.mark.parametrize(
    "params, z",
    [
        # exp(log_scale) itself is past double range.
        (JacobiParams(0.3, 0.2, 7.1), 1e80 + 1e79j),
        # exp(log_scale) is finite, its product with the mantissa is not.
        (JacobiParams(1.5, 0.2, 7.1), 1.4774106938166847e43 + 1.4774106938166848e42j),
    ],
)
def test_connection_past_double_range_raises_no_convergent_path(params, z):
    log_scale, mantissa = jacobi_p_scaled(params, z)
    assert math.isfinite(log_scale.real) and math.isfinite(abs(mantissa))
    for arg in (z, np.array([2.0, z])):
        with pytest.raises(NoConvergentPath):
            jacobi_p(params, arg)
    assert all(np.isfinite(col).all() for col in jacobi_p_scaled(params, np.array([z])))
