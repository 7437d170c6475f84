import cmath
import math
from random import Random

import numpy as np
import pytest

from conftest import jacobi_poly_via_recurrence, legendre_via_recurrence
from jacobifn.errors import DomainCutError, FactorOverflow, JacobiFnError, NoConvergentPath, ValidityError
from jacobifn.jacobi_first import (
    JacobiParams,
    Representation,
    _connection_coeffs,
    jacobi_p,
    jacobi_p_at_one,
    jacobi_p_scaled,
    jacobi_polynomial,
    taylor_section,
)
from jacobifn.jacobi_second import jacobi_q
from jacobifn.scalar_kernel import log_gamma, reciprocal_gamma

_EPS = 2.220446049250313e-16


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


@pytest.mark.parametrize(
    "kind, triple, z, error",
    [
        # A sine of the connection's coefficients passes double range.
        ("P", (0.3, 0.2, 0.5 + 260j), -3.0 + 1.0j, FactorOverflow),
        # REP3's factor ((z+1)/2)^gamma passes double range.
        ("P", (0.001294095727238868 - 4j, 547.7737175382143, 995.8884863476044),
         3.656531313752575 - 0.0031066710670387535j, FactorOverflow),
        # The leading reciprocal gammas are representable, the series is not.
        ("Q", (2.296294969151056 - 2j, 2.0, -79.82424377145446 - 1.401253209460554j),
         2.275286943752081 + 0.05228554631345714j, NoConvergentPath),
        # A leading term's modulus passes double range, its parts do not.
        ("Q", (-95.36 - 0.48j, 0, -0.004 - 73.08j), 2 + 0.063j, FactorOverflow),
        # The last term's modulus passes double range, its parts do not.
        ("P", (-3, -652.18j, -64.38 + 1j), 5 + 0.54j, FactorOverflow),
    ],
)
@pytest.mark.filterwarnings("ignore::jacobifn.errors.TruncationWarning")
def test_overflow_at_large_parameters_raises_a_library_error(kind, triple, z, error):
    # Each raised a bare OverflowError or returned NaN before the reflection
    # and the prefactors were formed in log space, or before the series
    # took a term's modulus past double range as FactorOverflow; arrays
    # raise as the scalar call does.  Q's series reaches the term cap, which
    # warns.
    fn = jacobi_p if kind == "P" else jacobi_q
    for w in (z, np.array([z])):
        with pytest.raises(error):
            fn(JacobiParams(*triple), w)


def _box_triple(rng: Random):
    return tuple(complex(rng.uniform(-0.65, 2.8), rng.uniform(-0.45, 0.45)) for _ in range(3))


def _regularized_coeffs(a: complex, b: complex, g: complex):
    """A and B of the connection P = A Q + B Q' / (Gamma(-b-g) Gamma(-a-g)), whose Q sum regularized 2F1."""
    s = a + b + 2.0 * g
    denom = cmath.sin(math.pi * s)
    coef_a = 2.0 * cmath.sin(math.pi * g) * cmath.sin(math.pi * (b + g)) / (math.pi * denom)
    coef_b = -2.0 * math.pi * reciprocal_gamma(g + 1.0) * reciprocal_gamma(a + b + g + 1.0) / denom
    return coef_a, coef_b


def test_connection_coefficients_fold_the_reciprocal_gammas():
    # With their log Gamma(1+s) parts, A' and B' are A / Gamma(s+2) and
    # B / Gamma(-s), the 1/Gamma(c) of the regularized series they replace,
    # within a few ulps times the condition of sin(pi s) and of the log.
    rng = Random(20261021)
    folded = 0
    for _ in range(600):
        a, b, g = _box_triple(rng)
        try:
            coef_a, coef_b, _ = _connection_coeffs(a, b, g)
        except NoConvergentPath:
            continue
        s = a + b + 2.0 * g
        shared = log_gamma(1.0 + s)
        want_a, want_b = _regularized_coeffs(a, b, g)
        want_a *= reciprocal_gamma(s + 2.0)
        want_b *= reciprocal_gamma(-s)
        cond = 1.0 + math.pi * abs(s / cmath.tan(math.pi * s)) + abs(shared)
        assert abs(coef_a * cmath.exp(-shared) - want_a) <= 8.0 * cond * _EPS * abs(want_a)
        assert abs(coef_b * cmath.exp(shared) - want_b) <= 8.0 * cond * _EPS * abs(want_b)
        folded += 1
    assert folded >= 500


def test_connection_values_lie_within_the_regularized_formula_estimate():
    # The plain series' value against A Q + B Q' / (Gamma(-b-g) Gamma(-a-g))
    # from ``jacobi_q``, whose 2F1 are regularized: within the connection's
    # flat estimate plus the two Q's own.
    rng = Random(20261022)
    compared = 0
    for _ in range(1200):
        a, b, g = _box_triple(rng)
        z = complex(rng.uniform(-4.0, 4.0), rng.uniform(-2.0, 2.0))
        params = JacobiParams(a, b, g)
        try:
            res = jacobi_p(params, z)
        except JacobiFnError:
            continue
        if res.provenance != "connection":
            continue
        coef_a, coef_b = _regularized_coeffs(a, b, g)
        coef_b *= reciprocal_gamma(-b - g) * reciprocal_gamma(-a - g)
        q1, q2 = jacobi_q(params, z), jacobi_q(JacobiParams(a, b, -a - b - g - 1.0), z)
        ref = coef_a * q1.value + coef_b * q2.value
        tol = 1e-13 * abs(ref) + abs(coef_a) * q1.abs_error_estimate + abs(coef_b) * q2.abs_error_estimate
        assert abs(res.value - ref) <= tol
        compared += 1
    assert compared >= 500


def test_connection_sum_that_cancels_every_digit_falls_back_to_rep3():
    # At (100, 0.2, 0.3) and z = 10 the companion's plain 2F1 sums to
    # 1.5e-9 against an estimate of 4.0e-9 (mpmath: 1.93e-9), so the
    # connection gives way to the plan without it, alone and in an array:
    # REP3, whose |x2| = 9/11 is the smaller argument outside |z+1| <= 2; the
    # connection's value was 22 % off.  mpmath's P here is
    # 7.42098060011702957.  REP3 is 9e-14 off relative, beyond its estimate
    # of 1.2e-15 relative: its prefactor's log gammas at Re of about 100 are
    # not counted in it.
    params = JacobiParams(100, 0.2, 0.3)
    for arg in (10.0, np.array([10.0 + 0.0j])):
        res = jacobi_p(params, arg)
        assert res.provenance == "rep3"
        assert abs(complex(np.ravel(res.value)[0]) - 7.42098060011702957) <= 1e-12 * 7.42


def test_connection_value_in_range_where_its_log_scale_alone_overflows():
    # log Gamma(1+s) rides in the second-kind logs, so at a large degree the
    # log scale passes 709 while B' makes the mantissa small: exp(log_scale)
    # alone overflows, the value does not.  mpmath: -2.481947907830264e190
    # + 2.2453921885638367e189 i; the value is 1.8e-13 off, beyond its flat
    # 1e-13 estimate (the connection's estimate ignores its parts).
    params = JacobiParams(-2j, -2 - 1.1856129527096395j, 91.76723728034081 + 5j)
    z = 67.73178365924008j
    want = -2.481947907830264e190 + 2.2453921885638367e189j
    log_scale, _ = jacobi_p_scaled(params, z)
    assert log_scale.real > 709.8
    for arg in (z, np.array([z])):
        res = jacobi_p(params, arg)
        assert res.provenance == "connection"
        assert abs(complex(np.ravel(res.value)[0]) - want) <= 1e-12 * abs(want)
