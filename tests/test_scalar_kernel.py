import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bits
from jacobifn.errors import FactorOverflow, JacobiFnError, PoleError, UndefinedError, ValidityError
from jacobifn.scalar_kernel import (
    binomial,
    distance_to_nonpositive_integers,
    exact_memo,
    gamma,
    is_gamma_pole,
    log_gamma,
    nearest_nonpositive_integer,
    pochhammer,
    pochhammer_product,
    pochhammer_products,
    reciprocal_gamma,
)

finite_complex = st.builds(
    complex,
    st.floats(-20, 20, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
)


def test_gamma_factorial():
    assert gamma(5) == pytest.approx(24.0, rel=1e-14)


def test_gamma_half():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_pole_raises():
    with pytest.raises(PoleError):
        gamma(-3)
    with pytest.raises(PoleError):
        gamma(-3 + 1e-14j)


def test_gamma_matches_math_gamma_on_reals():
    for x in [0.1, 0.75, 1.5, 3.25, 7.0, 12.5, 20.25, 33.0, 49.5]:
        assert gamma(x).real == pytest.approx(math.gamma(x), rel=1e-13)
        assert gamma(x).imag == 0.0


def test_gamma_reflection_negative_reals():
    for x in [-0.5, -2.5, -7.25, -19.75]:
        assert gamma(x).real == pytest.approx(math.gamma(x), rel=1e-12)


def test_gamma_duplication_complex():
    # Gamma(2z) = 2^(2z-1)/sqrt(pi) Gamma(z) Gamma(z+1/2), an independent
    # consistency check across the half-planes.
    for z in [0.3 + 0.7j, 2.0 - 1.5j, -1.3 + 0.4j, 8.0 + 3.0j, 20.0 - 5.0j]:
        lhs = gamma(2 * z)
        rhs = 2 ** (2 * z - 1) / math.sqrt(math.pi) * gamma(z) * gamma(z + 0.5)
        assert abs(lhs - rhs) / abs(lhs) < 1e-13


def test_gamma_modulus_identities():
    y = 0.8
    assert abs(gamma(1j * y)) ** 2 == pytest.approx(
        math.pi / (y * math.sinh(math.pi * y)), rel=1e-13
    )
    assert abs(gamma(0.5 + 1j * y)) ** 2 == pytest.approx(
        math.pi / math.cosh(math.pi * y), rel=1e-13
    )


def test_log_gamma_consistent_with_gamma():
    for z in [0.4 + 0.2j, 5.0 - 2.0j, -3.3 + 0.8j, 40.0 + 0.3j]:
        assert abs(cmath.exp(log_gamma(z)) - gamma(z)) / abs(gamma(z)) < 1e-13


def test_reciprocal_gamma_values():
    assert reciprocal_gamma(1) == pytest.approx(1.0, rel=1e-15)
    # Exact zeros at the non-positive integers, by contract.
    assert reciprocal_gamma(0) == 0.0
    assert reciprocal_gamma(-2) == 0.0


def test_reciprocal_gamma_past_double_range_raises_factor_overflow():
    # There gamma underflows to 0, or to a subnormal at 0.7+455i, and 1/gamma
    # is past double range; at 0.7+452i it is not.
    for z in (0.7 + 500j, 3.0 + 480j, 0.7 + 455j):
        assert abs(gamma(z)) < 1e-308
        with pytest.raises(FactorOverflow, match="past double range"):
            reciprocal_gamma(z)
    assert cmath.isfinite(reciprocal_gamma(0.7 + 452j))


def test_reciprocal_gamma_continuous_through_poles():
    # Small circles about the poles: values stay O(radius).
    for m in (0, -1, -4):
        eps = 1e-6
        vals = [
            reciprocal_gamma(m + eps * cmath.exp(2j * math.pi * k / 12))
            for k in range(12)
        ]
        assert max(abs(v) for v in vals) < 1e-3


@given(
    z=st.builds(complex, st.floats(-30, 30), st.floats(-10, 10)),
)
@settings(max_examples=150)
def test_gamma_times_reciprocal_is_one(z):
    from jacobifn.scalar_kernel import distance_to_nonpositive_integers

    if distance_to_nonpositive_integers(z) < 0.05 or abs(z) > 50:
        return
    assert abs(gamma(z) * reciprocal_gamma(z) - 1.0) < 1e-12


def test_gamma_is_finite_or_raises_overflow():
    # From Re z of about 142.58 the Lanczos factor t^(z-1/2) overflows before
    # exp(-t) brings the product back into range; inf * 0 must not come back
    # as nan, and the overflow is a library error.
    for k in range(3991):
        for y in (0.0, 0.7, -3.0):
            z = complex(0.5 + 0.05 * k, y)
            try:
                value = gamma(z)
            except FactorOverflow:
                continue
            assert cmath.isfinite(value), z


_NON_FINITE = (
    complex(math.inf, 0.0),
    complex(-math.inf, 0.0),
    complex(math.nan, 0.0),
    complex(0.0, math.inf),
    complex(0.0, -math.inf),
    complex(1.5, math.nan),
    complex(math.nan, 1.0),
    complex(2.0, math.inf),
)


@pytest.mark.parametrize("z", _NON_FINITE, ids=repr)
def test_non_finite_argument_raises_validity_error_or_no_pole(z):
    # The gamma functions raise a library error, never round's OverflowError
    # or ValueError, a ZeroDivisionError or a silent nan; a non-finite point
    # is near no pole.
    for fn in (gamma, log_gamma, reciprocal_gamma, nearest_nonpositive_integer):
        with pytest.raises(ValidityError, match="not finite"):
            fn(z)
    assert is_gamma_pole(z) is False
    assert not math.isfinite(distance_to_nonpositive_integers(z))
    # The rest of the kernel returns or raises a library error.
    for call in (
        lambda: pochhammer(z, 3),
        lambda: pochhammer(z, -3),
        lambda: binomial(z, 3),
        lambda: pochhammer_product([z, 0.5], 3),
        lambda: pochhammer_products([z, 0.5], 3),
    ):
        try:
            call()
        except JacobiFnError:
            pass


def test_pochhammer_examples():
    assert pochhammer(5, 0) == 1.0
    assert pochhammer(1, 4) == 24.0
    assert pochhammer(-3, 2) == 6.0
    assert pochhammer(-3, 5) == 0.0


def test_pochhammer_negative_count():
    # (a)_(-m) = 1 / ((a-1)...(a-m))
    a = 2.5 + 0.5j
    assert pochhammer(a, -2) == pytest.approx(1.0 / ((a - 1) * (a - 2)), rel=1e-14)
    with pytest.raises(UndefinedError):
        pochhammer(2, -3)  # hits the zero factor a-2=0


def test_pochhammer_integer_reflection_exact():
    # (-n)_k = (-1)^k n!/(n-k)! on the pure product path, exactly.
    for n in range(13):
        for k in range(n + 1):
            expect = (-1) ** k * math.factorial(n) / math.factorial(n - k)
            assert pochhammer(-n, k) == expect


@given(
    a=finite_complex,
    m=st.integers(0, 8),
    n=st.integers(0, 8),
)
@settings(max_examples=200)
def test_pochhammer_addition_rule(a, m, n):
    lhs = pochhammer(a, m + n)
    rhs = pochhammer(a, m) * pochhammer(a + m, n)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


@given(
    a=st.builds(complex, st.floats(-8, 8), st.floats(0.2, 4.0)),
    n=st.integers(0, 8),
)
@settings(max_examples=150)
def test_gamma_shift_reflection_rule(a, n):
    # Gamma(a-n) (1-a)_n = (-1)^n Gamma(a) off the poles.
    lhs = gamma(a - n) * pochhammer(1.0 - a, n)
    rhs = (-1.0) ** n * gamma(a)
    assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


def test_binomial_examples():
    assert binomial(2.7 + 1j, 0) == 1.0
    assert binomial(4, 2) == pytest.approx(6.0, rel=1e-14)
    assert binomial(-1, 3) == pytest.approx(-1.0, rel=1e-14)


def test_pochhammer_product():
    assert pochhammer_product([], 3) == 1.0
    assert pochhammer_product([1, 2], 2) == pytest.approx(12.0, rel=1e-14)
    assert pochhammer_product([-1], 3) == 0.0


def test_exact_memo_tells_signed_zeros_apart():
    # -1+0j and -1-0j are equal but lie on either side of log's cut.
    log = exact_memo(lambda z: cmath.log(z))
    assert log(complex(-1.0, 0.0)).imag == math.pi
    assert log(complex(-1.0, -0.0)).imag == -math.pi
    assert log(complex(-1.0, 0.0)).imag == math.pi
    info = log.cache_info()
    assert (info.hits, info.misses) == (1, 2)



def _lanczos_series_reference(z: complex) -> complex:
    """The Lanczos sum as a loop over the coefficient table and integer offsets."""
    from jacobifn.scalar_kernel import _LANCZOS_C

    s = complex(_LANCZOS_C[0])
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (z + (k - 1))
    return s


# gamma and log_gamma sum the series at Re z >= 0.5 only.
@given(z=st.builds(complex, st.floats(0.5, 200), st.floats(-60, 60)))
@settings(max_examples=300)
def test_lanczos_series_matches_coefficient_loop(z):
    from jacobifn.scalar_kernel import _lanczos_series

    assert bits(_lanczos_series(z)) == bits(_lanczos_series_reference(z))


def test_lanczos_series_matches_coefficient_loop_at_signed_zeros():
    from jacobifn.scalar_kernel import _lanczos_series

    for z in (complex(0.5, -0.0), complex(0.5, 0.0), complex(1.0, -0.0), complex(3.0, -0.0), complex(math.inf, -0.0)):
        assert bits(_lanczos_series(z)) == bits(_lanczos_series_reference(z))


def _pole_outcome(fn, z, tol):
    try:
        return fn(z, tol)
    except Exception as exc:
        return type(exc)


def _is_gamma_pole_reference(z, tol):
    from jacobifn.scalar_kernel import distance_to_nonpositive_integers

    return distance_to_nonpositive_integers(z) < tol


def test_pole_test_exit_matches_the_distance():
    from jacobifn.scalar_kernel import POLE_TOL, is_gamma_pole

    inf, nan = math.inf, math.nan
    reals = [
        math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0),
        math.nextafter(POLE_TOL, 0.0), POLE_TOL, math.nextafter(POLE_TOL, 1.0),
        0.0, -0.0, -3.0, -3.0 + 0.9 * POLE_TOL, -3.0 - 0.9 * POLE_TOL, -3.0 + POLE_TOL,
        7.25, 1e308, inf, -inf, nan,
    ]
    imags = [0.0, -0.0, 0.5 * POLE_TOL, -0.9 * POLE_TOL, 2.0 * POLE_TOL, 1.0, inf, -inf, nan]
    for x in reals:
        for y in imags:
            for tol in (POLE_TOL, 0.0, 0.5, 0.75, -1.0):
                z = complex(x, y)
                got = _pole_outcome(is_gamma_pole, z, tol)
                assert got == _pole_outcome(_is_gamma_pole_reference, z, tol), (z, tol)
    # The distance is measured where Re z is NaN or +-inf; it is not finite
    # there, and a non-finite point is near no pole.
    for x in (nan, inf, -inf):
        assert _pole_outcome(is_gamma_pole, complex(x, 0.0), POLE_TOL) is False
    assert is_gamma_pole(complex(-3.0 + 0.9 * POLE_TOL, 0.0))
    assert not is_gamma_pole(complex(0.5, 0.0))


@given(
    a_list=st.lists(
        st.one_of(
            st.builds(complex, st.floats(-12, 12), st.floats(-3, 3)),
            st.sampled_from([complex(-0.0, -0.0), complex(-3.0, -0.0), complex(0.0, -0.0), -2.0, 1, complex(math.inf, 0.0)]),
        ),
        max_size=3,
    ),
)
@settings(max_examples=200)
def test_pochhammer_products_match_pochhammer_product(a_list):
    products = pochhammer_products(a_list, 12)
    assert [bits(p) for p in products] == [bits(pochhammer_product(a_list, k)) for k in range(13)]
