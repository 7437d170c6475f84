"""Complex gamma function, Pochhammer symbols, and product conventions.

Everything downstream (hypergeometric series, Jacobi-function prefactors,
identity right-hand sides) is built on these few scalar operations, so they
are kept dependency-free and exact where exactness matters: rising factorials
with a non-negative count are always computed as literal products so that
terminating series see exact zeros.  The pole test ``is_gamma_pole``
measures the distance to {0, -1, -2, ...} only where it can fall below the
tolerance: a finite Re z at or above the tolerance passes at once, which is
every gamma call on the right half-plane.
"""

from __future__ import annotations

import cmath
import math

from .errors import FactorOverflow, PoleError, UndefinedError, ValidityError

# Lanczos rational approximation, 15-term coefficient table (g = 607/128).
# Relative error below 1e-14 on the right half-plane; the reflection formula
# extends it to Re z < 0.5.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LANCZOS_C0 = complex(_LANCZOS_C[0])

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.91893853320467274178
_LOG_2 = math.log(2.0)
POLE_TOL = 1e-12

Complex = complex | float | int


def nearest_nonpositive_integer(z: Complex) -> int:
    """Closest element of {0, -1, -2, ...} to z (by real part); ValidityError at a non-finite z."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValidityError(f"nearest_nonpositive_integer({z}): the argument is not finite")
    return min(0, round(z.real))


def distance_to_nonpositive_integers(z: Complex) -> float:
    """Euclidean distance from z to the non-positive integers; |z| (inf or NaN) at a non-finite z."""
    z = complex(z)
    if not cmath.isfinite(z):
        return abs(z)
    return math.hypot(z.real - nearest_nonpositive_integer(z), z.imag)


def is_gamma_pole(z: Complex, tol: float = POLE_TOL) -> bool:
    """True when z is within tol of a non-positive integer.

    The distance to the non-positive integers is at least Re z, so a finite
    Re z >= tol returns False without measuring it; a non-finite z is near no pole.
    """
    z = complex(z)
    if tol <= z.real < math.inf:
        return False
    return distance_to_nonpositive_integers(z) < tol


def _lanczos_series(z: complex) -> complex:
    """c_0 + the sum of c_k / (z + (k - 1)) over k = 1..14, added left to right.

    Unrolled: the loop's operations in its order, so the same bits, at
    four fifths of its cost (z + float(k - 1) rounds as z + (k - 1) does).
    """
    c = _LANCZOS_C
    return (
        _LANCZOS_C0
        + c[1] / (z + 0.0)
        + c[2] / (z + 1.0)
        + c[3] / (z + 2.0)
        + c[4] / (z + 3.0)
        + c[5] / (z + 4.0)
        + c[6] / (z + 5.0)
        + c[7] / (z + 6.0)
        + c[8] / (z + 7.0)
        + c[9] / (z + 8.0)
        + c[10] / (z + 9.0)
        + c[11] / (z + 10.0)
        + c[12] / (z + 11.0)
        + c[13] / (z + 12.0)
        + c[14] / (z + 13.0)
    )


def log_sin_pi(z: Complex) -> complex:
    """A logarithm of sin(pi z), consistent under exp but not principal; -inf at its zeros.

    Where sin(pi z) is a double, the principal log of ``cmath.sin``'s value.
    From |Im z| of about 226, where it overflows, sin(pi z) is (+-i/2)
    e^(-+i pi z) to double precision, whose log is pi |Im z| - log 2 plus a
    phase.
    """
    z = complex(z)
    try:
        s = cmath.sin(math.pi * z)
    except OverflowError:
        sign = 1.0 if z.imag > 0.0 else -1.0
        return sign * complex(math.pi * z.imag, 0.5 * math.pi - math.pi * z.real) - _LOG_2
    return cmath.log(s) if s else complex(-math.inf, 0.0)


def _exp_in_range(w: complex, what: str) -> complex:
    """exp(w), or FactorOverflow naming ``what`` where it is past double range."""
    try:
        return cmath.exp(w)
    except OverflowError:
        raise FactorOverflow(f"{what} is past double range") from None


def gamma(z: Complex) -> complex:
    """Principal gamma function for complex argument.

    Raises PoleError when z is within the pole tolerance of a non-positive
    integer, FactorOverflow where the Lanczos product is not finite (from
    Re z of about 142.58 on, though gamma itself overflows only near 171.6),
    and ValidityError at a non-finite z.
    """
    z = complex(z)
    if is_gamma_pole(z):
        raise PoleError(f"gamma pole at z={z}")
    if not cmath.isfinite(z):
        raise ValidityError(f"gamma({z}): the argument is not finite")
    if z.real < 0.5:
        # Reflection: gamma(z) = pi / (sin(pi z) * gamma(1 - z)), from
        # ``log_gamma`` where sin(pi z) overflows.
        try:
            sin = cmath.sin(math.pi * z)
        except OverflowError:
            return _exp_in_range(log_gamma(z), f"gamma({z})")
        return math.pi / (sin * gamma(1.0 - z))
    t = z + (_LANCZOS_G - 0.5)
    try:
        value = _SQRT_2PI * t ** (z - 0.5) * cmath.exp(-t) * _lanczos_series(z)
    except OverflowError:
        value = complex(math.inf, 0.0)
    if not cmath.isfinite(value):
        raise FactorOverflow(f"gamma({z}): the Lanczos product is not finite")
    return value


def log_gamma(z: Complex) -> complex:
    """A logarithm of gamma(z), consistent under exp but not principal.

    Intended for forming products/ratios of gammas in log space; individual
    imaginary parts may differ from the principal log-gamma branch by
    multiples of 2*pi, which cancels once the combined sum is exponentiated.
    Raises ValidityError at a non-finite z.
    """
    z = complex(z)
    if is_gamma_pole(z):
        raise PoleError(f"log_gamma pole at z={z}")
    if not cmath.isfinite(z):
        raise ValidityError(f"log_gamma({z}): the argument is not finite")
    if z.real < 0.5:
        return math.log(math.pi) - log_sin_pi(z) - log_gamma(1.0 - z)
    t = z + (_LANCZOS_G - 0.5)
    return (
        _LOG_SQRT_2PI
        + (z - 0.5) * cmath.log(t)
        - t
        + cmath.log(_lanczos_series(z))
    )


def reciprocal_gamma(z: Complex) -> complex:
    """1/gamma(z), entire: exactly 0 on the non-positive integers, ValidityError (from gamma) at inf or NaN.

    FactorOverflow where 1/gamma(z) is past double range: gamma underflows to 0 or below 1/DBL_MAX.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real.is_integer():
        return 0.0 + 0.0j
    if z.real < 0.5:
        # Entire continuation through the poles of gamma, from ``log_gamma``
        # where sin(pi z) overflows.
        factor = gamma(1.0 - z)
        try:
            return factor * cmath.sin(math.pi * z) / math.pi
        except OverflowError:
            return _exp_in_range(-log_gamma(z), f"1/gamma({z})")
    value = gamma(z)
    if value:
        value = 1.0 / value
    if not (value and cmath.isfinite(value)):
        raise FactorOverflow(f"1/gamma({z}) is past double range")
    return value


def pochhammer(a: Complex, n: int) -> complex:
    """Rising factorial (a)_n for integer n of either sign.

    n >= 0 uses the literal product a(a+1)...(a+n-1), preserving exact zeros
    for terminating series.  n < 0 uses the gamma-ratio extension in its
    cancellation-free product form 1 / ((a-1)(a-2)...(a+n)); a zero factor
    there means the extension is genuinely undefined.
    """
    if n != int(n):
        raise ValueError("pochhammer count must be an integer")
    n = int(n)
    a = complex(a)
    if n == 0:
        return 1.0 + 0.0j
    if n > 0:
        p = 1.0 + 0.0j
        for j in range(n):
            p *= a + j
        return p
    d = 1.0 + 0.0j
    for j in range(1, -n + 1):
        d *= a - j
    if d == 0:
        raise UndefinedError(f"({a})_{n} hits a pole of the gamma-ratio extension")
    return 1.0 / d


def binomial(z: Complex, n: int) -> complex:
    """Generalized binomial coefficient (-1)^n (-z)_n / n! for n >= 0."""
    if n < 0:
        raise ValueError("binomial lower index must be non-negative")
    sign = -1.0 if n % 2 else 1.0
    return sign * pochhammer(-complex(z), n) / math.factorial(n)


def pochhammer_product(a_list: list[Complex] | tuple[Complex, ...], k: int) -> complex:
    """Product of (a_i)_k over the list; the empty list gives 1."""
    p = 1.0 + 0.0j
    for a in a_list:
        p *= pochhammer(a, k)
    return p
