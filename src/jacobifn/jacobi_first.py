"""Jacobi function of the first kind for complex degree and parameters.

P is regular near z = 1 and cut along (-oo, -1].  Four Gauss hypergeometric
representations cover the plane: two in the variable (1-z)/2 and two in
(z-1)/(z+1).  AUTO picks the smallest-modulus argument; when neither series
argument is inside the safe disk (large |z|), evaluation falls back to the
two-solution decomposition in terms of the second-kind functions, whose
arguments shrink as |z| grows.  On [-1, 1], the second kind's cut, that
decomposition is undefined and AUTO stays with the slower series.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .errors import DomainCutError, NoConvergentPath, ValidityError
from .hypergeom import ohyp, ohyp2f1
from .result import EvalResult
from .scalar_kernel import (
    exact_memo,
    gamma,
    is_gamma_pole,
    log_gamma,
    pochhammer,
    reciprocal_gamma,
)

CUT_GUARD = 1e-12
AUTO_ARG_LIMIT = 0.75


@dataclass(frozen=True)
class JacobiParams:
    """Parameter triple (alpha, beta, gamma) with validity predicates."""

    alpha: complex
    beta: complex
    gamma: complex

    def first_kind_valid(self) -> bool:
        """alpha + gamma not a negative integer."""
        return not is_gamma_pole(complex(self.alpha) + complex(self.gamma) + 1.0)

    def second_kind_valid(self) -> bool:
        """alpha + gamma and beta + gamma both off the negative integers."""
        return not is_gamma_pole(
            complex(self.beta) + complex(self.gamma) + 1.0
        ) and self.first_kind_valid()


class Representation(enum.Enum):
    """Which single-2F1 representation to evaluate (AUTO = pick by argument)."""

    REP1 = 1
    REP2 = 2
    REP3 = 3
    REP4 = 4
    AUTO = 0


def _p_cut_distance(z: complex) -> float:
    """Distance from z to the first-kind cut (-oo, -1]."""
    if z.real <= -1.0:
        return abs(z.imag)
    return abs(z + 1.0)


def _q_cut_distance(z: complex) -> float:
    """Distance from z to the second-kind cut [-1, 1]."""
    if -1.0 <= z.real <= 1.0:
        return abs(z.imag)
    return min(abs(z - 1.0), abs(z + 1.0))


def _require_p_domain(params: JacobiParams, z: complex) -> None:
    if not params.first_kind_valid():
        raise ValidityError(
            f"alpha+gamma={complex(params.alpha) + complex(params.gamma)} is a negative integer"
        )
    if _p_cut_distance(z) < CUT_GUARD:
        raise DomainCutError(f"z={z} on or too near the cut (-oo, -1]")


def _power(base: complex, exponent: complex) -> complex:
    """Principal power exp(s Log w)."""
    if exponent == 0:
        return 1.0 + 0.0j
    return cmath.exp(complex(exponent) * cmath.log(base))


@exact_memo
def _degree_prefactor(alpha: complex, gam: complex) -> complex:
    """Gamma(alpha+gamma+1) / Gamma(gamma+1), in log space; memoized per pair.

    The reciprocal-gamma zero at gamma in -N makes the whole function vanish
    there (admissible once alpha+gamma stays off -N).
    """
    if reciprocal_gamma(gam + 1.0) == 0:
        return 0.0 + 0.0j
    return cmath.exp(log_gamma(alpha + gam + 1.0) - log_gamma(gam + 1.0))


def jacobi_p_at_one(params: JacobiParams) -> complex:
    """Value at z = 1: Gamma(a+g+1) / (Gamma(a+1) Gamma(g+1)).

    Computed with reciprocal gammas so alpha or gamma in -N gives exact 0.
    """
    a, g = complex(params.alpha), complex(params.gamma)
    if not params.first_kind_valid():
        raise ValidityError(f"alpha+gamma={a + g} is a negative integer")
    return gamma(a + g + 1.0) * reciprocal_gamma(a + 1.0) * reciprocal_gamma(g + 1.0)


def jacobi_polynomial(n: int, alpha, beta, x) -> complex:
    """Degree-n Jacobi polynomial via its exact terminating sum.

    Uses the pole-free regrouping (alpha+k+1)_{n-k} of the usual prefactor
    ratio, so negative-integer alpha is fine.
    """
    if n < 0:
        raise ValueError("polynomial degree must be >= 0")
    alpha, beta, x = complex(alpha), complex(beta), complex(x)
    half = 0.5 * (x - 1.0)
    total = 0.0 + 0.0j
    hk = 1.0 + 0.0j
    for k in range(n + 1):
        term = (
            pochhammer(alpha + k + 1.0, n - k)
            * pochhammer(n + alpha + beta + 1.0, k)
            * hk
            / (math.factorial(n - k) * math.factorial(k))
        )
        total += term
        hk *= half
    return total


def _rep_value(params: JacobiParams, z: complex, rep: Representation) -> EvalResult:
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    pre = _degree_prefactor(a, g)
    x1 = 0.5 * (1.0 - z)
    x2 = (z - 1.0) / (z + 1.0)
    if rep is Representation.REP1:
        series = ohyp2f1(-g, a + b + g + 1.0, a + 1.0, x1)
        factor = pre
    elif rep is Representation.REP2:
        series = ohyp2f1(-b - g, a + g + 1.0, a + 1.0, x1)
        factor = pre * _power(2.0 / (z + 1.0), b)
    elif rep is Representation.REP3:
        series = ohyp2f1(-g, -b - g, a + 1.0, x2)
        factor = pre * _power(0.5 * (z + 1.0), g)
    elif rep is Representation.REP4:
        series = ohyp2f1(a + g + 1.0, a + b + g + 1.0, a + 1.0, x2)
        factor = pre * _power(2.0 / (z + 1.0), a + b + g + 1.0)
    else:
        raise ValueError("explicit representation required here")
    value = factor * series.value
    err = abs(factor) * series.abs_error_estimate + 1e-15 * abs(value)
    return EvalResult(value, err, f"rep{rep.value}")


@exact_memo
def _connection_coeffs(a: complex, b: complex, g: complex) -> tuple[complex, complex, complex]:
    """Connection coefficients (A, B, companion degree) of the two-solution split.

    P_g^(a,b) = A Q_g^(a,b) + B Q_{-a-b-g-1}^(a,b), built from the 1 <-> oo
    connection of the hypergeometric series.  Degenerate on the resonant set
    where the two large-z exponents merge or a companion becomes invalid.
    Memoized per triple.
    """
    denom = cmath.sin(math.pi * (a + b + 2.0 * g))
    if abs(denom) < 1e-8:
        raise NoConvergentPath("degenerate large-z connection (resonant exponents)")
    for s in (a + g, b + g):
        m = round(s.real)
        if m >= 0 and abs(s - m) < 0.02:
            raise NoConvergentPath(
                "degenerate large-z connection (companion solution invalid)"
            )
    coef_a = 2.0 * cmath.sin(math.pi * g) * cmath.sin(math.pi * (b + g)) / (math.pi * denom)
    coef_b = (
        -2.0
        * math.pi
        * reciprocal_gamma(g + 1.0)
        * reciprocal_gamma(a + b + g + 1.0)
        * reciprocal_gamma(-b - g)
        * reciprocal_gamma(-a - g)
        / denom
    )
    return coef_a, coef_b, -a - b - g - 1.0


def _connection_scaled(params: JacobiParams, z: complex) -> tuple[complex, complex]:
    """(log_scale, mantissa) of P via the second-kind pair; never overflows."""
    from .jacobi_second import jacobi_q_log

    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    coef_a, coef_b, g2 = _connection_coeffs(a, b, g)
    log1 = jacobi_q_log(params, z)
    log2 = jacobi_q_log(JacobiParams(a, b, g2), z)
    if log1.real >= log2.real:
        return log1, coef_a + coef_b * cmath.exp(log2 - log1)
    return log2, coef_a * cmath.exp(log1 - log2) + coef_b


def _connection_value(params: JacobiParams, z: complex) -> EvalResult:
    log_scale, mantissa = _connection_scaled(params, z)
    value = cmath.exp(log_scale) * mantissa
    return EvalResult(value, 1e-13 * abs(value), "connection")


def _effective_modulus(x: complex) -> float:
    """Smallest series argument reachable through the internal argument map."""
    pf = x / (x - 1.0) if x != 1.0 else complex("inf")
    return min(abs(x), abs(pf))


def _auto(params: JacobiParams, z: complex, connection):
    """AUTO dispatch of jacobi_p and jacobi_p_scaled.

    Takes the smallest-modulus series argument when one is inside the
    preferred disk.  Otherwise it returns connection(params, z) and falls back
    to a slow series while an argument map keeps the modulus below the hard
    limit.  On [-1, 1], Q's cut, the second-kind pair of the connection is
    undefined, so there the series is the only route.
    """
    x1 = 0.5 * (1.0 - z)
    x2 = (z - 1.0) / (z + 1.0)
    if min(abs(x1), abs(x2)) <= AUTO_ARG_LIMIT:
        chosen = Representation.REP1 if abs(x1) <= abs(x2) else Representation.REP3
        return _rep_value(params, z, chosen)
    m1, m2 = _effective_modulus(x1), _effective_modulus(x2)
    if _q_cut_distance(z) >= CUT_GUARD:
        try:
            return connection(params, z)
        except NoConvergentPath:
            if min(m1, m2) > 0.99:
                raise
    elif min(m1, m2) > 0.99:
        raise NoConvergentPath(
            f"z={z} on [-1, 1]: no argument map reaches modulus 0.99 "
            f"(best {min(m1, m2):.4f})"
        )
    chosen = Representation.REP1 if m1 <= m2 else Representation.REP3
    return _rep_value(params, z, chosen)


def jacobi_p(
    params: JacobiParams,
    z,
    rep: Representation = Representation.AUTO,
) -> EvalResult:
    """First-kind Jacobi function on the cut plane C \\ (-oo, -1].

    AUTO takes the smallest-modulus series argument when one is inside the
    preferred disk; for larger arguments it prefers the two-solution
    decomposition and falls back to a slow series while any argument map
    keeps the modulus below the hard limit.
    """
    z = complex(z)
    _require_p_domain(params, z)
    if rep is not Representation.AUTO:
        return _rep_value(params, z, rep)
    return _auto(params, z, _connection_value)


def jacobi_p_scaled(params: JacobiParams, z) -> tuple[complex, complex]:
    """P as (log_scale, mantissa) with value = exp(log_scale) * mantissa.

    The scaled form stays representable along rays to infinity where the
    dominant solution branch overflows a double.
    """
    z = complex(z)
    _require_p_domain(params, z)
    out = _auto(params, z, _connection_scaled)
    if isinstance(out, EvalResult):
        return 0.0 + 0.0j, out.value
    return out


def taylor_section(params: JacobiParams, n: int, z) -> tuple[complex, complex]:
    """Order-(n-1) Taylor sum of P about z = 1 and its closed 3F2 form.

    The left component assembles derivatives at 1 from the plain-derivative
    degree-lowering rule; the right is a single terminating regularized 3F2.
    Both must agree wherever the parameters keep every factor finite.
    """
    if n < 1:
        raise ValueError("taylor section needs n >= 1")
    z = complex(z)
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    _require_p_domain(params, z)
    if abs(z - 1.0) < 1e-12:
        raise ValueError("taylor section closed form is singular at z = 1")
    s = a + b + g
    if is_gamma_pole(-s):
        raise ValidityError(f"alpha+beta+gamma={s} makes the closed form singular")

    lhs = 0.0 + 0.0j
    zk = 1.0 + 0.0j
    for k in range(n):
        at_one = jacobi_p_at_one(JacobiParams(a + k, b + k, g - k))
        lhs += pochhammer(s + 1.0, k) * 2.0**-k * at_one * zk / math.factorial(k)
        zk *= z - 1.0

    series = ohyp(
        (1.0 - n, 1.0 - a - n, 1.0),
        (g - n + 2.0, 1.0 - s - n),
        2.0 / (1.0 - z),
    )
    # Sign audit: the remainder derivation fixes the prefactor power at
    # ((1-z)/2)^(n-1); the (z-1)/2 variant flips every even-n value.
    rhs = (
        gamma(a + g + 1.0)
        * gamma(-s)
        * reciprocal_gamma(a + n)
        / math.factorial(n - 1)
        * _power(0.5 * (1.0 - z), n - 1)
        * series.value
    )
    return lhs, rhs
