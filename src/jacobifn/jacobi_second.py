"""Jacobi function of the second kind on the cut plane C \\ [-1, 1].

Four Gauss hypergeometric representations (arguments 2/(1-z) and 2/(1+z)),
the weighted-kernel integral representation, its shifted variant with an
interior Jacobi polynomial, and the integer-degree Neumann-type integral.

Quadrature note: the kernel weights carry complex exponents; the rules use
their real parts and the unit-modulus oscillatory remainder (1 -+ t)^(i Im)
is folded into the evaluated factor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (
    CoefficientZeroError,
    ConvergenceConstraintError,
    DomainCutError,
    ValidityError,
)
from .hypergeom import ohyp2f1
from .jacobi_first import (
    CUT_GUARD,
    JacobiParams,
    Representation,
    _power,
    _q_cut_distance,
    jacobi_polynomial,
)
from .quadrature import gauss_jacobi_rule, tanh_sinh_segment
from .result import EvalResult
from .scalar_kernel import exact_memo, log_gamma, pochhammer

_RULE_SIZES = (8, 16, 32, 64, 128, 256)
_MAX_AUTO_SHIFT = 8


@dataclass(frozen=True)
class QIntegralSpec:
    """Weighted-kernel integral evaluation request; shift_k = 0 is unshifted."""

    params: JacobiParams
    z: complex
    shift_k: int = 0


def _require_q_domain(params: JacobiParams, z: complex) -> None:
    if not params.second_kind_valid():
        raise ValidityError(
            "alpha+gamma or beta+gamma is a negative integer "
            f"({complex(params.alpha) + complex(params.gamma)}, "
            f"{complex(params.beta) + complex(params.gamma)})"
        )
    if _q_cut_distance(z) < CUT_GUARD:
        raise DomainCutError(f"z={z} on or too near the cut [-1, 1]")


@exact_memo
def _q_log_prefactor(a: complex, b: complex, g: complex) -> complex:
    """log of 2^(a+b+g) Gamma(a+g+1) Gamma(b+g+1); memoized per triple.

    Shared by all four representations; each adds its own powers of z -+ 1.
    """
    return (a + b + g) * math.log(2.0) + log_gamma(a + g + 1.0) + log_gamma(b + g + 1.0)


def _q_parts(
    params: JacobiParams, z: complex, rep: Representation
) -> tuple[complex, "object", Representation]:
    """(log prefactor, hypergeometric SeriesValue, chosen representation)."""
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    y = 2.0 / (1.0 - z)
    x = 2.0 / (1.0 + z)
    if rep is Representation.AUTO:
        rep = Representation.REP1 if abs(y) <= abs(x) else Representation.REP3

    c = a + b + 2.0 * g + 2.0
    base_log = _q_log_prefactor(a, b, g)
    if rep is Representation.REP1:
        series = ohyp2f1(g + 1.0, a + g + 1.0, c, y)
        logf = base_log - (a + g + 1.0) * cmath.log(z - 1.0) - b * cmath.log(z + 1.0)
    elif rep is Representation.REP2:
        series = ohyp2f1(b + g + 1.0, a + b + g + 1.0, c, y)
        logf = base_log - (a + b + g + 1.0) * cmath.log(z - 1.0)
    elif rep is Representation.REP3:
        series = ohyp2f1(g + 1.0, b + g + 1.0, c, x)
        logf = base_log - a * cmath.log(z - 1.0) - (b + g + 1.0) * cmath.log(z + 1.0)
    else:
        series = ohyp2f1(a + g + 1.0, a + b + g + 1.0, c, x)
        logf = base_log - (a + b + g + 1.0) * cmath.log(z + 1.0)
    return logf, series, rep


def jacobi_q(
    params: JacobiParams,
    z,
    rep: Representation = Representation.AUTO,
) -> EvalResult:
    """Second-kind Jacobi function via its hypergeometric representations.

    AUTO picks the smaller of the arguments 2/(1-z) and 2/(1+z); explicit
    representations are evaluated as requested (the series layer applies its
    own argument map when the raw argument leaves the disk).
    """
    z = complex(z)
    _require_q_domain(params, z)
    logf, series, rep = _q_parts(params, z, rep)
    factor = cmath.exp(logf)
    value = factor * series.value
    err = abs(factor) * series.abs_error_estimate + 1e-15 * abs(value)
    return EvalResult(value, err, f"rep{rep.value}")


def jacobi_q_log(params: JacobiParams, z) -> complex:
    """log of the second-kind value; usable where the value itself overflows."""
    z = complex(z)
    _require_q_domain(params, z)
    logf, series, _ = _q_parts(params, z, Representation.AUTO)
    if series.value == 0:
        raise ValueError("log of a vanishing second-kind value")
    return logf + cmath.log(series.value)


def _kernel_quadrature(
    z: complex,
    exp_a: complex,
    exp_b: complex,
    kernel_power: complex,
    poly_degree: int,
    poly_alpha: complex,
    poly_beta: complex,
) -> EvalResult:
    """Integral over [-1,1] of (1-t)^ea (1+t)^eb (z-t)^(-kp) P_deg(t) dt.

    Real exponents: Gauss-Jacobi with the weight absorbed exactly, rule
    doubled.  Complex exponents: the imaginary parts oscillate on a log scale
    near the endpoints, which defeats the fixed Gauss weight, so tanh-sinh
    nodes evaluate the full factors (stable endpoint complements included).
    """
    ra, rb = exp_a.real, exp_b.real
    if ra <= -1.0 or rb <= -1.0:
        raise ConvergenceConstraintError(
            f"kernel exponents ({exp_a}, {exp_b}) violate Re > -1"
        )
    ia, ib = exp_a.imag, exp_b.imag

    def core(t: complex) -> complex:
        val = _power(z - t, -kernel_power)
        if poly_degree:
            val *= jacobi_polynomial(poly_degree, poly_alpha, poly_beta, t)
        return val

    if ia == 0.0 and ib == 0.0:
        prev = None
        delta = math.inf
        for m in _RULE_SIZES:
            rule = gauss_jacobi_rule(m, ra, rb)
            total = 0.0 + 0.0j
            for t, w in zip(rule.nodes, rule.weights):
                total += w * core(t)
            if prev is not None:
                delta = abs(total - prev)
                if delta <= 1e-11 * max(abs(total), 1e-300):
                    return EvalResult(total, delta, f"gauss-jacobi-{m}")
            prev = total
        return EvalResult(prev, delta, f"gauss-jacobi-{_RULE_SIZES[-1]}")

    def g(t: float, omt: float, opt: float) -> complex:
        return core(t) * _power(omt, exp_a) * _power(opt, exp_b)

    return tanh_sinh_segment(g, rtol=1e-11)


def jacobi_q_integral(spec: QIntegralSpec) -> EvalResult:
    """Unshifted weighted-kernel integral for Q (shift_k must be 0)."""
    if spec.shift_k != 0:
        raise ValueError("jacobi_q_integral handles shift_k = 0 only")
    return jacobi_q_integral_shifted(spec)


def jacobi_q_integral_shifted(spec: QIntegralSpec) -> EvalResult:
    """Weighted-kernel integral with a degree-k interior polynomial.

    Reduces to the unshifted representation at k = 0.  Requires
    Re(alpha+gamma-k) > -1 and Re(beta+gamma-k) > -1, and a non-vanishing
    shift coefficient.
    """
    k = int(spec.shift_k)
    if k < 0:
        raise ValueError("shift_k must be >= 0")
    z = complex(spec.z)
    params = spec.params
    _require_q_domain(params, z)
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)

    ea = a + g - k
    eb = b + g - k
    if ea.real <= -1.0 or eb.real <= -1.0:
        raise ConvergenceConstraintError(
            f"Re(alpha+gamma-k)={ea.real:.3f}, Re(beta+gamma-k)={eb.real:.3f} must exceed -1"
        )
    shift_coef = pochhammer(-g, k)
    if shift_coef == 0:
        raise CoefficientZeroError(f"(-gamma)_{k} = 0 for gamma={g}")

    quad = _kernel_quadrature(z, ea, eb, g - k + 1.0, k, ea, eb)
    sign = -1.0 if k % 2 else 1.0
    prefactor = (
        sign
        * math.factorial(k)
        / (shift_coef * _power(2.0, g + 1.0 - k))
        * _power(z - 1.0, -a)
        * _power(z + 1.0, -b)
    )
    value = prefactor * quad.value
    return EvalResult(
        value,
        abs(prefactor) * quad.abs_error_estimate + 1e-15 * abs(value),
        f"integral-k{k}|{quad.provenance}",
    )


def choose_shift_k(params: JacobiParams) -> int:
    """Smallest shift making both kernel-exponent constraints hold."""
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    for k in range(_MAX_AUTO_SHIFT + 1):
        if (a + g - k).real > -1.0 and (b + g - k).real > -1.0:
            if pochhammer(-g, k) != 0:
                return k
    raise ConvergenceConstraintError(
        "no admissible shift: Re(alpha+gamma) or Re(beta+gamma) <= -1"
    )


def neumann_q(n: int, alpha, beta, z) -> EvalResult:
    """Integer-degree Q via the kernel integral against the degree-n polynomial.

    Must agree with jacobi_q at gamma = n; needs Re(alpha), Re(beta) > -1.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    a, b, z = complex(alpha), complex(beta), complex(z)
    if a.real <= -1.0 or b.real <= -1.0:
        raise ConvergenceConstraintError("Neumann integral needs Re(alpha), Re(beta) > -1")
    if _q_cut_distance(z) < CUT_GUARD:
        raise DomainCutError(f"z={z} on or too near the cut [-1, 1]")

    quad = _kernel_quadrature(z, a, b, 1.0, n, a, b)
    prefactor = 0.5 * _power(z - 1.0, -a) * _power(z + 1.0, -b)
    value = prefactor * quad.value
    return EvalResult(
        value,
        abs(prefactor) * quad.abs_error_estimate + 1e-15 * abs(value),
        f"neumann-{n}|{quad.provenance}",
    )
