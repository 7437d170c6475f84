"""Jacobi function of the second kind on the cut plane C \\ [-1, 1].

Four Gauss hypergeometric representations (arguments 2/(1-z) and 2/(1+z)),
the weighted-kernel integral representation, its shifted variant with an
interior Jacobi polynomial, and the integer-degree Neumann-type integral.

Under AUTO one plan (``_q_plan``), shared by scalar and array calls, gives
each point a code: REP1 on 2/(1-z) or REP3 on 2/(1+z), the smaller; NO_PATH
where no map takes it into its 2F1's disk (the lens about [-1, 1]) or it
lies on that 2F1's cut; ON_CUT on Q's cut.  ``jacobi_q`` and ``jacobi_q_log``
also take an ndarray of z for one triple, summed by code as for P.

Quadrature note: the kernel weights carry complex exponents; the rules use
their real parts and the unit-modulus oscillatory remainder (1 -+ t)^(i Im)
is folded into the evaluated factor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoefficientZeroError,
    ConvergenceConstraintError,
    FactorOverflow,
    ValidityError,
    VanishingValue,
)
from .hypergeom import (
    NO_PATH,
    ON_CUT,
    _continued_2f1,
    _ohyp2f1_batch,
    _refuse,
    _route,
    power,
    termination_index,
)
from .jacobi_first import (
    _PROVENANCE,
    CUT_GUARD,
    Q_CUT,
    JacobiParams,
    Representation,
    _apply_factor,
    _array_call,
    _array_result,
    _first,
    _memo_key,
    _pointwise,
    _require_finite,
    _require_off_cut,
    jacobi_polynomial,
)
from .quadrature import integrate_finite, tanh_sinh_segment, where
from .result import EvalResult
from .scalar_kernel import exact_memo, log_gamma, pochhammer

_MAX_AUTO_SHIFT = 8


@dataclass(frozen=True)
class QIntegralSpec:
    """Weighted-kernel integral evaluation request; shift_k = 0 is unshifted."""

    params: JacobiParams
    z: complex
    shift_k: int = 0


def _require_q_domain(params: JacobiParams, z: complex | None = None) -> None:
    """ValidityError for a triple off Q's domain, then DomainCutError where a given z is on the cut."""
    if not params.second_kind_valid():
        _require_finite(params)
        raise ValidityError(
            "alpha+gamma or beta+gamma is a negative integer "
            f"({complex(params.alpha) + complex(params.gamma)}, "
            f"{complex(params.beta) + complex(params.gamma)})"
        )
    if z is not None:
        _require_off_cut(Q_CUT, z)


@exact_memo
def _q_log_prefactor(a: complex, b: complex, g: complex) -> complex:
    """log of 2^(a+b+g) Gamma(a+g+1) Gamma(b+g+1); memoized per triple.

    Shared by all four representations; each adds its own powers of z -+ 1.
    """
    return (a + b + g) * math.log(2.0) + log_gamma(a + g + 1.0) + log_gamma(b + g + 1.0)


def _q_terms(a: complex, b: complex, g: complex, rep: Representation):
    """(upper parameters, series on y rather than x, exponents of z-1 and z+1).

    The representation's log prefactor is the triple's log prefactor minus
    each exponent times the log of its factor.
    """
    if rep is Representation.REP1:
        return (g + 1.0, a + g + 1.0), True, a + g + 1.0, b
    if rep is Representation.REP2:
        return (b + g + 1.0, a + b + g + 1.0), True, a + b + g + 1.0, 0.0
    if rep is Representation.REP3:
        return (g + 1.0, b + g + 1.0), False, a, b + g + 1.0
    return (a + g + 1.0, a + b + g + 1.0), False, 0.0, a + b + g + 1.0


# Codes of Q's AUTO plan; the first two index _PROVENANCE.
Q_REP1, Q_REP3, Q_NO_PATH, Q_ON_CUT = 0, 1, 2, 3
_SIDES = ((Q_REP1, Representation.REP1), (Q_REP3, Representation.REP3))


def _q_plan(params: JacobiParams, z, *others: JacobiParams):
    """Q's AUTO plan at z, a scalar or a 1-D ndarray: (codes, argument, route).

    REP1's y = 2/(1-z) is taken where |y| <= |x|, i.e. Re z <= 0, or where
    y = x = 0 (an infinite z with one finite part), else REP3's x = 2/(1+z),
    also at a z where neither is a number: numpy's quotient in an array,
    where the series run.  The route is
    ``_route`` of Python's quotient, per point, for a series that does not
    terminate, so that a point has one plan alone or in an array.  One code
    per triple, params and then others: a triple whose series terminates
    sums at any route.
    """
    on_cut = Q_CUT.distance(z) < CUT_GUARD
    if on_cut is True:
        # A scalar on the cut, where a quotient may divide by 0.
        return (Q_ON_CUT,) * (1 + len(others)), z, ON_CUT
    array = isinstance(z, np.ndarray)
    y, x = 2.0 / (1.0 - z), 2.0 / (1.0 + z)
    # Im z - Im z is 0, or NaN at a non-finite Im z.
    rep1 = (z.real <= z.imag - z.imag) | (y == x)
    argument = where(rep1, y, x)
    quotient = np.array([2.0 / v for v in np.where(rep1, 1.0 - z, 1.0 + z).tolist()]) if array else argument
    route = _route(quotient)
    side, refused = where(rep1, Q_REP1, Q_REP3), route >= NO_PATH
    if not (refused.any() if array else refused):
        return (where(on_cut, Q_ON_CUT, side),) * (1 + len(others)), argument, route
    codes = []
    for t in (params, *others):
        a, b, g = complex(t.alpha), complex(t.beta), complex(t.gamma)
        ends = [termination_index(_q_terms(a, b, g, rep)[0]) is not None for _, rep in _SIDES]
        code = where(where(rep1, *ends), side, where(refused, Q_NO_PATH, side))
        codes.append(where(on_cut, Q_ON_CUT, code))
    return tuple(codes), argument, route


def _q_parts(params: JacobiParams, z: complex, rep: Representation, plan=None):
    """(log prefactor, hypergeometric SeriesValue, representation) at a scalar z.

    AUTO follows ``plan``, Q's plan of this triple at z (formed here if not
    given): DomainCutError on the cut, the 2F1's error where no route sums,
    else the side's series at the plan's argument and route.  An explicit
    representation's 2F1 routes its own argument.
    """
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    argument = route = None
    if rep is Representation.AUTO:
        (code,), argument, route = plan or _q_plan(params, z)
        _require_off_cut(Q_CUT, z, code == Q_ON_CUT)
        if code == Q_NO_PATH:
            _refuse(argument, route)
        rep = Representation.REP1 if code == Q_REP1 else Representation.REP3
    else:
        _require_off_cut(Q_CUT, z)
    (p1, p2), on_y, e_m, e_p = _q_terms(a, b, g, rep)
    if argument is None:
        argument = 2.0 / (1.0 - z) if on_y else 2.0 / (1.0 + z)
    series = _continued_2f1(p1, p2, a + b + 2.0 * g + 2.0, argument, True, route)
    # z - -1.0, not z + 1.0, keeps an imaginary part of -0.0 on (-oo, -1),
    # so that both logs take the limit from below; adding 1.0 makes it +0.0.
    logf = (
        _q_log_prefactor(a, b, g) - e_m * cmath.log(z - 1.0) - e_p * cmath.log(z - -1.0)
    )
    return logf, series, rep


def _q_log(params: JacobiParams, z: complex, plan=None) -> complex:
    """``jacobi_q_log`` of a valid triple at a scalar z, by ``_q_parts`` under AUTO."""
    logf, series, _ = _q_parts(params, z, Representation.AUTO, plan)
    # At an infinite z the prefactor's log has real part -inf: Q is 0 there.
    if series.value == 0 or logf.real == -math.inf:
        raise VanishingValue(f"z={z}: log of a vanishing second-kind value")
    return logf + cmath.log(series.value)


def _q_sum(params: JacobiParams, z: np.ndarray, code: np.ndarray, argument, route, log: bool):
    """Q (or its log) of a valid triple at the points of a 1-D z coded Q_REP1 or Q_REP3.

    ``code``, ``argument`` and ``route`` are the triple's plan at z.  Returns
    (value or log, error estimate of the value, covered); a point is not
    covered where the 2F1 batch does not cover it, the value or log is not
    finite, or the log is taken of 0: the scalar call raises or warns there.
    """
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    c = a + b + 2.0 * g + 2.0
    base_log = _q_log_prefactor(a, b, g)
    series = np.zeros(z.size, dtype=complex)
    logf = np.zeros(z.size, dtype=complex)
    err = np.zeros(z.size)
    covered = np.zeros(z.size, dtype=bool)
    # z - -1.0 keeps a -0.0 imaginary part, as in ``_q_parts``.  At an
    # infinite z, inf * 0 leaves the value not finite: the scalar call takes it.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_zm, log_zp = np.log(z - 1.0), np.log(z - -1.0)
        for side, rep in _SIDES:
            idx = np.flatnonzero(code == side)
            if idx.size:
                (p1, p2), _, e_m, e_p = _q_terms(a, b, g, rep)
                series[idx], err[idx], covered[idx] = _ohyp2f1_batch(p1, p2, c, argument[idx], route[idx])
                logf[idx] = base_log - e_m * log_zm[idx] - e_p * log_zp[idx]
        if log:
            out = logf + np.log(series)
            covered &= series != 0
        else:
            out, err = _apply_factor(np.exp(logf), series, err)
    return out, err, covered & np.isfinite(out)


def _q_points(params: JacobiParams, z: np.ndarray, log: bool = False, memo: bool = True):
    """``jacobi_q`` (or ``jacobi_q_log``) under AUTO at the points of a 1-D z.

    Returns ``_pointwise``'s columns (value or log, error estimate,
    provenance code) and failure, as ``_p_points`` does; the code indexes
    ``_PROVENANCE`` (rep1 or rep3).  Without memo, ``POINTS_MEMO`` is
    neither read nor filled.
    """

    def batch(zs: np.ndarray):
        if not params.second_kind_valid():
            return (), np.zeros(zs.size, dtype=bool), 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            (code,), argument, route = _q_plan(params, zs)
        stop = _first(code >= Q_NO_PATH)
        code[stop:] = Q_ON_CUT
        out, err, covered = _q_sum(params, zs, code, argument, route, log)
        return (out, err, code), covered, stop

    def scalar(w: complex):
        if log:
            return (jacobi_q_log(params, w),)
        res = jacobi_q(params, w)
        return res.value, res.abs_error_estimate, _PROVENANCE.index(res.provenance)

    key = _memo_key("Q", log, params) if memo else None
    return _pointwise(batch, scalar, z, (complex, float, np.int8), key)


def jacobi_q(
    params: JacobiParams,
    z,
    rep: Representation = Representation.AUTO,
) -> EvalResult:
    """Second-kind Jacobi function via its hypergeometric representations.

    AUTO picks the smaller of the arguments 2/(1-z) and 2/(1+z); explicit
    representations are evaluated as requested (the series layer applies its
    own argument map when the raw argument leaves the disk).

    Under AUTO, z may be an ndarray: the result then holds arrays of values
    and error estimates, and its provenance joins the representations taken
    with "+".
    """
    if isinstance(z, np.ndarray):
        if rep is not Representation.AUTO:
            raise ValueError("an array of z needs Representation.AUTO")
        return _array_result(*_array_call(_q_points, params, z, False))
    z = complex(z)
    _require_q_domain(params)
    logf, series, rep = _q_parts(params, z, rep)
    try:
        factor = cmath.exp(logf)
    except OverflowError:
        raise FactorOverflow(f"z={z}: Q's prefactor exp({logf}) is past double range") from None
    value, err = _apply_factor(factor, series.value, series.abs_error_estimate)
    return EvalResult(value, err, f"rep{rep.value}")


def jacobi_q_log(params: JacobiParams, z) -> complex:
    """log of the second-kind value; usable where the value itself overflows.

    z may be an ndarray; the result is then an array.  Where Q vanishes (a
    2F1 sum of 0, or an infinite z) it raises VanishingValue.
    """
    if isinstance(z, np.ndarray):
        return _array_call(_q_points, params, z, True)[0]
    _require_q_domain(params)
    return _q_log(params, complex(z))


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
    doubled by ``integrate_finite``, which raises NonConvergence when the
    doubling stalls.  Complex exponents: the imaginary parts oscillate on a log scale
    near the endpoints, which defeats the fixed Gauss weight, so tanh-sinh
    nodes evaluate the full factors (stable endpoint complements included).
    """
    ra, rb = exp_a.real, exp_b.real
    if ra <= -1.0 or rb <= -1.0:
        raise ConvergenceConstraintError(
            f"kernel exponents ({exp_a}, {exp_b}) violate Re > -1"
        )
    ia, ib = exp_a.imag, exp_b.imag

    def core(t):
        val = power(z - t, -kernel_power)
        if poly_degree:
            val = val * jacobi_polynomial(poly_degree, poly_alpha, poly_beta, t)
        return val

    if ia == 0.0 and ib == 0.0:
        return integrate_finite(core, ra, rb, rtol=1e-11)

    def g(t: np.ndarray, omt: np.ndarray, opt: np.ndarray) -> np.ndarray:
        return core(t) * power(omt, exp_a) * power(opt, exp_b)

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
    # z - -1.0 keeps a -0.0 imaginary part, as in ``_q_parts``.
    prefactor = (
        sign
        * math.factorial(k)
        / (shift_coef * power(2.0, g + 1.0 - k))
        * power(z - 1.0, -a)
        * power(z - -1.0, -b)
    )
    value, err = _apply_factor(prefactor, quad.value, quad.abs_error_estimate)
    return EvalResult(value, err, f"integral-k{k}|{quad.provenance}")


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
    _require_off_cut(Q_CUT, z)

    quad = _kernel_quadrature(z, a, b, 1.0, n, a, b)
    # z - -1.0 keeps a -0.0 imaginary part, as in ``_q_parts``.
    prefactor = 0.5 * power(z - 1.0, -a) * power(z - -1.0, -b)
    value, err = _apply_factor(prefactor, quad.value, quad.abs_error_estimate)
    return EvalResult(value, err, f"neumann-{n}|{quad.provenance}")
