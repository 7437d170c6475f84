"""Jacobi function of the second kind on the cut plane C \\ [-1, 1].

Four Gauss hypergeometric representations (arguments 2/(1-z) and 2/(1+z)),
the weighted-kernel integral representation, its shifted variant with an
interior Jacobi polynomial, and the integer-degree Neumann-type integral.

Under AUTO one plan (``_q_plan``), shared by scalar and array calls, gives
each point a code: REP1 on 2/(1-z) or REP3 on 2/(1+z), the smaller, summed
directly; NO_PATH where that argument is beyond MAP_LIMIT (the lens about
[-1, 1]) and its series does not terminate; ON_CUT on Q's cut.  So under
AUTO, Q raises DomainCutError within CUT_GUARD of its cut, NoConvergentPath
where no series converges, and never CutError.  ``jacobi_q`` and
``jacobi_q_log`` also take an ndarray of z for one triple, summed by code as
for P.

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
    NoConvergentPath,
    ValidityError,
    VanishingValue,
)
from .hypergeom import (
    MAP_LIMIT,
    _continued_2f1,
    _direct_2f1,
    _ohyp2f1_batch,
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
from .quadrature import integrate_finite, modulus, tanh_sinh_segment, where
from .result import EvalResult
from .scalar_kernel import log_gamma, pochhammer

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


def _q_log_prefactor(a: complex, b: complex, g: complex) -> complex:
    """log of 2^(a+b+g) Gamma(a+g+1) Gamma(b+g+1).

    Shared by all four representations; each adds its own powers of z -+ 1
    and multiplies the regularized 2F1 with lower parameter a+b+2g+2.  P's
    large-z connection sums its two 2F1 plain and moves their reciprocal
    gammas into its own log prefactors (``_connection_plan``).
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
    """Q's AUTO plan at z, a scalar or a 1-D ndarray: (codes, argument).

    REP1's y = 2/(1-z) is taken where |y| <= |x|, i.e. Re z <= 0, or where
    y = x = 0 (an infinite z with one finite part), else REP3's x = 2/(1+z),
    also at a z where neither is a number.  On the side taken |y - 1| <= 1
    (or |x - 1| <= 1), so the z/(z-1) map never shrinks the argument, and
    the side's series is summed directly: one that does not terminate has a
    path where MAP_LIMIT |1 -+ z| >= 2 and its argument is a number.  Those
    moduli have one set of bits in Python and numpy, so a point has one plan
    alone or in an array, though an array sums at numpy's quotient.  One
    code per triple, params and then others: a triple whose series
    terminates sums at any argument.
    """
    on_cut = Q_CUT.distance(z) < CUT_GUARD
    if on_cut is True:
        # A scalar on the cut, where a quotient may divide by 0.
        return (Q_ON_CUT,) * (1 + len(others)), z
    array = isinstance(z, np.ndarray)
    y, x = 2.0 / (1.0 - z), 2.0 / (1.0 + z)
    # Im z - Im z is 0, or NaN at a non-finite Im z.
    rep1 = (z.real <= z.imag - z.imag) | (y == x)
    argument = where(rep1, y, x)
    side = where(rep1, Q_REP1, Q_REP3)
    # A NaN argument (z with a NaN part or two infinite parts) has no path.
    refused = (MAP_LIMIT * modulus(where(rep1, 1.0 - z, 1.0 + z)) < 2.0) | (argument != argument)
    if not (refused.any() if array else refused):
        return (where(on_cut, Q_ON_CUT, side),) * (1 + len(others)), argument
    codes = []
    for t in (params, *others):
        a, b, g = complex(t.alpha), complex(t.beta), complex(t.gamma)
        code = side
        # Termination is tested only on a side that refused points take.
        for s, rep in _SIDES:
            here = refused & (side == s)
            if (here.any() if array else here) and termination_index(_q_terms(a, b, g, rep)[0]) is None:
                code = where(here, Q_NO_PATH, code)
        codes.append(where(on_cut, Q_ON_CUT, code))
    return tuple(codes), argument


def _q_parts(params: JacobiParams, z: complex, rep: Representation):
    """(log prefactor, hypergeometric SeriesValue, representation) at a scalar z.

    AUTO follows Q's plan of this triple at z: DomainCutError on the cut,
    NoConvergentPath where its series has no path, else the side's direct
    series at the plan's argument.  An explicit representation's 2F1 routes
    its own argument.
    """
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    argument, sum_2f1 = None, _continued_2f1
    if rep is Representation.AUTO:
        (code,), argument = _q_plan(params, z)
        _require_off_cut(Q_CUT, z, code == Q_ON_CUT)
        if code == Q_NO_PATH:
            raise NoConvergentPath(f"z={z}: Q's 2F1 argument is beyond {MAP_LIMIT}, and its series does not terminate")
        rep, sum_2f1 = Representation.REP1 if code == Q_REP1 else Representation.REP3, _direct_2f1
    else:
        _require_off_cut(Q_CUT, z)
    (p1, p2), on_y, e_m, e_p = _q_terms(a, b, g, rep)
    if argument is None:
        argument = 2.0 / (1.0 - z) if on_y else 2.0 / (1.0 + z)
    series = sum_2f1(p1, p2, a + b + 2.0 * g + 2.0, argument, True)
    # z - -1.0, not z + 1.0, keeps an imaginary part of -0.0 on (-oo, -1),
    # so that both logs take the limit from below; adding 1.0 makes it +0.0.
    logf = _q_log_prefactor(a, b, g) - e_m * cmath.log(z - 1.0) - e_p * cmath.log(z - -1.0)
    return logf, series, rep


def _log_value(logf: complex, value: complex, z: complex) -> complex:
    """logf + log(value): the log of a second-kind value from its log prefactor and 2F1 sum.

    VanishingValue where the sum is 0 or, as at an infinite z, the
    prefactor's log has real part -inf; NoConvergentPath where the sum is
    not finite.
    """
    if value == 0 or logf.real == -math.inf:
        raise VanishingValue(f"z={z}: log of a vanishing second-kind value")
    if not cmath.isfinite(value):
        raise NoConvergentPath(f"z={z}: Q's series is not finite")
    return logf + cmath.log(value)


def _connection_logs(z: complex, connection) -> list[complex]:
    """The two second-kind logs of P's large-z connection at a scalar z, from plain 2F1 series.

    ``connection`` is P's plan of it at z (``_connection_plan``), one that
    takes it: the triple and its companion, Q's plan of each (so each code
    sums its direct series) and their log prefactors.  The two share log(z
    -+ 1) and the argument; each raises as ``_log_value`` does.  A sum that
    is 0 within its error estimate, one whose terms cancelled every digit,
    also raises VanishingValue.
    """
    _, triples, codes, argument, bases = connection
    # z - -1.0 keeps a -0.0 imaginary part, as in ``_q_parts``.
    log_zm, log_zp = cmath.log(z - 1.0), cmath.log(z - -1.0)
    logs = []
    for t, code, base in zip(triples, codes, bases):
        a, b, g = complex(t.alpha), complex(t.beta), complex(t.gamma)
        (p1, p2), _, e_m, e_p = _q_terms(a, b, g, Representation.REP1 if code == Q_REP1 else Representation.REP3)
        series = _direct_2f1(p1, p2, a + b + 2.0 * g + 2.0, argument, False)
        logs.append(_log_value(base - e_m * log_zm - e_p * log_zp, series.value, z))
        if modulus(series.value) <= series.abs_error_estimate:
            raise VanishingValue(f"z={z}: a second-kind sum of the connection is 0 within its estimate")
    return logs


def _q_sum(params: JacobiParams, z: np.ndarray, code: np.ndarray, argument, log: bool, base=None):
    """Q (or its log) of a valid triple at the points of a 1-D z coded Q_REP1 or Q_REP3, by direct series.

    ``code`` and ``argument`` are the triple's plan at z.  With
    a log prefactor ``base`` the 2F1 is summed plain (P's connection),
    else regularized, with Q's own.  Returns (value or log, error estimate
    of the value, covered); a point is not covered where the 2F1 batch does
    not cover it, the value or log is not finite, or the log is taken of 0,
    or for P's connection of a sum 0 within its estimate: the scalar call
    raises or warns there.
    """
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    c = a + b + 2.0 * g + 2.0
    regularized = base is None
    base_log = _q_log_prefactor(a, b, g) if regularized else base
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
                series[idx], err[idx], covered[idx] = _ohyp2f1_batch(p1, p2, c, argument[idx], regularized)
                logf[idx] = base_log - e_m * log_zm[idx] - e_p * log_zp[idx]
        if log:
            out = logf + np.log(series)
            covered &= series != 0 if regularized else modulus(series) > err
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
            (code,), argument = _q_plan(params, zs)
        stop = _first(code >= Q_NO_PATH)
        code[stop:] = Q_ON_CUT
        out, err, covered = _q_sum(params, zs, code, argument, log)
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

    AUTO sums the series of the smaller argument, 2/(1-z) or 2/(1+z),
    directly: NoConvergentPath where it has no path, DomainCutError within
    CUT_GUARD of the cut, never CutError.  Explicit representations are
    evaluated as requested (the series layer maps a raw argument off the
    disk).

    A value that is not finite (a 2F1 sum past double range) raises
    NoConvergentPath.  Under AUTO, z may be an ndarray: the result then
    holds arrays of values and error estimates, and its provenance joins the
    representations taken with "+".
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
    if not cmath.isfinite(value):
        raise NoConvergentPath(f"z={z}: Q's value (rep{rep.value}) is not finite")
    return EvalResult(value, err, f"rep{rep.value}")


def jacobi_q_log(params: JacobiParams, z) -> complex:
    """log of the second-kind value; usable where the value itself overflows.

    z may be an ndarray; the result is then an array.  Where Q vanishes (a
    2F1 sum of 0, or an infinite z) it raises VanishingValue, and where its
    2F1 sum is not finite NoConvergentPath.
    """
    if isinstance(z, np.ndarray):
        return _array_call(_q_points, params, z, True)[0]
    _require_q_domain(params)
    z = complex(z)
    logf, series, _ = _q_parts(params, z, Representation.AUTO)
    return _log_value(logf, series.value, z)


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
