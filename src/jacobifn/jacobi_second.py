"""Jacobi function of the second kind on the cut plane C \\ [-1, 1].

Four Gauss hypergeometric representations (arguments 2/(1-z) and 2/(1+z)),
the weighted-kernel integral representation, its shifted variant with an
interior Jacobi polynomial, and the integer-degree Neumann-type integral.

Under AUTO, ``jacobi_q`` and ``jacobi_q_log`` also take an ndarray of z for
one parameter triple: REP1 and REP3 points are summed by the batched series,
and a point the batch does not cover takes the scalar call, which raises its
documented error there.  As for P, evaluation stops at the first point
where the scalar call raises.

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
    BATCH_OK,
    BATCH_SCALAR,
    _ohyp2f1_batch,
    _raises,
    ohyp2f1,
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
    _first,
    _joined,
    _memo_key,
    _pointwise,
    _require_finite,
    _require_off_cut,
    jacobi_polynomial,
)
from .quadrature import integrate_finite, tanh_sinh_segment
from .result import EvalResult
from .scalar_kernel import exact_memo, log_gamma, pochhammer

_MAX_AUTO_SHIFT = 8


@dataclass(frozen=True)
class QIntegralSpec:
    """Weighted-kernel integral evaluation request; shift_k = 0 is unshifted."""

    params: JacobiParams
    z: complex
    shift_k: int = 0


def _require_q_domain(params: JacobiParams, z: complex) -> None:
    if not params.second_kind_valid():
        _require_finite(params)
        raise ValidityError(
            "alpha+gamma or beta+gamma is a negative integer "
            f"({complex(params.alpha) + complex(params.gamma)}, "
            f"{complex(params.beta) + complex(params.gamma)})"
        )
    _require_off_cut(Q_CUT, z)


@exact_memo
def _q_log_prefactor(a: complex, b: complex, g: complex) -> complex:
    """log of 2^(a+b+g) Gamma(a+g+1) Gamma(b+g+1); memoized per triple.

    Shared by all four representations; each adds its own powers of z -+ 1.
    """
    return (a + b + g) * math.log(2.0) + log_gamma(a + g + 1.0) + log_gamma(b + g + 1.0)


def _q_route(z):
    """Q's AUTO arguments y = 2/(1-z), x = 2/(1+z) and whether REP1 (on y)
    is taken rather than REP3 (on x); z a scalar or an ndarray."""
    y = 2.0 / (1.0 - z)
    x = 2.0 / (1.0 + z)
    return y, x, abs(y) <= abs(x)


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


def _q_parts(
    params: JacobiParams, z: complex, rep: Representation
) -> tuple[complex, "object", Representation]:
    """(log prefactor, hypergeometric SeriesValue, chosen representation)."""
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    y, x, rep1 = _q_route(z)
    if rep is Representation.AUTO:
        rep = Representation.REP1 if rep1 else Representation.REP3
    (p1, p2), on_y, e_m, e_p = _q_terms(a, b, g, rep)
    series = ohyp2f1(p1, p2, a + b + 2.0 * g + 2.0, y if on_y else x)
    # z - -1.0, not z + 1.0, keeps an imaginary part of -0.0 on (-oo, -1),
    # so that both logs take the limit from below; adding 1.0 makes it +0.0.
    logf = (
        _q_log_prefactor(a, b, g) - e_m * cmath.log(z - 1.0) - e_p * cmath.log(z - -1.0)
    )
    return logf, series, rep


def _q_batch(params: JacobiParams, z: np.ndarray, log: bool, until_failure: bool = False):
    """Q (or its log) under AUTO at every point of a 1-D array z.

    Returns (value or log, error estimate of the value, status, REP1 mask,
    stop), with the status codes of ``_ohyp2f1_batch``.  With
    ``until_failure`` only the points before ``stop`` are evaluated: the
    first point where the scalar call raises by the route predicates (an
    invalid triple, z on the cut, or a chosen series with no path), or the
    size of z.  Without it, as for the connection of P, which falls back
    per point where its second-kind logs have no path, stop is the size of
    z.  The caller evaluates the points not covered with the scalar call.
    """
    n = z.size
    out = np.zeros(n, dtype=complex)
    err = np.zeros(n)
    status = np.full(n, BATCH_SCALAR, dtype=np.int8)
    rep1 = np.zeros(n, dtype=bool)
    if not params.second_kind_valid():
        return out, err, status, rep1, 0 if until_failure else n
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    inside = Q_CUT.distance(z) >= CUT_GUARD
    with np.errstate(divide="ignore", invalid="ignore"):
        y, x, rep1 = _q_route(z)
        # z - -1.0 keeps a -0.0 imaginary part, as in ``_q_parts``.
        log_zm, log_zp = np.log(z - 1.0), np.log(z - -1.0)
    stop = n
    if until_failure:
        grows1, grows3 = (
            termination_index(_q_terms(a, b, g, rep)[0]) is None
            for rep in (Representation.REP1, Representation.REP3)
        )
        stop = _first(~inside | (np.where(rep1, grows1, grows3) & _raises(np.where(rep1, y, x))))
        inside[stop:] = False
    rep1 &= inside
    c = a + b + 2.0 * g + 2.0
    base_log = _q_log_prefactor(a, b, g)
    series = np.zeros(n, dtype=complex)
    serr = np.zeros(n)
    logf = np.zeros(n, dtype=complex)
    for mask, rep in ((rep1, Representation.REP1), (inside & ~rep1, Representation.REP3)):
        if mask.any():
            idx = np.flatnonzero(mask)
            (p1, p2), on_y, e_m, e_p = _q_terms(a, b, g, rep)
            arg = (y if on_y else x)[idx]
            series[idx], serr[idx], status[idx] = _ohyp2f1_batch(p1, p2, c, arg)
            # An infinite z has infinite logs, whose products form inf * 0;
            # its value is not finite, so the scalar call takes it.
            with np.errstate(invalid="ignore"):
                logf[idx] = base_log - e_m * log_zm[idx] - e_p * log_zp[idx]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if log:
            out = logf + np.log(series)
        else:
            out, err = _apply_factor(np.exp(logf), series, serr)
    # The scalar call raises where the value overflows or its log is taken of 0.
    bad = ~np.isfinite(out)
    if log:
        bad |= series == 0
    status[(status == BATCH_OK) & bad] = BATCH_SCALAR
    return out, err, status, rep1, stop


def _q_points(params: JacobiParams, z: np.ndarray, log: bool = False, memo: bool = True):
    """``jacobi_q`` (or ``jacobi_q_log``) under AUTO at the points of a 1-D z.

    Returns ``_pointwise``'s columns (value or log, error estimate,
    provenance code) and failure, as ``_p_points`` does; the code indexes
    ``_PROVENANCE`` (rep1 or rep3).  Without memo, ``POINTS_MEMO`` is
    neither read nor filled.
    """

    def batch(zs: np.ndarray):
        v, e, status, rep1, stop = _q_batch(params, zs, log, until_failure=True)
        return (v, e, ~rep1), status == BATCH_OK, stop

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
        (value, err, code), failure = _q_points(params, np.asarray(z, dtype=complex).ravel())
        if failure is not None:
            raise failure[1]
        return EvalResult(value.reshape(z.shape), err.reshape(z.shape), _joined(code))
    z = complex(z)
    _require_q_domain(params, z)
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
        (out, _, _), failure = _q_points(params, np.asarray(z, dtype=complex).ravel(), log=True)
        if failure is not None:
            raise failure[1]
        return out.reshape(z.shape)
    z = complex(z)
    _require_q_domain(params, z)
    logf, series, _ = _q_parts(params, z, Representation.AUTO)
    # At an infinite z the prefactor's log has real part -inf: Q is 0 there.
    if series.value == 0 or logf.real == -math.inf:
        raise VanishingValue(f"z={z}: log of a vanishing second-kind value")
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
