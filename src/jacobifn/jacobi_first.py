"""Jacobi function of the first kind for complex degree and parameters.

P is regular near z = 1 and cut along (-oo, -1].  Four Gauss hypergeometric
representations cover the plane: two in the variable (1-z)/2 and two in
(z-1)/(z+1).  AUTO picks the smallest-modulus argument; when neither series
argument is inside the safe disk (large |z|), evaluation falls back to the
two-solution decomposition in terms of the second-kind functions, whose
arguments shrink as |z| grows.  On [-1, 1], the second kind's cut, that
decomposition is undefined and AUTO stays with the slower series.

Under AUTO, ``jacobi_p`` and ``jacobi_p_scaled`` also take an ndarray of z
for one parameter triple.  The points are grouped by the scalar dispatch's
choice (REP1 or REP3, direct or through the argument map, the large-z
connection through batched second-kind logarithms, the slow series) and
each group is summed by the batched series; a point the batch does not
cover takes the scalar call, which raises its documented error there.  A
batch stops before the first point where the route predicates say the
scalar call raises, and the scalar call there raises, so an array is
evaluated only up to its first failing point (``_pointwise``); ``jacobifn
table`` reads the rows of the same pass.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainCutError, JacobiFnError, NoConvergentPath, ValidityError
from .hypergeom import (
    BATCH_NO_PATH,
    BATCH_OK,
    BATCH_POINTS,
    MAP_LIMIT,
    _ohyp2f1_batch,
    ohyp,
    ohyp2f1,
    power,
)
from .quadrature import CUT_GUARD, Cut, where
from .result import EvalResult
from .scalar_kernel import (
    exact_memo,
    gamma,
    is_gamma_pole,
    log_gamma,
    pochhammer,
    reciprocal_gamma,
)

AUTO_ARG_LIMIT = 0.75
# The cuts of the first kind and of the second kind.
P_CUT = Cut.left_ray(-1.0)
Q_CUT = Cut.segment(-1.0, 1.0)


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


def _require_off_cut(cut: Cut, z: complex) -> None:
    """Raise DomainCutError where z lies within CUT_GUARD of the cut."""
    if cut.distance(z) < CUT_GUARD:
        raise DomainCutError(f"z={z} on or too near the cut {cut}")


def _require_p_domain(params: JacobiParams, z: complex) -> None:
    if not params.first_kind_valid():
        raise ValidityError(
            f"alpha+gamma={complex(params.alpha) + complex(params.gamma)} is a negative integer"
        )
    _require_off_cut(P_CUT, z)


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
    ratio, so negative-integer alpha is fine.  x may be an ndarray.
    """
    if n < 0:
        raise ValueError("polynomial degree must be >= 0")
    alpha, beta = complex(alpha), complex(beta)
    x = np.asarray(x, dtype=complex) if isinstance(x, np.ndarray) else complex(x)
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


def _rep_terms(params: JacobiParams, z, rep: Representation):
    """(a, b, c, argument, factor) of the 2F1 in a single-2F1 representation.

    z is a scalar or an ndarray (argument and factor are then arrays).
    """
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    pre = _degree_prefactor(a, g)
    if rep is Representation.REP1:
        return -g, a + b + g + 1.0, a + 1.0, 0.5 * (1.0 - z), pre
    if rep is Representation.REP2:
        return -b - g, a + g + 1.0, a + 1.0, 0.5 * (1.0 - z), pre * power(2.0 / (z + 1.0), b)
    if rep is Representation.REP3:
        return -g, -b - g, a + 1.0, (z - 1.0) / (z + 1.0), pre * power(0.5 * (z + 1.0), g)
    if rep is Representation.REP4:
        s = a + b + g + 1.0
        return a + g + 1.0, s, a + 1.0, (z - 1.0) / (z + 1.0), pre * power(2.0 / (z + 1.0), s)
    raise ValueError("explicit representation required here")


def _apply_factor(factor, series, series_err):
    """(value, error estimate) of factor * series; scalars or ndarrays."""
    value = factor * series
    return value, abs(factor) * series_err + 1e-15 * abs(value)


def _rep_value(params: JacobiParams, z: complex, rep: Representation) -> EvalResult:
    a1, b1, c1, x, factor = _rep_terms(params, z, rep)
    series = ohyp2f1(a1, b1, c1, x)
    value, err = _apply_factor(factor, series.value, series.abs_error_estimate)
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


def _exp(w):
    """exp of a scalar (cmath) or an ndarray (numpy)."""
    return np.exp(w) if isinstance(w, np.ndarray) else cmath.exp(w)


def _connection_mix(coeffs, log1: complex, log2: complex):
    """(log_scale, mantissa) of A e^log1 + B e^log2, scaled by the larger term.

    Scalars or ndarrays of the two second-kind logs.
    """
    coef_a, coef_b, _ = coeffs
    first = log1.real >= log2.real
    ratio = _exp(where(first, log2 - log1, log1 - log2))
    return where(first, log1, log2), where(first, coef_a + coef_b * ratio, coef_a * ratio + coef_b)


def _connection_scaled(params: JacobiParams, z: complex) -> tuple[complex, complex]:
    """(log_scale, mantissa) of P via the second-kind pair; never overflows."""
    from .jacobi_second import jacobi_q_log

    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    coeffs = _connection_coeffs(a, b, g)
    log1 = jacobi_q_log(params, z)
    log2 = jacobi_q_log(JacobiParams(a, b, coeffs[2]), z)
    return _connection_mix(coeffs, log1, log2)


def _unscale(log_scale, mantissa):
    """(value, flat error estimate) of a connection value; scalars or ndarrays."""
    value = _exp(log_scale) * mantissa
    return value, 1e-13 * abs(value)


def _connection_value(params: JacobiParams, z: complex) -> EvalResult:
    value, err = _unscale(*_connection_scaled(params, z))
    return EvalResult(value, err, "connection")


def _effective_modulus(x):
    """Smallest series argument reachable through the internal argument map.

    x is a scalar or an ndarray; x = 1 (z = -1, on P's cut) never reaches it.
    """
    ax, au = abs(x), abs(x / (x - 1.0))
    return where(ax <= au, ax, au)


def _near_route(z):
    """AUTO's first choice at z, a scalar or an ndarray.

    Returns REP1's argument x1 = (1-z)/2, whether it or REP3's argument
    x2 = (z-1)/(z+1) lies in the preferred disk, and whether REP1 is taken
    there.
    """
    x1 = 0.5 * (1.0 - z)
    m1, m2 = abs(x1), abs((z - 1.0) / (z + 1.0))
    return x1, (m1 <= AUTO_ARG_LIMIT) | (m2 <= AUTO_ARG_LIMIT), m1 <= m2


def _far_route(z, x1):
    """AUTO's choice beyond the preferred disk, from REP1's argument x1.

    Returns whether the large-z connection is defined (z off Q's cut),
    whether the slow series is reachable, and the best modulus its argument
    map reaches.  The slow series is REP1: the map takes x1 to x1/(x1-1) =
    x2, and REP3's map takes x2 back to x1, so both representations would
    sum the same series on the smaller of |x1| and |x2|.
    """
    best = _effective_modulus(x1)
    return Q_CUT.distance(z) >= CUT_GUARD, best <= MAP_LIMIT, best


def _auto(params: JacobiParams, z: complex, connection):
    """AUTO dispatch of jacobi_p and jacobi_p_scaled.

    Takes the smallest-modulus series argument when one is inside the
    preferred disk.  Otherwise it returns connection(params, z) and falls back
    to a slow series while an argument map keeps the modulus below the hard
    limit.  On [-1, 1], Q's cut, the second-kind pair of the connection is
    undefined, so there the series is the only route.
    """
    x1, near, rep1 = _near_route(z)
    if near:
        return _rep_value(params, z, Representation.REP1 if rep1 else Representation.REP3)
    conn_ok, slow_ok, best = _far_route(z, x1)
    if conn_ok:
        try:
            return connection(params, z)
        except NoConvergentPath:
            if not slow_ok:
                raise
    elif not slow_ok:
        raise NoConvergentPath(
            f"z={z} on [-1, 1]: no argument map reaches modulus {MAP_LIMIT} "
            f"(best {best:.4f})"
        )
    return _rep_value(params, z, Representation.REP1)


# Provenance of an AUTO value, by code.
_PROVENANCE = ("rep1", "rep3", "connection")


def _first(mask: np.ndarray) -> int:
    """Index of the first True of a 1-D mask, or its size when there is none."""
    return int(mask.argmax()) if mask.any() else mask.size


def _rep_batch(params: JacobiParams, z: np.ndarray, rep: Representation):
    """(value, error estimate, covered) of a representation at every point of z."""
    a1, b1, c1, x, factor = _rep_terms(params, z, rep)
    series, serr, status = _ohyp2f1_batch(a1, b1, c1, x)
    return (*_apply_factor(factor, series, serr), status == BATCH_OK)


def _connection_batch(params: JacobiParams, z: np.ndarray, coeffs):
    """(log_scale, mantissa, status) of the large-z connection at every point.

    The status is BATCH_NO_PATH where the scalar connection raises
    NoConvergentPath: the first second-kind log has no path, or the first
    is covered and the second has none.
    """
    from .jacobi_second import _q_batch

    a, b = complex(params.alpha), complex(params.beta)
    log1, _, status1, _, _ = _q_batch(params, z, log=True)
    log2, _, status2, _, _ = _q_batch(JacobiParams(a, b, coeffs[2]), z, log=True)
    with np.errstate(over="ignore", invalid="ignore"):
        log_scale, mantissa = _connection_mix(coeffs, log1, log2)
    return log_scale, mantissa, np.where(status1 == BATCH_OK, status2, status1)


def _auto_batch(params: JacobiParams, z: np.ndarray):
    """The AUTO dispatch of ``_auto`` at every point of a 1-D array z.

    Returns (log_scale, mantissa, error estimate, provenance code, covered,
    stop); the error estimate of a connection value is left to the caller.
    Only the points before ``stop`` are evaluated: it is the first point
    where ``_auto``'s predicates say the scalar call raises (an invalid
    triple, z on the cut, or neither the connection nor the slow series
    beyond the preferred disk), or the size of z.  A point is not covered
    where the scalar call raises or where a batched route could not decide;
    the caller evaluates it with the scalar call.
    """
    n = z.size
    log_scale = np.zeros(n, dtype=complex)
    mantissa = np.zeros(n, dtype=complex)
    err = np.zeros(n)
    code = np.zeros(n, dtype=np.int8)
    covered = np.zeros(n, dtype=bool)
    if not params.first_kind_valid():
        return log_scale, mantissa, err, code, covered, 0
    with np.errstate(divide="ignore", invalid="ignore"):
        x1, near, rep1 = _near_route(z)
        conn_ok, slow_ok, _ = _far_route(z, x1)
    inside = P_CUT.distance(z) >= CUT_GUARD
    stop = _first(~inside | ~(near | conn_ok | slow_ok))
    inside[stop:] = False
    near &= inside
    far = inside & ~near
    conn = far & conn_ok
    slow = far & ~conn_ok & slow_ok
    if conn.any():
        a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
        try:
            coeffs = _connection_coeffs(a, b, g)
        except NoConvergentPath:
            slow |= conn & slow_ok
        else:
            idx = np.flatnonzero(conn)
            ls, mt, status = _connection_batch(params, z[idx], coeffs)
            log_scale[idx], mantissa[idx], code[idx] = ls, mt, 2
            covered[idx] = status == BATCH_OK
            slow[idx] = (status == BATCH_NO_PATH) & slow_ok[idx]
    groups = ((near & rep1) | slow, Representation.REP1), (near & ~rep1, Representation.REP3)
    for mask, rep in groups:
        if mask.any():
            idx = np.flatnonzero(mask)
            log_scale[idx] = 0.0
            mantissa[idx], err[idx], covered[idx] = _rep_batch(params, z[idx], rep)
            code[idx] = 0 if rep is Representation.REP1 else 1
    return log_scale, mantissa, err, code, covered, stop


def _pointwise(block, scalar, n: int):
    """Evaluate points 0..n-1 in order, up to the first one that raises.

    ``block(lo, hi)`` evaluates points lo..hi-1, at most BATCH_POINTS of
    them, with the batch, which stops before the first point where the
    route predicates say the scalar call raises; it returns the mask of the
    points it covered before that point, and the point's index (hi if
    none).  ``scalar(i)`` evaluates point i with the scalar call.  Both
    write into the caller's arrays.  The scalar call at a predicted failure
    raises, so nothing after the first failing point is evaluated; a point
    marked wrongly just returns its value.  Returns None, or (index, error)
    of the first point that raised a JacobiFnError.
    """
    start = 0
    while start < n:
        hi = min(n, start + BATCH_POINTS)
        covered, stop = block(start, hi)
        todo = (start + np.flatnonzero(~covered)).tolist()
        if stop < hi:
            todo.append(stop)
        for i in todo:
            try:
                scalar(i)
            except JacobiFnError as exc:
                return i, exc
        start = stop + 1 if stop < hi else hi
    return None


def _p_points(params: JacobiParams, z: np.ndarray, scaled: bool = False):
    """``jacobi_p`` (or ``jacobi_p_scaled``) under AUTO at the points of a 1-D z.

    Returns (log_scale, value, error estimate, provenance code, failure):
    per point what the scalar call returns (the log scale only when scaled;
    the code indexes ``_PROVENANCE``), up to the first point where it
    raises, and ``_pointwise``'s failure.
    """
    n = z.size
    log_scale = np.zeros(n, dtype=complex)
    value = np.zeros(n, dtype=complex)
    err = np.zeros(n)
    code = np.zeros(n, dtype=np.int8)

    def block(lo: int, hi: int):
        ls, v, e, c, covered, stop = _auto_batch(params, z[lo:hi])
        if not scaled:
            conn = c == 2
            with np.errstate(over="ignore", invalid="ignore"):
                v[conn], e[conn] = _unscale(ls[conn], v[conn])
            covered &= np.isfinite(v)
        log_scale[lo:hi], value[lo:hi], err[lo:hi], code[lo:hi] = ls, v, e, c
        return covered[:stop], lo + stop

    def scalar(i: int) -> None:
        w = complex(z[i])
        if scaled:
            log_scale[i], value[i] = jacobi_p_scaled(params, w)
        else:
            res = jacobi_p(params, w)
            value[i], err[i] = res.value, res.abs_error_estimate
            code[i] = _PROVENANCE.index(res.provenance)

    failure = _pointwise(block, scalar, n)
    return log_scale, value, err, code, failure


def _p_batch(params: JacobiParams, z: np.ndarray, scaled: bool):
    """Batched ``jacobi_p`` (an EvalResult) or ``jacobi_p_scaled`` (a pair)."""
    shape = z.shape
    log_scale, value, err, code, failure = _p_points(
        params, np.asarray(z, dtype=complex).ravel(), scaled
    )
    if failure is not None:
        raise failure[1]
    if scaled:
        return log_scale.reshape(shape), value.reshape(shape)
    return EvalResult(value.reshape(shape), err.reshape(shape), _joined(code))


def _joined(code: np.ndarray) -> str:
    """The provenance of an array result: the routes taken, joined with "+"."""
    return "+".join(sorted(_PROVENANCE[c] for c in set(code.tolist())))


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

    Under AUTO, z may be an ndarray: the result then holds arrays of values
    and error estimates, and its provenance joins the routes taken with "+".
    """
    if isinstance(z, np.ndarray):
        if rep is not Representation.AUTO:
            raise ValueError("an array of z needs Representation.AUTO")
        return _p_batch(params, z, scaled=False)
    z = complex(z)
    _require_p_domain(params, z)
    if rep is not Representation.AUTO:
        return _rep_value(params, z, rep)
    return _auto(params, z, _connection_value)


def jacobi_p_scaled(params: JacobiParams, z) -> tuple[complex, complex]:
    """P as (log_scale, mantissa) with value = exp(log_scale) * mantissa.

    The scaled form stays representable along rays to infinity where the
    dominant solution branch overflows a double.  z may be an ndarray; the
    pair then holds arrays.
    """
    if isinstance(z, np.ndarray):
        return _p_batch(params, z, scaled=True)
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
        * power(0.5 * (1.0 - z), n - 1)
        * series.value
    )
    return lhs, rhs
