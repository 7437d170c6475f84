"""Jacobi function of the first kind for complex degree and parameters.

P is regular near z = 1 and cut along (-oo, -1].  Four Gauss hypergeometric
representations cover the plane: two in the variable (1-z)/2 and two in
(z-1)/(z+1).  Under AUTO one plan (``_p_plan``), shared by scalar and array
calls, gives each point a code: REP1 or REP3, the smaller argument, where
one is inside the preferred disk.  Beyond it, REP1_BEYOND for a terminating
REP1 (gamma in N0, the Jacobi polynomials, or alpha+beta+gamma+1 in -N0),
whose exact finite sum serves at every z where it is finite; else
CONNECTION, the two-solution decomposition in terms of the second-kind
functions, whose arguments shrink as |z| grows; where that is undefined (on
[-1, 1], the second kind's cut) or has no path, the smaller argument's
series within MAP_LIMIT (REP1_BEYOND or REP3), else NO_PATH.  ON_CUT on P's
cut.  No code takes the 2F1's z/(z-1) map, so under AUTO P raises
DomainCutError within CUT_GUARD of its cut, NoConvergentPath where no
series converges, and never CutError.

A scalar call evaluates its point's code.  ``jacobi_p`` and
``jacobi_p_scaled`` also take an ndarray of z for one triple: its points are
grouped by code and each group is summed by the batched series, up to the
first point coded NO_PATH or ON_CUT; that point and any the batch does not
cover take the scalar call, which raises its documented error there
(``_pointwise``).  ``jacobifn table`` reads the rows of the same pass.
"""

from __future__ import annotations

import cmath
import enum
import math
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainCutError,
    FactorOverflow,
    JacobiFnError,
    NoConvergentPath,
    ValidityError,
    VanishingValue,
)
from .hypergeom import (
    BATCH_POINTS,
    MAP_LIMIT,
    _continued_2f1,
    _direct_2f1,
    _ohyp2f1_batch,
    ohyp,
    power,
    termination_index,
)
from .quadrature import CUT_GUARD, Cut, modulus, where
from .result import EvalResult
from .scalar_kernel import (
    gamma,
    is_gamma_pole,
    log_gamma,
    pochhammer,
    reciprocal_gamma,
)

AUTO_ARG_LIMIT = 0.75
# Points held by the memo of ``_pointwise``.  The identities of one
# verify run that share a sampler ask for P or Q of one triple at the same
# contour or quadrature nodes; calls hold a few to a few thousand points, so
# the bound counts points, not calls.  On ``verify --all --seed 7``, 8,192
# points serve 2,155 of the 3,730 calls, as 16,384 do, and 4,096 serve 1,437.
MEMO_POINTS = 8_192
# The cuts of the first kind and of the second kind.
P_CUT = Cut.left_ray(-1.0)
Q_CUT = Cut.segment(-1.0, 1.0)


@dataclass(frozen=True)
class JacobiParams:
    """Parameter triple (alpha, beta, gamma) with validity predicates."""

    alpha: complex
    beta: complex
    gamma: complex

    def finite(self) -> bool:
        """alpha, beta and gamma all finite."""
        return (
            cmath.isfinite(complex(self.alpha))
            and cmath.isfinite(complex(self.beta))
            and cmath.isfinite(complex(self.gamma))
        )

    def first_kind_valid(self) -> bool:
        """Finite, with alpha + gamma not a negative integer."""
        return self.finite() and not is_gamma_pole(complex(self.alpha) + complex(self.gamma) + 1.0)

    def second_kind_valid(self) -> bool:
        """Finite, with alpha + gamma and beta + gamma both off the negative integers."""
        return self.first_kind_valid() and not is_gamma_pole(
            complex(self.beta) + complex(self.gamma) + 1.0
        )


class Representation(enum.Enum):
    """Which single-2F1 representation to evaluate (AUTO = pick by argument)."""

    REP1 = 1
    REP2 = 2
    REP3 = 3
    REP4 = 4
    AUTO = 0


def _require_off_cut(cut: Cut, z: complex, on_cut: bool | None = None) -> None:
    """Raise DomainCutError where z lies within CUT_GUARD of the cut (``on_cut``, if a plan measured it)."""
    if cut.distance(z) < CUT_GUARD if on_cut is None else on_cut:
        raise DomainCutError(f"z={z} on or too near the cut {cut}")


def _require_finite(params: JacobiParams) -> None:
    """Raise ValidityError where alpha, beta or gamma is not finite."""
    if not params.finite():
        raise ValidityError(f"alpha, beta and gamma must be finite, not {params}")


def _require_p_domain(params: JacobiParams, z: complex | None = None) -> None:
    """Raise ValidityError for a triple off P's domain, then DomainCutError where a given z is on its cut."""
    if not params.first_kind_valid():
        _require_finite(params)
        raise ValidityError(
            f"alpha+gamma={complex(params.alpha) + complex(params.gamma)} is a negative integer"
        )
    if z is not None:
        _require_off_cut(P_CUT, z)


def _degree_prefactor(alpha: complex, gam: complex) -> complex:
    """Gamma(alpha+gamma+1) / Gamma(gamma+1), in log space.

    The zero of 1/Gamma(gamma+1) at gamma in -N, tested exactly, makes the
    whole function vanish there (admissible once alpha+gamma stays off -N).
    A ratio past double range raises FactorOverflow.
    """
    g1 = gam + 1.0
    if g1.imag == 0.0 and g1.real <= 0.0 and g1.real.is_integer():
        return 0.0 + 0.0j
    try:
        return cmath.exp(log_gamma(alpha + gam + 1.0) - log_gamma(g1))
    except OverflowError:
        raise FactorOverflow(
            f"Gamma({alpha + gam + 1.0}) / Gamma({gam + 1.0}) is past double range"
        ) from None


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


def _rep_value(params: JacobiParams, z: complex, rep: Representation, direct: bool = False) -> EvalResult:
    """A representation at a scalar z: its 2F1 by the direct series (P's plan), or routed by the continuation."""
    a1, b1, c1, x, factor = _rep_terms(params, z, rep)
    series = (_direct_2f1 if direct else _continued_2f1)(a1, b1, c1, x, True)
    value, err = _apply_factor(factor, series.value, series.abs_error_estimate)
    return EvalResult(value, err, f"rep{rep.value}")


def _sine_overflow(a: complex, b: complex, g: complex) -> FactorOverflow:
    """The error of a connection coefficient whose sine passes double range."""
    return FactorOverflow(f"a sine of the large-z connection of ({a}, {b}, {g}) is past double range")


def _connection_coeffs(a: complex, b: complex, g: complex) -> tuple[complex, complex, complex]:
    """Coefficients (A', B', companion degree) of the two-solution split, for plain series.

    P_g^(a,b) = A Q_g^(a,b) + B Q_{-a-b-g-1}^(a,b) / (Gamma(-b-g) Gamma(-a-g)),
    built from the 1 <-> oo connection of the hypergeometric series, with
    s = a+b+2g, A = 2 sin(pi g) sin(pi(b+g)) / (pi sin(pi s)) and
    B = -2 pi / (Gamma(g+1) Gamma(a+b+g+1) sin(pi s)).  Each Q is a
    prefactor times a regularized 2F1 whose lower parameter is s+2 for the
    triple and -s for its companion.  The connection sums both 2F1 plain
    and folds their 1/Gamma(c) into the coefficients: 1/Gamma(s+2) =
    1/((1+s) Gamma(1+s)), and 1/Gamma(-s) = -Gamma(1+s) sin(pi s)/pi
    (DLMF 5.5.3), which cancels B's 1/sin(pi s); the companion prefactor's
    gammas cancel 1/(Gamma(-b-g) Gamma(-a-g)).  So A' = A/(1+s) and B' =
    2/(Gamma(g+1) Gamma(a+b+g+1)); the shared Gamma(1+s) is carried in the
    log prefactors of ``_connection_plan``, so that it cannot overflow.
    Degenerate on the resonant set where the two large-z exponents merge
    or a second-kind solution becomes invalid: the companion's, or the
    triple's own at beta+gamma in -N.  Where one of its sines passes double
    range (sin(pi w) from |Im w| of about 226, so from |Im gamma| of about
    113 for the catalog's alpha and beta) it raises
    FactorOverflow: the values the connection returned just short of that
    were already far outside their flat estimate.
    """
    s = a + b + 2.0 * g
    try:
        denom = cmath.sin(math.pi * s)
    except OverflowError:
        raise _sine_overflow(a, b, g) from None
    if abs(denom) < 1e-8:
        raise NoConvergentPath("degenerate large-z connection (resonant exponents)")
    for w in (a + g, b + g):
        m = round(w.real)
        if m >= 0 and abs(w - m) < 0.02 or is_gamma_pole(w + 1.0):
            raise NoConvergentPath(
                "degenerate large-z connection (second-kind solution invalid)"
            )
    try:
        coef_a = 2.0 * cmath.sin(math.pi * g) * cmath.sin(math.pi * (b + g)) / (math.pi * denom * (1.0 + s))
    except OverflowError:
        raise _sine_overflow(a, b, g) from None
    coef_b = 2.0 * reciprocal_gamma(g + 1.0) * reciprocal_gamma(a + b + g + 1.0)
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


def _unscale(log_scale, mantissa):
    """(value, flat error estimate) of a connection value; scalars or ndarrays.

    A value past double range is not finite.  Where exp(log_scale) alone
    overflows, as where log_scale carries the connection's log Gamma(1+s)
    and the mantissa a small B', a scalar's value is exp(log_scale + log
    mantissa); an array's is not finite there, so its point takes the
    scalar call.  |value| is ``modulus``'s, so a point's estimate has one
    set of bits alone and in an array.
    """
    try:
        value = _exp(log_scale) * mantissa
    except OverflowError:
        try:
            value = cmath.exp(log_scale + cmath.log(mantissa))
        except (OverflowError, ValueError):
            # ValueError: the log of a zero mantissa.
            value = complex(math.inf, 0.0)
    return value, 1e-13 * modulus(value)


def _terminates(params: JacobiParams) -> bool:
    """Whether REP1's 2F1 terminates: gamma in N0, or alpha+beta+gamma+1 in -N0."""
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    return termination_index((-g, a + b + g + 1.0)) is not None


# Codes of P's AUTO plan; the first three index _PROVENANCE.
P_REP1, P_REP3, P_CONNECTION, P_REP1_BEYOND, P_NO_PATH, P_ON_CUT = range(6)


def _connection_plan(params: JacobiParams, z, beyond):
    """(taken, (coefficients, triples, codes, argument, bases)) of P's large-z connection at z.

    z is a scalar or a 1-D ndarray, ``beyond`` (a mask) its points that ask
    for it.  Taken where both second-kind logs sum: Q's plan at z, for the
    triple and its companion of degree -a-b-g-1.  Only where a point of
    ``beyond`` takes it are the coefficients formed (``_connection_coeffs``)
    and the plain series' log prefactors ``bases``: Q's own less log
    Gamma(1+s), and the companion's power of 2 plus log Gamma(1+s), s =
    a+b+2g.  Else, as on the resonant set, (False, None).
    """
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    g2 = -a - b - g - 1.0
    triples = params, JacobiParams(a, b, g2)
    codes, argument = _second._q_plan(params, z, triples[1])
    taken = where(codes[0] >= codes[1], codes[0], codes[1]) < _second.Q_NO_PATH
    if not ((taken & beyond).any() if isinstance(z, np.ndarray) else taken and beyond):
        return False, None
    try:
        coeffs = _connection_coeffs(a, b, g)
    except NoConvergentPath:
        return False, None
    shared = log_gamma(a + b + 2.0 * g + 1.0)
    bases = _second._q_log_prefactor(a, b, g) - shared, (a + b + g2) * math.log(2.0) + shared
    return taken, (coeffs, triples, codes, argument, bases)


def _p_plan(params: JacobiParams, z, connect: bool = True):
    """P's AUTO plan at z, a scalar or a 1-D ndarray, for a valid triple: (code, connection).

    Each code names one representation summed by its direct series, or its
    exact finite sum.  The disk |z+1| <= 2 takes REP1's x1 = (1-z)/2, the
    rest REP3's x2 = (z-1)/(z+1), the smaller.  Beyond AUTO_ARG_LIMIT a
    terminating REP1 is REP1_BEYOND; else the connection where
    ``_connection_plan`` takes it (if ``connect``), whose plan is
    ``connection``; else the same series within MAP_LIMIT (REP1_BEYOND or
    REP3: Pfaff's map of REP1's series is REP3's, DLMF 15.8.1), and NO_PATH
    beyond.  A point has one plan alone or in an array: only moduli and the
    parts of z enter.
    """
    dp = modulus(z + 1.0)
    rep1 = dp <= 2.0
    arg = modulus(z - 1.0) / where(rep1, 2.0, dp)
    code = where(arg <= AUTO_ARG_LIMIT, where(rep1, P_REP1, P_REP3), P_REP1_BEYOND)
    # P_CUT.distance(z), from the same |z+1|.
    code = where(where(z.real <= -1.0, abs(z.imag), dp) < CUT_GUARD, P_ON_CUT, code)
    beyond = code == P_REP1_BEYOND
    if not (beyond.any() if isinstance(z, np.ndarray) else beyond) or _terminates(params):
        return code, None
    taken, connection = _connection_plan(params, z, beyond) if connect else (False, None)
    far = where(taken, P_CONNECTION, where(arg <= MAP_LIMIT, where(rep1, P_REP1_BEYOND, P_REP3), P_NO_PATH))
    return where(beyond, far, code), connection


def _plan_value(params: JacobiParams, z: complex, code: int) -> EvalResult:
    """The representation of a code of P's plan at a scalar z, by its direct series; NoConvergentPath for NO_PATH."""
    if code == P_NO_PATH:
        raise NoConvergentPath(f"z={z}: no argument of P's series is within {MAP_LIMIT}")
    return _rep_value(params, z, Representation.REP3 if code == P_REP3 else Representation.REP1, True)


def _auto(params: JacobiParams, z: complex):
    """AUTO dispatch of jacobi_p and jacobi_p_scaled at a scalar z: its code of ``_p_plan``.

    Returns (log_scale, mantissa, error estimate, provenance); the error
    estimate of a connection value is left to ``_unscale``.  Two fallbacks
    follow values: where a terminating REP1's sum is not finite, the
    connection if ``_connection_plan`` takes it; where the connection takes
    the log of a vanishing second-kind value (as at an infinite z), the
    plan's code without the connection.
    """
    _require_p_domain(params)
    code, connection = _p_plan(params, z)
    _require_off_cut(P_CUT, z, code == P_ON_CUT)
    res = None
    if code != P_CONNECTION:
        res = _plan_value(params, z, code)
    if code == P_REP1_BEYOND and not cmath.isfinite(res.value) and _terminates(params):
        taken, connection = _connection_plan(params, z, True)
        code = P_CONNECTION if taken else code
    if code == P_CONNECTION:
        try:
            logs = _second._connection_logs(z, connection)
            return (*_connection_mix(connection[0], *logs), 0.0, "connection")
        except VanishingValue:
            res = res or _plan_value(params, z, _p_plan(params, z, False)[0])
    return 0.0 + 0.0j, res.value, res.abs_error_estimate, res.provenance


# Provenance of an AUTO value, by code.
_PROVENANCE = ("rep1", "rep3", "connection")


def _first(mask: np.ndarray) -> int:
    """Index of the first True of a 1-D mask, or its size when there is none."""
    return int(mask.argmax()) if mask.any() else mask.size


class MemoInfo(NamedTuple):
    """Counters of a PointsMemo, in the style of functools' CacheInfo."""

    hits: int
    misses: int
    budget: int
    points: int


class PointsMemo:
    """LRU memo of ``_pointwise``'s columns, bounded by the points it holds.

    The key is exact: the caller's key (the function, its flag and the bits
    of its triple) with the dtype and bytes of z, so that 0.0 and -0.0, whose
    values differ across a branch cut, are two keys.  It keeps copies and a
    hit returns copies, so a caller that writes into a result changes no
    later one.  An empty call, or one larger than the budget, is not kept.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.cache_clear()

    def get(self, key):
        """Copies of the columns kept under key, or None."""
        columns = self._entries.get(key)
        if columns is None:
            self._misses += 1
            return None
        self._hits += 1
        self._entries.move_to_end(key)
        return tuple(column.copy() for column in columns)

    def put(self, key, columns) -> None:
        """Keep copies of columns under key, dropping the least recently used."""
        n = columns[0].size
        if not 0 < n <= self.budget:
            return
        self._entries[key] = tuple(column.copy() for column in columns)
        self._points += n
        while self._points > self.budget:
            _, dropped = self._entries.popitem(last=False)
            self._points -= dropped[0].size

    def cache_info(self) -> MemoInfo:
        return MemoInfo(self._hits, self._misses, self.budget, self._points)

    def cache_clear(self) -> None:
        self._entries: OrderedDict = OrderedDict()
        self._hits = self._misses = self._points = 0


# One memo serves P and Q: ``_p_points`` and ``_q_points`` key it by name.
POINTS_MEMO = PointsMemo(MEMO_POINTS)
_TRIPLE = struct.Struct("6d")


def _memo_key(name: str, flag: bool, params: JacobiParams) -> tuple:
    """The caller's part of a ``POINTS_MEMO`` key: name, flag and triple bits."""
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    return name, flag, _TRIPLE.pack(a.real, a.imag, b.real, b.imag, g.real, g.imag)


def _rep_batch(params: JacobiParams, z: np.ndarray, rep: Representation):
    """(value, error estimate, covered) of a representation at every point of z, by its direct series.

    A row whose terminating sum overflows is not covered, and warns nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a1, b1, c1, x, factor = _rep_terms(params, z, rep)
        series, serr, covered = _ohyp2f1_batch(a1, b1, c1, x)
        return (*_apply_factor(factor, series, serr), covered)


def _connection_batch(z: np.ndarray, coeffs, triples, codes, argument, bases):
    """(log_scale, mantissa, covered) of the large-z connection at every point of z.

    The second-kind logs of its triples follow Q's plan at z, with plain
    series and the plan's log prefactors ``bases``; a point is covered
    where both are.
    """
    (log1, _, ok1), (log2, _, ok2) = (
        _second._q_sum(t, z, code, argument, True, base)
        for t, code, base in zip(triples, codes, bases)
    )
    with np.errstate(over="ignore", invalid="ignore"):
        log_scale, mantissa = _connection_mix(coeffs, log1, log2)
    return log_scale, mantissa, ok1 & ok2


def _pointwise(batch, scalar, z: np.ndarray, dtypes, key: tuple | None):
    """Evaluate the points of a 1-D z in order, up to the first one that raises.

    Returns the columns, arrays of the given dtypes, and None or (index,
    error) of the first point that raised a JacobiFnError.  ``batch(zs)``
    evaluates at most BATCH_POINTS points and returns their rows of the
    columns (or fewer columns), the mask of the points it covered, and the
    index of the first point whose plan code says the scalar call raises
    (the size of zs if none); it evaluates nothing from there on.
    ``scalar(w)`` returns the leading entries of the columns at w from the
    scalar call.  It serves the points the batch did not cover and the
    predicted failure, which raises, so nothing after the first failing
    point is evaluated; a point marked wrongly would just return its value.
    The batch predicts the failure because a failing table stops there: the
    points after it would be evaluated for nothing.

    ``POINTS_MEMO`` keeps the columns under key (from ``_memo_key``) and the
    bytes of z; a key of None skips it.  A call where a point raised or
    took the scalar call, which may warn, is not kept, so a repeated call
    raises or warns as the first did.
    """
    if key is not None:
        key = (key, z.dtype.str, z.tobytes())
        columns = POINTS_MEMO.get(key)
        if columns is not None:
            return columns, None
    n = z.size
    columns = tuple(np.zeros(n, dtype=dtype) for dtype in dtypes)
    scalar_calls = 0
    start = 0
    while start < n:
        hi = min(n, start + BATCH_POINTS)
        rows, covered, stop = batch(z[start:hi])
        for column, row in zip(columns, rows):
            column[start:hi] = row
        todo = (start + np.flatnonzero(~covered[:stop])).tolist()
        stop += start
        if stop < hi:
            todo.append(stop)
        scalar_calls += len(todo)
        for i in todo:
            try:
                entries = scalar(complex(z[i]))
            except JacobiFnError as exc:
                return columns, (i, exc)
            for column, entry in zip(columns, entries):
                column[i] = entry
        start = stop + 1 if stop < hi else hi
    if key is not None and not scalar_calls:
        POINTS_MEMO.put(key, columns)
    return columns, None


def _p_points(params: JacobiParams, z: np.ndarray, scaled: bool = False, memo: bool = True):
    """``jacobi_p`` (or ``jacobi_p_scaled``) under AUTO at the points of a 1-D z.

    Returns ``_pointwise``'s columns (log_scale, value, error estimate,
    provenance code) and failure: per point what the scalar call returns
    (the log scale only when scaled; the code indexes ``_PROVENANCE``), up
    to the first point where it raises (at once for an invalid triple).
    Without memo, ``POINTS_MEMO`` is neither read nor filled.
    """

    def batch(zs: np.ndarray):
        n = zs.size
        try:
            _require_p_domain(params)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                code, connection = _p_plan(params, zs)
        except JacobiFnError:
            # An invalid triple, or connection coefficients past double
            # range: no plan, so the scalar calls find the first point that
            # raises, with no plan formed again for the points after it.
            return (), np.zeros(n, dtype=bool), n
        stop = _first(code >= P_NO_PATH)
        code[stop:] = P_ON_CUT
        log_scale, value, err = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex), np.zeros(n)
        covered = np.zeros(n, dtype=bool)
        rep1 = (code == P_REP1) | (code == P_REP1_BEYOND)
        for mask, rep in (rep1, Representation.REP1), (code == P_REP3, Representation.REP3):
            idx = np.flatnonzero(mask)
            if idx.size:
                value[idx], err[idx], covered[idx] = _rep_batch(params, zs[idx], rep)
        idx = np.flatnonzero(code == P_CONNECTION)
        if idx.size:
            coeffs, triples, codes, argument, bases = connection
            parts = [c[idx] for c in codes], argument[idx], bases
            log_scale[idx], value[idx], covered[idx] = _connection_batch(zs[idx], coeffs, triples, *parts)
            if not scaled:
                with np.errstate(over="ignore", invalid="ignore"):
                    value[idx], err[idx] = _unscale(log_scale[idx], value[idx])
        code = np.where(code == P_REP1_BEYOND, P_REP1, code)
        return (log_scale, value, err, code), covered & np.isfinite(value), stop

    def scalar(w: complex):
        if scaled:
            return jacobi_p_scaled(params, w)
        res = jacobi_p(params, w)
        return 0.0, res.value, res.abs_error_estimate, _PROVENANCE.index(res.provenance)

    key = _memo_key("P", scaled, params) if memo else None
    return _pointwise(batch, scalar, z, (complex, complex, float, np.int8), key)


def _array_call(points, params: JacobiParams, z: np.ndarray, flag: bool) -> list:
    """The columns of ``_p_points`` or ``_q_points`` at an ndarray z, shaped as z.

    Raises the error of the first point where the scalar call raises.
    """
    columns, failure = points(params, np.asarray(z, dtype=complex).ravel(), flag)
    if failure is not None:
        raise failure[1]
    return [column.reshape(z.shape) for column in columns]


def _array_result(value, err, code) -> EvalResult:
    """An array call's EvalResult; its provenance joins the routes taken with "+"."""
    return EvalResult(value, err, "+".join(sorted(_PROVENANCE[c] for c in set(code.ravel().tolist()))))


def jacobi_p(
    params: JacobiParams,
    z,
    rep: Representation = Representation.AUTO,
) -> EvalResult:
    """First-kind Jacobi function on the cut plane C \\ (-oo, -1].

    AUTO takes the smallest-modulus series argument when one is inside the
    preferred disk.  For larger arguments a terminating REP1 comes first: at
    gamma in N0, P is the Jacobi polynomial's finite sum at every z where
    that sum stays finite.  Otherwise AUTO prefers the two-solution
    decomposition and falls back to the smaller argument's series, REP1 or
    REP3, summed directly, which raises NoConvergentPath where that argument
    is beyond MAP_LIMIT.  AUTO raises DomainCutError within CUT_GUARD of the
    cut and never CutError.  Under AUTO a value past double range raises
    NoConvergentPath; ``jacobi_p_scaled`` returns it as a (log_scale,
    mantissa) pair where the decomposition does.

    Under AUTO, z may be an ndarray: the result then holds arrays of values
    and error estimates, and its provenance joins the routes taken with "+".
    """
    if isinstance(z, np.ndarray):
        if rep is not Representation.AUTO:
            raise ValueError("an array of z needs Representation.AUTO")
        return _array_result(*_array_call(_p_points, params, z, False)[1:])
    z = complex(z)
    if rep is not Representation.AUTO:
        _require_p_domain(params, z)
        return _rep_value(params, z, rep)
    log_scale, value, err, provenance = _auto(params, z)
    if provenance == "connection":
        value, err = _unscale(log_scale, value)
    if not cmath.isfinite(value):
        raise NoConvergentPath(f"z={z}: P's value ({provenance}) is past double range")
    return EvalResult(value, err, provenance)


def jacobi_p_scaled(params: JacobiParams, z) -> tuple[complex, complex]:
    """P as (log_scale, mantissa) with value = exp(log_scale) * mantissa.

    The scaled form stays representable along rays to infinity where the
    dominant solution branch overflows a double.  Where the pair is not
    finite, as at an infinite z, it raises NoConvergentPath as ``jacobi_p``
    does.  z may be an ndarray; the pair then holds arrays.
    """
    if isinstance(z, np.ndarray):
        return tuple(_array_call(_p_points, params, z, True)[:2])
    z = complex(z)
    log_scale, mantissa, _, provenance = _auto(params, z)
    if not (cmath.isfinite(log_scale) and cmath.isfinite(mantissa)):
        raise NoConvergentPath(f"z={z}: P's scaled value ({provenance}) is not finite")
    return log_scale, mantissa


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


# Bound last, as the second kind's module imports this one.
from . import jacobi_second as _second  # noqa: E402
