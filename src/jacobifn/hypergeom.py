"""Generalized hypergeometric series and the Gauss 2F1 with continuation.

Three evaluation layers:

* ``phyp`` / ``ohyp`` -- raw power series for pFq and its Olver-regularized
  companion (lower-parameter Pochhammers replaced by reciprocal gammas, so
  the regularized form is entire in every lower parameter).  Both classify
  convergence and then call one series core, ``_series``, whose
  ``regularized`` flag decides only the leading terms.  Its term-ratio phase
  has a tight loop for two upper parameters and one lower (every call from
  the 2F1 routines); other arities take the generic loop, which is also the
  tight loop's reference.  The reciprocal gammas of the lower parameters
  are memoized, since every point of a parameter triple repeats them.
* ``gauss2f1`` / ``ohyp2f1`` -- the 2F1 specializations, both served by one
  continuation routine with automatic argument transformation.  The
  reachable arguments under the classical maps are {z, z/(z-1)} (Euler's map
  keeps the argument), so the selector simply picks the smaller modulus,
  preferring the untransformed series on ties.
* ``_ohyp2f1_batch`` -- the regularized 2F1 of one (a, b, c) over an ndarray
  of z, for the oracles that evaluate one parameter triple at every node of
  a level.  It routes each point by the scalar routine's predicates (the
  cut's ``Cut.distance``, ``_takes_direct``, ``_has_path``: direct series or
  the z/(z-1) map, exact termination) and keeps its stopping rule and error
  estimate, but sums with numpy: Taylor coefficients memoized per triple
  (extended by one ``cumprod`` of the term ratios), powers by ``cumprod``,
  in column blocks.  The first block is as wide as the series at the
  largest argument needs, about log(eps)/log(max |z|) terms (Pearson, Olver
  & Porter 2017) corrected for the growth of the coefficients, clipped to
  [``_BATCH_COLS``, ``BATCH_POINTS * _BATCH_COLS`` / points]; later blocks
  double while they stay within that budget.  Sums run left to right across
  blocks, so the widths change no result.
  Callers pass at most ``BATCH_POINTS`` points at a time.  A status
  per point marks those it does not cover (on the cut, no map inside the
  disk, the term cap); the Jacobi layers evaluate them with the scalar call,
  which raises or warns as documented.  The scalar routines stay the
  reference and serve single calls, where numpy's per-call overhead would
  lose.
* ``reverse_finite_series`` -- a finite sum evaluated both directly and in
  reversed order as a new hypergeometric sum in 1/z; the two routes must
  agree and are used as mutual checks.

All powers are principal: w**s = exp(s Log w) with Arg in (-pi, pi]
(``power``).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContinuationRequired,
    CutError,
    DivergentError,
    LowerPoleError,
    NoConvergentPath,
    TruncationWarning,
    ZeroArgument,
)
from .quadrature import CUT_GUARD, Cut
from .scalar_kernel import exact_memo, pochhammer_product, reciprocal_gamma

STOP_RATIO = 1e-15
STOP_RUN = 3
MAX_TERMS = 10_000
_EPS = 2.220446049250313e-16
# Argument routing of the 2F1 continuation: the direct series is taken
# inside DIRECT_LIMIT, and no series runs beyond MAP_LIMIT.
DIRECT_LIMIT = 0.75
MAP_LIMIT = 0.99
# numpy and Python may round |z| and |z/(z-1)| a few ulps apart, so within
# this distance of MAP_LIMIT the batch leaves the verdict to the scalar call.
_MAP_TIE = 8 * _EPS
# The branch cut of the 2F1.
_CUT = Cut.right_ray(1.0)
# Block shape of the batched series: points per call (the Jacobi layers
# split longer arrays) and terms per column block, which bound the
# temporaries to a few arrays of BATCH_POINTS * _BATCH_COLS entries.
BATCH_POINTS = 256
_BATCH_COLS = 32
# Terms added to the first column block's estimate, for the STOP_RUN run.
_FIRST_MARGIN = 8
# Taylor coefficients kept per memoized triple.  A longer series extends a
# copy for the call: one row of work against the batch's rows of terms,
# while the memo's 64 tables stay small.
_TAYLOR_KEEP = 256
# Status of a point in a batched evaluation: covered; not covered because
# the scalar call raises NoConvergentPath; not covered for another reason.
BATCH_OK, BATCH_NO_PATH, BATCH_SCALAR = 0, 1, 2


def power(base, s):
    """Principal power exp(s Log w) of a scalar or an ndarray base.

    A scalar base goes through cmath; s = 0 gives exactly 1 (an array of
    ones for an array base).
    """
    if isinstance(base, np.ndarray):
        if s == 0:
            return np.ones(base.shape, dtype=complex)
        return np.exp(complex(s) * np.log(base.astype(complex, copy=False)))
    if s == 0:
        return 1.0 + 0.0j
    return cmath.exp(complex(s) * cmath.log(base))


@dataclass(frozen=True)
class SeriesValue:
    """A partial (or exact finite) hypergeometric sum with error bookkeeping."""

    value: complex
    abs_error_estimate: float
    terms_used: int
    terminated: bool


@dataclass(frozen=True)
class HypParams:
    """Upper/lower parameter lists and argument of a pFq series."""

    upper: tuple[complex, ...]
    lower: tuple[complex, ...]
    argument: complex


def termination_index(upper, tol: float = 1e-12) -> int | None:
    """Smallest m >= 0 with an upper parameter within tol of -m, else None."""
    best = None
    for a in upper:
        a = complex(a)
        m = round(a.real)
        if m <= 0 and abs(a - m) <= tol:
            if best is None or -m < best:
                best = -m
    return best


def _lower_pole_guard(lower, n_terms: int | None, tol: float = 1e-12) -> None:
    """Raise LowerPoleError when a lower-parameter pole enters the sum.

    For b = -q the factor b+q first appears in (b)_k at k = q+1, so a sum of
    n_terms terms (indices 0..n_terms-1) is shielded iff n_terms <= q+1.
    """
    for b in lower:
        b = complex(b)
        k_pole = round(b.real)
        if k_pole <= 0 and abs(b - k_pole) <= tol:
            if n_terms is None or n_terms > -k_pole + 1:
                raise LowerPoleError(f"lower parameter {b} pole not shielded")


@exact_memo
def _lower_rgamma(w: complex) -> complex:
    """1/Gamma at a lower parameter plus k; a triple's series repeat these."""
    return reciprocal_gamma(w)


def _leading_terms(upper, lower, z: complex, limit: int, regularized: bool):
    """Sum terms 0..k0 directly; return (k0, last term, total, sum of |terms|).

    Plain series start from the single term 1 (k0 = 0).  The regularized
    series carries 1/Gamma(b_j + k) on every term, so terms up to the last
    lower-parameter pole are formed from Pochhammer products and reciprocal
    gammas; beyond it every b_j + k stays off the poles and ratio updates
    apply.
    """
    k0 = 0
    if regularized:
        for b in lower:
            k0 = max(k0, int(math.ceil(0.5 - b.real)))
        k0 = min(k0, limit)
    total = 0.0 + 0.0j
    abs_acc = 0.0
    term = 1.0 + 0.0j
    zk = 1.0 + 0.0j
    kfac = 1.0
    for k in range(k0 + 1):
        if k > 0:
            zk *= z
            kfac *= k
            term = pochhammer_product(upper, k) * zk / kfac
        if regularized:
            for b in lower:
                term *= _lower_rgamma(b + k)
        total += term
        abs_acc += abs(term)
    return k0, term, total, abs_acc


def _ratio_loop(upper, lower, z, k, limit, adaptive, term, total, abs_acc):
    """Term-ratio phase for any arity; the reference for the 2F1 loop.

    Continues from term k up to the exact end ``limit`` or, when adaptive,
    until STOP_RUN consecutive terms fall below STOP_RATIO of the total.
    Returns (k, last term, total, sum of |terms|).
    """
    small_run = 0
    while k < limit:
        num = 1.0 + 0.0j
        for a in upper:
            num *= a + k
        den = 1.0 + 0.0j
        for b in lower:
            den *= b + k
        den *= k + 1
        term = term * num * z / den
        total += term
        abs_acc += abs(term)
        k += 1
        if adaptive:
            if abs(term) <= STOP_RATIO * max(abs(total), 1e-300):
                small_run += 1
                if small_run >= STOP_RUN:
                    break
            else:
                small_run = 0
    return k, term, total, abs_acc


def _ratio_loop_2f1(upper, lower, z, k, limit, adaptive, term, total, abs_acc):
    """``_ratio_loop`` for two upper parameters and one lower.

    The same floating-point operations in the same order: for finite
    parameters the generic loop's leading ``(1+0j) *`` factors are exact
    (a + k never has a -0.0 part), and the inline floor picks what ``max``
    picks, so results agree bit for bit.
    """
    (a, b), (c,) = upper, lower
    if not adaptive:
        while k < limit:
            term = term * ((a + k) * (b + k)) * z / ((c + k) * (k + 1))
            total += term
            abs_acc += abs(term)
            k += 1
        return k, term, total, abs_acc
    small_run = 0
    while k < limit:
        term = term * ((a + k) * (b + k)) * z / ((c + k) * (k + 1))
        total += term
        size = abs(term)
        abs_acc += size
        k += 1
        scale = abs(total)
        if size <= STOP_RATIO * (1e-300 if scale < 1e-300 else scale):
            small_run += 1
            if small_run >= STOP_RUN:
                break
        else:
            small_run = 0
    return k, term, total, abs_acc


def _series(upper, lower, z: complex, m_stop: int | None, regularized: bool) -> SeriesValue:
    """The series core: the plain or Olver-regularized pFq partial sum.

    m_stop is the exact termination order (inclusive) or None for the
    adaptive stopping rule.  ``regularized`` decides only the leading terms.
    """
    limit = m_stop if m_stop is not None else MAX_TERMS
    k0, term, total, abs_acc = _leading_terms(upper, lower, z, limit, regularized)
    loop = _ratio_loop_2f1 if len(upper) == 2 and len(lower) == 1 else _ratio_loop
    k, term, total, abs_acc = loop(
        upper, lower, z, k0, limit, m_stop is None, term, total, abs_acc
    )
    terms_used = k + 1
    rounding = _EPS * abs_acc
    if m_stop is not None:
        return SeriesValue(total, rounding, terms_used, True)
    if k >= MAX_TERMS:
        warnings.warn(
            f"series stopped at the {MAX_TERMS}-term cap", TruncationWarning
        )
        return SeriesValue(total, 10.0 * abs(term) + rounding, terms_used, False)
    return SeriesValue(total, abs(term) + rounding, terms_used, False)


def _checked_series(upper, lower, argument, regularized: bool) -> SeriesValue:
    """Classify convergence, then sum: the body of phyp and ohyp."""
    upper = tuple(map(complex, upper))
    lower = tuple(map(complex, lower))
    z = complex(argument)
    m = termination_index(upper)
    if not regularized:
        _lower_pole_guard(lower, None if m is None else m + 1)
    if m is None:
        r, s = len(upper), len(lower)
        if r > s + 1:
            kind = "regularized " if regularized else ""
            raise DivergentError(f"{kind}{r}F{s} diverges for z != 0 without termination")
        if r == s + 1 and abs(z) >= 1.0:
            raise ContinuationRequired(f"|z|={abs(z):.3f} outside the unit disk")
    return _series(upper, lower, z, m, regularized)


def phyp(upper, lower=None, argument=None) -> SeriesValue:
    """Generalized hypergeometric series pFq at the given argument.

    Accepts either (upper, lower, argument) or a single HypParams.
    Terminates exactly when an upper parameter is a non-positive integer.
    Raises DivergentError / ContinuationRequired / LowerPoleError per the
    classical convergence classification.
    """
    if isinstance(upper, HypParams):
        upper, lower, argument = upper.upper, upper.lower, upper.argument
    return _checked_series(upper, lower, argument, regularized=False)


def ohyp(upper, lower, argument) -> SeriesValue:
    """Olver-regularized pFq series; entire in every lower parameter."""
    return _checked_series(upper, lower, argument, regularized=True)


def _takes_direct(az, au):
    """Whether the direct series is preferred, from |z| and |z/(z-1)|.

    Inside DIRECT_LIMIT always, else on a modulus no larger than the map's.
    Elementwise on ndarrays.
    """
    return (az <= DIRECT_LIMIT) | (az <= au)


def _has_path(az, au):
    """Whether z or z/(z-1) lies within MAP_LIMIT; elementwise on ndarrays."""
    return (az <= MAP_LIMIT) | (au <= MAP_LIMIT)


def _raises(z: np.ndarray) -> np.ndarray:
    """Where a non-terminating 2F1 continuation raises at z, elementwise.

    CutError on the cut, NoConvergentPath where no map reaches the disk.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        az, au = np.abs(z), np.abs(z / (z - 1.0))
    return (_CUT.distance(z) < CUT_GUARD) | ~_has_path(az, au)


def _pick_argument(z: complex, terminating: bool) -> str:
    """Choose between the direct series and the z/(z-1) map."""
    if terminating:
        return "direct"
    az, au = abs(z), abs(z / (z - 1.0))
    if not _has_path(az, au):
        raise NoConvergentPath(
            f"no transformed argument inside the disk (best modulus {min(az, au):.3f})"
        )
    return "direct" if _takes_direct(az, au) else "pfaff"


def _continued_2f1(a, b, c, z, regularized: bool) -> SeriesValue:
    """2F1(a, b; c; z), plain or regularized, continued via the z/(z-1) map.

    The series summed terminates or has its argument within MAP_LIMIT, so the
    only check of ``_checked_series`` that can fire is the lower-pole guard.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    m = termination_index((a, b))
    if m is None and _CUT.distance(z) < CUT_GUARD:
        raise CutError(f"z={z} on the cut {_CUT}")

    def series(upper, x, m_stop):
        if not regularized:
            _lower_pole_guard((c,), None if m_stop is None else m_stop + 1)
        return _series(upper, (c,), x, m_stop, regularized)

    if _pick_argument(z, m is not None) == "direct":
        return series((a, b), z, m)
    upper = (a, c - b)
    inner = series(upper, z / (z - 1.0), termination_index(upper))
    fac = (1.0 - z) ** (-a)
    return SeriesValue(
        fac * inner.value,
        abs(fac) * inner.abs_error_estimate,
        inner.terms_used,
        inner.terminated,
    )


def gauss2f1(a, b, c, z) -> SeriesValue:
    """Gauss 2F1(a, b; c; z), continued off the disk via the z/(z-1) map."""
    return _continued_2f1(a, b, c, z, regularized=False)


def ohyp2f1(a, b, c, z) -> SeriesValue:
    """Olver-regularized 2F1; valid for every c, including c in -N0."""
    return _continued_2f1(a, b, c, z, regularized=True)


class _Taylor:
    """Regularized 2F1 Taylor coefficients of one (a, b; c), extended on demand.

    Coefficients up to the last lower-parameter pole come from Pochhammer
    products and reciprocal gammas, as in ``_leading_terms``; later ones from
    the term ratio.  Each coefficient depends only on its predecessors, so no
    value depends on how far an earlier call extended the table.
    """

    def __init__(self, a: complex, b: complex, c: complex):
        self.a, self.b, self.c = a, b, c
        self.k0 = max(0, int(math.ceil(0.5 - c.real)))
        coef = []
        kfac = 1.0
        for k in range(self.k0 + 1):
            if k > 0:
                kfac *= k
            coef.append(pochhammer_product((a, b), k) / kfac * _lower_rgamma(c + k))
        self.coef = np.array(coef, dtype=complex)

    def upto(self, n: int, known: np.ndarray | None = None) -> np.ndarray:
        """The coefficients of the terms 0..n-1, or more.

        The table keeps at most _TAYLOR_KEEP coefficients (or its leading
        ones, if more).  A longer request extends ``known``, an earlier
        result of this table, or else the table, by one ``cumprod`` of the
        term ratios; each coefficient is its predecessor times a ratio, so
        it has the same bits however it was reached.
        """
        base = self.coef if known is None or known.size < self.coef.size else known
        have = base.size
        if have >= n:
            return base
        a, b, c = self.a, self.b, self.c
        k = np.arange(have - 1.0, n - 1.0)
        ratio = np.empty(n - have + 1, dtype=complex)
        ratio[0] = base[-1]
        ratio[1:] = (a + k) * (b + k) / ((c + k) * (k + 1.0))
        coef = np.concatenate((base, np.cumprod(ratio)[1:]))
        if self.coef.size < _TAYLOR_KEEP:
            self.coef = coef[:_TAYLOR_KEEP].copy() if n > _TAYLOR_KEEP else coef
        return coef


@exact_memo
def _taylor(a: complex, b: complex, c: complex) -> _Taylor:
    return _Taylor(a, b, c)


def _first_width(z: np.ndarray, last: int, taylor: _Taylor) -> int:
    """Terms in the first column block of ``_series_batch`` for the points z.

    Past the leading ones the terms fall like k^s |z|^k, where s =
    Re(a + b - c - 1) is the growth of the coefficients, so a series at
    |z| < 1 needs about the k with k log|z| + s log k = log eps, found by
    two fixed-point steps from log(eps)/log|z| (Pearson, Olver & Porter
    2017).  A block that wide for the largest |z| usually covers every
    point at once; a margin covers the STOP_RUN run.  An exact sum needs no
    more than its last + 1 terms.  The width is clipped to [_BATCH_COLS,
    BATCH_POINTS * _BATCH_COLS / points], the budget of the later blocks.
    It decides only how the work is cut, never a value or a stop.
    """
    top = float(np.max(np.abs(z)))
    need = last + 1
    if top < 1.0:
        rate = -math.log(max(top, 1e-300))
        growth = (taylor.a + taylor.b - taylor.c).real - 1.0
        k = -math.log(_EPS) / rate
        for _ in range(2):
            k = (growth * math.log(max(k, 1.0)) - math.log(_EPS)) / rate
        need = min(need, taylor.k0 + _FIRST_MARGIN + int(k))
    budget = BATCH_POINTS * _BATCH_COLS // z.size
    return max(_BATCH_COLS, min(need, budget))


def _series_batch(a, b, c, z: np.ndarray, m_stop: int | None):
    """The regularized 2F1 series at every point of a 1-D array z.

    Sums terms 0..m_stop exactly or, when m_stop is None, stops each point
    by the scalar rule: STOP_RUN consecutive terms past the leading ones
    below STOP_RATIO of the running sum.  The running sum and the sum of
    |terms| add the terms left to right as the scalar loop does, so neither
    depends on the column blocks.  The first block is ``_first_width``
    terms wide; later ones double while the block stays within
    BATCH_POINTS * _BATCH_COLS terms.  The running sums, z^k and the last
    two stop flags carry from one column block to the next.  Returns
    (value, error estimate, covered); a point that reaches the term cap is
    not covered.
    """
    taylor = _taylor(a, b, c)
    value = np.zeros(z.size, dtype=complex)
    err = np.zeros(z.size)
    covered = np.zeros(z.size, dtype=bool)
    if not z.size:
        return value, err, covered
    adaptive = m_stop is None
    last = MAX_TERMS - 1 if adaptive else m_stop
    budget = BATCH_POINTS * _BATCH_COLS
    rows = np.arange(z.size)
    zr = z
    total = np.zeros(z.size, dtype=complex)
    acc = np.zeros(z.size)
    zk = np.ones(z.size, dtype=complex)
    flags = np.zeros((z.size, 2), dtype=bool)
    k = 0
    coef = None
    width = _first_width(z, last, taylor)
    while rows.size and k <= last:
        width = min(last + 1 - k, width)
        # z^k .. z^(k+width), all from one product chain, so that a power
        # has the same bits whatever the blocks.
        powers = np.empty((rows.size, width + 1), dtype=complex)
        powers[:, 0] = zk
        powers[:, 1:] = zr[:, None]
        np.cumprod(powers, axis=1, out=powers)
        zk = powers[:, -1]
        terms = powers[:, :-1]
        coef = taylor.upto(k + width, coef)
        terms *= coef[k : k + width]
        sizes = np.abs(terms)
        terms[:, 0] += total
        sums = np.cumsum(terms, axis=1, out=terms)
        accs = np.empty((rows.size, width + 1))
        accs[:, 0] = acc
        accs[:, 1:] = sizes
        np.cumsum(accs, axis=1, out=accs)
        if adaptive:
            run = np.empty((rows.size, width + 2), dtype=bool)
            run[:, :2] = flags
            scale = np.abs(sums)
            np.maximum(scale, 1e-300, out=scale)
            scale *= STOP_RATIO
            np.less_equal(sizes, scale, out=run[:, 2:])
            run[:, 2 : max(2, taylor.k0 + 3 - k)] = False
            hit = run[:, 2:] & run[:, 1:-1]
            hit &= run[:, :-2]
            stop = hit.any(axis=1)
            col = hit.argmax(axis=1)
        else:
            stop = np.full(rows.size, k + width > last)
            col = np.full(rows.size, width - 1)
        if stop.any():
            out, at = rows[stop], col[stop]
            value[out] = sums[stop, at]
            tail = sizes[stop, at] if adaptive else 0.0
            err[out] = tail + _EPS * accs[stop, at + 1]
            covered[out] = True
            if out.size == rows.size:
                break
            keep = ~stop
            rows, zr, zk = rows[keep], zr[keep], zk[keep]
            sums, accs = sums[keep], accs[keep]
            if adaptive:
                run = run[keep]
        total = sums[:, -1]
        acc = accs[:, -1]
        if adaptive:
            flags = run[:, -2:]
        k += width
        width = max(width, min(2 * width, budget // max(rows.size, 1)))
    return value, err, covered


def _ohyp2f1_batch(a, b, c, z: np.ndarray):
    """``ohyp2f1`` at every point of a 1-D array z: (value, error estimate, status).

    Routes each point by the scalar routine's predicates.  ``status`` is
    BATCH_OK where the batch covered the point, BATCH_NO_PATH where the
    scalar call raises NoConvergentPath, and BATCH_SCALAR where it raises
    CutError, warns at the term cap or the batch's result is not finite;
    callers evaluate the points not covered with the scalar call.  Points
    whose smaller modulus, |z| or |z/(z-1)|, lies within ``_MAP_TIE`` of
    MAP_LIMIT are BATCH_SCALAR too: numpy may round the modulus to the other
    side of MAP_LIMIT than Python does, so only the scalar call can tell
    whether it has a path.
    """
    a, b, c = complex(a), complex(b), complex(c)
    value = np.zeros(z.size, dtype=complex)
    err = np.zeros(z.size)
    status = np.full(z.size, BATCH_SCALAR, dtype=np.int8)
    m = termination_index((a, b))
    if m is not None:
        direct, pfaff = np.ones(z.size, dtype=bool), np.zeros(z.size, dtype=bool)
    else:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            az, au = np.abs(z), np.abs(z / (z - 1.0))
        tie = np.abs(np.minimum(az, au) - MAP_LIMIT) <= _MAP_TIE
        decided = ~(_CUT.distance(z) < CUT_GUARD) & ~tie
        path = decided & _has_path(az, au)
        direct = path & _takes_direct(az, au)
        pfaff = path & ~direct
        status[decided & ~path] = BATCH_NO_PATH

    def put(mask, v, e, ok):
        with np.errstate(invalid="ignore"):
            ok &= np.isfinite(v) & np.isfinite(e)
        value[mask], err[mask] = v, e
        status[mask] = np.where(ok, BATCH_OK, BATCH_SCALAR)

    if direct.any():
        put(direct, *_series_batch(a, b, c, z[direct], m))
    if pfaff.any():
        zp = z[pfaff]
        v, e, ok = _series_batch(a, c - b, c, zp / (zp - 1.0), termination_index((a, c - b)))
        fac = power(1.0 - zp, -a)
        put(pfaff, fac * v, np.abs(fac) * e, ok)
    return value, err, status


def reverse_finite_series(upper, lower, m: int, z) -> tuple[SeriesValue, SeriesValue]:
    """Evaluate a finite hypergeometric sum directly and in reversed order.

    The reversed route rewrites sum_{k<=m} as the k=m term times a new
    terminating hypergeometric sum in 1/z; both routes return the same value
    up to rounding and serve as mutual oracles.
    """
    if m < 0:
        raise ValueError("reverse_finite_series needs m >= 0")
    upper = tuple(complex(a) for a in upper)
    lower = tuple(complex(b) for b in lower)
    z = complex(z)
    if m > 0 and z == 0:
        raise ZeroArgument("reversed form undefined at z = 0")

    _lower_pole_guard(lower, m + 1)
    direct = _series(upper, lower, z, m, regularized=False)

    if m == 0:
        return direct, SeriesValue(1.0 + 0.0j, 0.0, 1, True)

    head = pochhammer_product(upper, m) * z**m / (
        pochhammer_product(lower, m) * math.factorial(m)
    )
    rev_upper = (-float(m),) + tuple(1.0 - m - b for b in lower) + (1.0,)
    rev_lower = tuple(1.0 - m - a for a in upper)
    tail = phyp(upper=rev_upper, lower=rev_lower, argument=1.0 / z)
    reversed_form = SeriesValue(
        head * tail.value,
        abs(head) * tail.abs_error_estimate,
        tail.terms_used,
        True,
    )
    return direct, reversed_form
