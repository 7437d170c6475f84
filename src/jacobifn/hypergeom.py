"""Generalized hypergeometric series and the Gauss 2F1 with continuation.

Three evaluation layers:

* ``phyp`` / ``ohyp`` -- raw power series for pFq and its Olver-regularized
  companion (lower-parameter Pochhammers replaced by reciprocal gammas, so
  the regularized form is entire in every lower parameter).  Both classify
  convergence and then call one series core, ``_series``, whose
  ``regularized`` flag decides only the leading terms: a plain series
  starts from the term 1; a regularized one where every Re b_j >= 1/2
  (k0 = 0) from the product of the 1/Gamma(b_j), one Lanczos sum each and
  no other work, else from its terms up to the last lower-parameter pole.
  Its term-ratio phase has a tight loop for two upper parameters and one
  lower (every call from the 2F1 routines); other arities take the generic
  loop, which is also the tight loop's reference.  The tight loop measures
  |total| only for a term small enough to pass the stopping rule, which
  changes no bit.  The leading terms' reciprocal gammas of a lower parameter
  come from one Lanczos sum and the recurrence 1/Gamma(w) = w / Gamma(w +
  1).  A term whose modulus passes double range raises FactorOverflow.  An
  adaptive 2F1 series predicted to be long (``_predicted_terms`` above
  ``_TAIL_TERMS``) is summed instead in numpy column blocks,
  ``_block_tail_2f1``, with the loop's stopping rule, estimate and term
  cap; one block replaces hundreds of Python iterations, and its values
  differ from the loop's by rounding.  Its blocks are those of the batch
  below, on one row.
* ``gauss2f1`` / ``ohyp2f1`` -- the 2F1 specializations, plain and
  regularized, both served by one continuation routine, which the Jacobi
  layers' explicit representations call too.  The reachable arguments
  under the classical maps are {z, z/(z-1)} (Euler's map keeps the
  argument); ``_continued_2f1`` picks from |z| and |z-1| alone.  The AUTO
  plans never map: each code names a series within MAP_LIMIT or one that
  terminates, which they sum with ``_direct_2f1``.
* ``_ohyp2f1_batch`` -- that direct series of one (a, b, c) over an
  ndarray of z, for the AUTO plans' groups of points.  It keeps the scalar
  stopping rule and error estimate, but sums with numpy
  (``_series_batch``): the leading terms of ``_leading_terms`` at the
  array of arguments, then column blocks of ``_sum_block``, the rule of
  ``_block_tail_2f1``, so a point whose scalar series takes the blocks
  from its first term (a plain series, or Re c > 1/2) gets the scalar
  bits; the block widths change no result.  Callers pass at most
  ``BATCH_POINTS`` points.  A mask marks the points it covers; the Jacobi
  layers evaluate the others (the term cap, a sum that is not finite) with
  the scalar call, which raises or warns as documented.  The scalar
  routines stay the reference and serve single calls, whose short series
  run in Python, where numpy's per-call overhead would lose.
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
    FactorOverflow,
    LowerPoleError,
    NoConvergentPath,
    TruncationWarning,
    ZeroArgument,
)
from .quadrature import CUT_GUARD, Cut, modulus
from .scalar_kernel import POLE_TOL, pochhammer_product, reciprocal_gamma

STOP_RATIO = 1e-15
STOP_RUN = 3
MAX_TERMS = 10_000
# A term above _STOP_SLOPE * (sum of |terms|) + _STOP_FLOOR cannot pass the
# stopping rule (see ``_ratio_loop_2f1``).
_STOP_SLOPE = 2.0 * STOP_RATIO
_STOP_FLOOR = STOP_RATIO * 1e-300
_EPS = 2.220446049250313e-16
_LOG_EPS = math.log(_EPS)
# The 2F1 continuation takes the direct series inside DIRECT_LIMIT, and no
# series runs beyond MAP_LIMIT.
DIRECT_LIMIT = 0.75
MAP_LIMIT = 0.99
# The branch cut of the 2F1.
_CUT = Cut.right_ray(1.0)
# Block shape of the batched series: points per call (the Jacobi layers
# split longer arrays) and terms per column block, which bound the
# temporaries to a few arrays of BATCH_POINTS * _BATCH_COLS entries.
BATCH_POINTS = 256
_BATCH_COLS = 32
# Terms added to the first column block's estimate, for the STOP_RUN run.
_FIRST_MARGIN = 8
# A scalar adaptive 2F1 series predicted to need more than _TAIL_TERMS terms
# past the leading ones is summed in numpy column blocks
# (``_block_tail_2f1``).  A block costs about as much as 65 loop iterations;
# a switch at 65 terms ran no faster end to end than one at 140, which
# changes the bits of fewer scalar calls.
_TAIL_TERMS = 140
# The term indices 0..MAX_TERMS as complex numbers, sliced by the blocks.
_INDEX = np.arange(MAX_TERMS + 1.0).astype(complex)


def power(base, s):
    """Principal power exp(s Log w) of a scalar or an ndarray base.

    A scalar base goes through cmath, and a scalar power past double range
    raises FactorOverflow; s = 0 gives exactly 1 (an array of ones for an
    array base).
    """
    if isinstance(base, np.ndarray):
        if s == 0:
            return np.ones(base.shape, dtype=complex)
        return np.exp(complex(s) * np.log(base.astype(complex, copy=False)))
    if s == 0:
        return 1.0 + 0.0j
    try:
        return cmath.exp(complex(s) * cmath.log(base))
    except OverflowError:
        raise FactorOverflow(f"{base}^{s} is past double range") from None


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


def termination_index(upper) -> int | None:
    """Smallest m >= 0 with an upper parameter within POLE_TOL of -m, else None.

    A finite Re a above POLE_TOL is within POLE_TOL of no -m, so it is not measured.
    """
    best = None
    for a in upper:
        a = complex(a)
        if POLE_TOL < a.real < math.inf:
            continue
        m = round(a.real)
        if m <= 0 and abs(a - m) <= POLE_TOL:
            if best is None or -m < best:
                best = -m
    return best


def _lower_pole_guard(lower, n_terms: int | None) -> None:
    """Raise LowerPoleError when a lower-parameter pole enters the sum.

    For b = -q the factor b+q first appears in (b)_k at k = q+1, so a sum of
    n_terms terms (indices 0..n_terms-1) is shielded iff n_terms <= q+1.
    """
    for b in lower:
        b = complex(b)
        k_pole = round(b.real)
        if k_pole <= 0 and abs(b - k_pole) <= POLE_TOL:
            if n_terms is None or n_terms > -k_pole + 1:
                raise LowerPoleError(f"lower parameter {b} pole not shielded")


def _rgamma_run(b: complex, k0: int) -> list[complex]:
    """1/Gamma(b + k) for k = 0..k0, from one Lanczos sum.

    One ``reciprocal_gamma`` at b + k0, then 1/Gamma(w) = w / Gamma(w + 1)
    (DLMF 5.5.1) downward, which is exactly 0 at the poles.  A run that
    leaves double range raises FactorOverflow, as ``reciprocal_gamma`` does.
    """
    run = [reciprocal_gamma(b + k0)]
    for k in range(k0 - 1, -1, -1):
        run.append((b + k) * run[-1])
    if not cmath.isfinite(run[-1]):
        raise FactorOverflow(f"1/gamma({b}) is past double range")
    return run[::-1]


def _leading_terms(upper, lower, z: complex, limit: int, regularized: bool):
    """Sum terms 0..k0 directly; return (k0, last term, total, sum of |terms|).

    Plain series start from the single term 1 (k0 = 0).  The regularized
    series carries 1/Gamma(b_j + k) on every term, so terms up to the last
    lower-parameter pole are formed from Pochhammer products and reciprocal
    gammas; beyond it every b_j + k stays off the poles and ratio updates
    apply.  Each lower parameter's reciprocal gammas are a ``_rgamma_run``,
    whose one Lanczos sum is at Re(b_j + k0) >= 1/2 unless the sum ends
    first, so it needs no reflection.  Where k0 = 0, term 0 is 1 times each
    1/Gamma(b_j + 0), the run's one entry, formed without the run (the sum
    turns an imaginary -0.0 into 0.0, as b_j + k does at k = 0).
    """
    term = 1.0 + 0.0j
    if not regularized:
        return 0, term, 0j + term, abs(term)
    k0 = 0
    for b in lower:
        k0 = max(k0, int(math.ceil(0.5 - b.real)))
    k0 = min(k0, limit)
    if k0 == 0:
        for b in lower:
            term *= reciprocal_gamma(b + 0)
        if not cmath.isfinite(term):
            raise FactorOverflow(f"1/gamma of {lower} is past double range")
        return 0, term, 0j + term, abs(term)
    rgammas = [_rgamma_run(b, k0) for b in lower]
    for run in rgammas:
        term *= run[0]
    total = 0j + term
    abs_acc = abs(term)
    zk = 1.0 + 0.0j
    kfac = 1.0
    for k in range(1, k0 + 1):
        zk *= z
        kfac *= k
        term = pochhammer_product(upper, k) * zk / kfac
        for run in rgammas:
            term *= run[k]
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
    picks, so results agree bit for bit.  The adaptive stop measures
    |total| only for a term of size at most 2 STOP_RATIO abs_acc +
    STOP_RATIO 1e-300: since |total| <= abs_acc (1 + 3k eps), a larger term
    fails the rule whatever |total| is, and resets the run as the rule does.
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
        if size > _STOP_SLOPE * abs_acc + _STOP_FLOOR:
            small_run = 0
            continue
        scale = abs(total)
        if size <= STOP_RATIO * (1e-300 if scale < 1e-300 else scale):
            small_run += 1
            if small_run >= STOP_RUN:
                break
        else:
            small_run = 0
    return k, term, total, abs_acc


def _predicted_terms(modulus: float, growth: float) -> float:
    """About how many terms past the leading ones a 2F1 series at |x| = modulus needs.

    Past the leading ones the terms fall like k^s |x|^k, where s = growth =
    Re(a + b - c - 1) is the growth of the coefficients, so a series at
    |x| < 1 needs about the k with k log|x| + s log k = log eps, found by
    two fixed-point steps from log(eps)/log|x| (Pearson, Olver & Porter
    2017).  It decides only how the work is cut: the first column block,
    and whether a scalar series takes the loop or the blocks.
    """
    rate = -math.log(modulus if modulus > 1e-300 else 1e-300)
    k = -_LOG_EPS / rate
    k = (growth * math.log(k if k > 1.0 else 1.0) - _LOG_EPS) / rate
    return (growth * math.log(k if k > 1.0 else 1.0) - _LOG_EPS) / rate


def _first_width(need: float, rows: int) -> int:
    """Terms in the first column block of a 2F1 series summed at ``rows`` points.

    ``need`` is the ``_predicted_terms`` at the largest |x| (or the exact
    sum's length), so one block usually covers every point; _FIRST_MARGIN
    more terms cover the STOP_RUN run.  The width is clipped to
    [_BATCH_COLS, BATCH_POINTS * _BATCH_COLS / rows], the budget within
    which later blocks double.  It decides only how the work is cut, never
    a value or a stop.
    """
    budget = BATCH_POINTS * _BATCH_COLS // rows
    return max(_BATCH_COLS, min(int(min(need, budget)) + _FIRST_MARGIN, budget))


def _stop_run(flags, sizes, sums):
    """The adaptive stopping rule over a column block: (run, hit).

    ``run`` holds the last two flags of the previous block (``flags``), then
    one flag per column: whether the term, of size ``sizes``, is at most
    STOP_RATIO of the running sum ``sums`` (floored at 1e-300).  ``hit``
    marks the columns that end STOP_RUN (= 3) flags in a row.  Works along
    the last axis, one row per series.
    """
    run = np.empty(sizes.shape[:-1] + (sizes.shape[-1] + 2,), dtype=bool)
    run[..., :2] = flags
    scale = np.abs(sums)
    np.maximum(scale, 1e-300, out=scale)
    scale *= STOP_RATIO
    np.less_equal(sizes, scale, out=run[..., 2:])
    hit = run[..., 2:] & run[..., 1:-1]
    hit &= run[..., :-2]
    return run, hit


def _sum_block(abc, x: np.ndarray, k: int, width: int, term, total, acc, flags):
    """Terms k+1..k+width of a 2F1 series at each point of x, and their sums.

    The block's term ratios (k+a)(k+b)/((k+c)(k+1)), which the plain and the
    regularized series share past the leading terms, times each row's x,
    give its terms by one ``cumprod`` per row from the carried ``term``;
    the running sums and the sums of |terms| run left to right from the
    carried ``total`` and ``acc``; and ``_stop_run`` gets each row's last
    two flags, ``flags``, which are None for an exact sum.  Every carry is
    a term or a sum, so no value depends on where the blocks are cut.
    Returns (terms, sums, accs, run, hit), one row per point: column 0 of
    terms, sums and accs holds what was carried in and column j the term
    k+j; run and hit are ``_stop_run``'s, or None for an exact sum.
    """
    a, b, c = abc
    n = _INDEX[k : k + width]
    ratio = np.ones(width + 1, dtype=complex)
    np.multiply(n + a, n + b, out=ratio[1:])
    ratio[1:] /= (n + c) * _INDEX[k + 1 : k + width + 1]
    # One outer product fills a fresh contiguous block, which numpy writes
    # several times faster than a strided one.  Column 0 takes the carries
    # by assignment: numpy's complex product can round a strided column
    # apart from a single element, which would tie the bits to the rows.
    terms = np.multiply.outer(x, ratio)
    terms[:, 0] = term
    # The ufuncs' accumulate is cumprod and cumsum without their wrappers.
    np.multiply.accumulate(terms, axis=1, out=terms)
    sums = terms.copy()
    sums[:, 0] = total
    np.add.accumulate(sums, axis=1, out=sums)
    accs = np.abs(terms)
    run = hit = None
    if flags is not None:
        run, hit = _stop_run(flags, accs[:, 1:], sums[:, 1:])
    accs[:, 0] = acc
    np.add.accumulate(accs, axis=1, out=accs)
    return terms, sums, accs, run, hit


def _block_tail_2f1(upper, lower, z, k, term, total, abs_acc, width):
    """The adaptive ``_ratio_loop_2f1`` summed in numpy column blocks: ``_sum_block`` on one row.

    Continues from term k as the loop does, with a first block ``width``
    terms wide and later ones doubling as in ``_series_batch``.  The
    stopping rule and the term cap are the loop's.  A term is a product of
    ratios, (k+a)(k+b)/((k+c)(k+1)) times x, not the loop's
    ((term (a+k)(b+k)) x) / ((c+k)(k+1)), so values differ from the loop's
    by rounding and equal the batch's at the same x; no value depends on
    the widths.  Returns (k, last term, total, sum of |terms|) as the loop
    does.
    """
    x = np.array([z])
    flags = np.zeros((1, 2), dtype=bool)
    # An overflow gives inf or nan terms, as in the loop, and no warning.
    with np.errstate(all="ignore"):
        while k < MAX_TERMS:
            width = min(width, MAX_TERMS - k)
            terms, sums, accs, run, hit = _sum_block(upper + lower, x, k, width, term, total, abs_acc, flags)
            j = int(hit[0].argmax()) + 1
            if hit[0, j - 1]:
                return k + j, complex(terms[0, j]), complex(sums[0, j]), float(accs[0, j])
            k += width
            term, total, abs_acc, flags = terms[0, -1], sums[0, -1], accs[0, -1], run[:, -2:]
            width = min(2 * width, BATCH_POINTS * _BATCH_COLS)
    return k, complex(term), complex(total), float(abs_acc)


def _series(upper, lower, z: complex, m_stop: int | None, regularized: bool) -> SeriesValue:
    """The series core: the plain or Olver-regularized pFq partial sum.

    m_stop is the exact termination order (inclusive) or None for the
    adaptive stopping rule.  ``regularized`` decides only the leading terms.
    Past them, two upper parameters and one lower take ``_ratio_loop_2f1``,
    or ``_block_tail_2f1`` for an adaptive sum of more than _TAIL_TERMS
    predicted terms; other arities take ``_ratio_loop``.
    """
    limit = m_stop if m_stop is not None else MAX_TERMS
    try:
        k0, term, total, abs_acc = _leading_terms(upper, lower, z, limit, regularized)
        args = (upper, lower, z, k0, limit, m_stop is None, term, total, abs_acc)
        if len(upper) != 2 or len(lower) != 1:
            k, term, total, abs_acc = _ratio_loop(*args)
        elif m_stop is None and (
            need := _predicted_terms(abs(z), (upper[0] + upper[1] - lower[0]).real - 1.0)
        ) > _TAIL_TERMS:
            width = _first_width(need, 1)
            k, term, total, abs_acc = _block_tail_2f1(upper, lower, z, k0, term, total, abs_acc, width)
        else:
            k, term, total, abs_acc = _ratio_loop_2f1(*args)
        size = abs(term)
    except OverflowError:
        # Python's abs of a complex with finite parts raises where the modulus overflows.
        raise FactorOverflow(f"the modulus of a series term at z={z} is past double range") from None
    terms_used = k + 1
    rounding = _EPS * abs_acc
    if m_stop is not None:
        return SeriesValue(total, rounding, terms_used, True)
    if k >= MAX_TERMS:
        warnings.warn(
            f"series stopped at the {MAX_TERMS}-term cap", TruncationWarning
        )
        return SeriesValue(total, 10.0 * size + rounding, terms_used, False)
    return SeriesValue(total, size + rounding, terms_used, False)


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


def _direct_2f1(a: complex, b: complex, c: complex, x: complex, regularized: bool) -> SeriesValue:
    """2F1(a, b; c; x), plain or regularized, by its series at x, exact where it terminates.

    Takes complex parameters and argument.  Callers keep the argument of a
    series that does not terminate within MAP_LIMIT, so the only check of
    ``_checked_series`` that can fire is the lower-pole guard.
    """
    m = termination_index((a, b))
    if not regularized:
        _lower_pole_guard((c,), None if m is None else m + 1)
    return _series((a, b), (c,), x, m, regularized)


def _continued_2f1(a: complex, b: complex, c: complex, z: complex, regularized: bool) -> SeriesValue:
    """2F1(a, b; c; z), plain or regularized, continued via the z/(z-1) map.

    Takes complex parameters and argument.  A series that terminates is
    summed at z.  Else, from |z| and |z-1| alone: CutError within CUT_GUARD
    of the cut; NoConvergentPath where neither |z| nor |z/(z-1)| (|z| <=
    MAP_LIMIT |z-1| at a finite |z|) is within MAP_LIMIT, as at a NaN part;
    the direct series within DIRECT_LIMIT or where |z| <= |z/(z-1)|, i.e.
    |z-1| <= 1; else the map's, whose series (a, c-b) terminates only by c-b.
    """
    if termination_index((a, b)) is not None:
        return _direct_2f1(a, b, c, z, regularized)
    if _CUT.distance(z) < CUT_GUARD:
        raise CutError(f"z={z} on the cut {_CUT}")
    az, az1 = modulus(z), modulus(z - 1.0)
    if not (az <= MAP_LIMIT or az <= MAP_LIMIT * az1 and az < math.inf):
        best = min(az, modulus(z / (z - 1.0)))
        raise NoConvergentPath(f"no transformed argument inside the disk (best modulus {best:.3f})")
    if az <= DIRECT_LIMIT or az1 <= 1.0:
        return _direct_2f1(a, b, c, z, regularized)
    series = _direct_2f1(a, c - b, c, z / (z - 1.0), regularized)
    try:
        fac = (1.0 - z) ** (-a)
        size = abs(fac)
    except OverflowError:
        raise FactorOverflow(f"(1-z)^(-a) at z={z}, a={a} is past double range") from None
    return SeriesValue(fac * series.value, size * series.abs_error_estimate, series.terms_used, series.terminated)


def gauss2f1(a, b, c, z) -> SeriesValue:
    """Gauss 2F1(a, b; c; z), continued off the disk via the z/(z-1) map."""
    return _continued_2f1(complex(a), complex(b), complex(c), complex(z), False)


def ohyp2f1(a, b, c, z) -> SeriesValue:
    """Olver-regularized 2F1; valid for every c, including c in -N0."""
    return _continued_2f1(complex(a), complex(b), complex(c), complex(z), True)


def _series_batch(a, b, c, z: np.ndarray, m_stop: int | None, regularized: bool = True):
    """The 2F1 series, regularized or plain, at every point of a 1-D array z: ``_sum_block`` on many rows.

    Sums terms 0..m_stop exactly or, when m_stop is None, stops each point
    by the scalar rule: STOP_RUN consecutive terms past the leading ones
    below STOP_RATIO of the running sum.  The leading terms are
    ``_leading_terms``' at the array z; later terms come in column blocks,
    the first ``_first_width`` terms wide and later ones doubling while a
    block stays within BATCH_POINTS * _BATCH_COLS terms.  Each block
    carries its rows' last terms, sums and stop flags to the next, and a
    row leaves the blocks where it stops.  Terms and sums are formed as in
    ``_block_tail_2f1`` and the estimate takes |last term| as the scalar
    ``abs`` does, so a point whose scalar series takes the blocks from its
    first term (a plain series, or Re c > 1/2) gets its bits.  Returns
    (value, error estimate, covered); a point that reaches the term cap is
    not covered.
    """
    value = np.zeros(z.size, dtype=complex)
    err = np.zeros(z.size)
    covered = np.zeros(z.size, dtype=bool)
    if not z.size:
        return value, err, covered
    adaptive = m_stop is None
    last = MAX_TERMS - 1 if adaptive else m_stop
    top = float(np.max(np.abs(z)))
    width = _first_width(_predicted_terms(top, (a + b - c).real - 1.0) if top < 1.0 else last, z.size)
    rows, x = np.arange(z.size), z
    flags = np.zeros((z.size, 2), dtype=bool) if adaptive else None
    # An overflow gives inf or nan values, which the callers send to the
    # scalar call, and no warning.
    with np.errstate(all="ignore"):
        k, term, total, acc = _leading_terms((a, b), (c,), z, last, regularized)
        while rows.size and k < last:
            width = min(width, last - k)
            terms, sums, accs, run, hit = _sum_block((a, b, c), x, k, width, term, total, acc, flags)
            term, total, acc = terms[:, -1], sums[:, -1], accs[:, -1]
            k += width
            if adaptive:
                flags = run[:, -2:]
                stop = hit.any(axis=1)
                if stop.any():
                    out, col = rows[stop], hit[stop].argmax(axis=1) + 1
                    end = terms[stop, col]
                    value[out] = sums[stop, col]
                    # np.hypot rounds as the scalar abs(complex) does.
                    err[out] = np.hypot(end.real, end.imag) + _EPS * accs[stop, col]
                    covered[out] = True
                    keep = ~stop
                    rows, x, term, total, acc, flags = (
                        v[keep] for v in (rows, x, term, total, acc, flags)
                    )
            width = min(2 * width, BATCH_POINTS * _BATCH_COLS // max(rows.size, 1))
    if not adaptive:
        value[:], err[:], covered[:] = total, _EPS * acc, True
    return value, err, covered


def _ohyp2f1_batch(a, b, c, z: np.ndarray, regularized: bool = True):
    """``ohyp2f1`` (``gauss2f1`` when not regularized) at every point of a 1-D array z: (value, error estimate, covered).

    Sums the direct series, exact where it terminates; else callers keep
    every |z| within MAP_LIMIT, and no point is mapped.  A point is not
    covered where the scalar series warns at the term cap or the batch's
    result is not finite; callers evaluate it with the scalar call.  The
    plain series runs no lower-pole guard: its callers keep c off -N0.
    """
    a, b, c = complex(a), complex(b), complex(c)
    value, err, ok = _series_batch(a, b, c, z, termination_index((a, b)), regularized)
    with np.errstate(invalid="ignore"):
        return value, err, ok & np.isfinite(value) & np.isfinite(err)


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
