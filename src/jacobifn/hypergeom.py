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
* ``reverse_finite_series`` -- a finite sum evaluated both directly and in
  reversed order as a new hypergeometric sum in 1/z; the two routes must
  agree and are used as mutual checks.

All powers are principal: w**s = exp(s Log w) with Arg in (-pi, pi].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import (
    ContinuationRequired,
    CutError,
    DivergentError,
    LowerPoleError,
    NoConvergentPath,
    TruncationWarning,
    ZeroArgument,
)
from .scalar_kernel import exact_memo, pochhammer_product, reciprocal_gamma

STOP_RATIO = 1e-15
STOP_RUN = 3
MAX_TERMS = 10_000
_EPS = 2.220446049250313e-16


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


def _cut_distance(z: complex) -> float:
    """Distance from z to the ray [1, oo) on the real axis."""
    if z.real >= 1.0:
        return abs(z.imag)
    return abs(z - 1.0)


def _pick_argument(z: complex, terminating: bool) -> str:
    """Choose between the direct series and the z/(z-1) map."""
    if terminating or abs(z) <= 0.75:
        return "direct"
    u = z / (z - 1.0)
    if abs(z) <= abs(u):
        choice, mod = "direct", abs(z)
    else:
        choice, mod = "pfaff", abs(u)
    if mod > 0.99:
        raise NoConvergentPath(
            f"no transformed argument inside the disk (best modulus {mod:.3f})"
        )
    return choice


def _continued_2f1(a, b, c, z, regularized: bool) -> SeriesValue:
    """2F1(a, b; c; z), plain or regularized, continued via the z/(z-1) map."""
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    terminating = termination_index((a, b)) is not None
    if _cut_distance(z) < 1e-12 and not terminating:
        raise CutError(f"z={z} on the cut [1, oo)")
    series = ohyp if regularized else phyp
    if _pick_argument(z, terminating) == "direct":
        return series((a, b), (c,), z)
    inner = series((a, c - b), (c,), z / (z - 1.0))
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
