"""Integration and differentiation oracles.

* Gauss-Jacobi rules (Golub-Welsch) for weighted integrals on [-1, 1] with
  endpoint singularities absorbed into the weight.
* Improper integrals of a declared decay exponent along a ray via the
  u/(1-u) compactification and tanh-sinh quadrature, which tolerates the
  algebraic endpoint behavior the substitution creates at u = 1.
* Reduction of n-fold iterated integrals to a single weighted integral via
  the repeated-integration kernel, in the measure's own antiderivative
  variable.
* Cauchy-contour derivatives by trapezoid sums on circles, with geometric
  convergence and multi-order reuse of the sampled values; the sums for all
  orders are one ``numpy.fft.fft`` of the samples (the trapezoid rule on a
  circle is a discrete Fourier transform, Trefethen & Weideman 2014).
* Branch cuts as ``Cut``: unions of closed real intervals with one distance
  rule for scalars and arrays.  The contour radii, the Jacobi functions'
  domains and the 2F1's cut all measure with it, against one ``CUT_GUARD``.
  Its ``modulus`` gives an array the scalar call's bits at every point, as
  it does the routing predicates of the 2F1, P and Q.

Every oracle calls its integrand with ndarrays of nodes, and the integrand
returns an array of values.  The Gauss sums call it once per rule size.  A
tanh-sinh rule's first call takes its levels 0-4 together, and a contour's
first call its first two levels; each later level is one call (on a deep
tanh-sinh level, one per chunk of 2048 nodes) with that level's new nodes.
The first call is speculative: an integrand that raises at a node of a
level the rule would not have reached raises.  A scalar callable runs
there as ``numpy.vectorize(f, otypes=[complex])``.  A level whose samples
or sum are not finite (an integrand that overflows, or returns inf or nan
at a node) raises NonConvergence rather than return inf or nan, and its
weights and sums do not warn first.

All routines are pure.  Gauss rules, the tanh-sinh node maps (per rule and
levels of a call) and the contours' roots of unity (per point count) are
built once and kept in tables that are only appended to, the last two
read-only, so concurrent readers are safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import (
    CutIntersection,
    DecayCheckFailed,
    ExponentError,
    NonConvergence,
    OrderCapExceeded,
)
from .result import EvalResult

FLAT = "flat"
INV_SQ_MINUS = "inv_sq_minus"
INV_SQ_PLUS = "inv_sq_plus"

_RULE_SIZES = (8, 16, 32, 64, 128, 256)
_RULE_TABLE: dict[tuple[int, float, float], "QuadratureRule"] = {}


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for the weight (1-t)^a (1+t)^b on (-1, 1)."""

    nodes: np.ndarray
    weights: np.ndarray
    exponent_a: float
    exponent_b: float


def gauss_jacobi_rule(m: int, a: float, b: float) -> QuadratureRule:
    """m-point Gauss-Jacobi rule, exact for polynomial degree <= 2m-1.

    Golub-Welsch: eigen-decompose the symmetric tridiagonal matrix of the
    three-term recurrence for the weight (1-t)^a (1+t)^b.
    """
    if m < 1:
        raise ValueError("rule size must be >= 1")
    if a <= -1.0 or b <= -1.0:
        raise ExponentError(f"weight exponents must exceed -1, got ({a}, {b})")
    key = (int(m), float(a), float(b))
    hit = _RULE_TABLE.get(key)
    if hit is not None:
        return hit

    ab = a + b
    diag = np.zeros(m)
    if ab + 2.0 != 0.0:
        diag[0] = (b - a) / (ab + 2.0)
    for k in range(1, m):
        diag[k] = (b * b - a * a) / ((2 * k + ab) * (2 * k + ab + 2.0))
    off = np.zeros(m - 1)
    for k in range(1, m):
        if k == 1:
            # (k + ab) / (2k + ab - 1) cancels algebraically at k = 1.
            val = 4.0 * (1 + a) * (1 + b) / ((2 + ab) ** 2 * (3 + ab))
        else:
            val = (
                4.0 * k * (k + a) * (k + b) * (k + ab)
                / ((2 * k + ab) ** 2 * (2 * k + ab + 1.0) * (2 * k + ab - 1.0))
            )
        off[k - 1] = math.sqrt(val)

    if m == 1:
        nodes = diag.copy()
        first = np.ones(1)
    else:
        jac = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        eigval, eigvec = np.linalg.eigh(jac)
        nodes = eigval
        first = eigvec[0, :]

    mu0 = math.exp(
        (ab + 1.0) * math.log(2.0)
        + math.lgamma(a + 1.0)
        + math.lgamma(b + 1.0)
        - math.lgamma(ab + 2.0)
    )
    weights = mu0 * first**2
    order = np.argsort(nodes)
    rule = QuadratureRule(nodes[order], weights[order], float(a), float(b))
    _RULE_TABLE[key] = rule
    return rule


def integrate_finite(
    f: Callable[[np.ndarray], np.ndarray],
    a_endpoint_exp: float,
    b_endpoint_exp: float,
    *,
    rtol: float = 1e-11,
) -> EvalResult:
    """Integral of f(t) (1-t)^a (1+t)^b over [-1, 1] by rule doubling.

    f is the smooth factor only; the endpoint weight is absorbed by the rule.
    It is called once per rule size, with the ndarray of the rule's nodes.
    """
    if a_endpoint_exp <= -1.0 or b_endpoint_exp <= -1.0:
        raise ExponentError("endpoint exponents must exceed -1")
    prev = None
    delta = math.inf
    for m in _RULE_SIZES:
        rule = gauss_jacobi_rule(m, a_endpoint_exp, b_endpoint_exp)
        samples = f(rule.nodes)
        with np.errstate(**_QUIET):
            total = np.sum(rule.weights * samples)
        _require_finite(total, f"gauss-jacobi-{m}")
        if prev is not None:
            delta = abs(total - prev)
            if delta <= rtol * max(abs(total), 1e-300):
                return EvalResult(total, delta, f"gauss-jacobi-{m}")
        prev = total
    if delta > 1e-8 * max(abs(prev), 1e-300):
        raise NonConvergence(
            f"doubling stalled at {_RULE_SIZES[-1]} nodes (rel change {delta / max(abs(prev), 1e-300):.2e})"
        )
    return EvalResult(prev, delta, f"gauss-jacobi-{_RULE_SIZES[-1]}")


# numpy error handling for the weights and sums of a level: a sample that
# is not finite makes its weighted value and the level's sum non-finite (a
# complex inf times a real weight forms inf * 0; opposite infs cancel to
# nan), and ``_require_finite`` raises NonConvergence for the level, so the
# arithmetic on the way must not warn first.
_QUIET = {"invalid": "ignore", "over": "ignore"}


def _require_finite(value, label: str) -> None:
    """Raise NonConvergence when a sum or its samples are not all finite.

    An integrand that overflows (inf) or forms inf * 0 (nan) at a node
    would otherwise pass the doubling tests, which compare with NaN as
    false, and come back as a result.
    """
    if not np.all(np.isfinite(value)):
        raise NonConvergence(f"{label}: integrand values not finite")


# --- tanh-sinh machinery ------------------------------------------------------

# |t| cap keeps u/(1-u) below ~1e75 so integrand factors with algebraic
# growth stay inside double range.
_TS_TMAX = 4.7
_TS_MAX_LEVEL = 11
_TS_SEG_TMAX = 5.0
# Nodes per integrand call: a deep level is evaluated in chunks, so the
# integrand's temporaries stay the size of a chunk, not of a level.  A
# multiple of the Jacobi batches' BATCH_POINTS.
_TS_CHUNK = 2048


# Levels 0 to _TS_FIRST_LEVEL go to the integrand in one call: 151 ray
# nodes or 161 segment nodes, within one Jacobi batch of BATCH_POINTS, where
# most integrals stop.  A call costs far more than its points, so the nodes
# of a level the rule may not reach are cheaper than a call per level.
_TS_FIRST_LEVEL = 4


def _level_nodes(tmax: float, level: int) -> np.ndarray:
    """The new nodes of a level: 0, +-1, +-2, ... at level 0, then the odd
    multiples of 2^-level, the positive ones first."""
    if level == 0:
        t = np.arange(1.0, math.floor(tmax) + 1.0)
        return np.concatenate(([0.0], t, -t))
    h = 0.5**level
    t = np.arange(1.0, math.floor(tmax / h) + 1.0, 2.0) * h
    return np.concatenate((t, -t))


def _ray_map(t: np.ndarray) -> tuple[np.ndarray, ...]:
    """u/(1-u), du/dt and (1-u)^2 at the nodes t of the ray's rule."""
    s = 0.5 * math.pi * np.sinh(t)
    # u = (1 + tanh(s)) / 2 computed without cancellation at either end.
    e2s = np.exp(2.0 * s)
    u = np.where(s < 0, e2s / (1.0 + e2s), 1.0 / (1.0 + np.exp(-2.0 * s)))
    omu = 1.0 / (1.0 + e2s)
    sech = 2.0 / (np.exp(s) + np.exp(-s))
    dudt = 0.25 * math.pi * np.cosh(t) * sech * sech
    return u / omu, dudt, omu * omu


def _segment_map(t: np.ndarray) -> tuple[np.ndarray, ...]:
    """x, 1-x, 1+x and dx/dt at the nodes t of the segment's rule."""
    s = 0.5 * math.pi * np.sinh(t)
    sa = np.abs(s)
    e2 = np.exp(-2.0 * sa)
    comp = 2.0 * e2 / (1.0 + e2)  # 1 - |x|
    right = s >= 0
    x = np.where(right, 1.0 - comp, comp - 1.0)
    omx = np.where(right, comp, 2.0 - comp)
    opx = np.where(right, 2.0 - comp, comp)
    sech = 2.0 / (np.exp(sa) + np.exp(-sa))
    dxdt = 0.5 * math.pi * np.cosh(t) * sech * sech
    return x, omx, opx, dxdt


@functools.cache
def _columns(node_map, tmax: float, levels: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """node_map at the new nodes of ``levels``, joined, built once and kept read-only.

    A rule's first call takes levels 0 to _TS_FIRST_LEVEL, a deeper call one
    level.  ``node_map`` takes an ndarray of t to the columns from which the
    integrand's values are formed.
    """
    cols = node_map(np.concatenate([_level_nodes(tmax, level) for level in levels]))
    for col in cols:
        col.flags.writeable = False
    return cols


@functools.cache
def _offsets(tmax: float, levels: tuple[int, ...]) -> tuple[int, ...]:
    """Where each of ``levels`` starts in ``_columns``, and where the last ends."""
    return tuple(accumulate((_level_nodes(tmax, level).size for level in levels), initial=0))


def _first_levels() -> tuple[int, ...]:
    """The levels of a rule's first call: 0 to _TS_FIRST_LEVEL."""
    return tuple(range(_TS_FIRST_LEVEL + 1))


def _level_values(values, columns: tuple[np.ndarray, ...]) -> np.ndarray:
    """values at the mapped nodes of a level, in chunks of at most _TS_CHUNK nodes, joined."""
    n = columns[0].size
    if n <= _TS_CHUNK:
        return values(*columns)
    return np.concatenate(
        [values(*(col[i : i + _TS_CHUNK] for col in columns)) for i in range(0, n, _TS_CHUNK)]
    )


def _tanh_sinh(values, node_map, tmax: float, rtol: float, label: str) -> EvalResult:
    """Tanh-sinh doubling on t in [-tmax, tmax]: step 1, then 1/2, ..., 2^-_TS_MAX_LEVEL.

    ``values`` maps the columns of ``node_map`` at an ndarray of t to the
    weighted integrand there.  Its first call takes the nodes of levels 0 to
    _TS_FIRST_LEVEL, and each later level's new (odd) nodes follow in calls
    of at most _TS_CHUNK nodes.  The sums, tests and result are those of one
    call per level, but the first call is speculative: an integrand that
    raises at a node of a level the rule would not have reached raises here
    too.
    """
    first = values(*_columns(node_map, tmax, _first_levels()))
    ends = _offsets(tmax, _first_levels())
    v = first[: ends[1]]
    half = v.size // 2
    with np.errstate(**_QUIET):
        total = v[0] + np.sum(v[1 : half + 1] + v[half + 1 :])
    _require_finite(total, f"{label}-0")
    prev = None
    delta = math.inf
    for level in range(1, _TS_MAX_LEVEL + 1):
        h = 0.5**level
        if level <= _TS_FIRST_LEVEL:
            v = first[ends[level] : ends[level + 1]]
        else:
            v = _level_values(values, _columns(node_map, tmax, (level,)))
        half = v.size // 2
        with np.errstate(**_QUIET):
            total = 0.5 * total + h * np.sum(v[:half] + v[half:])
        _require_finite(total, f"{label}-{level}")
        if prev is not None:
            delta = float(abs(total - prev))
            if delta <= rtol * max(abs(total), 1e-300):
                return EvalResult(complex(total), delta, f"{label}-{level}")
        prev = total
    if delta > 1e-8 * max(abs(total), 1e-300):
        raise NonConvergence(f"{label} stalled at level {_TS_MAX_LEVEL} (abs change {delta:.2e})")
    return EvalResult(complex(total), delta, f"{label}-{_TS_MAX_LEVEL}")


# How far below -1 a ray integrand's decay exponent must lie.
RAY_MARGIN = 0.25


def integrate_to_infinity(
    f: Callable[[np.ndarray], np.ndarray],
    start: complex,
    decay_exponent: float,
    *,
    rtol: float = 1e-11,
) -> EvalResult:
    """Integral of f along the ray start + t, t in [0, oo), where |f| = O(t^decay_exponent).

    Substitutes t = u/(1-u) and runs tanh-sinh on u in (0, 1), doubling the
    node density until two levels agree.  f takes an ndarray of points.  An
    exponent above -1 - RAY_MARGIN raises DecayCheckFailed before f is called.
    """
    if not decay_exponent <= -1.0 - RAY_MARGIN:
        raise DecayCheckFailed(f"declared decay exponent {decay_exponent} is above {-1.0 - RAY_MARGIN}")
    start = complex(start)

    def values(ratio, dudt, om2):
        samples = f(start + ratio)
        with np.errstate(**_QUIET):
            return samples * dudt / om2

    return _tanh_sinh(values, _ray_map, _TS_TMAX, rtol, "tanh-sinh")


def tanh_sinh_segment(g, *, rtol: float = 1e-11) -> EvalResult:
    """Integral over x in (-1, 1) of g(x, 1-x, 1+x) by tanh-sinh doubling.

    The endpoint complements are passed explicitly (computed without
    cancellation), so integrands with algebraic or oscillatory endpoint
    factors of complex exponent can be formed stably at nodes exponentially
    close to +-1.  g takes three ndarrays.
    """

    def values(x, omx, opx, dxdt):
        # Copies: the node maps are shared, and g may write into its arguments.
        samples = g(x.copy(), omx.copy(), opx.copy())
        with np.errstate(**_QUIET):
            return samples * dxdt

    return _tanh_sinh(values, _segment_map, _TS_SEG_TMAX, rtol, "tanh-sinh-seg")


# --- repeated integrals ------------------------------------------------------

ORDER_CAP = 6


@dataclass(frozen=True)
class RepeatedIntegralSpec:
    """n-fold iterated integral description.

    ``variable_end`` names the endpoint carrying the evaluation point; the
    repeated-integration kernel vanishes there, and each iterate vanishes at
    the opposite (anchor) endpoint.  ``upper=None`` means +infinity along the
    positive-real ray, which forces the lower end to be the variable one.
    """

    order_n: int
    lower: complex
    upper: complex | None
    measure: str = FLAT
    variable_end: str = "lower"


def _measure_funcs(measure: str):
    if measure == FLAT:
        return (lambda w: w), (lambda w: 1.0 + 0.0j), None
    if measure == INV_SQ_MINUS:
        return (lambda w: -1.0 / (w - 1.0)), (lambda w: (w - 1.0) ** -2), 1.0
    if measure == INV_SQ_PLUS:
        return (lambda w: -1.0 / (w + 1.0)), (lambda w: (w + 1.0) ** -2), -1.0
    raise ValueError(f"unknown measure {measure!r}")


def repeated_integral(
    f,
    spec: RepeatedIntegralSpec,
    *,
    anchor_exponent: float = 0.0,
    rtol: float = 1e-11,
) -> EvalResult:
    """Reduce an n-fold iterated integral to one weighted integral.

    The kernel (U(v) - U(w))^(n-1) / (n-1)! (U the measure antiderivative,
    v the variable endpoint) collapses the iteration.  The declared anchor
    exponent describes f's own algebraic behavior at the anchor end; with
    the kernel's n - 1 at the variable end it gates integrability; on a ray,
    where the anchor end is infinity, the ray takes anchor_exponent + n - 1
    as its decay exponent.  The single integral runs on tanh-sinh nodes
    (complex exponents included), or along the compactified ray for improper
    specs.

    f is called as f(w, hi_dist, lo_dist) with ndarrays: the nodes and
    their offsets hi - w and w - lo from the segment's ends, computed
    without cancellation, so integrands can form singular endpoint factors
    stably at nodes exponentially close to an end.  On a ray,
    lo_dist = w - lower and hi_dist = inf.
    """
    n = spec.order_n
    if n < 1:
        raise ValueError("order_n must be >= 1")
    if n > ORDER_CAP:
        raise OrderCapExceeded(f"order {n} exceeds the supported cap {ORDER_CAP}")
    u_of, density, sing_point = _measure_funcs(spec.measure)

    if spec.upper is None:
        if spec.variable_end != "lower":
            raise ValueError("improper repeated integrals evaluate at the lower end")
        if spec.measure != FLAT:
            raise ValueError("improper repeated integrals support the flat measure only")
        z = complex(spec.lower)
        fac = 1.0 / math.factorial(n - 1)

        def ray_integrand(w: np.ndarray) -> np.ndarray:
            lo_dist = w - z
            return f(w, np.full(w.shape, math.inf), lo_dist) * lo_dist ** (n - 1) * fac

        res = integrate_to_infinity(ray_integrand, z, anchor_exponent + n - 1, rtol=rtol)
        return EvalResult(res.value, res.abs_error_estimate, f"repeated-{n}|{res.provenance}")

    lo = complex(spec.lower)
    hi = complex(spec.upper)
    var_pt, anc_pt = (lo, hi) if spec.variable_end == "lower" else (hi, lo)
    sign = 1.0 if spec.variable_end == "upper" else -1.0
    fac = 1.0 / math.factorial(n - 1)

    # Integrability gate in t-space: t=+1 is the upper end, t=-1 the lower.
    exp_upper = n - 1 if spec.variable_end == "upper" else anchor_exponent
    exp_lower = n - 1 if spec.variable_end == "lower" else anchor_exponent

    measure_at_anchor = False
    if sing_point is not None:
        if abs(var_pt - sing_point) < 1e-9:
            raise ValueError("measure singularity at the variable endpoint")
        if abs(anc_pt - sing_point) < 1e-9:
            # Kernel blows like U(w)^(n-1) and the density like dist^-2 there.
            measure_at_anchor = True
            if abs(hi - sing_point) < 1e-9:
                exp_upper += -(n - 1) - 2
            else:
                exp_lower += -(n - 1) - 2

    if exp_upper <= -1.0 or exp_lower <= -1.0:
        raise ExponentError(
            f"combined endpoint exponents ({exp_upper:.3f}, {exp_lower:.3f}) not integrable"
        )

    half = 0.5 * (hi - lo)
    u_var = u_of(var_pt)

    def g(t: np.ndarray, omt: np.ndarray, opt: np.ndarray) -> np.ndarray:
        hi_dist = half * omt  # hi - w
        lo_dist = half * opt  # w - lo
        w = np.where(t < 0, lo + lo_dist, hi - hi_dist)
        if measure_at_anchor:
            # Form U-differences from the stable endpoint offsets.
            anchor_is_lo = abs(anc_pt - lo) < 1e-9
            anc_dist = lo_dist if anchor_is_lo else hi_dist
            var_dist = hi_dist if anchor_is_lo else lo_dist
            w_minus_s0 = anc_dist if anchor_is_lo else -anc_dist
            # U(v) - U(w) = (v - w) / ((w - s0)(v - s0)) for the 1/(w-s0)^2
            # measures.
            vw = var_dist * (1.0 if spec.variable_end == "upper" else -1.0)
            kern = (sign * vw / (w_minus_s0 * (var_pt - sing_point))) ** (n - 1) * fac
            dens = w_minus_s0**-2
        else:
            kern = (sign * (u_var - u_of(w))) ** (n - 1) * fac
            dens = density(w)
        return f(w, hi_dist, lo_dist) * kern * dens * half

    res = tanh_sinh_segment(g, rtol=rtol)
    return EvalResult(res.value, res.abs_error_estimate, f"repeated-{n}|{res.provenance}")


# --- contour derivatives -----------------------------------------------------


# Points within CUT_GUARD of a cut count as on it.
CUT_GUARD = 1e-12


def where(cond, a, b, _array=np.ndarray):
    """a where cond holds, else b: elementwise when cond is an ndarray.

    Lets one routing predicate serve a scalar call and a batch.
    """
    if isinstance(cond, _array):
        return np.where(cond, a, b)
    return a if cond else b


def modulus(w, _array=np.ndarray):
    """|w| of a scalar or, elementwise, an ndarray, with the same bits either way.

    numpy's complex ``abs`` can differ from Python's in the last bit, ``np.hypot``
    of the parts cannot.  Route predicates compare only such moduli.  A
    modulus past double range is inf either way, with no error or warning."""
    if isinstance(w, _array):
        with np.errstate(over="ignore"):
            return np.hypot(w.real, w.imag)
    try:
        return abs(w)
    except OverflowError:
        return math.inf


class Cut:
    """A union of closed intervals (lo, hi) of the real axis; lo may be -inf, hi inf."""

    def __init__(self, pieces: tuple[tuple[float, float], ...]):
        self.pieces = pieces

    @staticmethod
    def left_ray(x0: float) -> "Cut":
        """The ray (-oo, x0] on the real axis."""
        return Cut(((-math.inf, x0),))

    @staticmethod
    def right_ray(x0: float) -> "Cut":
        """The ray [x0, oo) on the real axis."""
        return Cut(((x0, math.inf),))

    @staticmethod
    def segment(a: float, b: float) -> "Cut":
        """The real segment [a, b]."""
        return Cut(((a, b),))

    @staticmethod
    def union(*cuts: "Cut") -> "Cut":
        """The pieces of all the cuts."""
        return Cut(tuple(piece for c in cuts for piece in c.pieces))

    def distance(self, z):
        """Distance from z, a scalar or a 1-D ndarray, to the cut.

        Over a piece (lo <= Re z <= hi) it is |Im z|, elsewhere |z - the
        nearer end| by ``modulus``; the least over the pieces, elementwise
        for an array.
        """
        x, im = z.real, abs(z.imag)
        best = None
        for lo, hi in self.pieces:
            # A ray's nearer end is its finite one; a NaN x gives NaN or inf with any end.
            if lo == -math.inf:
                d = where(x <= hi, im, modulus(z - hi))
            elif hi == math.inf:
                d = where(lo <= x, im, modulus(z - lo))
            else:
                right = lo <= x
                d = where(right & (x <= hi), im, modulus(z - where(right, hi, lo)))
            best = d if best is None else where(d < best, d, best)
        return best

    def __str__(self) -> str:
        """The pieces as intervals, as "(-oo, -1]" or "[-1, 1]", for messages."""
        ends = (
            ("(-oo" if lo == -math.inf else f"[{lo:g}", "oo)" if hi == math.inf else f"{hi:g}]")
            for lo, hi in self.pieces
        )
        return " u ".join(f"{left}, {right}" for left, right in ends)


@functools.cache
def _unit_points(m: int, odd: bool) -> np.ndarray:
    """The m roots of unity exp(2 pi i k / m), or with ``odd`` the m points
    halfway between them, exp(2 pi i (2k + 1) / (2m)); built once, read-only.

    The points of a contour level of m points are z0 + radius times these.
    """
    if odd:
        points = np.exp(2j * np.pi * (2 * np.arange(m) + 1) / (2 * m))
    else:
        points = np.exp(2j * np.pi * np.arange(m) / m)
    points.flags.writeable = False
    return points


def contour_derivatives(
    f: Callable[[np.ndarray], np.ndarray],
    z0: complex,
    orders: tuple[int, ...],
    radius: float,
    *,
    rtol: float = 1e-11,
) -> tuple[complex, ...]:
    """Derivatives of several orders from one set of circle samples.

    Trapezoid sums of f(w)/(w-z0)^(n+1) on |w - z0| = radius, doubling the
    point count (and reusing previous samples) until every order is stable.
    The sums for all orders are one FFT of the samples.  f's first call
    takes the m points of the first level and the m odd points of the
    second, the fewest with which the test can pass; each later call takes
    one level's new points.
    """
    z0 = complex(z0)
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    nmax = max(orders)
    m = 16
    while m < 4 * nmax:
        m *= 2
    index = np.array(orders)
    scale = np.array([math.factorial(n) / radius**n for n in orders])
    circle = z0 + radius * _unit_points(m, False)
    first = np.asarray(f(np.concatenate((circle, z0 + radius * _unit_points(m, True)))), dtype=complex)
    vals, odd_vals = first[:m], first[m:]
    prev = None
    while True:
        _require_finite(vals, f"contour-{m}")
        est = np.fft.fft(vals)[index] * scale / m
        if prev is not None:
            floor = 64.0 * 2.2e-16 * np.max(np.abs(vals)) * scale
            if not np.any(np.abs(est - prev) > np.maximum(rtol * np.abs(est), floor)):
                return tuple(complex(e) for e in est)
        if m >= 4096:
            raise NonConvergence(f"contour trapezoid stalled at {m} points")
        prev = est
        if odd_vals is None:
            odd_vals = f(z0 + radius * _unit_points(m, True))
        merged = np.empty(2 * m, dtype=complex)
        merged[0::2] = vals
        merged[1::2] = odd_vals
        vals = merged
        odd_vals = None
        m *= 2


def contour_radius(z0: complex, cut: Cut, radius: float | None = None) -> float:
    """The radius of a derivative contour about z0 that keeps clear of a cut.

    By default half the distance to the cut, capped at 0.5.  A disk that
    touches the cut (z0 on it, or a given radius too large) raises
    CutIntersection.
    """
    z0 = complex(z0)
    dist = cut.distance(z0)
    if radius is None:
        radius = min(0.5, 0.5 * dist)
    if radius <= 0.0 or radius >= dist:
        raise CutIntersection(
            f"disk of radius {radius} about {z0} touches the cut (distance {dist:.3e})"
        )
    return radius


def contour_derivative(
    f: Callable[[np.ndarray], np.ndarray],
    z0: complex,
    n: int,
    radius: float | None = None,
    *,
    cut: Cut | None = None,
    rtol: float = 1e-11,
) -> complex:
    """n-th derivative of an analytic f at z0 via the Cauchy integral.

    When a cut is declared, the default radius is half the distance to it
    (capped at 0.5) and a disk touching the cut raises CutIntersection.
    f is called as for ``contour_derivatives``.
    """
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    z0 = complex(z0)
    if cut is not None:
        radius = contour_radius(z0, cut, radius)
    elif radius is None:
        radius = 0.5
    return contour_derivatives(f, z0, (n,), radius, rtol=rtol)[0]
