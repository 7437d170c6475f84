"""Declarative catalog of the verified identities.

Each entry pairs a left-hand evaluator (contour derivative, iterated
weighted-derivative operator, repeated integral, or integral representation)
with the closed-form right-hand side, the paper's hypotheses for it, and a
sampling recipe that stays inside the entry's own admissible region.

Hypotheses are rows: each entry gives a function of the complex (alpha,
beta, gamma), z and n that returns (violated, message) pairs in the order
they are checked, and ``_check`` reports the first violated message.  The
first-kind and second-kind entries check their family's parameter guard
(``_p_valid`` or ``_q_valid``) first; the Rodrigues forms and SN have none.
Every integer-proximity row is one test, ``_near`` (within MARGIN of an
integer in a range), and every half-plane row ``_above`` or ``_below``.

Naming scheme: FD/FW/FR/FI/FJ/FK/FT drive the first-kind function (plain
derivatives, weighted-operator derivatives, Rodrigues forms, finite
multi-integrals, improper multi-integrals, measure-weighted multi-integrals,
Taylor sections); SRL/SD/SW/SI/SQ/SN and the ODE entries drive the second
kind.

Entries that share an oracle share one factory: ``_contour_entry`` (FD, FW,
SD, SW), ``_finite_entry`` (FI, FK) and ``_ray_entry`` (FJ, SI).  Each takes
its weight as (base, exponent) rows over the bases of ``_BASES`` and the
entry's hypothesis rows where it has any.

Each weight and closed form is written once.  The second kind restates the
first: ``_mirror`` registers SD1, SD3, SD4, SRL, SI1-3 and SW1-8 from FD1,
FD2, FD4, FD4 at n = 1, FJ1, FJ2, FJ4 and FW1-8.  A mirror takes the first
kind's weight rows and closed form with Q for P, w-1 for 1-w and z-1 for
1-z; the unweighted forms and the operators about -1 gain (-1)^n.  FJ1 and
FJ2 integrate FI1's and FI2's weights along the ray to infinity and share
their closed forms, and SD2's contour side is SD1's left side.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, partial, reduce
from operator import mul
from random import Random
from typing import Callable

import numpy as np

from .hypergeom import phyp, power
from .jacobi_first import (
    P_CUT,
    JacobiParams,
    jacobi_p,
    jacobi_p_scaled,
    jacobi_polynomial,
    taylor_section,
)
from .jacobi_second import (
    QIntegralSpec,
    jacobi_q,
    jacobi_q_integral_shifted,
    jacobi_q_log,
    neumann_q,
)
from .quadrature import (
    FLAT,
    INV_SQ_MINUS,
    INV_SQ_PLUS,
    RAY_MARGIN,
    Cut,
    RepeatedIntegralSpec,
    contour_derivative,
    contour_derivatives,
    contour_radius,
    repeated_integral,
)
from .scalar_kernel import gamma, pochhammer, reciprocal_gamma

Sampler = Callable[[Random, int], tuple[JacobiParams, complex]]
SideFn = Callable[[JacobiParams, complex, int], complex]
ConstraintFn = Callable[[JacobiParams, complex, int], str | None]
Rows = Callable[[complex, complex, complex, complex, int], tuple[tuple[bool, str], ...]]

P_DERIV_CUT = Cut.union(P_CUT, Cut.right_ray(1.0))
# Q's principal branch also jumps across (-oo, -1), so its contours keep off
# (-oo, 1], not only off its cut [-1, 1].
Q_DERIV_CUT = Cut.left_ray(1.0)

# Reject samples within MARGIN of a constraint boundary; ray entries use RAY_MARGIN.
MARGIN = 0.1

_eval_cost = 0


def _count(n: int = 1) -> None:
    global _eval_cost
    _eval_cost += n


def take_cost() -> int:
    """Return and reset the oracle-evaluation counter."""
    global _eval_cost
    c = _eval_cost
    _eval_cost = 0
    return c


def pval(a, b, g, w):
    """P at w (a scalar or an ndarray); counts one evaluation per point."""
    _count(np.size(w))
    return jacobi_p(JacobiParams(a, b, g), w).value


def qval(a, b, g, w):
    """Q at w (a scalar or an ndarray); counts one evaluation per point."""
    _count(np.size(w))
    return jacobi_q(JacobiParams(a, b, g), w).value


@dataclass(frozen=True)
class IdentityDescriptor:
    """One catalog entry: both sides, constraints, sampling, tolerances."""

    identity_id: str
    description: str
    n_values: tuple[int, ...]
    tolerance: float
    lhs: SideFn
    rhs: SideFn
    constraints: ConstraintFn
    sample: Sampler
    note: str | None = None


# --- hypotheses ----------------------------------------------------------------


def _near(x: complex, lo: float = -math.inf, hi: float = math.inf) -> bool:
    """Whether x lies within MARGIN of an integer in [lo, hi]."""
    return abs(x - min(hi, max(lo, round(x.real)))) < MARGIN


def _poch_zero(x: complex, k: int) -> bool:
    """Whether x lies within MARGIN of a zero 0, -1, ..., 1-k of (x)_k; never for k <= 0."""
    return k > 0 and _near(x, 1 - k, 0)


def _above(x: complex, bound: float, margin: float = MARGIN) -> bool:
    """Whether the hypothesis Re(x) > bound fails: Re(x) <= bound + margin."""
    return x.real <= bound + margin


def _below(x: complex, bound: float, margin: float = MARGIN) -> bool:
    """Whether the hypothesis Re(x) < bound fails: Re(x) >= bound - margin."""
    return x.real >= bound - margin


def _p_valid(a, b, g, z, n):
    return ((_near(a + g, hi=-1), "alpha+gamma near a negative integer"),)


def _q_valid(a, b, g, z, n):
    return (
        (_near(a + g, hi=-1), "alpha+gamma near a negative integer"),
        (_near(b + g, hi=-1), "beta+gamma near a negative integer"),
    )


def _connection_safe(a, b, g, z, n):
    """Reject parameters whose large-z decomposition of P degenerates."""
    return (
        (_near(a + b + 2 * g), "alpha+beta+2gamma near an integer (resonant connection)"),
        (_near(a + g, 0), "alpha+gamma near a non-negative integer (degenerate connection)"),
        (_near(b + g, 0), "beta+gamma near a non-negative integer (degenerate connection)"),
    )


def _integral_order(a, b, g, z, n):
    return ((n < 1, "an n-fold integral needs n >= 1"),)


def _check(hypotheses: tuple[Rows, ...], params: JacobiParams, z: complex, n: int) -> str | None:
    """The message of the first violated row of the row functions, in order, or None."""
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    for rows in hypotheses:
        for violated, message in rows(a, b, g, z, n):
            if violated:
                return message
    return None


def _guarded(kind: str, *rows: Rows) -> ConstraintFn:
    """The family guard of kind "P" or "Q", then the given row functions."""
    return partial(_check, (_p_valid if kind == "P" else _q_valid, *rows))


# --- samplers ----------------------------------------------------------------


def _u(rng: Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _cplx(rng: Random, lo: float, hi: float) -> complex:
    return complex(_u(rng, lo, hi), _u(rng, -0.45, 0.45))


def _z_deriv_p(rng: Random) -> complex:
    y = _u(rng, 0.35, 1.2) * (1.0 if rng.random() < 0.5 else -1.0)
    return complex(_u(rng, 0.2, 2.2), y)


def _z_int_p(rng: Random) -> complex:
    r = _u(rng, 0.35, 1.25)
    th = _u(rng, 0.2 * math.pi, 0.8 * math.pi) * (1.0 if rng.random() < 0.5 else -1.0)
    return 1.0 + r * cmath.exp(1j * th)


def _z_ray_p(rng: Random) -> complex:
    y = _u(rng, 0.35, 1.0) * (1.0 if rng.random() < 0.5 else -1.0)
    return complex(_u(rng, -0.3, 1.5), y)


def _z_q(rng: Random) -> complex:
    return complex(_u(rng, 1.4, 3.8), _u(rng, -1.0, 1.0))


def _box_sampler(
    zdraw: Callable[[Random], complex],
    a_box=(-0.65, 2.8),
    b_box=(-0.65, 2.8),
    g_box=(-0.6, 2.8),
) -> Sampler:
    """Draw alpha, beta, gamma from their boxes, then z; a box is (lo, hi) or a function of n."""

    def draw(rng: Random, n: int) -> tuple[JacobiParams, complex]:
        boxes = [box(n) if callable(box) else box for box in (a_box, b_box, g_box)]
        return JacobiParams(*(_cplx(rng, *box) for box in boxes)), zdraw(rng)

    return draw


_P_DERIV_SAMPLE = _box_sampler(_z_deriv_p)
_P_INT_SAMPLE = _box_sampler(_z_int_p)
_Q_SAMPLE = _box_sampler(_z_q, g_box=(-0.5, 2.5))


# --- LHS machinery -----------------------------------------------------------


_BASES = {"1-w": lambda w: 1.0 - w, "w-1": lambda w: w - 1.0, "1+w": lambda w: 1.0 + w}


@dataclass(frozen=True)
class _Kind:
    """What a closed form takes of its kind: the function, and 1-z (P) or z-1 (Q)."""

    val: Callable
    one: Callable[[complex], complex]


_KINDS = {"P": _Kind(pval, lambda z: 1.0 - z), "Q": _Kind(qval, lambda z: z - 1.0)}


def _weighted(kind: str, params: JacobiParams, rows=()):
    """P (kind "P") or Q (kind "Q") at w, times the powers of the weight rows."""
    a, b, g = params.alpha, params.beta, params.gamma
    val = _KINDS[kind].val
    exps = tuple((_BASES[sym], e(params)) for sym, e in rows)
    if not exps:
        return lambda w: val(a, b, g, w)
    return lambda w: reduce(mul, [power(base(w), e) for base, e in exps]) * val(a, b, g, w)


@cache
def _operator_coeffs(n: int) -> tuple[tuple[int, int], ...]:
    """Coefficients a_{n,k} of [(z-c)^2 D]^n = sum_k a_{n,k} (z-c)^(n+k) D^k."""
    coeffs = {1: 1}
    for m in range(1, n):
        nxt: dict[int, int] = {}
        for k, c in coeffs.items():
            nxt[k] = nxt.get(k, 0) + c * (m + k)
            nxt[k + 1] = nxt.get(k + 1, 0) + c
        coeffs = nxt
    return tuple(sorted(coeffs.items()))


def operator_power(f, z: complex, n: int, base_point: float, cut: Cut) -> complex:
    """Apply [(z - base_point)^2 d/dz]^n to f at z via one contour."""
    if n == 0:
        return complex(f(np.array([z]))[0])
    orders = tuple(range(1, n + 1))
    derivs = dict(zip(orders, contour_derivatives(f, z, orders, contour_radius(z, cut))))
    shift = z - base_point
    total = 0.0 + 0.0j
    for k, c in _operator_coeffs(n):
        total += c * shift ** (n + k) * derivs[k]
    return total


def rodrigues_jacobi(n: int, alpha, beta, z, variant: str = "ONE") -> complex:
    """Polynomial value from the n-fold weighted-operator formula.

    variant ONE uses the (z+1) operator on (w-1)^(alpha+n) (w+1)^(beta+1);
    variant TWO uses the (z-1) operator on (w-1)^(alpha+1) (w+1)^(beta+n).
    Both must reproduce the degree-n polynomial.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    a, b, z = complex(alpha), complex(beta), complex(z)
    if abs(z - 1.0) < 1e-9 or abs(z + 1.0) < 1e-9:
        raise ValueError("Rodrigues prefactors are singular at z = +-1")

    norm = 1.0 / (2.0**n * math.factorial(n))
    if variant.upper() == "ONE":
        operand = lambda w: power(w - 1.0, a + n) * power(w + 1.0, b + 1.0)
        op = operator_power(operand, z, n, -1.0, Q_DERIV_CUT)
        pre = cmath.exp(-a * cmath.log(z - 1.0) - (b + n + 1.0) * cmath.log(z + 1.0))
    elif variant.upper() == "TWO":
        operand = lambda w: power(w - 1.0, a + 1.0) * power(w + 1.0, b + n)
        op = operator_power(operand, z, n, 1.0, Q_DERIV_CUT)
        pre = cmath.exp(-(a + n + 1.0) * cmath.log(z - 1.0) - b * cmath.log(z + 1.0))
    else:
        raise ValueError("variant must be ONE or TWO")
    return norm * pre * op


# --- entry families ----------------------------------------------------------

_CATALOG: dict[str, IdentityDescriptor] = {}


def _register(entry: IdentityDescriptor) -> None:
    if entry.identity_id in _CATALOG:
        raise ValueError(f"duplicate identity id {entry.identity_id}")
    _CATALOG[entry.identity_id] = entry


# Each contour and ray entry by id: its factory (with the base point of an
# operator power), weight rows, closed form rhs(k, p, z, n) and base point.
_SOURCES: dict[str, tuple] = {}


def _contour_entry(
    ident, desc, kind, weight, rhs, base_point=None, cut=None, hypotheses=None, note=None,
    n_values=(1, 2, 3),
):
    """Contour oracle on the weighted P or Q (kind "P" or "Q").

    ``weight`` is (base, exponent) rows, and ``rhs(k, p, z, n)`` the closed
    form, given the ``_Kind`` k of the entry.  Without a base point the lhs is the plain n-th derivative; the contour
    keeps off ``cut``, by default both real rays outside [-1, 1] for P and
    (-oo, 1] for Q.  With one it is the operator power
    [(z - base_point)^2 D]^n, whose (w-1)^s weights carry a principal-branch
    cut on all of (-oo, 1].
    """
    if cut is None:
        cut = P_DERIV_CUT if kind == "P" and base_point is None else Q_DERIV_CUT

    def lhs(params: JacobiParams, z: complex, n: int) -> complex:
        f = _weighted(kind, params, weight)
        if base_point is None:
            return contour_derivative(f, z, n, cut=cut)
        return operator_power(f, z, n, base_point, cut)

    _SOURCES[ident] = (partial(_contour_entry, base_point=base_point), weight, rhs, base_point)
    sample = _P_DERIV_SAMPLE if kind == "P" else _Q_SAMPLE
    cons = _guarded(kind) if hypotheses is None else _guarded(kind, hypotheses)
    closed = partial(rhs, _KINDS[kind])
    _register(IdentityDescriptor(ident, desc, n_values, 1e-8, lhs, closed, cons, sample, note))


def _finite_entry(
    ident, desc, pairs, anchor_exp, rhs, hypotheses, measure=FLAT, sample=_P_INT_SAMPLE, note=None
):
    """Endpoint-weighted n-fold integral of P between z and 1.

    Under the flat measure it runs from z toward 1 (FI); under an
    inverse-square measure from 1 to z (FK).  The weights (1-w)^e and
    (w-1)^e come from the stable distance to 1; (1+w)^e factors are regular
    on the path.
    """
    toward_one = measure == FLAT

    def lhs(params: JacobiParams, z: complex, n: int) -> complex:
        a, b, g = params.alpha, params.beta, params.gamma
        exps = tuple((sym, complex(e(params))) for sym, e in pairs)

        def f(w: np.ndarray, hi_dist: np.ndarray, lo_dist: np.ndarray) -> np.ndarray:
            val = pval(a, b, g, w)
            one_dist = hi_dist if toward_one else lo_dist
            for sym, e in exps:
                val *= power(_BASES[sym](w) if sym == "1+w" else one_dist, e)
            return val

        if toward_one:
            spec = RepeatedIntegralSpec(n, z, 1.0, FLAT, "lower")
        else:
            spec = RepeatedIntegralSpec(n, 1.0, z, measure, "upper")
        return repeated_integral(f, spec, anchor_exponent=anchor_exp(params), rtol=1e-12).value

    cons = _guarded("P", _integral_order, hypotheses)
    _register(IdentityDescriptor(ident, desc, (1, 2), 1e-6, lhs, rhs, cons, sample, note))


def _ray_exponent(kind: str, pairs, p: JacobiParams) -> float:
    """The e with |f| = O(|w|^e) on the ray: P ~ A w^g + B w^(-g-a-b-1), Q ~ w^(-g-a-b-1), times the weights."""
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    lead = -(a + b + g + 1.0).real
    return (max(g.real, lead) if kind == "P" else lead) + sum(complex(e(p)).real for _, e in pairs)


def _ray_entry(ident, desc, kind, pairs, rhs, hypotheses, sample, note=None):
    """Improper n-fold integral of P or Q along the ray from z to infinity.

    P enters in scaled form and Q in log form, and the weights join in log
    space, so neither the dominant large-w branch nor a weight overflows
    before their product decays.  The scaled P runs through the large-z
    connection, so P entries also check ``_connection_safe``.  The ray's
    decay exponent, ``_ray_exponent``, is the one the hypothesis rows bound.
    """

    def lhs(p: JacobiParams, z: complex, n: int) -> complex:
        exps = tuple((_BASES[sym], complex(e(p))) for sym, e in pairs)

        def add_log_weights(log, w: np.ndarray):
            for base, e in exps:
                log = log + e * np.log(base(w))
            return log

        def f(w: np.ndarray, hi_dist: np.ndarray, lo_dist: np.ndarray) -> np.ndarray:
            _count(w.size)
            if kind == "Q":
                return np.exp(add_log_weights(jacobi_q_log(p, w), w))
            log_scale, mant = jacobi_p_scaled(p, w)
            return np.exp(add_log_weights(0.0 + 0.0j, w) + log_scale) * mant

        spec = RepeatedIntegralSpec(n, z, None, FLAT, "lower")
        return repeated_integral(f, spec, anchor_exponent=_ray_exponent(kind, pairs, p), rtol=1e-12).value

    _SOURCES[ident] = (_ray_entry, pairs, rhs, None)
    rows = (hypotheses, _connection_safe) if kind == "P" else (hypotheses,)
    cons = _guarded(kind, _integral_order, *rows)
    closed = partial(rhs, _KINDS[kind])
    _register(IdentityDescriptor(ident, desc, (1, 2), 1e-6, lhs, closed, cons, sample, note))


def _flipped(rhs, k: _Kind, p: JacobiParams, z: complex, n: int) -> complex:
    return rhs(k, p, z, n) * (-1.0) ** n


def _mirror(ident, desc, source, **own):
    """Register the second-kind entry ``ident`` as the mirror of ``source``.

    The mirror takes the source's oracle, weight rows and closed form with Q
    for P, w-1 for 1-w and z-1 for 1-z (``_Kind.one``); ``own`` holds the
    mirror's own hypotheses, sampler, note and n values.  Where the source
    has no weight or is an operator power about -1, the closed form gains
    (-1)^n, applied to the finished value so the other factors multiply in
    the source's order.
    """
    factory, weight, rhs, base_point = _SOURCES[source]
    rows = tuple(("w-1" if sym == "1-w" else sym, e) for sym, e in weight)
    closed = rhs if weight and base_point != -1.0 else partial(_flipped, rhs)
    factory(ident, desc, "Q", rows, closed, **own)


# --- FD: plain n-th derivatives of weighted P --------------------------------

_contour_entry(
    "FD1",
    "n-th derivative of the fully weighted function raises degree, lowers both exponents",
    "P",
    (("1-w", lambda p: p.alpha), ("1+w", lambda p: p.beta)),
    lambda k, p, z, n: (-2.0) ** n
    * pochhammer(p.gamma + 1.0, n)
    * power(k.one(z), p.alpha - n)
    * power(1.0 + z, p.beta - n)
    * k.val(p.alpha - n, p.beta - n, p.gamma + n, z),
)

_contour_entry(
    "FD2",
    "n-th derivative of the (1-z)-weighted function trades the exponents",
    "P",
    (("1-w", lambda p: p.alpha),),
    lambda k, p, z, n: pochhammer(-p.alpha - p.gamma, n)
    * power(k.one(z), p.alpha - n)
    * k.val(p.alpha - n, p.beta + n, p.gamma, z),
)

_contour_entry(
    "FD3",
    "n-th derivative of the (1+z)-weighted function trades the exponents",
    "P",
    (("1+w", lambda p: p.beta),),
    lambda k, p, z, n: (-1.0) ** n
    * pochhammer(-p.beta - p.gamma, n)
    * power(1.0 + z, p.beta - n)
    * k.val(p.alpha + n, p.beta - n, p.gamma, z),
)

_contour_entry(
    "FD4",
    "plain n-th derivative lowers degree, raises both exponents",
    "P",
    (),
    lambda k, p, z, n: 2.0**-n
    * pochhammer(p.alpha + p.beta + p.gamma + 1.0, n)
    * k.val(p.alpha + n, p.beta + n, p.gamma - n, z),
    cut=P_CUT,
)


# --- FW: [(z -+ 1)^2 D]^n operator identities for P ---------------------------

_contour_entry(
    "FW1",
    "degree-preserving operator power shifting the second exponent up",
    "P",
    (("w-1", lambda p: p.alpha + p.beta + p.gamma + 1.0),),
    lambda k, p, z, n: pochhammer(p.alpha + p.beta + p.gamma + 1.0, n)
    * power(z - 1.0, p.alpha + p.beta + p.gamma + 1.0 + n)
    * k.val(p.alpha, p.beta + n, p.gamma, z),
    base_point=1.0,
)

_contour_entry(
    "FW2",
    "operator power on the degree-scaled function lowering the degree",
    "P",
    (("w-1", lambda p: -p.gamma),),
    lambda k, p, z, n: pochhammer(-p.alpha - p.gamma, n)
    * power(z - 1.0, n - p.gamma)
    * k.val(p.alpha, p.beta + n, p.gamma - n, z),
    base_point=1.0,
)

_contour_entry(
    "FW3",
    "operator power raising the degree against the mixed weight",
    "P",
    (("1+w", lambda p: p.beta), ("w-1", lambda p: p.alpha + p.gamma + 1.0)),
    lambda k, p, z, n: 2.0**n
    * pochhammer(p.gamma + 1.0, n)
    * power(z + 1.0, p.beta - n)
    * power(z - 1.0, p.alpha + p.gamma + 1.0 + n)
    * k.val(p.alpha, p.beta - n, p.gamma + n, z),
    base_point=1.0,
)

_contour_entry(
    "FW4",
    "degree-preserving operator power shifting the second exponent down",
    "P",
    (("1+w", lambda p: p.beta), ("w-1", lambda p: -(p.beta + p.gamma))),
    lambda k, p, z, n: 2.0**n
    * pochhammer(-p.beta - p.gamma, n)
    * power(z + 1.0, p.beta - n)
    * power(z - 1.0, -(p.beta - n + p.gamma))
    * k.val(p.alpha, p.beta - n, p.gamma, z),
    base_point=1.0,
)

_contour_entry(
    "FW5",
    "mirrored operator power shifting the first exponent up",
    "P",
    (("1+w", lambda p: p.alpha + p.beta + p.gamma + 1.0),),
    lambda k, p, z, n: pochhammer(p.alpha + p.beta + p.gamma + 1.0, n)
    * power(z + 1.0, p.alpha + p.beta + p.gamma + 1.0 + n)
    * k.val(p.alpha + n, p.beta, p.gamma, z),
    base_point=-1.0,
)

_contour_entry(
    "FW6",
    "mirrored operator power lowering the degree",
    "P",
    (("1+w", lambda p: -p.gamma),),
    lambda k, p, z, n: pochhammer(1.0 + p.beta + p.gamma - n, n)
    * power(z + 1.0, n - p.gamma)
    * k.val(p.alpha + n, p.beta, p.gamma - n, z),
    base_point=-1.0,
)

_contour_entry(
    "FW7",
    "mirrored operator power raising the degree against the mixed weight",
    "P",
    (("w-1", lambda p: p.alpha), ("1+w", lambda p: p.beta + p.gamma + 1.0)),
    lambda k, p, z, n: 2.0**n
    * pochhammer(p.gamma + 1.0, n)
    * power(z - 1.0, p.alpha - n)
    * power(z + 1.0, p.beta + p.gamma + n + 1.0)
    * k.val(p.alpha - n, p.beta, p.gamma + n, z),
    base_point=-1.0,
    note="(z+1) exponent corrected to beta+gamma+n+1; the printed beta+gamma+n "
    "fails its own Rodrigues specialization and the n=1 hand check.",
)

_contour_entry(
    "FW8",
    "mirrored degree-preserving operator power shifting the first exponent down",
    "P",
    (("w-1", lambda p: p.alpha), ("1+w", lambda p: -(p.alpha + p.gamma))),
    lambda k, p, z, n: (-2.0) ** n
    * pochhammer(-p.alpha - p.gamma, n)
    * power(z - 1.0, p.alpha - n)
    * power(z + 1.0, -(p.alpha - n + p.gamma))
    * k.val(p.alpha - n, p.beta, p.gamma, z),
    base_point=-1.0,
)


# --- FR: Rodrigues forms ------------------------------------------------------


def _rodrigues_lhs(variant: str, params: JacobiParams, z: complex, n: int) -> complex:
    return rodrigues_jacobi(n, params.alpha, params.beta, z, variant)


def _rodrigues_rhs(params: JacobiParams, z: complex, n: int) -> complex:
    return jacobi_polynomial(n, params.alpha, params.beta, z)


_register(
    IdentityDescriptor(
        "FR1",
        "operator-power Rodrigues form built on the (z+1) operator",
        (1, 2, 3),
        1e-8,
        partial(_rodrigues_lhs, "ONE"),
        _rodrigues_rhs,
        partial(_check, ()),
        _P_DERIV_SAMPLE,
    )
)

_register(
    IdentityDescriptor(
        "FR2",
        "operator-power Rodrigues form built on the (z-1) operator",
        (1, 2, 3),
        1e-8,
        partial(_rodrigues_lhs, "TWO"),
        _rodrigues_rhs,
        partial(_check, ()),
        _P_DERIV_SAMPLE,
        note="operand corrected to (z-1)^(alpha+1)(z+1)^(beta+n): the printed "
        "(z-1)^alpha(z+1)^(beta+n+1) fails already at n=1, alpha=beta=0.",
    )
)


# --- FI: finite multi-integrals toward 1 --------------------------------------

# FI1 and FI2 share their weights and closed forms with FJ1 and FJ2, which
# integrate along the ray to infinity instead; FJ1's note records the sign.
_FI1_WEIGHTS = (("1-w", lambda p: p.alpha), ("1+w", lambda p: p.beta))
_FI2_WEIGHTS = (("1-w", lambda p: p.alpha),)


def _fi1_rhs(k: _Kind, p: JacobiParams, z: complex, n: int) -> complex:
    return (
        (-1.0) ** n
        / (2.0**n * pochhammer(-p.gamma, n))
        * power(k.one(z), p.alpha + n)
        * power(1.0 + z, p.beta + n)
        * k.val(p.alpha + n, p.beta + n, p.gamma - n, z)
    )


def _fi2_rhs(k: _Kind, p: JacobiParams, z: complex, n: int) -> complex:
    return (
        power(k.one(z), p.alpha + n)
        / pochhammer(p.alpha + p.gamma + 1.0, n)
        * k.val(p.alpha + n, p.beta - n, p.gamma, z)
    )


_finite_entry(
    "FI1",
    "n-fold weighted integral toward 1 lowering the degree",
    _FI1_WEIGHTS,
    lambda p: complex(p.alpha).real,
    partial(_fi1_rhs, _KINDS["P"]),
    lambda a, b, g, z, n: (
        (_above(a, -1.0), "Re(alpha) too close to -1"),
        (_above(b, -1.0), "Re(beta) too close to -1"),
        (_poch_zero(-g, n), "(-gamma)_n vanishes"),
    ),
)

_finite_entry(
    "FI2",
    "n-fold (1-w)-weighted integral toward 1 trading the exponents",
    _FI2_WEIGHTS,
    lambda p: complex(p.alpha).real,
    partial(_fi2_rhs, _KINDS["P"]),
    lambda a, b, g, z, n: ((_above(a, -1.0), "Re(alpha) too close to -1"),),
)


def _fi3a_rows(a, b, g, z, n):
    s = a + b + g
    return (
        (_poch_zero(-s, n), "(-alpha-beta-gamma)_n vanishes"),
        (_poch_zero(g + 2.0, n - 1), "(gamma+2)_k vanishes inside the boundary series"),
    )


def _fi3a_rhs(p: JacobiParams, z: complex, n: int) -> complex:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    s = a + b + g
    main = (
        2.0**n
        / pochhammer(-s, n)
        * pval(a - n, b - n, g + n, z)
    )
    boundary = (
        2.0
        * gamma(a + g + 1.0)
        * power(1.0 - z, n - 1)
        / (math.factorial(n - 1) * s)
        * reciprocal_gamma(a)
        * reciprocal_gamma(g + 2.0)
        * phyp((1.0 - n, 1.0 - a, 1.0), (g + 2.0, 1.0 - s), 2.0 / (1.0 - z)).value
    )
    return main + boundary


_finite_entry(
    "FI3a",
    "n-fold plain integral toward 1: degree-raising form plus boundary series",
    (),
    lambda p: 0.0,
    _fi3a_rhs,
    _fi3a_rows,
)


def _fi3b_rhs(p: JacobiParams, z: complex, n: int) -> complex:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    series = phyp(
        (-g, a + b + g + 1.0, 1.0), (a + 1.0, n + 1.0), 0.5 * (1.0 - z)
    )
    return (
        gamma(a + g + 1.0)
        * reciprocal_gamma(a + 1.0)
        * reciprocal_gamma(g + 1.0)
        * power(1.0 - z, n)
        / math.factorial(n)
        * series.value
    )


_finite_entry(
    "FI3b",
    "n-fold plain integral toward 1: single convergent series form",
    (),
    lambda p: 0.0,
    _fi3b_rhs,
    lambda a, b, g, z, n: (
        (_near(a + 1.0, hi=0), "alpha+1 near a non-positive integer"),
        (abs(1.0 - z) > 1.45, "|1-z| outside the convergence disk of the closed form"),
    ),
)


# --- FJ: improper multi-integrals along the ray to infinity -------------------

_ray_entry(
    "FJ1",
    "n-fold weighted ray integral lowering the degree",
    "P",
    _FI1_WEIGHTS,
    _fi1_rhs,
    lambda a, b, g, z, n: (
        (_below(a + b + g, -n, RAY_MARGIN), "Re(alpha+beta+gamma) not below -n"),
        (_above(g, n - 1, RAY_MARGIN), "Re(gamma) not above n-1"),
    ),
    _box_sampler(
        _z_ray_p,
        lambda n: (-n - 2.4, -0.9),
        lambda n: (-n - 2.4, -0.9),
        lambda n: (n - 0.55, n + 0.7),
    ),
    note="sign corrected to (-1)^n/(2^n(-gamma)_n): the printed positive "
    "constant contradicts the n=1 proof display factor 1/(2 gamma).",
)

_ray_entry(
    "FJ2",
    "n-fold (1-w)-weighted ray integral trading the exponents",
    "P",
    _FI2_WEIGHTS,
    _fi2_rhs,
    lambda a, b, g, z, n: (
        (_below(a + g, -n, RAY_MARGIN), "Re(alpha+gamma) not below -n"),
        (_above(b + g, n - 1, RAY_MARGIN), "Re(beta+gamma) not above n-1"),
    ),
    _box_sampler(
        _z_ray_p,
        lambda n: (-n - 2.8, -n - 0.45),
        lambda n: (n + 0.5, n + 2.4),
        lambda n: (-0.55, 0.75),
    ),
)

_ray_entry(
    "FJ3",
    "n-fold (1+w)-weighted ray integral trading the exponents",
    "P",
    (("1+w", lambda p: p.beta),),
    lambda k, p, z, n: (-1.0) ** n
    * power(1.0 + z, p.beta + n)
    / pochhammer(p.beta + p.gamma + 1.0, n)
    * k.val(p.alpha - n, p.beta + n, p.gamma, z),
    lambda a, b, g, z, n: (
        (_below(b + g, -n, RAY_MARGIN), "Re(beta+gamma) not below -n"),
        (_above(a + g, n - 1, RAY_MARGIN), "Re(alpha+gamma) not above n-1"),
    ),
    _box_sampler(
        _z_ray_p,
        lambda n: (n + 0.5, n + 2.4),
        lambda n: (-n - 2.8, -n - 0.45),
        lambda n: (-0.55, 0.75),
    ),
)

_ray_entry(
    "FJ4",
    "n-fold plain ray integral raising the degree",
    "P",
    (),
    lambda k, p, z, n: 2.0**n
    / pochhammer(-p.alpha - p.beta - p.gamma, n)
    * k.val(p.alpha - n, p.beta - n, p.gamma + n, z),
    lambda a, b, g, z, n: (
        (_below(g, -n, RAY_MARGIN), "Re(gamma) not below -n"),
        (_above(a + b + g, n - 1, RAY_MARGIN), "Re(alpha+beta+gamma) not above n-1"),
    ),
    _box_sampler(
        _z_ray_p,
        lambda n: (n + 0.6, n + 2.2),
        lambda n: (n + 0.6, n + 2.2),
        lambda n: (-n - 2.2, -n - 0.45),
    ),
    note="LHS weight removed: the printed (1+w)^beta contradicts the "
    "weightless derivative relation the proof integrates.",
)


# --- FK: measure-weighted multi-integrals from 1 ------------------------------

_finite_entry(
    "FK1",
    "n-fold (w-1)^-2-measure integral shifting the second exponent down",
    (("w-1", lambda p: p.alpha + p.beta + p.gamma + 1.0),),
    lambda p: (complex(p.alpha) + complex(p.beta) + complex(p.gamma) + 1.0).real,
    lambda p, z, n: power(z - 1.0, p.alpha + p.beta + p.gamma + 1.0 - n)
    / pochhammer(p.alpha + p.beta + p.gamma - n + 1.0, n)
    * pval(p.alpha, p.beta - n, p.gamma, z),
    lambda a, b, g, z, n: (
        (_above(a + b + g + 1.0, n), "Re(alpha+beta+gamma+1) not above n"),
    ),
    measure=INV_SQ_MINUS,
)

_finite_entry(
    "FK2",
    "n-fold (w-1)^-2-measure integral lowering the degree",
    (("1+w", lambda p: p.beta), ("w-1", lambda p: p.alpha + p.gamma + 1.0)),
    lambda p: (complex(p.alpha) + complex(p.gamma) + 1.0).real,
    lambda p, z, n: power(z + 1.0, p.beta + n)
    * power(z - 1.0, p.alpha + p.gamma - n + 1.0)
    / (2.0**n * pochhammer(p.gamma - n + 1.0, n))
    * pval(p.alpha, p.beta + n, p.gamma - n, z),
    lambda a, b, g, z, n: (
        (_above(a + g + 1.0, n), "Re(alpha+gamma+1) not above n"),
        (_poch_zero(g - n + 1.0, n), "(gamma-n+1)_n vanishes"),
    ),
    measure=INV_SQ_MINUS,
)

_finite_entry(
    "FK3",
    "n-fold (w+1)^-2-measure integral lowering the degree",
    (("w-1", lambda p: p.alpha), ("1+w", lambda p: p.beta + p.gamma + 1.0)),
    lambda p: complex(p.alpha).real,
    lambda p, z, n: power(z - 1.0, p.alpha + n)
    * power(z + 1.0, p.beta + p.gamma - n + 1.0)
    / (2.0**n * pochhammer(p.gamma - n + 1.0, n))
    * pval(p.alpha + n, p.beta, p.gamma - n, z),
    lambda a, b, g, z, n: (
        (_above(a + n, 0), "Re(alpha+n) not positive"),
        (_above(a, -1.0), "Re(alpha) too close to -1 for the first iterate"),
        (_poch_zero(g - n + 1.0, n), "(gamma-n+1)_n vanishes"),
    ),
    measure=INV_SQ_PLUS,
)

_finite_entry(
    "FK4",
    "n-fold (w+1)^-2-measure integral shifting the first exponent up",
    (("w-1", lambda p: p.alpha), ("1+w", lambda p: -(p.alpha + p.gamma))),
    lambda p: complex(p.alpha).real,
    lambda p, z, n: power(z - 1.0, p.alpha + n)
    * power(z + 1.0, -(p.alpha + n + p.gamma))
    / (2.0**n * pochhammer(1.0 + p.alpha + p.gamma, n))
    * pval(p.alpha + n, p.beta, p.gamma, z),
    lambda a, b, g, z, n: (
        (_above(a + n, 0), "Re(alpha+n) not positive"),
        (_above(a, -1.0), "Re(alpha) too close to -1 for the first iterate"),
    ),
    measure=INV_SQ_PLUS,
)

_finite_entry(
    "FK5",
    "n-fold (w-1)^-2-measure integral raising the degree",
    (("w-1", lambda p: -p.gamma),),
    lambda p: -complex(p.gamma).real,
    lambda p, z, n: (-1.0) ** n
    / pochhammer(p.alpha + p.gamma + 1.0, n)
    * power(z - 1.0, -(p.gamma + n))
    * pval(p.alpha, p.beta - n, p.gamma + n, z),
    lambda a, b, g, z, n: ((_below(g, -n), "Re(gamma) not below -n"),),
    measure=INV_SQ_MINUS,
    sample=_box_sampler(_z_int_p, g_box=(-4.4, -1.35)),
)

_finite_entry(
    "FK6",
    "n-fold (w-1)^-2-measure integral shifting the second exponent up",
    (("1+w", lambda p: p.beta), ("w-1", lambda p: -(p.beta + p.gamma))),
    lambda p: -(complex(p.beta) + complex(p.gamma)).real,
    lambda p, z, n: (-1.0) ** n
    / (2.0**n * pochhammer(p.beta + p.gamma + 1.0, n))
    * power(z + 1.0, p.beta + n)
    * power(z - 1.0, -(p.beta + p.gamma + n))
    * pval(p.alpha, p.beta + n, p.gamma, z),
    lambda a, b, g, z, n: ((_below(b + g, -n), "Re(beta+gamma) not below -n"),),
    measure=INV_SQ_MINUS,
    sample=_box_sampler(_z_int_p, b_box=(-2.3, 0.4), g_box=(-4.4, -1.35)),
    note="RHS resolved to (-1)^n/(2^n(beta+gamma+1)_n) (z+1)^(beta+n) "
    "(z-1)^-(beta+gamma+n) P with the beta+n shift; the print drops the +n "
    "twice and the shift (brace typo).",
)


def _fk7_rows(a, b, g, z, n):
    s = a + b + g
    return (
        (abs(s) < MARGIN, "alpha+beta+gamma near 0"),
        (_poch_zero(s + 1.0 - n, n), "(alpha+beta+gamma+1-n)_n vanishes"),
        (_near(a + g, hi=0), "alpha+gamma near a non-positive integer (boundary gamma factor)"),
        (_near(a - n + g, hi=-1), "alpha-n+gamma near a negative integer (shifted validity)"),
    )


def _fk7_rhs(p: JacobiParams, z: complex, n: int) -> complex:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    s = a + b + g
    main = (
        power(z + 1.0, s + 1.0 - n)
        / pochhammer(s + 1.0 - n, n)
        * pval(a - n, b, g, z)
    )
    boundary = (
        power(2.0, s + 1.0 - n)
        * gamma(a + g)
        * reciprocal_gamma(a)
        * reciprocal_gamma(g + 1.0)
        / (s * math.factorial(n - 1))
        * power((z - 1.0) / (z + 1.0), n - 1)
        * phyp(
            (1.0 - n, 1.0 - a, 1.0),
            (1.0 - a - g, 1.0 - s),
            (z + 1.0) / (z - 1.0),
        ).value
    )
    return main - boundary


_finite_entry(
    "FK7",
    "n-fold (w+1)^-2-measure plain-weight integral with boundary series",
    (("1+w", lambda p: p.alpha + p.beta + p.gamma + 1.0),),
    lambda p: 0.0,
    _fk7_rhs,
    _fk7_rows,
    measure=INV_SQ_PLUS,
)


def _fk8_rhs(p: JacobiParams, z: complex, n: int) -> complex:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    main = (
        pval(a - n, b, g + n, z)
        / (pochhammer(b + g + 1.0, n) * power(z + 1.0, g + n))
    )
    boundary = (
        gamma(a + g + 1.0)
        * reciprocal_gamma(a)
        * reciprocal_gamma(g + 2.0)
        / (power(2.0, g + n) * (b + g + 1.0) * math.factorial(n - 1))
        * power((z - 1.0) / (z + 1.0), n - 1)
        * phyp(
            (1.0 - n, 1.0 - a, 1.0),
            (2.0 + g, 2.0 + b + g),
            (z + 1.0) / (z - 1.0),
        ).value
    )
    return main - boundary


_finite_entry(
    "FK8",
    "n-fold (w+1)^-2-measure degree-scaled integral with boundary series",
    (("1+w", lambda p: -p.gamma),),
    lambda p: 0.0,
    _fk8_rhs,
    lambda a, b, g, z, n: (
        (_poch_zero(b + g + 1.0, n), "(beta+gamma+1)_n vanishes"),
        (_poch_zero(g + 2.0, n - 1), "(gamma+2)_k vanishes inside the boundary series"),
    ),
    measure=INV_SQ_PLUS,
)


# --- FT: Taylor section -------------------------------------------------------


def _ft1_lhs(p: JacobiParams, z: complex, n: int) -> complex:
    return taylor_section(p, n, z)[0]


def _ft1_rhs(p: JacobiParams, z: complex, n: int) -> complex:
    return taylor_section(p, n, z)[1]


def _ft1_rows(a, b, g, z, n):
    s = a + b + g
    return ((_near(-s, hi=0), "alpha+beta+gamma near a non-negative integer (prefactor pole)"),)


_register(
    IdentityDescriptor(
        "FT1",
        "truncated Taylor sum about 1 equals its terminating series closed form",
        (1, 2, 3),
        1e-6,
        _ft1_lhs,
        _ft1_rhs,
        _guarded("P", _ft1_rows),
        _P_INT_SAMPLE,
        note="prefactor power resolved to ((1-z)/2)^(n-1); the printed "
        "((z-1)/2)^(n-1) flips every even-n value.",
    )
)


# --- SRL: first derivative via the raising/lowering pair ----------------------


def raising_form(p: JacobiParams, z: complex) -> complex:
    """First derivative of Q written with the degree-raising companion."""
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    return (b - a - z * (a + b)) / (z * z - 1.0) * qval(a, b, g, z) - 2.0 * (
        g + 1.0
    ) / (z * z - 1.0) * qval(a - 1.0, b - 1.0, g + 1.0, z)


# The lowering form is SD4 at n = 1.
_mirror(
    "SRL",
    "first derivative of the second-kind function via its lowering form",
    "FD4",
    n_values=(1,),
)


# --- SD: plain n-th derivatives of weighted Q ---------------------------------

_mirror(
    "SD1",
    "n-th derivative of the fully weighted second-kind function",
    "FD1",
    note="theorem constant (-2)^n(gamma+1)_n confirmed; the proof display's "
    "+2(gamma+1) belongs to the (1-z)-weighted operand.",
)


def _sd2_rhs(p: JacobiParams, z: complex, n: int) -> complex:
    """Q from SD1's left side at (alpha+n, beta+n, gamma-n)."""
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    deriv = _CATALOG["SD1"].lhs(JacobiParams(a + n, b + n, g - n), z, n)
    return deriv / (2.0**n * pochhammer(-g, n)) * power(z - 1.0, -a) * power(z + 1.0, -b)


_register(
    IdentityDescriptor(
        "SD2",
        "round trip: Q recovered from the derivative of its shifted companion",
        (1, 2, 3),
        1e-8,
        lambda p, z, n: qval(p.alpha, p.beta, p.gamma, z),
        _sd2_rhs,
        _guarded("Q", lambda a, b, g, z, n: ((_poch_zero(-g, n), "(-gamma)_n vanishes"),)),
        _Q_SAMPLE,
    )
)

_mirror("SD3", "n-th derivative of the (z-1)-weighted second-kind function", "FD2")

_mirror("SD4", "plain n-th derivative of the second-kind function", "FD4")


# --- SI: improper multi-integrals of Q ----------------------------------------

_mirror(
    "SI1",
    "n-fold weighted ray integral of Q lowering the degree",
    "FJ1",
    hypotheses=lambda a, b, g, z, n: (
        (_above(a, -1.0, RAY_MARGIN), "Re(alpha) not above -1"),
        (_above(b, -1.0, RAY_MARGIN), "Re(beta) not above -1"),
        (_above(g, n, RAY_MARGIN), "Re(gamma) not above n"),
    ),
    sample=_box_sampler(_z_q, g_box=(1.3, 3.4)),
)

_mirror(
    "SI2",
    "n-fold (w-1)-weighted ray integral of Q trading the exponents",
    "FJ2",
    hypotheses=lambda a, b, g, z, n: (
        (_above(a, -1.0, RAY_MARGIN), "Re(alpha) not above -1"),
        (_above(b, n - 1, RAY_MARGIN), "Re(beta) not above n-1"),
        (_above(b + g + 1.0, n, RAY_MARGIN), "Re(beta+gamma+1) not above n"),
    ),
    sample=_box_sampler(_z_q, b_box=(1.3, 3.2), g_box=(-0.4, 2.4)),
)

_mirror(
    "SI3",
    "n-fold plain ray integral of Q raising the degree",
    "FJ4",
    hypotheses=lambda a, b, g, z, n: (
        (_above(a, n - 1, RAY_MARGIN), "Re(alpha) not above n-1"),
        (_above(b, n - 1, RAY_MARGIN), "Re(beta) not above n-1"),
        (_above(a + b + g + 1.0, n, RAY_MARGIN), "Re(alpha+beta+gamma+1) not above n"),
    ),
    sample=_box_sampler(_z_q, a_box=(1.3, 3.2), b_box=(1.3, 3.2), g_box=(-0.4, 2.4)),
)


# --- SW: operator-power identities for Q --------------------------------------

# The note of each mirror of an operator power about -1.
_SW_MIRROR_NOTE = (
    "(-1)^n restored: the (z+1) operator corresponds to d/dx with "
    "x = 2/(1+z), whose Jacobian is negative, unlike the first-kind case."
)

_mirror("SW1", "second-kind analog of the degree-preserving (z-1) operator power", "FW1")

_mirror(
    "SW2",
    "second-kind analog of the degree-lowering (z-1) operator power",
    "FW2",
    hypotheses=lambda a, b, g, z, n: (
        (_near(a + g - n, hi=-1), "alpha+gamma-n near a negative integer (shifted validity)"),
    ),
)

_mirror("SW3", "second-kind analog of the degree-raising (z-1) operator power", "FW3")

_mirror(
    "SW4",
    "second-kind analog of the exponent-lowering (z-1) operator power",
    "FW4",
    hypotheses=lambda a, b, g, z, n: (
        (_near(b - n + g, hi=-1), "beta-n+gamma near a negative integer (shifted validity)"),
    ),
)

_mirror(
    "SW5",
    "second-kind analog of the mirrored exponent-raising operator power",
    "FW5",
    note=_SW_MIRROR_NOTE,
)

_mirror(
    "SW6",
    "second-kind analog of the mirrored degree-lowering operator power",
    "FW6",
    hypotheses=lambda a, b, g, z, n: (
        (_near(b + g - n, hi=-1), "beta+gamma-n near a negative integer (shifted validity)"),
    ),
    note=_SW_MIRROR_NOTE,
)

_mirror(
    "SW7",
    "second-kind analog of the mirrored degree-raising operator power",
    "FW7",
    note=f"{_SW_MIRROR_NOTE} (z+1) exponent also corrected to beta+gamma+n+1.",
)

_mirror(
    "SW8",
    "second-kind analog of the mirrored exponent-lowering operator power",
    "FW8",
    note=_SW_MIRROR_NOTE,
)


# --- SQ / SN: integral representations of Q -----------------------------------


def _sq_lhs(p: JacobiParams, z: complex, n: int) -> complex:
    _count()
    return jacobi_q_integral_shifted(QIntegralSpec(p, z, n)).value


def _sq_rhs(p: JacobiParams, z: complex, n: int) -> complex:
    return qval(p.alpha, p.beta, p.gamma, z)


def _sq_rows(a, b, g, z, n):
    """SQk's hypotheses for k = n; SQ0 is k = 0, where the Pochhammer row is empty."""
    return (
        (_above(a + g - n, -1.0), "Re(alpha+gamma-k) not above -1"),
        (_above(b + g - n, -1.0), "Re(beta+gamma-k) not above -1"),
        (_poch_zero(-g, n), "(-gamma)_k vanishes"),
    )


_register(
    IdentityDescriptor(
        "SQ0",
        "weighted-kernel integral representation equals the series value",
        (0,),
        1e-6,
        _sq_lhs,
        _sq_rhs,
        _guarded("Q", _sq_rows),
        _box_sampler(_z_q, g_box=(0.0, 2.6)),
    )
)

_register(
    IdentityDescriptor(
        "SQk",
        "shifted kernel integral with interior polynomial equals the series value",
        (0, 1, 2),
        1e-6,
        _sq_lhs,
        _sq_rhs,
        _guarded("Q", _sq_rows),
        _box_sampler(_z_q, a_box=(0.3, 2.8), b_box=(0.3, 2.8), g_box=(1.2, 2.8)),
    )
)


def _sn_lhs(p: JacobiParams, z: complex, n: int) -> complex:
    _count()
    return neumann_q(n, p.alpha, p.beta, z).value


def _sn_rhs(p: JacobiParams, z: complex, n: int) -> complex:
    return qval(p.alpha, p.beta, float(n), z)


def _sn_rows(a, b, g, z, n):
    return (
        (_above(a, -1.0), "Re(alpha) not above -1"),
        (_above(b, -1.0), "Re(beta) not above -1"),
    )


_register(
    IdentityDescriptor(
        "SN",
        "integer-degree kernel integral against the matching polynomial",
        (0, 1, 2),
        1e-6,
        _sn_lhs,
        _sn_rhs,
        partial(_check, (_sn_rows,)),
        _box_sampler(_z_q),
    )
)


# --- ODE residual entries ------------------------------------------------------


def _ode_terms(kind: str, p: JacobiParams, z: complex) -> tuple[complex, complex, complex]:
    """The three terms of the defining ODE for P (kind "P") or Q at z."""
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    f = _weighted(kind, p)
    cut = P_CUT if kind == "P" else Q_DERIV_CUT
    w0, w1, w2 = contour_derivatives(f, z, (0, 1, 2), contour_radius(z, cut))
    t1 = (1.0 - z * z) * w2
    t2 = (b - a - z * (a + b + 2.0)) * w1
    t3 = g * (a + b + g + 1.0) * w0
    return t1, t2, t3


def _ode_lhs(kind: str, p: JacobiParams, z: complex, n: int) -> complex:
    t1, t2, _ = _ode_terms(kind, p, z)
    return t1 + t2


def _ode_rhs(kind: str, p: JacobiParams, z: complex, n: int) -> complex:
    return -_ode_terms(kind, p, z)[2]


for _kind, _sample in (("P", _P_DERIV_SAMPLE), ("Q", _Q_SAMPLE)):
    _register(
        IdentityDescriptor(
            f"ODE-{_kind}",
            f"differential-equation residual of the {_kind} solution",
            (0,),
            1e-7,
            partial(_ode_lhs, _kind),
            partial(_ode_rhs, _kind),
            _guarded(_kind),
            _sample,
        )
    )


CATALOG: dict[str, IdentityDescriptor] = dict(_CATALOG)

CATALOG_ORDER: tuple[str, ...] = tuple(CATALOG)
