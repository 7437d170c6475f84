"""Declarative catalog of the verified identities.

Each entry pairs a left-hand evaluator (contour derivative, iterated
weighted-derivative operator, repeated integral, or integral representation)
with the closed-form right-hand side, a constraint predicate naming any
violated hypothesis, and a sampling recipe that stays inside the entry's own
admissible region.

Naming scheme: FD/FW/FR/FI/FJ/FK/FT drive the first-kind function (plain
derivatives, weighted-operator derivatives, Rodrigues forms, finite
multi-integrals, improper multi-integrals, measure-weighted multi-integrals,
Taylor sections); SRL/SD/SW/SI/SQ/SN and the ODE entries drive the second
kind.

Entries that share an oracle share one factory: ``_contour_entry`` (FD, FW,
SD, SW), ``_finite_entry`` (FI, FK) and ``_ray_entry`` (FJ, SI).  Every
entry's constraints open with its family's parameter guard (``_guard``).
"""

from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass
from functools import partial
from random import Random
from typing import Callable

import numpy as np

from .hypergeom import phyp, power
from .jacobi_first import (
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

P_DERIV_CUT = Cut.union(Cut.left_ray(-1.0), Cut.right_ray(1.0))
P_PLAIN_CUT = Cut.left_ray(-1.0)
Q_DERIV_CUT = Cut.left_ray(1.0)

# Margins: reject samples this close to a constraint boundary (finite /
# improper entries respectively).
MARGIN = 0.1
RAY_MARGIN = 0.25

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


# --- constraint helpers ------------------------------------------------------


def _dist_nonpos_int(x: complex) -> float:
    x = complex(x)
    m = min(0, round(x.real))
    return abs(x - m)


def _dist_neg_int(x: complex) -> float:
    x = complex(x)
    m = min(-1, round(x.real))
    return abs(x - m)


def _dist_int(x: complex) -> float:
    return abs(complex(x) - round(complex(x).real))


def _poch_zero_dist(x: complex, n: int) -> float:
    """Distance from x to the zero set {0, -1, ..., -(n-1)} of (x)_n."""
    if n <= 0:
        return math.inf
    x = complex(x)
    m = -min(n - 1, max(0, round(-x.real)))
    return abs(x - m)


def _p_valid(a, b, g) -> str | None:
    if _dist_neg_int(complex(a) + complex(g)) < MARGIN:
        return "alpha+gamma near a negative integer"
    return None


def _q_valid(a, b, g) -> str | None:
    if _dist_neg_int(complex(a) + complex(g)) < MARGIN:
        return "alpha+gamma near a negative integer"
    if _dist_neg_int(complex(b) + complex(g)) < MARGIN:
        return "beta+gamma near a negative integer"
    return None


def _connection_safe(a, b, g) -> str | None:
    """Reject parameters whose large-z decomposition of P degenerates."""
    if _dist_int(a + b + 2 * g) < MARGIN:
        return "alpha+beta+2gamma near an integer (resonant connection)"
    for label, s in (("alpha+gamma", a + g), ("beta+gamma", b + g)):
        s = complex(s)
        m = round(s.real)
        if m >= 0 and abs(s - m) < MARGIN:
            return f"{label} near a non-negative integer (degenerate connection)"
    return None


# --- samplers ----------------------------------------------------------------


def _u(rng: Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _cplx(rng: Random, lo: float, hi: float, im: float = 0.45) -> complex:
    return complex(_u(rng, lo, hi), _u(rng, -im, im))


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
    im: float = 0.45,
) -> Sampler:
    def draw(rng: Random, n: int) -> tuple[JacobiParams, complex]:
        return (
            JacobiParams(
                _cplx(rng, *a_box, im=im),
                _cplx(rng, *b_box, im=im),
                _cplx(rng, *g_box, im=im),
            ),
            zdraw(rng),
        )

    return draw


_P_DERIV_SAMPLE = _box_sampler(_z_deriv_p)
_P_INT_SAMPLE = _box_sampler(_z_int_p)
_Q_SAMPLE = _box_sampler(_z_q, g_box=(-0.5, 2.5))


# --- LHS machinery -----------------------------------------------------------


def _weighted(kind: str, params: JacobiParams, weight: Callable[[complex], complex] | None):
    """P (kind "P") or Q (kind "Q") at w, times weight(w) when a weight is given."""
    a, b, g = params.alpha, params.beta, params.gamma
    val = pval if kind == "P" else qval
    if weight is None:
        return lambda w: val(a, b, g, w)
    return lambda w: weight(w) * val(a, b, g, w)


def plain_derivative(f, z: complex, n: int, cut: Cut) -> complex:
    return contour_derivative(f, z, n, cut=cut)


_OPERATOR_COEFFS: dict[int, tuple[tuple[int, int], ...]] = {}


def _operator_coeffs(n: int) -> tuple[tuple[int, int], ...]:
    """Coefficients a_{n,k} of [(z-c)^2 D]^n = sum_k a_{n,k} (z-c)^(n+k) D^k."""
    if n in _OPERATOR_COEFFS:
        return _OPERATOR_COEFFS[n]
    coeffs = {1: 1}
    for m in range(1, n):
        nxt: dict[int, int] = {}
        for k, c in coeffs.items():
            nxt[k] = nxt.get(k, 0) + c * (m + k)
            nxt[k + 1] = nxt.get(k + 1, 0) + c
        coeffs = nxt
    out = tuple(sorted(coeffs.items()))
    _OPERATOR_COEFFS[n] = out
    return out


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


# --- entry families ----------------------------------------------------------

_CATALOG: dict[str, IdentityDescriptor] = {}


def _register(entry: IdentityDescriptor) -> None:
    if entry.identity_id in _CATALOG:
        raise ValueError(f"duplicate identity id {entry.identity_id}")
    _CATALOG[entry.identity_id] = entry


def _guard(kind: str, extra: ConstraintFn | None = None) -> ConstraintFn:
    """The family's parameter guard (``_p_valid`` or ``_q_valid``), then extra."""
    valid = _p_valid if kind == "P" else _q_valid

    def cons(params: JacobiParams, z: complex, n: int) -> str | None:
        bad = valid(params.alpha, params.beta, params.gamma)
        if bad is None and extra is not None:
            bad = extra(params, z, n)
        return bad

    return cons


def _contour_entry(
    ident, desc, kind, weight, rhs, base_point=None, cut=None, extra=None, note=None
):
    """Contour oracle on the weighted P or Q (kind "P" or "Q").

    Without a base point the lhs is the plain n-th derivative; the contour
    keeps off ``cut``, by default both real rays outside [-1, 1] for P and
    (-oo, 1] for Q.  With one it is the operator power
    [(z - base_point)^2 D]^n, whose (w-1)^s weights carry a principal-branch
    cut on all of (-oo, 1].
    """
    if cut is None:
        cut = P_DERIV_CUT if kind == "P" and base_point is None else Q_DERIV_CUT

    def lhs(params: JacobiParams, z: complex, n: int) -> complex:
        f = _weighted(kind, params, weight(params) if weight else None)
        if base_point is None:
            return plain_derivative(f, z, n, cut)
        return operator_power(f, z, n, base_point, cut)

    sample = _P_DERIV_SAMPLE if kind == "P" else _Q_SAMPLE
    _register(
        IdentityDescriptor(
            ident, desc, (1, 2, 3), 1e-8, lhs, rhs, _guard(kind, extra), sample, note
        )
    )


def _finite_entry(
    ident, desc, pairs, anchor_exp, rhs, extra, measure=FLAT, sample=_P_INT_SAMPLE, note=None
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
                val *= power(1.0 + w if sym == "1+w" else one_dist, e)
            return val

        if toward_one:
            spec = RepeatedIntegralSpec(n, z, 1.0, FLAT, "lower")
        else:
            spec = RepeatedIntegralSpec(n, 1.0, z, measure, "upper")
        return repeated_integral(f, spec, anchor_exponent=anchor_exp(params), rtol=1e-12).value

    _register(
        IdentityDescriptor(ident, desc, (1, 2), 1e-6, lhs, rhs, _guard("P", extra), sample, note)
    )


_LOG_BASES = {"1-w": lambda w: 1.0 - w, "w-1": lambda w: w - 1.0, "1+w": lambda w: 1.0 + w}


def _ray_entry(ident, desc, kind, pairs, rhs, extra, sample, note=None):
    """Improper n-fold integral of P or Q along the ray from z to infinity.

    P enters in scaled form and Q in log form, and the weights join in log
    space, so neither the dominant large-w branch nor a weight overflows
    before their product decays.
    """

    def lhs(p: JacobiParams, z: complex, n: int) -> complex:
        exps = tuple((_LOG_BASES[sym], complex(e(p))) for sym, e in pairs)

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
        return repeated_integral(f, spec, rtol=1e-12).value

    _register(
        IdentityDescriptor(ident, desc, (1, 2), 1e-6, lhs, rhs, _guard(kind, extra), sample, note)
    )


# --- FD: plain n-th derivatives of weighted P --------------------------------

_contour_entry(
    "FD1",
    "n-th derivative of the fully weighted function raises degree, lowers both exponents",
    "P",
    lambda p: (lambda w: power(1.0 - w, p.alpha) * power(1.0 + w, p.beta)),
    lambda p, z, n: (-2.0) ** n
    * pochhammer(p.gamma + 1.0, n)
    * power(1.0 - z, p.alpha - n)
    * power(1.0 + z, p.beta - n)
    * pval(p.alpha - n, p.beta - n, p.gamma + n, z),
)

_contour_entry(
    "FD2",
    "n-th derivative of the (1-z)-weighted function trades the exponents",
    "P",
    lambda p: (lambda w: power(1.0 - w, p.alpha)),
    lambda p, z, n: pochhammer(-p.alpha - p.gamma, n)
    * power(1.0 - z, p.alpha - n)
    * pval(p.alpha - n, p.beta + n, p.gamma, z),
)

_contour_entry(
    "FD3",
    "n-th derivative of the (1+z)-weighted function trades the exponents",
    "P",
    lambda p: (lambda w: power(1.0 + w, p.beta)),
    lambda p, z, n: (-1.0) ** n
    * pochhammer(-p.beta - p.gamma, n)
    * power(1.0 + z, p.beta - n)
    * pval(p.alpha + n, p.beta - n, p.gamma, z),
)

_contour_entry(
    "FD4",
    "plain n-th derivative lowers degree, raises both exponents",
    "P",
    None,
    lambda p, z, n: 2.0**-n
    * pochhammer(p.alpha + p.beta + p.gamma + 1.0, n)
    * pval(p.alpha + n, p.beta + n, p.gamma - n, z),
    cut=P_PLAIN_CUT,
)


# --- FW: [(z -+ 1)^2 D]^n operator identities for P ---------------------------

_contour_entry(
    "FW1",
    "degree-preserving operator power shifting the second exponent up",
    "P",
    lambda p: (lambda w: power(w - 1.0, p.alpha + p.beta + p.gamma + 1.0)),
    lambda p, z, n: pochhammer(p.alpha + p.beta + p.gamma + 1.0, n)
    * power(z - 1.0, p.alpha + p.beta + p.gamma + 1.0 + n)
    * pval(p.alpha, p.beta + n, p.gamma, z),
    base_point=1.0,
)

_contour_entry(
    "FW2",
    "operator power on the degree-scaled function lowering the degree",
    "P",
    lambda p: (lambda w: power(w - 1.0, -p.gamma)),
    lambda p, z, n: pochhammer(-p.alpha - p.gamma, n)
    * power(z - 1.0, n - p.gamma)
    * pval(p.alpha, p.beta + n, p.gamma - n, z),
    base_point=1.0,
)

_contour_entry(
    "FW3",
    "operator power raising the degree against the mixed weight",
    "P",
    lambda p: (
        lambda w: power(w + 1.0, p.beta) * power(w - 1.0, p.alpha + p.gamma + 1.0)
    ),
    lambda p, z, n: 2.0**n
    * pochhammer(p.gamma + 1.0, n)
    * power(z + 1.0, p.beta - n)
    * power(z - 1.0, p.alpha + p.gamma + 1.0 + n)
    * pval(p.alpha, p.beta - n, p.gamma + n, z),
    base_point=1.0,
)

_contour_entry(
    "FW4",
    "degree-preserving operator power shifting the second exponent down",
    "P",
    lambda p: (
        lambda w: power(w + 1.0, p.beta) * power(w - 1.0, -(p.beta + p.gamma))
    ),
    lambda p, z, n: 2.0**n
    * pochhammer(-p.beta - p.gamma, n)
    * power(z + 1.0, p.beta - n)
    * power(z - 1.0, -(p.beta - n + p.gamma))
    * pval(p.alpha, p.beta - n, p.gamma, z),
    base_point=1.0,
)

_contour_entry(
    "FW5",
    "mirrored operator power shifting the first exponent up",
    "P",
    lambda p: (lambda w: power(w + 1.0, p.alpha + p.beta + p.gamma + 1.0)),
    lambda p, z, n: pochhammer(p.alpha + p.beta + p.gamma + 1.0, n)
    * power(z + 1.0, p.alpha + p.beta + p.gamma + 1.0 + n)
    * pval(p.alpha + n, p.beta, p.gamma, z),
    base_point=-1.0,
)

_contour_entry(
    "FW6",
    "mirrored operator power lowering the degree",
    "P",
    lambda p: (lambda w: power(w + 1.0, -p.gamma)),
    lambda p, z, n: pochhammer(1.0 + p.beta + p.gamma - n, n)
    * power(z + 1.0, n - p.gamma)
    * pval(p.alpha + n, p.beta, p.gamma - n, z),
    base_point=-1.0,
)

_contour_entry(
    "FW7",
    "mirrored operator power raising the degree against the mixed weight",
    "P",
    lambda p: (
        lambda w: power(w - 1.0, p.alpha) * power(w + 1.0, p.beta + p.gamma + 1.0)
    ),
    lambda p, z, n: 2.0**n
    * pochhammer(p.gamma + 1.0, n)
    * power(z - 1.0, p.alpha - n)
    * power(z + 1.0, p.beta + p.gamma + n + 1.0)
    * pval(p.alpha - n, p.beta, p.gamma + n, z),
    base_point=-1.0,
    note="(z+1) exponent corrected to beta+gamma+n+1; the printed beta+gamma+n "
    "fails its own Rodrigues specialization and the n=1 hand check.",
)

_contour_entry(
    "FW8",
    "mirrored degree-preserving operator power shifting the first exponent down",
    "P",
    lambda p: (
        lambda w: power(w - 1.0, p.alpha) * power(w + 1.0, -(p.alpha + p.gamma))
    ),
    lambda p, z, n: (-2.0) ** n
    * pochhammer(-p.alpha - p.gamma, n)
    * power(z - 1.0, p.alpha - n)
    * power(z + 1.0, -(p.alpha - n + p.gamma))
    * pval(p.alpha - n, p.beta, p.gamma, z),
    base_point=-1.0,
)


# --- FR: Rodrigues forms ------------------------------------------------------


def _rodrigues_lhs_one(params: JacobiParams, z: complex, n: int) -> complex:
    from .identity_engine import rodrigues_jacobi

    return rodrigues_jacobi(n, params.alpha, params.beta, z, "ONE")


def _rodrigues_lhs_two(params: JacobiParams, z: complex, n: int) -> complex:
    from .identity_engine import rodrigues_jacobi

    return rodrigues_jacobi(n, params.alpha, params.beta, z, "TWO")


def _rodrigues_rhs(params: JacobiParams, z: complex, n: int) -> complex:
    return jacobi_polynomial(n, params.alpha, params.beta, z)


def _rodrigues_cons(params: JacobiParams, z: complex, n: int) -> str | None:
    return None


_register(
    IdentityDescriptor(
        "FR1",
        "operator-power Rodrigues form built on the (z+1) operator",
        (1, 2, 3),
        1e-8,
        _rodrigues_lhs_one,
        _rodrigues_rhs,
        _rodrigues_cons,
        _P_DERIV_SAMPLE,
    )
)

_register(
    IdentityDescriptor(
        "FR2",
        "operator-power Rodrigues form built on the (z-1) operator",
        (1, 2, 3),
        1e-8,
        _rodrigues_lhs_two,
        _rodrigues_rhs,
        _rodrigues_cons,
        _P_DERIV_SAMPLE,
        note="operand corrected to (z-1)^(alpha+1)(z+1)^(beta+n): the printed "
        "(z-1)^alpha(z+1)^(beta+n+1) fails already at n=1, alpha=beta=0.",
    )
)


# --- FI: finite multi-integrals toward 1 --------------------------------------


def _fi1_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    if complex(p.alpha).real <= -1.0 + MARGIN:
        return "Re(alpha) too close to -1"
    if complex(p.beta).real <= -1.0 + MARGIN:
        return "Re(beta) too close to -1"
    if _poch_zero_dist(-complex(p.gamma), n) < MARGIN:
        return "(-gamma)_n vanishes"
    return None


_finite_entry(
    "FI1",
    "n-fold weighted integral toward 1 lowering the degree",
    (("1-w", lambda p: p.alpha), ("1+w", lambda p: p.beta)),
    lambda p: complex(p.alpha).real,
    lambda p, z, n: (-1.0) ** n
    / (2.0**n * pochhammer(-p.gamma, n))
    * power(1.0 - z, p.alpha + n)
    * power(1.0 + z, p.beta + n)
    * pval(p.alpha + n, p.beta + n, p.gamma - n, z),
    _fi1_cons,
)


def _fi2_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    if complex(p.alpha).real <= -1.0 + MARGIN:
        return "Re(alpha) too close to -1"
    return None


_finite_entry(
    "FI2",
    "n-fold (1-w)-weighted integral toward 1 trading the exponents",
    (("1-w", lambda p: p.alpha),),
    lambda p: complex(p.alpha).real,
    lambda p, z, n: power(1.0 - z, p.alpha + n)
    / pochhammer(p.alpha + p.gamma + 1.0, n)
    * pval(p.alpha + n, p.beta - n, p.gamma, z),
    _fi2_cons,
)


def _fi3_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    s = complex(p.alpha) + complex(p.beta) + complex(p.gamma)
    if _poch_zero_dist(-s, n) < MARGIN:
        return "(-alpha-beta-gamma)_n vanishes"
    if abs(s) < MARGIN:
        return "alpha+beta+gamma near 0"
    if n >= 2:
        if _poch_zero_dist(complex(p.gamma) + 2.0, n - 1) < MARGIN:
            return "(gamma+2)_k vanishes inside the boundary series"
        if _poch_zero_dist(1.0 - s, n - 1) < MARGIN:
            return "(1-alpha-beta-gamma)_k vanishes inside the boundary series"
    return None


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
    _fi3_cons,
)


def _fi3b_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    if _dist_nonpos_int(complex(p.alpha) + 1.0) < MARGIN:
        return "alpha+1 near a non-positive integer"
    if abs(1.0 - z) > 1.45:
        return "|1-z| outside the convergence disk of the closed form"
    return None


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
    _fi3b_cons,
)


# --- FJ: improper multi-integrals along the ray to infinity -------------------


def _fj_sample(a_box, b_box, g_box) -> Sampler:
    def draw(rng: Random, n: int) -> tuple[JacobiParams, complex]:
        lo_a, hi_a = a_box(n)
        lo_b, hi_b = b_box(n)
        lo_g, hi_g = g_box(n)
        return (
            JacobiParams(
                _cplx(rng, lo_a, hi_a),
                _cplx(rng, lo_b, hi_b),
                _cplx(rng, lo_g, hi_g),
            ),
            _z_ray_p(rng),
        )

    return draw


def _fj1_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    if (a + b + g).real >= -n - RAY_MARGIN:
        return "Re(alpha+beta+gamma) not below -n"
    if g.real <= n - 1 + RAY_MARGIN:
        return "Re(gamma) not above n-1"
    return _connection_safe(a, b, g)


_ray_entry(
    "FJ1",
    "n-fold weighted ray integral lowering the degree",
    "P",
    (("1-w", lambda p: p.alpha), ("1+w", lambda p: p.beta)),
    lambda p, z, n: (-1.0) ** n
    / (2.0**n * pochhammer(-p.gamma, n))
    * power(1.0 - z, p.alpha + n)
    * power(1.0 + z, p.beta + n)
    * pval(p.alpha + n, p.beta + n, p.gamma - n, z),
    _fj1_cons,
    _fj_sample(
        lambda n: (-n - 2.4, -0.9),
        lambda n: (-n - 2.4, -0.9),
        lambda n: (n - 0.55, n + 0.7),
    ),
    note="sign corrected to (-1)^n/(2^n(-gamma)_n): the printed positive "
    "constant contradicts the n=1 proof display factor 1/(2 gamma).",
)


def _fj2_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    if (a + g).real >= -n - RAY_MARGIN:
        return "Re(alpha+gamma) not below -n"
    if (b + g).real <= n - 1 + RAY_MARGIN:
        return "Re(beta+gamma) not above n-1"
    return _connection_safe(a, b, g)


_ray_entry(
    "FJ2",
    "n-fold (1-w)-weighted ray integral trading the exponents",
    "P",
    (("1-w", lambda p: p.alpha),),
    lambda p, z, n: power(1.0 - z, p.alpha + n)
    / pochhammer(p.alpha + p.gamma + 1.0, n)
    * pval(p.alpha + n, p.beta - n, p.gamma, z),
    _fj2_cons,
    _fj_sample(
        lambda n: (-n - 2.8, -n - 0.45),
        lambda n: (n + 0.5, n + 2.4),
        lambda n: (-0.55, 0.75),
    ),
)


def _fj3_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    if (b + g).real >= -n - RAY_MARGIN:
        return "Re(beta+gamma) not below -n"
    if (a + g).real <= n - 1 + RAY_MARGIN:
        return "Re(alpha+gamma) not above n-1"
    return _connection_safe(a, b, g)


_ray_entry(
    "FJ3",
    "n-fold (1+w)-weighted ray integral trading the exponents",
    "P",
    (("1+w", lambda p: p.beta),),
    lambda p, z, n: (-1.0) ** n
    * power(1.0 + z, p.beta + n)
    / pochhammer(p.beta + p.gamma + 1.0, n)
    * pval(p.alpha - n, p.beta + n, p.gamma, z),
    _fj3_cons,
    _fj_sample(
        lambda n: (n + 0.5, n + 2.4),
        lambda n: (-n - 2.8, -n - 0.45),
        lambda n: (-0.55, 0.75),
    ),
)


def _fj4_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    if g.real >= -n - RAY_MARGIN:
        return "Re(gamma) not below -n"
    if (a + b + g).real <= n - 1 + RAY_MARGIN:
        return "Re(alpha+beta+gamma) not above n-1"
    return _connection_safe(a, b, g)


_ray_entry(
    "FJ4",
    "n-fold plain ray integral raising the degree",
    "P",
    (),
    lambda p, z, n: 2.0**n
    / pochhammer(-p.alpha - p.beta - p.gamma, n)
    * pval(p.alpha - n, p.beta - n, p.gamma + n, z),
    _fj4_cons,
    _fj_sample(
        lambda n: (n + 0.6, n + 2.2),
        lambda n: (n + 0.6, n + 2.2),
        lambda n: (-n - 2.2, -n - 0.45),
    ),
    note="LHS weight removed: the printed (1+w)^beta contradicts the "
    "weightless derivative relation the proof integrates.",
)


# --- FK: measure-weighted multi-integrals from 1 ------------------------------


def _fk1_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    s = a + b + g
    if (s + 1.0).real <= n + MARGIN:
        return "Re(alpha+beta+gamma+1) not above n"
    if _poch_zero_dist(s - n + 1.0, n) < MARGIN:
        return "(alpha+beta+gamma-n+1)_n vanishes"
    return None


_finite_entry(
    "FK1",
    "n-fold (w-1)^-2-measure integral shifting the second exponent down",
    (("w-1", lambda p: p.alpha + p.beta + p.gamma + 1.0),),
    lambda p: (complex(p.alpha) + complex(p.beta) + complex(p.gamma) + 1.0).real,
    lambda p, z, n: power(z - 1.0, p.alpha + p.beta + p.gamma + 1.0 - n)
    / pochhammer(p.alpha + p.beta + p.gamma - n + 1.0, n)
    * pval(p.alpha, p.beta - n, p.gamma, z),
    _fk1_cons,
    measure=INV_SQ_MINUS,
)


def _fk2_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    if (a + g + 1.0).real <= n + MARGIN:
        return "Re(alpha+gamma+1) not above n"
    if _poch_zero_dist(g - n + 1.0, n) < MARGIN:
        return "(gamma-n+1)_n vanishes"
    return None


_finite_entry(
    "FK2",
    "n-fold (w-1)^-2-measure integral lowering the degree",
    (("1+w", lambda p: p.beta), ("w-1", lambda p: p.alpha + p.gamma + 1.0)),
    lambda p: (complex(p.alpha) + complex(p.gamma) + 1.0).real,
    lambda p, z, n: power(z + 1.0, p.beta + n)
    * power(z - 1.0, p.alpha + p.gamma - n + 1.0)
    / (2.0**n * pochhammer(p.gamma - n + 1.0, n))
    * pval(p.alpha, p.beta + n, p.gamma - n, z),
    _fk2_cons,
    measure=INV_SQ_MINUS,
)


def _fk3_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    if (a + n).real <= MARGIN:
        return "Re(alpha+n) not positive"
    if a.real <= -1.0 + MARGIN:
        return "Re(alpha) too close to -1 for the first iterate"
    if _poch_zero_dist(g - n + 1.0, n) < MARGIN:
        return "(gamma-n+1)_n vanishes"
    return None


_finite_entry(
    "FK3",
    "n-fold (w+1)^-2-measure integral lowering the degree",
    (("w-1", lambda p: p.alpha), ("1+w", lambda p: p.beta + p.gamma + 1.0)),
    lambda p: complex(p.alpha).real,
    lambda p, z, n: power(z - 1.0, p.alpha + n)
    * power(z + 1.0, p.beta + p.gamma - n + 1.0)
    / (2.0**n * pochhammer(p.gamma - n + 1.0, n))
    * pval(p.alpha + n, p.beta, p.gamma - n, z),
    _fk3_cons,
    measure=INV_SQ_PLUS,
)


def _fk4_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    if (a + n).real <= MARGIN:
        return "Re(alpha+n) not positive"
    if a.real <= -1.0 + MARGIN:
        return "Re(alpha) too close to -1 for the first iterate"
    return None


_finite_entry(
    "FK4",
    "n-fold (w+1)^-2-measure integral shifting the first exponent up",
    (("w-1", lambda p: p.alpha), ("1+w", lambda p: -(p.alpha + p.gamma))),
    lambda p: complex(p.alpha).real,
    lambda p, z, n: power(z - 1.0, p.alpha + n)
    * power(z + 1.0, -(p.alpha + n + p.gamma))
    / (2.0**n * pochhammer(1.0 + p.alpha + p.gamma, n))
    * pval(p.alpha + n, p.beta, p.gamma, z),
    _fk4_cons,
    measure=INV_SQ_PLUS,
)


def _fk5_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    if g.real >= -n - MARGIN:
        return "Re(gamma) not below -n"
    if _dist_neg_int(a + g + n) < MARGIN:
        return "alpha+gamma+n near a negative integer (shifted validity)"
    return None


_finite_entry(
    "FK5",
    "n-fold (w-1)^-2-measure integral raising the degree",
    (("w-1", lambda p: -p.gamma),),
    lambda p: -complex(p.gamma).real,
    lambda p, z, n: (-1.0) ** n
    / pochhammer(p.alpha + p.gamma + 1.0, n)
    * power(z - 1.0, -(p.gamma + n))
    * pval(p.alpha, p.beta - n, p.gamma + n, z),
    _fk5_cons,
    measure=INV_SQ_MINUS,
    sample=_box_sampler(_z_int_p, g_box=(-4.4, -1.35)),
)


def _fk6_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    if (b + g).real >= -n - MARGIN:
        return "Re(beta+gamma) not below -n"
    return None


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
    _fk6_cons,
    measure=INV_SQ_MINUS,
    sample=_box_sampler(_z_int_p, b_box=(-2.3, 0.4), g_box=(-4.4, -1.35)),
    note="RHS resolved to (-1)^n/(2^n(beta+gamma+1)_n) (z+1)^(beta+n) "
    "(z-1)^-(beta+gamma+n) P with the beta+n shift; the print drops the +n "
    "twice and the shift (brace typo).",
)


def _fk7_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    s = a + b + g
    if abs(s) < MARGIN:
        return "alpha+beta+gamma near 0"
    if _poch_zero_dist(s + 1.0 - n, n) < MARGIN:
        return "(alpha+beta+gamma+1-n)_n vanishes"
    if _dist_nonpos_int(a + g) < MARGIN:
        return "alpha+gamma near a non-positive integer (boundary gamma factor)"
    if _dist_neg_int(a - n + g) < MARGIN:
        return "alpha-n+gamma near a negative integer (shifted validity)"
    if n >= 2:
        if _poch_zero_dist(1.0 - a - g, n - 1) < MARGIN:
            return "(1-alpha-gamma)_k vanishes inside the boundary series"
        if _poch_zero_dist(1.0 - s, n - 1) < MARGIN:
            return "(1-alpha-beta-gamma)_k vanishes inside the boundary series"
    return None


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
    _fk7_cons,
    measure=INV_SQ_PLUS,
)


def _fk8_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    if _poch_zero_dist(b + g + 1.0, n) < MARGIN:
        return "(beta+gamma+1)_n vanishes"
    if n >= 2:
        if _poch_zero_dist(g + 2.0, n - 1) < MARGIN:
            return "(gamma+2)_k vanishes inside the boundary series"
        if _poch_zero_dist(b + g + 2.0, n - 1) < MARGIN:
            return "(beta+gamma+2)_k vanishes inside the boundary series"
    return None


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
    _fk8_cons,
    measure=INV_SQ_PLUS,
)


# --- FT: Taylor section -------------------------------------------------------


def _ft1_lhs(p: JacobiParams, z: complex, n: int) -> complex:
    return taylor_section(p, n, z)[0]


def _ft1_rhs(p: JacobiParams, z: complex, n: int) -> complex:
    return taylor_section(p, n, z)[1]


def _ft1_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    if _dist_nonpos_int(-(a + b + g)) < MARGIN:
        return "alpha+beta+gamma near a non-negative integer (prefactor pole)"
    return None


_register(
    IdentityDescriptor(
        "FT1",
        "truncated Taylor sum about 1 equals its terminating series closed form",
        (1, 2, 3),
        1e-6,
        _ft1_lhs,
        _ft1_rhs,
        _guard("P", _ft1_cons),
        _P_INT_SAMPLE,
        note="prefactor power resolved to ((1-z)/2)^(n-1); the printed "
        "((z-1)/2)^(n-1) flips every even-n value.",
    )
)


# --- SRL: first derivative via the raising/lowering pair ----------------------


def _srl_lhs(p: JacobiParams, z: complex, n: int) -> complex:
    return plain_derivative(_weighted("Q", p, None), z, 1, Cut.segment(-1.0, 1.0))


def _srl_rhs(p: JacobiParams, z: complex, n: int) -> complex:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    return -(a + b + g + 1.0) / 2.0 * qval(a + 1.0, b + 1.0, g - 1.0, z)


def raising_form(p: JacobiParams, z: complex) -> complex:
    """First derivative of Q written with the degree-raising companion."""
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    return (b - a - z * (a + b)) / (z * z - 1.0) * qval(a, b, g, z) - 2.0 * (
        g + 1.0
    ) / (z * z - 1.0) * qval(a - 1.0, b - 1.0, g + 1.0, z)


def _srl_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    if _dist_neg_int(a + g) < MARGIN or _dist_neg_int(b + g) < MARGIN:
        return "shifted degree validity fails"
    return None


_register(
    IdentityDescriptor(
        "SRL",
        "first derivative of the second-kind function via its lowering form",
        (1,),
        1e-8,
        _srl_lhs,
        _srl_rhs,
        _guard("Q", _srl_cons),
        _Q_SAMPLE,
    )
)


# --- SD: plain n-th derivatives of weighted Q ---------------------------------

_contour_entry(
    "SD1",
    "n-th derivative of the fully weighted second-kind function",
    "Q",
    lambda p: (lambda w: power(w - 1.0, p.alpha) * power(1.0 + w, p.beta)),
    lambda p, z, n: (-2.0) ** n
    * pochhammer(p.gamma + 1.0, n)
    * power(z - 1.0, p.alpha - n)
    * power(1.0 + z, p.beta - n)
    * qval(p.alpha - n, p.beta - n, p.gamma + n, z),
    note="theorem constant (-2)^n(gamma+1)_n confirmed; the proof display's "
    "+2(gamma+1) belongs to the (1-z)-weighted operand.",
)


def _sd2_rhs(p: JacobiParams, z: complex, n: int) -> complex:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)

    def inner(w: np.ndarray) -> np.ndarray:
        return (
            power(w - 1.0, a + n) * power(w + 1.0, b + n) * qval(a + n, b + n, g - n, w)
        )

    deriv = plain_derivative(inner, z, n, Q_DERIV_CUT)
    return (
        deriv
        / (2.0**n * pochhammer(-g, n))
        * power(z - 1.0, -a)
        * power(z + 1.0, -b)
    )


def _sd2_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    if _poch_zero_dist(-complex(p.gamma), n) < MARGIN:
        return "(-gamma)_n vanishes"
    return None


_register(
    IdentityDescriptor(
        "SD2",
        "round trip: Q recovered from the derivative of its shifted companion",
        (1, 2, 3),
        1e-8,
        lambda p, z, n: qval(p.alpha, p.beta, p.gamma, z),
        _sd2_rhs,
        _guard("Q", _sd2_cons),
        _Q_SAMPLE,
    )
)

_contour_entry(
    "SD3",
    "n-th derivative of the (z-1)-weighted second-kind function",
    "Q",
    lambda p: (lambda w: power(w - 1.0, p.alpha)),
    lambda p, z, n: pochhammer(-p.alpha - p.gamma, n)
    * power(z - 1.0, p.alpha - n)
    * qval(p.alpha - n, p.beta + n, p.gamma, z),
)

_contour_entry(
    "SD4",
    "plain n-th derivative of the second-kind function",
    "Q",
    None,
    lambda p, z, n: (-2.0) ** -n
    * pochhammer(p.alpha + p.beta + p.gamma + 1.0, n)
    * qval(p.alpha + n, p.beta + n, p.gamma - n, z),
)


# --- SI: improper multi-integrals of Q ----------------------------------------


def _si1_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    if a.real <= -1.0 + RAY_MARGIN:
        return "Re(alpha) not above -1"
    if b.real <= -1.0 + RAY_MARGIN:
        return "Re(beta) not above -1"
    if g.real <= n + RAY_MARGIN:
        return "Re(gamma) not above n"
    return None


_ray_entry(
    "SI1",
    "n-fold weighted ray integral of Q lowering the degree",
    "Q",
    (("w-1", lambda p: p.alpha), ("1+w", lambda p: p.beta)),
    lambda p, z, n: power(z - 1.0, p.alpha + n)
    * power(1.0 + z, p.beta + n)
    / (2.0**n * pochhammer(p.gamma - n + 1.0, n))
    * qval(p.alpha + n, p.beta + n, p.gamma - n, z),
    _si1_cons,
    _box_sampler(_z_q, g_box=(1.3, 3.4)),
)


def _si2_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    if a.real <= -1.0 + RAY_MARGIN:
        return "Re(alpha) not above -1"
    if b.real <= n - 1 + RAY_MARGIN:
        return "Re(beta) not above n-1"
    if (b + g + 1.0).real <= n + RAY_MARGIN:
        return "Re(beta+gamma+1) not above n"
    if _dist_neg_int(b - n + g) < MARGIN:
        return "beta-n+gamma near a negative integer (shifted validity)"
    return None


_ray_entry(
    "SI2",
    "n-fold (w-1)-weighted ray integral of Q trading the exponents",
    "Q",
    (("w-1", lambda p: p.alpha),),
    lambda p, z, n: power(z - 1.0, p.alpha + n)
    / pochhammer(p.alpha + p.gamma + 1.0, n)
    * qval(p.alpha + n, p.beta - n, p.gamma, z),
    _si2_cons,
    _box_sampler(_z_q, b_box=(1.3, 3.2), g_box=(-0.4, 2.4)),
)


def _si3_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    if a.real <= n - 1 + RAY_MARGIN:
        return "Re(alpha) not above n-1"
    if b.real <= n - 1 + RAY_MARGIN:
        return "Re(beta) not above n-1"
    if (a + b + g + 1.0).real <= n + RAY_MARGIN:
        return "Re(alpha+beta+gamma+1) not above n"
    if _poch_zero_dist(a + b + g - n + 1.0, n) < MARGIN:
        return "(alpha+beta+gamma-n+1)_n vanishes"
    return None


_ray_entry(
    "SI3",
    "n-fold plain ray integral of Q raising the degree",
    "Q",
    (),
    lambda p, z, n: 2.0**n
    / pochhammer(p.alpha + p.beta + p.gamma - n + 1.0, n)
    * qval(p.alpha - n, p.beta - n, p.gamma + n, z),
    _si3_cons,
    _box_sampler(_z_q, a_box=(1.3, 3.2), b_box=(1.3, 3.2), g_box=(-0.4, 2.4)),
)


# --- SW: operator-power identities for Q --------------------------------------

_contour_entry(
    "SW1",
    "second-kind analog of the degree-preserving (z-1) operator power",
    "Q",
    lambda p: (lambda w: power(w - 1.0, p.alpha + p.beta + p.gamma + 1.0)),
    lambda p, z, n: pochhammer(p.alpha + p.beta + p.gamma + 1.0, n)
    * power(z - 1.0, p.alpha + p.beta + p.gamma + 1.0 + n)
    * qval(p.alpha, p.beta + n, p.gamma, z),
    base_point=1.0,
)


def _sw2_extra(p: JacobiParams, z: complex, n: int) -> str | None:
    if _dist_neg_int(complex(p.alpha) + complex(p.gamma) - n) < MARGIN:
        return "alpha+gamma-n near a negative integer (shifted validity)"
    return None


_contour_entry(
    "SW2",
    "second-kind analog of the degree-lowering (z-1) operator power",
    "Q",
    lambda p: (lambda w: power(w - 1.0, -p.gamma)),
    lambda p, z, n: pochhammer(-p.alpha - p.gamma, n)
    * power(z - 1.0, n - p.gamma)
    * qval(p.alpha, p.beta + n, p.gamma - n, z),
    base_point=1.0,
    extra=_sw2_extra,
)

_contour_entry(
    "SW3",
    "second-kind analog of the degree-raising (z-1) operator power",
    "Q",
    lambda p: (
        lambda w: power(w + 1.0, p.beta) * power(w - 1.0, p.alpha + p.gamma + 1.0)
    ),
    lambda p, z, n: 2.0**n
    * pochhammer(p.gamma + 1.0, n)
    * power(z + 1.0, p.beta - n)
    * power(z - 1.0, p.alpha + p.gamma + 1.0 + n)
    * qval(p.alpha, p.beta - n, p.gamma + n, z),
    base_point=1.0,
)


def _sw4_extra(p: JacobiParams, z: complex, n: int) -> str | None:
    if _dist_neg_int(complex(p.beta) - n + complex(p.gamma)) < MARGIN:
        return "beta-n+gamma near a negative integer (shifted validity)"
    return None


_contour_entry(
    "SW4",
    "second-kind analog of the exponent-lowering (z-1) operator power",
    "Q",
    lambda p: (
        lambda w: power(w + 1.0, p.beta) * power(w - 1.0, -(p.beta + p.gamma))
    ),
    lambda p, z, n: 2.0**n
    * pochhammer(-p.beta - p.gamma, n)
    * power(z + 1.0, p.beta - n)
    * power(z - 1.0, -(p.beta - n + p.gamma))
    * qval(p.alpha, p.beta - n, p.gamma, z),
    base_point=1.0,
    extra=_sw4_extra,
)

_SW_MIRROR_NOTE = (
    "(-1)^n restored: the (z+1) operator corresponds to d/dx with "
    "x = 2/(1+z), whose Jacobian is negative, unlike the first-kind case."
)

_contour_entry(
    "SW5",
    "second-kind analog of the mirrored exponent-raising operator power",
    "Q",
    lambda p: (lambda w: power(w + 1.0, p.alpha + p.beta + p.gamma + 1.0)),
    lambda p, z, n: (-1.0) ** n
    * pochhammer(p.alpha + p.beta + p.gamma + 1.0, n)
    * power(z + 1.0, p.alpha + p.beta + p.gamma + 1.0 + n)
    * qval(p.alpha + n, p.beta, p.gamma, z),
    base_point=-1.0,
    note=_SW_MIRROR_NOTE,
)


def _sw6_extra(p: JacobiParams, z: complex, n: int) -> str | None:
    if _dist_neg_int(complex(p.beta) + complex(p.gamma) - n) < MARGIN:
        return "beta+gamma-n near a negative integer (shifted validity)"
    return None


_contour_entry(
    "SW6",
    "second-kind analog of the mirrored degree-lowering operator power",
    "Q",
    lambda p: (lambda w: power(w + 1.0, -p.gamma)),
    lambda p, z, n: (-1.0) ** n
    * pochhammer(1.0 + p.beta + p.gamma - n, n)
    * power(z + 1.0, n - p.gamma)
    * qval(p.alpha + n, p.beta, p.gamma - n, z),
    base_point=-1.0,
    extra=_sw6_extra,
    note=_SW_MIRROR_NOTE,
)

_contour_entry(
    "SW7",
    "second-kind analog of the mirrored degree-raising operator power",
    "Q",
    lambda p: (
        lambda w: power(w - 1.0, p.alpha) * power(w + 1.0, p.beta + p.gamma + 1.0)
    ),
    lambda p, z, n: (-2.0) ** n
    * pochhammer(p.gamma + 1.0, n)
    * power(z - 1.0, p.alpha - n)
    * power(z + 1.0, p.beta + p.gamma + n + 1.0)
    * qval(p.alpha - n, p.beta, p.gamma + n, z),
    base_point=-1.0,
    note=_SW_MIRROR_NOTE + " (z+1) exponent also corrected to beta+gamma+n+1.",
)

_contour_entry(
    "SW8",
    "second-kind analog of the mirrored exponent-lowering operator power",
    "Q",
    lambda p: (
        lambda w: power(w - 1.0, p.alpha) * power(w + 1.0, -(p.alpha + p.gamma))
    ),
    lambda p, z, n: 2.0**n
    * pochhammer(-p.alpha - p.gamma, n)
    * power(z - 1.0, p.alpha - n)
    * power(z + 1.0, -(p.alpha - n + p.gamma))
    * qval(p.alpha - n, p.beta, p.gamma, z),
    base_point=-1.0,
    note=_SW_MIRROR_NOTE,
)


# --- SQ / SN: integral representations of Q -----------------------------------


def _sq_cons(shift_from_n: bool):
    def cons(p: JacobiParams, z: complex, n: int) -> str | None:
        a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
        k = n if shift_from_n else 0
        if (a + g - k).real <= -1.0 + MARGIN:
            return "Re(alpha+gamma-k) not above -1"
        if (b + g - k).real <= -1.0 + MARGIN:
            return "Re(beta+gamma-k) not above -1"
        if k and _poch_zero_dist(-g, k) < MARGIN:
            return "(-gamma)_k vanishes"
        return None

    return cons


def _sq_lhs(p: JacobiParams, z: complex, n: int) -> complex:
    _count()
    return jacobi_q_integral_shifted(QIntegralSpec(p, z, n)).value


def _sq_rhs(p: JacobiParams, z: complex, n: int) -> complex:
    return qval(p.alpha, p.beta, p.gamma, z)


_register(
    IdentityDescriptor(
        "SQ0",
        "weighted-kernel integral representation equals the series value",
        (0,),
        1e-6,
        _sq_lhs,
        _sq_rhs,
        _guard("Q", _sq_cons(False)),
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
        _guard("Q", _sq_cons(True)),
        _box_sampler(_z_q, a_box=(0.3, 2.8), b_box=(0.3, 2.8), g_box=(1.2, 2.8)),
    )
)


def _sn_lhs(p: JacobiParams, z: complex, n: int) -> complex:
    _count()
    return neumann_q(n, p.alpha, p.beta, z).value


def _sn_rhs(p: JacobiParams, z: complex, n: int) -> complex:
    return qval(p.alpha, p.beta, float(n), z)


def _sn_cons(p: JacobiParams, z: complex, n: int) -> str | None:
    a, b = complex(p.alpha), complex(p.beta)
    if a.real <= -1.0 + MARGIN:
        return "Re(alpha) not above -1"
    if b.real <= -1.0 + MARGIN:
        return "Re(beta) not above -1"
    return None


_register(
    IdentityDescriptor(
        "SN",
        "integer-degree kernel integral against the matching polynomial",
        (0, 1, 2),
        1e-6,
        _sn_lhs,
        _sn_rhs,
        _sn_cons,
        _box_sampler(_z_q),
    )
)


# --- ODE residual entries ------------------------------------------------------


def _ode_terms(kind: str, p: JacobiParams, z: complex) -> tuple[complex, complex, complex]:
    """The three terms of the defining ODE for P (kind "P") or Q at z."""
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    f = _weighted(kind, p, None)
    cut = P_PLAIN_CUT if kind == "P" else Cut.segment(-1.0, 1.0)
    w0, w1, w2 = contour_derivatives(f, z, (0, 1, 2), contour_radius(z, cut))
    t1 = (1.0 - z * z) * w2
    t2 = (b - a - z * (a + b + 2.0)) * w1
    t3 = g * (a + b + g + 1.0) * w0
    return t1, t2, t3


_pack_sample = struct.Struct("8d").pack


def _sample_bits(p: JacobiParams, z: complex) -> bytes:
    """The exact bits of (triple, z): 0.0 and -0.0 differ, as in exact_memo."""
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    return _pack_sample(a.real, a.imag, b.real, b.imag, g.real, g.imag, z.real, z.imag)


# The lhs leaves its third term in the entry's ``pending`` for the rhs of the
# same sample, so a sample runs one contour.  The rhs takes the term out,
# keyed on the exact bits of (triple, z), so nothing carries over to a later
# sample.


def _ode_lhs(kind: str, pending: dict, p: JacobiParams, z: complex, n: int) -> complex:
    t1, t2, t3 = _ode_terms(kind, p, z)
    pending.clear()
    pending[_sample_bits(p, z)] = t3
    return t1 + t2


def _ode_rhs(kind: str, pending: dict, p: JacobiParams, z: complex, n: int) -> complex:
    t3 = pending.pop(_sample_bits(p, z), None)
    if t3 is None:
        t3 = _ode_terms(kind, p, z)[2]
    return -t3


for _kind, _sample in (("P", _P_DERIV_SAMPLE), ("Q", _Q_SAMPLE)):
    _pending: dict[bytes, complex] = {}
    _register(
        IdentityDescriptor(
            f"ODE-{_kind}",
            f"differential-equation residual of the {_kind} solution",
            (0,),
            1e-7,
            partial(_ode_lhs, _kind, _pending),
            partial(_ode_rhs, _kind, _pending),
            _guard(_kind),
            _sample,
        )
    )


CATALOG: dict[str, IdentityDescriptor] = dict(_CATALOG)

CATALOG_ORDER: tuple[str, ...] = tuple(CATALOG)
