"""Independent correctness checks, run after the timed loop.

A value of P or Q is compared with every other representation that evaluates
at the same point, accepting ``|v - w| <= max(1e-9 |v|, 3 (est_v + est_w))``
(the representation-agreement bound of the acceptance suite).  A
representation "evaluates" when it returns without an error and without
hitting the series term cap.  Where none does, Q is compared with its
weighted-kernel integral under the same bound, and P (or Q) must satisfy its
differential equation to a relative residual of 1e-7 (the ODE bound of the
acceptance suite).  The ODE derivatives come from the differentiation formula
w' = c P_{g-1}^{(a+1,b+1)}, which costs two evaluations instead of the ~50 a
Cauchy contour needs, and keeps the value under test in the residual.  A value
that no route can check is ``unchecked``, which is not a pass.
"""

from __future__ import annotations

import warnings

from jacobifn import JacobiParams, Representation, jacobi_p, jacobi_q
from jacobifn.errors import JacobiFnError, TruncationWarning
from jacobifn.jacobi_second import QIntegralSpec, choose_shift_k, jacobi_q_integral_shifted

OK, WRONG, UNCHECKED = "ok", "wrong", "unchecked"
ODE_BOUND = 1e-7
# Errors a check route may raise where it does not apply; the route is then
# skipped, never passed.
_ROUTE_ERRORS = (JacobiFnError, TruncationWarning, ArithmeticError, ValueError)


def _agree(v: complex, err: float, other) -> bool:
    return abs(other.value - v) <= max(1e-9 * abs(v), 3.0 * (err + other.abs_error_estimate))


def _ode_residual(kind: str, params: JacobiParams, z: complex, w0: complex) -> float:
    """Relative residual of (1-z^2) w'' + (b-a-z(a+b+2)) w' + g(a+b+g+1) w."""
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    fn = jacobi_p if kind == "P" else jacobi_q
    # d/dz of P is +c times the shifted function, of Q (this normalization) -c.
    sign = 1.0 if kind == "P" else -1.0
    c1 = sign * 0.5 * (a + b + g + 1.0)
    c2 = sign * 0.5 * (a + b + g + 2.0)
    w1 = c1 * fn(JacobiParams(a + 1.0, b + 1.0, g - 1.0), z).value
    w2 = c1 * c2 * fn(JacobiParams(a + 2.0, b + 2.0, g - 2.0), z).value
    t1 = (1.0 - z * z) * w2
    t2 = (b - a - z * (a + b + 2.0)) * w1
    t3 = g * (a + b + g + 1.0) * w0
    return abs(t1 + t2 + t3) / max(abs(t1), abs(t2), abs(t3), 1e-300)


def check_value(
    kind: str, params: JacobiParams, z: complex, value: complex, err: float, provenance: str
) -> tuple[str, str]:
    """(verdict, route) for one returned value of P or Q."""
    fn = jacobi_p if kind == "P" else jacobi_q
    checked_by = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        for k in (1, 2, 3, 4):
            if provenance == f"rep{k}":
                continue
            try:
                other = fn(params, z, Representation(k))
            except _ROUTE_ERRORS:
                continue
            if not _agree(value, err, other):
                return WRONG, f"rep{k}"
            checked_by.append(f"rep{k}")
        if checked_by:
            return OK, "reps"
        if kind == "Q":
            try:
                spec = QIntegralSpec(params, z, choose_shift_k(params))
                other = jacobi_q_integral_shifted(spec)
            except _ROUTE_ERRORS:
                pass
            else:
                return (OK if _agree(value, err, other) else WRONG), "integral"
        try:
            residual = _ode_residual(kind, params, z, value)
        except _ROUTE_ERRORS:
            return UNCHECKED, "none"
    return (OK if residual <= ODE_BOUND else WRONG), "ode"
