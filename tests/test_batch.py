"""The batched evaluators against the scalar calls they batch.

An ndarray of z under AUTO must give, at every point, what the scalar call
gives there: a value within the two error estimates plus a few ulps, or the
scalar's exception.  The ulps allow for the batch forming z^k by repeated
products and powers as exp(s Log w), where the scalar series carries the
term ratio and uses Python's complex power.  Neither error estimate covers
the rounding of a power or an exponential, which is about |s Log w| ulps,
so where one enters (the z/(z-1) map's factor, a logarithm) the ulps scale
with it.  Nor does the series estimate, |last term| + eps sum |terms|, count
the rounding that builds up in a term formed by k products; the two
evaluations' difference from it grows like sqrt(K) for K terms, so the
estimates are scaled by that.  (At z = -0.952 a 1419-term series is 9e-12
from the exact value against an estimate of 3e-13, in both evaluations.)
The large-z connection of P reports a flat 1e-13 |value| estimate
that ignores its parts, so its values are compared within the parts'
estimates: the two second-kind values and their series errors.

The z of the properties mix points of the plane with points within 4 ulps
of the routing thresholds, where the batch and the scalar call may take
different routes and must still agree.  The examples are fixed
(``derandomize``) so that a run repeats; the properties also held over
8 000 / 4 000 random examples, and with the threshold points over 1 500.
"""

import cmath
import math
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobifn import hypergeom
from jacobifn.errors import JacobiFnError, NoConvergentPath, TruncationWarning
from jacobifn.hypergeom import (
    BATCH_NO_PATH,
    BATCH_OK,
    DIRECT_LIMIT,
    MAP_LIMIT,
    _ohyp2f1_batch,
    ohyp2f1,
)
from jacobifn.jacobi_first import (
    AUTO_ARG_LIMIT,
    JacobiParams,
    Representation,
    _connection_coeffs,
    jacobi_p,
    jacobi_p_scaled,
)
from jacobifn.jacobi_second import jacobi_q, jacobi_q_log

ULPS = 16 * 2.220446049250313e-16
# The ulps of a subnormal value.
TINY = 16 * math.ulp(0.0)

# The catalog's parameter box, and z over the plane the domain checks use.
_box = st.builds(complex, st.floats(-0.65, 2.8), st.floats(-0.45, 0.45))
# P's degree also takes the polynomial degrees, where REP1 terminates and is
# summed at every z beyond the preferred disk.
_p_degree = st.one_of(_box, st.integers(0, 8).map(complex))
_z = st.builds(complex, st.floats(-4.0, 4.0), st.floats(-2.0, 2.0))


def _moved(z: complex, i: int, j: int) -> complex:
    """z with its real part moved by i ulps and its imaginary part by j."""
    return complex(z.real + i * math.ulp(z.real), z.imag + j * math.ulp(z.imag))


def _near(*curves):
    """Points of the curves (functions of an angle), each part moved by up to 4 ulps.

    The curves are routing thresholds, where numpy and Python may round a
    modulus or a quotient to different sides, so that the batch and the
    scalar call take different routes.
    """
    return st.builds(
        lambda curve, t, i, j: _moved(curve(t), i, j),
        st.sampled_from(curves),
        st.floats(-math.pi, math.pi),
        st.integers(-4, 4),
        st.integers(-4, 4),
    )


def _zs(near):
    return st.lists(st.one_of(_z, near), min_size=1, max_size=12)


# The 2F1's direct series or its z/(z-1) map: |z| = DIRECT_LIMIT; a series
# or NoConvergentPath: |z| = MAP_LIMIT and |z/(z-1)| = MAP_LIMIT.
_near_2f1 = _near(
    lambda t: cmath.rect(DIRECT_LIMIT, t),
    lambda t: cmath.rect(MAP_LIMIT, t),
    lambda t: cmath.rect(MAP_LIMIT, t) / (cmath.rect(MAP_LIMIT, t) - 1.0),
)
# P's REP1, REP3 or beyond: |1-z|/2 = AUTO_ARG_LIMIT, |z-1|/|z+1| = AUTO_ARG_LIMIT.
_near_auto = _near(
    lambda t: 1.0 - 2.0 * cmath.rect(AUTO_ARG_LIMIT, t),
    lambda t: (1.0 + cmath.rect(AUTO_ARG_LIMIT, t)) / (1.0 - cmath.rect(AUTO_ARG_LIMIT, t)),
)
# Q's REP1 or REP3, |2/(1-z)| = |2/(1+z)| on Re z = 0 (signed zeros and
# subnormals), and each of those arguments at DIRECT_LIMIT.
_near_tie = st.one_of(
    st.builds(
        complex,
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310]),
        st.floats(-2.0, 2.0),
    ),
    _near(
        lambda t: 1.0 - 2.0 / cmath.rect(DIRECT_LIMIT, t),
        lambda t: 2.0 / cmath.rect(DIRECT_LIMIT, t) - 1.0,
    ),
)
# 2F1 parameters as the representations form them from the box, plus
# terminating uppers and lowers in -N0.
_param_2f1 = st.one_of(
    st.builds(complex, st.floats(-3.0, 9.0), st.floats(-1.5, 1.5)),
    st.integers(-6, 0).map(float),
)


@contextmanager
def _series_length():
    """Record the most terms any scalar series in the block summed."""
    longest = [1]
    series = hypergeom._series

    def recorded(*args):
        out = series(*args)
        longest[0] = max(longest[0], out.terms_used)
        return out

    with mock.patch.object(hypergeom, "_series", recorded):
        yield longest


def _scalar(fn, *args):
    try:
        return fn(*args)
    except (JacobiFnError, ArithmeticError, ValueError) as exc:
        return exc


def _p_slack(params, w, ref, growth: float) -> float:
    """Allowed difference of two P values at w beyond their own estimates."""
    if ref.provenance != "connection":
        return ULPS * abs(ref.value)
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    coef_a, coef_b, g2 = _connection_coeffs(a, b, g)
    slack = 0.0
    for coef, part in ((coef_a, params), (coef_b, JacobiParams(a, b, g2))):
        q = jacobi_q(part, w)
        cond = 1.0 + abs(jacobi_q_log(part, w))
        slack += abs(coef) * (2.0 * growth * q.abs_error_estimate + cond * ULPS * abs(q.value))
    return slack


def _split(fn, params, zs):
    """Scalar outcomes, the points where the scalar returned, its first error,
    and the square root of each point's longest series."""
    outs, growth = [], []
    for w in zs:
        with _series_length() as longest:
            outs.append(_scalar(fn, params, w))
        growth.append(math.sqrt(longest[0]))
    ok = [i for i, o in enumerate(outs) if not isinstance(o, Exception)]
    errors = [o for o in outs if isinstance(o, Exception)]
    return outs, ok, errors[0] if errors else None, growth


@given(_param_2f1, _param_2f1, _param_2f1, _zs(_near_2f1))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_batched_2f1_matches_scalar(a, b, c, zs):
    value, err, status = _ohyp2f1_batch(a, b, c, np.array(zs))
    for w, v, e, s in zip(zs, value, err, status):
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            try:
                ref = _scalar(ohyp2f1, a, b, c, w)
            except TruncationWarning as capped:
                ref = capped
        if isinstance(ref, Exception) and not isinstance(ref, (JacobiFnError, TruncationWarning)):
            raise ref
        if s == BATCH_OK:
            assert not isinstance(ref, Exception)
            # Past |z| = 0.75 the value may carry the factor (1-z)^(-a).
            mapped = abs(w) > 0.75 and w != 1.0
            cond = 1.0 + abs(a * cmath.log(1.0 - w)) if mapped else 1.0
            growth = math.sqrt(ref.terms_used)
            tol = growth * (e + ref.abs_error_estimate) + cond * ULPS * abs(ref.value) + TINY
            assert abs(v - ref.value) <= tol
        elif s == BATCH_NO_PATH:
            assert isinstance(ref, NoConvergentPath)


@given(_box, _box, _p_degree, _zs(_near_auto))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_batched_p_matches_scalar(a, b, g, zs):
    params = JacobiParams(a, b, g)
    outs, ok, first_error, growth = _split(jacobi_p, params, zs)
    if g.imag == 0 and g.real.is_integer():
        # REP1 terminates, and no point of the box overflows it.
        assert not any(isinstance(o, NoConvergentPath) for o in outs)
    if ok:
        got = jacobi_p(params, np.array([zs[i] for i in ok]))
        scaled = jacobi_p_scaled(params, np.array([zs[i] for i in ok]))
        for v, e, log_scale, mant, i in zip(got.value, got.abs_error_estimate, *scaled, ok):
            ref = outs[i]
            tol = growth[i] * (e + ref.abs_error_estimate) + _p_slack(params, zs[i], ref, growth[i])
            assert abs(v - ref.value) <= tol
            ref_log, ref_mant = jacobi_p_scaled(params, zs[i])
            rel = tol / abs(ref.value) + ULPS * (1.0 + abs(ref_log))
            assert abs(cmath.exp(log_scale - ref_log) * mant - ref_mant) <= rel * abs(ref_mant)
    if first_error is not None:
        with pytest.raises(type(first_error)):
            jacobi_p(params, np.array(zs))
        with pytest.raises(type(first_error)):
            jacobi_p_scaled(params, np.array(zs))


@given(_box, _box, _box, _zs(_near_tie))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_batched_q_matches_scalar(a, b, g, zs):
    params = JacobiParams(a, b, g)
    outs, ok, first_error, growth = _split(jacobi_q, params, zs)
    if ok:
        points = np.array([zs[i] for i in ok])
        got = jacobi_q(params, points)
        logs = jacobi_q_log(params, points)
        for v, e, log_v, i in zip(got.value, got.abs_error_estimate, logs, ok):
            ref = outs[i]
            log_ref = jacobi_q_log(params, zs[i])
            # Q is exp(log prefactor) times a series.
            rel = growth[i] * (e + ref.abs_error_estimate) / abs(ref.value)
            rel += ULPS * (1.0 + abs(log_ref))
            assert abs(v - ref.value) <= rel * abs(ref.value)
            # exp of the difference: the two logs may differ by 2 pi i.
            assert abs(cmath.exp(log_v - log_ref) - 1.0) <= rel
    if first_error is not None:
        with pytest.raises(type(first_error)):
            jacobi_q(params, np.array(zs))
        with pytest.raises(type(first_error)):
            jacobi_q_log(params, np.array(zs))


def test_batch_takes_every_route():
    # Points near 1 (REP1), near -1 from the right half plane (REP3), far out
    # (the connection) and on (-1, -0.5) where only the slow series applies.
    params = JacobiParams(0.3 + 0.2j, -0.4, 1.1 - 0.1j)
    zs = [0.5 + 0.1j, 3.0 + 1.0j, 40.0 - 25.0j, -0.8, -0.7 + 1e-13j]
    got = jacobi_p(params, np.array(zs))
    assert set(got.provenance.split("+")) == {"rep1", "rep3", "connection"}
    for w, v, e in zip(zs, got.value, got.abs_error_estimate):
        ref = jacobi_p(params, w)
        assert abs(v - ref.value) <= e + ref.abs_error_estimate + _p_slack(params, w, ref, 1.0)


def test_array_needs_auto():
    with pytest.raises(ValueError):
        jacobi_p(JacobiParams(0.2, 0.1, 1.3), np.array([0.5]), Representation.REP2)
    with pytest.raises(ValueError):
        jacobi_q(JacobiParams(0.2, 0.1, 1.3), np.array([2.5]), Representation.REP2)


def test_batch_keeps_shape_and_empty_input():
    params = JacobiParams(0.2, 0.1, 1.3)
    grid = np.array([[0.5, 0.6], [2.0 + 1.0j, 3.0]])
    got = jacobi_p(params, grid)
    assert got.value.shape == (2, 2)
    assert got.value[1, 0] == pytest.approx(jacobi_p(params, 2.0 + 1.0j).value, rel=1e-13)
    assert jacobi_q(params, np.array([], dtype=complex)).value.shape == (0,)
    assert math.isfinite(jacobi_q_log(params, np.array([3.0]))[0].real)


_disk = st.builds(complex, st.floats(-0.99, 0.99), st.floats(-0.99, 0.99)).filter(
    lambda w: abs(w) <= 0.99
)


@given(_param_2f1, _param_2f1, _param_2f1, st.lists(_disk, min_size=1, max_size=40))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_first_block_width_changes_no_result(a, b, c, zs):
    # The first column block is sized from max |z|; starting at _BATCH_COLS
    # columns instead must give the same points covered and the same bits.
    # The running sums add left to right across blocks, and the estimate
    # holds the size of the last term summed, so equal bits mean the same
    # stop index at every point.
    z = np.array(zs)
    a, b, c = complex(a), complex(b), complex(c)
    m = hypergeom.termination_index((a, b))
    sized = hypergeom._series_batch(a, b, c, z, m)
    with mock.patch.object(hypergeom, "_first_width", lambda *args: hypergeom._BATCH_COLS):
        doubled = hypergeom._series_batch(a, b, c, z, m)
    for got, want in zip(sized, doubled):
        assert got.tobytes() == want.tobytes()
