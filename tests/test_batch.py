"""The batched evaluators against the scalar calls they batch.

An ndarray of z under AUTO must give, at every point, what the scalar call
gives there: a value within the two error estimates plus a few ulps, or the
scalar's exception.  The ulps allow for the batch forming z^k by repeated
products and powers as exp(s Log w), where the scalar series carries the
term ratio and uses Python's complex power.  Neither error estimate covers
the rounding of a power or an exponential, which is about |s Log w| ulps,
so where one enters (a logarithm) the ulps scale with it.  Nor does the
series estimate, |last term| + eps sum |terms|, count the rounding that
builds up in a term formed by k products; the two evaluations' difference
from it grows like sqrt(K) for K terms, so the estimates are scaled by
that.  (At z = -0.952 a 1419-term series is 9e-12 from the exact value
against an estimate of 3e-13, in both evaluations.)
The large-z connection of P reports a flat 1e-13 |value| estimate
that ignores its parts, so its values are compared within the parts'
estimates: the two second-kind values and their series errors.

The z of the properties mix points of the plane with points within 4 ulps
of the plans' thresholds, where numpy and Python round a modulus or a
quotient apart; the plans use neither, only moduli formed as Python forms
them (Q's the moduli of 1 -+ z, not its quotient 2/(1 -+ z)), so the batch
and the scalar call take the same plan there too.  The thresholds include
the circles of radius CUT_GUARD about the ends of the cuts, where numpy and
Python must agree on which points are on a cut: there a rounding
difference would turn a value into an error.  The examples are fixed (the
suite's Hypothesis profile derandomizes them) so that a run repeats; the
properties also held over 8 000 / 4 000 random examples, and with the
threshold points over 1 500.
"""

import cmath
import math
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jacobifn import hypergeom
from jacobifn.cli import main
from jacobifn.errors import (
    DomainCutError,
    FactorOverflow,
    JacobiFnError,
    NoConvergentPath,
    TruncationWarning,
    ValidityError,
)
from jacobifn.hypergeom import (
    DIRECT_LIMIT,
    MAP_LIMIT,
    _direct_2f1,
    _ohyp2f1_batch,
    ohyp2f1,
)
from jacobifn.jacobi_first import (
    _PROVENANCE,
    AUTO_ARG_LIMIT,
    P_REP1_BEYOND,
    POINTS_MEMO,
    JacobiParams,
    Representation,
    _connection_coeffs,
    _connection_plan,
    _p_plan,
    _p_points,
    jacobi_p,
    jacobi_p_scaled,
)
from jacobifn.jacobi_second import Q_NO_PATH, Q_REP1, _q_plan, _q_points, jacobi_q, jacobi_q_log
from jacobifn.quadrature import CUT_GUARD
from jacobifn.result import EvalResult
from jacobifn.scalar_kernel import reciprocal_gamma

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


def _guard_circle(end: float):
    """The circle of radius CUT_GUARD about the end of a cut, by its angle."""
    return lambda t: end + cmath.rect(CUT_GUARD, t)


# The batch's direct series: |z| = DIRECT_LIMIT, and |z| = MAP_LIMIT, the
# edge of the disk in which the AUTO plans sum a series that does not
# terminate.
_near_2f1 = _near(lambda t: cmath.rect(DIRECT_LIMIT, t), lambda t: cmath.rect(MAP_LIMIT, t))
_in_map_limit = st.builds(cmath.rect, st.floats(0.0, MAP_LIMIT), st.floats(-math.pi, math.pi))
# P's REP1, REP3 or beyond: |1-z|/2 = AUTO_ARG_LIMIT, |z-1|/|z+1| = AUTO_ARG_LIMIT;
# a value or DomainCutError: the guard circle about -1 (P's cut); the
# connection or not: the guard circles about -1 and 1 (Q's cut).
_near_auto = _near(
    lambda t: 1.0 - 2.0 * cmath.rect(AUTO_ARG_LIMIT, t),
    lambda t: (1.0 + cmath.rect(AUTO_ARG_LIMIT, t)) / (1.0 - cmath.rect(AUTO_ARG_LIMIT, t)),
    _guard_circle(-1.0),
    _guard_circle(1.0),
)
# Q's 2F1 argument 2/(1-z) or 2/(1+z), a quotient, at MAP_LIMIT on the arc
# where AUTO takes it (a series or NoConvergentPath) and CUT_GUARD above the
# 2F1's cut [1, oo) off Q's own guard (a series or CutError).
_Q_EDGES = (
    lambda t: 1.0 - 2.0 / cmath.rect(MAP_LIMIT, t / 3.0),
    lambda t: 2.0 / cmath.rect(MAP_LIMIT, t / 3.0) - 1.0,
    lambda t: 1.0 - 2.0 / complex(1.2 + 0.1 * math.sin(t), CUT_GUARD),
    lambda t: 2.0 / complex(1.2 + 0.1 * math.sin(t), CUT_GUARD) - 1.0,
)
# Q's REP1 or REP3, |2/(1-z)| = |2/(1+z)| on Re z = 0 (signed zeros and
# subnormals), each of those arguments at DIRECT_LIMIT and at the edges
# above; a value or DomainCutError: the guard circles about -1 and 1.
_near_tie = st.one_of(
    st.builds(
        complex,
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310]),
        st.floats(-2.0, 2.0),
    ),
    _near(
        lambda t: 1.0 - 2.0 / cmath.rect(DIRECT_LIMIT, t),
        lambda t: 2.0 / cmath.rect(DIRECT_LIMIT, t) - 1.0,
        *_Q_EDGES,
        _guard_circle(-1.0),
        _guard_circle(1.0),
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
    # A' and B' multiply plain series whose logs carry -+ log Gamma(1+s): as
    # factors of the two second-kind values they are A' (1+s) and
    # B' Gamma(1+s) Gamma(-s) / (Gamma(-b-g) Gamma(-a-g)), where
    # Gamma(1+s) Gamma(-s) = -pi / sin(pi s).
    s = a + b + 2.0 * g
    coef_a *= 1.0 + s
    coef_b *= -math.pi / cmath.sin(math.pi * s) * reciprocal_gamma(-b - g) * reciprocal_gamma(-a - g)
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


@given(_param_2f1, _param_2f1, _param_2f1, _zs(st.one_of(_in_map_limit, _near_2f1)))
@settings(max_examples=150)
def test_batched_2f1_matches_scalar(a, b, c, zs):
    # The batch sums the direct series, as the AUTO plans call it: at any z
    # where the series terminates, else within |z| <= MAP_LIMIT.
    a, b, c = complex(a), complex(b), complex(c)
    if hypergeom.termination_index((a, b)) is None:
        zs = [w for w in zs if abs(w) <= MAP_LIMIT]
        assume(zs)
    value, err, covered = _ohyp2f1_batch(a, b, c, np.array(zs))
    for w, v, e, ok in zip(zs, value, err, covered):
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            try:
                ref = _scalar(_direct_2f1, a, b, c, w, True)
            except TruncationWarning as capped:
                ref = capped
        if isinstance(ref, Exception) and not isinstance(ref, (JacobiFnError, TruncationWarning)):
            raise ref
        if ok:
            assert not isinstance(ref, Exception)
            growth = math.sqrt(ref.terms_used)
            tol = growth * (e + ref.abs_error_estimate) + ULPS * abs(ref.value) + TINY
            assert abs(v - ref.value) <= tol


def test_long_direct_series_has_the_scalar_bits():
    # Past the 140-term switch the scalar series takes the blocks from its
    # one leading term (Re c > 0.5, so k0 = 0), as every row of the batch
    # does: value and estimate agree bit for bit, in batches of mixed length.
    rng = np.random.default_rng(20261019)
    for _ in range(12):
        a, b = (complex(rng.uniform(-0.65, 2.8), rng.uniform(-0.45, 0.45)) for _ in range(2))
        c = complex(rng.uniform(0.6, 3.0), rng.uniform(-0.45, 0.45))
        r = rng.uniform(0.86, 0.98, 6)
        # Angles within |x - 1| < 1, where the direct series is taken.
        zs = r * np.exp(1j * rng.uniform(-0.9, 0.9, 6) * np.arccos(r / 2.0))
        value, err, covered = _ohyp2f1_batch(a, b, c, zs)
        assert covered.all()
        for w, v, e in zip(zs.tolist(), value, err):
            need = hypergeom._predicted_terms(abs(w), (a + b - c).real - 1.0)
            assert need > hypergeom._TAIL_TERMS and abs(w - 1.0) < 1.0
            ref = ohyp2f1(a, b, c, w)
            assert (complex(v), float(e)) == (ref.value, ref.abs_error_estimate)


@given(_box, _box, _p_degree, _zs(_near_auto))
@settings(max_examples=60)
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
@settings(max_examples=60)
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
@settings(max_examples=150)
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


# --- a point's bits do not depend on its batch ---------------------------------
#
# The same points alone and in a batch with one more point: in the 2F1 one
# farther out, which widens the first column block; in P and Q one of
# another plan code, so that their batches reach the points split by
# representation.  Each point must come out with the same bits either way.
# The points lie inside the regions where every point takes one code or
# within 4 ulps of their edges.

_unit = st.builds(cmath.rect, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
_away = st.builds(cmath.rect, st.floats(0.05, 1.0), st.floats(-math.pi, math.pi))
# The 2F1 at |z| <= DIRECT_LIMIT.
_2f1_disk = st.one_of(
    _unit.map(lambda u: DIRECT_LIMIT * u), _near(lambda t: cmath.rect(DIRECT_LIMIT, t))
)
# P inside the preferred disk of REP1's or REP3's argument, where every
# point takes one of the two.
_p_disk = st.one_of(
    _unit.map(lambda u: 1.0 - 2.0 * AUTO_ARG_LIMIT * u),
    _unit.map(lambda u: (1.0 + AUTO_ARG_LIMIT * u) / (1.0 - AUTO_ARG_LIMIT * u)),
    _near(
        lambda t: 1.0 - 2.0 * cmath.rect(AUTO_ARG_LIMIT, t),
        lambda t: (1.0 + cmath.rect(AUTO_ARG_LIMIT, t)) / (1.0 - cmath.rect(AUTO_ARG_LIMIT, t)),
    ),
)
# Q where 2/(1-z) or 2/(1+z) is at most DIRECT_LIMIT, far from its cut.
_q_far = st.one_of(
    _away.map(lambda u: 1.0 - 2.0 / (DIRECT_LIMIT * u)),
    _away.map(lambda u: 2.0 / (DIRECT_LIMIT * u) - 1.0),
    _near(
        lambda t: 1.0 - 2.0 / cmath.rect(DIRECT_LIMIT, t),
        lambda t: 2.0 / cmath.rect(DIRECT_LIMIT, t) - 1.0,
    ),
)
# One point farther out (the 2F1), or of another plan code: P's connection, Q's lens.
_2F1_MIXER, _P_MIXER, _Q_MIXER = 0.9 + 0.3j, 40.0 - 25.0j, 0.5 + 0.5j


def _same_leading_bits(alone, mixed, n: int) -> None:
    """The columns of ``_pointwise`` at the first n points agree bit for bit,
    up to the first point that raised, which is the same."""
    (columns, failure), (mixed_columns, mixed_failure) = alone, mixed
    stop = n if failure is None else failure[0]
    if failure is not None:
        assert (mixed_failure[0], type(mixed_failure[1])) == (stop, type(failure[1]))
    for column, mixed_column in zip(columns, mixed_columns):
        assert column[:stop].tobytes() == mixed_column[:stop].tobytes()


@given(_param_2f1, _param_2f1, _param_2f1, st.lists(_2f1_disk, min_size=1, max_size=12))
@settings(max_examples=100)
def test_2f1_bits_do_not_depend_on_the_batch(a, b, c, zs):
    alone = _ohyp2f1_batch(a, b, c, np.array(zs))
    mixed = _ohyp2f1_batch(a, b, c, np.array(zs + [_2F1_MIXER]))
    for column, mixed_column in zip(alone, mixed):
        assert column.tobytes() == mixed_column[: len(zs)].tobytes()


@given(_box, _box, _p_degree, st.lists(_p_disk, min_size=1, max_size=12))
@settings(max_examples=60)
def test_p_bits_do_not_depend_on_the_batch(a, b, g, zs):
    params = JacobiParams(a, b, g)
    for scaled in (False, True):
        alone = _p_points(params, np.array(zs), scaled, memo=False)
        mixed = _p_points(params, np.array(zs + [_P_MIXER]), scaled, memo=False)
        _same_leading_bits(alone, mixed, len(zs))


@given(_box, _box, _box, st.lists(_q_far, min_size=1, max_size=12))
@settings(max_examples=60)
def test_q_bits_do_not_depend_on_the_batch(a, b, g, zs):
    params = JacobiParams(a, b, g)
    for log in (False, True):
        alone = _q_points(params, np.array(zs), log, memo=False)
        mixed = _q_points(params, np.array(zs + [_Q_MIXER]), log, memo=False)
        _same_leading_bits(alone, mixed, len(zs))


@pytest.mark.parametrize("kind", ["P", "Q"])
def test_large_degree_or_parameter_returns_or_raises_a_library_error(kind):
    # From Re alpha or Re gamma of about 150 (lower for Q) a gamma factor
    # passes the Lanczos range: the call raises FactorOverflow, a
    # JacobiFnError, never a bare OverflowError.  Arrays raise as the scalar
    # call does.
    fn = jacobi_p if kind == "P" else jacobi_q
    for big in (100, 150, 200, 400):
        for params in (JacobiParams(big, 0.2, 0.3), JacobiParams(0.3, 0.2, big)):
            for w in (0.5, 1.5, 3.0):
                outcomes = []
                for z in (w, np.array([w])):
                    try:
                        outcomes.append(fn(params, z).provenance)
                    except JacobiFnError as exc:
                        outcomes.append(type(exc))
                assert outcomes[0] == outcomes[1], (params, w)
    params = JacobiParams(150, 0.2, 0.3)
    # Near 1, Q's prefactor exp(log) passes double range before gamma does.
    near_one = JacobiParams(126.97807920583742 + 0.6202348942459648j, 0.2, 0.3)
    calls = (
        lambda z: jacobi_q(params, z + 2.5),
        lambda z: jacobi_p(params, z),
        lambda z: jacobi_q(near_one, z + (0.570992834283849 + 0.16939151628011753j)),
    )
    for call in calls:
        for z in (0.5, np.array([0.5])):
            with pytest.raises(FactorOverflow):
                call(z)
    assert issubclass(FactorOverflow, OverflowError)


_NON_FINITE = (math.inf, -math.inf, math.nan, complex(0.0, math.inf), complex(math.nan, 1.0))


@pytest.mark.parametrize("kind", ["P", "Q"])
def test_non_finite_parameters_raise_validity_error(kind, capsys):
    # At every entry point: the scalar and the array call, the scaled form
    # or the log, and the table, which stops at its first point.
    fns = (jacobi_p, jacobi_p_scaled) if kind == "P" else (jacobi_q, jacobi_q_log)
    for bad in _NON_FINITE:
        for i in range(3):
            triple = [0.3 + 0.1j, 0.2, 0.5]
            triple[i] = complex(bad)
            for fn in fns:
                for z in (2.0, np.array([2.0, 3.0])):
                    with pytest.raises(ValidityError, match="must be finite"):
                        fn(JacobiParams(*triple), z)
            flags = (f"--{name}={w.real!r},{w.imag!r}" for name, w in zip(("alpha", "beta", "gamma"), triple))
            assert main(["table", f"--kind={kind}", *flags, "--z-grid=2,4,3"]) == 1
            assert capsys.readouterr().err.startswith("ValidityError at z=(2+0j): alpha, beta and gamma must be finite")


def _parts(out):
    """The numbers of a result, scalar or array: an EvalResult's value and estimate, a pair, or one."""
    if isinstance(out, EvalResult):
        return out.value, out.abs_error_estimate
    return out if isinstance(out, tuple) else (out,)


@pytest.mark.parametrize("fn", [jacobi_p, jacobi_p_scaled, jacobi_q, jacobi_q_log])
def test_an_infinite_z_in_an_array_gives_the_scalar_outcome(fn):
    # The array holds a finite point and an infinite one, or one whose parts
    # are near the largest double, so that |z| overflows, on and off P's
    # cut; each gives what the scalar call gives there, a finite value (Q is
    # 0 at infinity) or an error (P has no path there, and Q's log is that of
    # 0), and no numpy warning escapes.
    params = JacobiParams(0.3, 0.2, 0.5)
    big = 1.7e308
    for w in (complex(math.inf, 0.0), complex(0.0, math.inf), complex(0.0, -math.inf),
              complex(math.inf, math.inf), complex(-math.inf, -1.0), complex(-math.inf, 1.0),
              complex(big, big), complex(-big, big), complex(big, -big), complex(-big, -big),
              complex(big, 0.0), complex(-big, 0.0), complex(-big, -1e-300), complex(-big, 1.0),
              complex(1.0, -big), complex(1.7976931348623157e308, 1.7976931348623157e308)):
        try:
            want = fn(params, w)
        except JacobiFnError as exc:
            with pytest.raises(type(exc)):
                fn(params, np.array([2.0, w]))
            continue
        got = fn(params, np.array([2.0, w]))
        assert all(np.isfinite(part).all() for out in (got, want) for part in _parts(out))
        if fn is jacobi_p_scaled:
            assert [repr(complex(part[1])) for part in got] == [repr(part) for part in want]
        elif fn is jacobi_q_log:
            assert repr(complex(got[1])) == repr(want)
        else:
            assert (complex(got.value[1]), float(got.abs_error_estimate[1])) == (want.value, want.abs_error_estimate)
            assert want.provenance in got.provenance.split("+")


# --- the memo of the array calls -----------------------------------------------

_MEMO_PARAMS = JacobiParams(0.3 + 0.2j, -0.4, 1.1 - 0.1j)


def _bits(out):
    """The bytes of an array result: an EvalResult, a pair of arrays or an array."""
    if isinstance(out, EvalResult):
        return out.value.tobytes(), out.abs_error_estimate.tobytes(), out.provenance
    return tuple(part.tobytes() for part in (out if isinstance(out, tuple) else (out,)))


def test_memo_repeats_a_call_bit_for_bit():
    # P by its three routes and Q by its two; at the points they share, P,
    # its scaled form, Q and its log are four keys.
    p_zs = np.array([0.5 + 0.1j, 3.0 + 1.0j, 40.0 - 25.0j, -2.5 + 0.5j])
    q_zs = np.array([1.5, 3.0 + 1.0j, 40.0 - 25.0j, -2.5 + 0.5j])
    calls = ((jacobi_p, p_zs), (jacobi_p_scaled, p_zs), (jacobi_q, q_zs), (jacobi_q_log, q_zs),
             (jacobi_p, q_zs), (jacobi_p_scaled, q_zs))
    POINTS_MEMO.cache_clear()
    first = [_bits(call(_MEMO_PARAMS, zs)) for call, zs in calls]
    assert POINTS_MEMO.cache_info()[:2] == (0, 6)
    assert [_bits(call(_MEMO_PARAMS, zs.copy())) for call, zs in calls] == first
    assert POINTS_MEMO.cache_info()[:2] == (6, 6)
    assert (first[0][2], first[2][2]) == ("connection+rep1+rep3", "rep1+rep3")


def test_memo_keys_a_signed_zero_apart():
    # On (-oo, -1) Q takes the limit from below at an imaginary part of -0.0,
    # so arrays that differ only there are two keys, and give Q's two limits.
    above, below = complex(-2.0, 0.0), complex(-2.0, -0.0)
    POINTS_MEMO.cache_clear()
    got = [jacobi_q(_MEMO_PARAMS, np.array([w])) for w in (above, below, above, below)]
    assert POINTS_MEMO.cache_info()[:2] == (2, 2)
    assert [_bits(r) for r in got[2:]] == [_bits(r) for r in got[:2]]
    for r, w in zip(got, (above, below)):
        ref = jacobi_q(_MEMO_PARAMS, w)
        tol = r.abs_error_estimate[0] + ref.abs_error_estimate + ULPS * abs(ref.value)
        assert abs(r.value[0] - ref.value) <= tol
    assert abs(got[0].value[0] - got[1].value[0]) > 0.1 * abs(got[0].value[0])


def test_memo_survives_a_caller_writing_into_a_result():
    zs = np.array([0.5 + 0.1j, 3.0 + 1.0j])
    POINTS_MEMO.cache_clear()
    first = jacobi_p(_MEMO_PARAMS, zs)
    want = _bits(first)
    first.value[:] = 0.0
    first.abs_error_estimate[:] = 0.0
    again = jacobi_p(_MEMO_PARAMS, zs)
    assert _bits(again) == want
    again.value[:] = 1.0
    assert _bits(jacobi_p(_MEMO_PARAMS, zs)) == want
    assert POINTS_MEMO.cache_info().hits == 2


def test_memo_keeps_no_call_that_raised_or_took_the_scalar_call():
    # 0.3+0.3i lies in Q's lens, where Q raises NoConvergentPath: every
    # repeat raises again.  At (-100.3, 0.2, 0.2+0.5i) P's scalar call at 0.5
    # warns at the term cap (REP1's leading terms overflow), then raises:
    # every repeat warns and raises again.  At a polynomial degree far out,
    # REP1's sum is not finite, and the scalar call returns P's scaled
    # connection, which is not kept either.
    zs = np.array([3.0 + 1.0j, 0.3 + 0.3j])
    POINTS_MEMO.cache_clear()
    for _ in range(3):
        with pytest.raises(NoConvergentPath):
            jacobi_q(_MEMO_PARAMS, zs)
    for _ in range(2):
        with pytest.warns(TruncationWarning), pytest.raises(NoConvergentPath):
            jacobi_p(JacobiParams(-100.3, 0.2, 0.2 + 0.5j), np.array([0.5 + 0.0j]))
    far = np.array([2.0, 1e80 + 1e79j])
    first = _bits(jacobi_p_scaled(JacobiParams(0.3, 0.2, 7), far))
    assert _bits(jacobi_p_scaled(JacobiParams(0.3, 0.2, 7), far)) == first
    assert POINTS_MEMO.cache_info() == (0, 7, POINTS_MEMO.budget, 0)


def test_memo_holds_no_more_than_its_budget():
    # Calls of a third of the budget and one point: three do not fit, so
    # the least recently used goes; a call larger than the budget is not kept.
    budget = POINTS_MEMO.budget
    size = budget // 3 + 1
    rng = np.random.default_rng(12)
    arrays = [0.5 + 0.2 * (rng.random(size) + 1j * rng.random(size)) for _ in range(4)]
    params = JacobiParams(0.2, 0.1, 1.3)
    POINTS_MEMO.cache_clear()
    for zs in arrays[:2] + arrays[:1] + arrays[2:3] + arrays[:2]:
        jacobi_p(params, zs)
        assert POINTS_MEMO.cache_info().points <= budget
    # 0 and 1 missed, 0 hit, 2 dropped 1, 0 hit, 1 missed and dropped 2.
    assert POINTS_MEMO.cache_info() == (2, 4, budget, 2 * size)
    jacobi_p(params, np.concatenate(arrays)[: budget + 1])
    assert POINTS_MEMO.cache_info() == (2, 5, budget, 2 * size)


# --- one plan for a point, alone or in an array ---------------------------------
#
# Within a few ulps of a plan's threshold numpy's abs and complex division
# round apart from Python's.  The plans read only moduli formed by
# quadrature.modulus and the parts of z, so a batch codes every point as
# the scalar call does: the same series, status and provenance.


def _ulp_ring(curve, n: int, seed: int) -> list[complex]:
    """n points of a curve (a function of an angle), each part moved by up to 6 ulps."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-math.pi, math.pi, n).tolist()
    moves = rng.integers(-6, 7, (n, 2)).tolist()
    return [_moved(curve(t), i, j) for t, (i, j) in zip(angles, moves)]


# Besides a generic triple: a resonant one, (0.3, 0.2, 0.75), whose
# connection has no coefficients (alpha+beta+2 gamma = 2), so that P takes
# REP1 or REP3 beyond the preferred disk; and (0.3, 0.2, 0.5), where
# alpha+beta+gamma = 1 and the REP1 series of the companion of P's
# connection, of degree -2, terminates: in Q's lens only one of the
# connection's two Q plans has a path.
_RESONANT, _COMPANION_ENDS = JacobiParams(0.3, 0.2, 0.75), JacobiParams(0.3, 0.2, 0.5)


def _plan(fn, params, z) -> int:
    """The code of the AUTO plan of jacobi_p's or jacobi_q's kind at z, a scalar or a one-point array."""
    code = _p_plan(params, z)[0] if fn is jacobi_p else _q_plan(params, z)[0][0]
    return int(np.ravel(code)[0])


def _plan_moves(fn, params, zs) -> list:
    """The points whose plan code alone differs from its code in a one-point array."""
    return [w for w in zs if _plan(fn, params, w) != _plan(fn, params, np.array([w]))]


def test_one_q_plan_of_the_connection_has_a_path_in_the_lens():
    # At -0.5+i, beyond P's preferred disk, 2/(1-z) is beyond MAP_LIMIT,
    # but the companion's REP1 series terminates.
    taken, (_, _, codes, _) = _connection_plan(_COMPANION_ENDS, -0.5 + 1.0j)
    assert (taken, codes) == (False, (Q_NO_PATH, Q_REP1))
    assert _p_plan(_COMPANION_ENDS, -0.5 + 1.0j)[0] == P_REP1_BEYOND
    assert jacobi_p(_COMPANION_ENDS, -0.5 + 1.0j).provenance == "rep1"


@pytest.mark.parametrize("kind", ["P", "Q"])
def test_array_point_has_the_scalar_provenance_at_auto_boundaries(kind):
    # P's preferred disk, |z-1| = 2 AUTO_ARG_LIMIT and |z-1| = AUTO_ARG_LIMIT
    # |z+1|, its REP1-or-REP3 choice, |z+1| = 2, and Q's, Re z = 0, where
    # |Re z| up to about 3e-16 leaves |1-z| and |1+z| a rounding apart; the
    # edges of Q's 2F1 argument, which decide P's connection; and where the
    # connection is not taken, |x1| = MAP_LIMIT and |x2| = MAP_LIMIT, which
    # decide P's REP1 or REP3 against no path.  Each point has one plan code
    # alone and in an array.
    curves = (
        lambda t: 1.0 + cmath.rect(2.0 * AUTO_ARG_LIMIT, t),
        lambda t: (1.0 + cmath.rect(AUTO_ARG_LIMIT, t)) / (1.0 - cmath.rect(AUTO_ARG_LIMIT, t)),
        lambda t: 1.0 + cmath.rect(2.0 * MAP_LIMIT, t),
        lambda t: (1.0 + cmath.rect(MAP_LIMIT, t)) / (1.0 - cmath.rect(MAP_LIMIT, t)),
        lambda t: -1.0 + cmath.rect(2.0, t),
        lambda t: complex(1e-16 * t, 2.0 * math.sin(5.0 * t)),
        *_Q_EDGES,
    )
    fn, points = (jacobi_p, _p_points) if kind == "P" else (jacobi_q, _q_points)
    rings = [w for k, curve in enumerate(curves) for w in _ulp_ring(curve, 300, 10 + k)]
    for params in (JacobiParams(0.3 + 0.2j, -0.4, 1.1 - 0.1j), _RESONANT, _COMPANION_ENDS):
        zs, want = [], []
        for w in rings:
            try:
                want.append(fn(params, w).provenance)
            except JacobiFnError:
                continue
            zs.append(w)
        columns, failure = points(params, np.array(zs), memo=False)
        assert failure is None
        got = [_PROVENANCE[c] for c in columns[-1].tolist()]
        assert [(w, p) for w, p, q in zip(zs, got, want) if p != q] == []
        assert _plan_moves(fn, params, rings) == []


def _outcome(fn, params, z):
    try:
        return fn(params, z).provenance
    except JacobiFnError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("fn", [jacobi_p, jacobi_q])
def test_an_array_raises_where_the_scalar_call_raises_at_q_argument_edges(fn):
    # Q's batch divides with numpy, which rounds 2/(1-z) apart from Python,
    # but Q's plan reads only |1 -+ z|, so one point has one plan code alone
    # and in an array, and raises or returns as it does alone (P takes REP1
    # or REP3 where Q has no path and its connection is not taken).
    rings = [w for k, curve in enumerate(_Q_EDGES) for w in _ulp_ring(curve, 400, 20 + k)]
    for params in (JacobiParams(0.3, 0.2, 0.45), _RESONANT, _COMPANION_ENDS):
        moved = []
        for w in rings:
            alone, in_array = _outcome(fn, params, w), _outcome(fn, params, np.array([w]))
            if alone != in_array:
                moved.append((w, alone, in_array))
        assert moved == []
        assert _plan_moves(fn, params, rings) == []


def test_q_takes_rep1_at_an_infinite_z_with_one_finite_part():
    # Both arguments, 2/(1-z) and 2/(1+z), are 0 there, and Q is 0 by REP1;
    # a test of Re z <= 0 alone would take REP3 at +inf and at 2 + inf i.
    params = JacobiParams(0.3, 0.2, 0.5)
    for w in (complex(math.inf, 0.0), complex(math.inf, -1.0), complex(2.0, math.inf), complex(-math.inf, 1.0)):
        for z in (w, np.array([w])):
            got = jacobi_q(params, z)
            assert got.provenance == "rep1" and not np.any(got.value), w


# --- AUTO sums only direct series -----------------------------------------------


def _beyond_the_disk(n: int, seed: int) -> list[complex]:
    """n seeded z outside |z+1| <= 2 whose REP3 argument x2 = (z-1)/(z+1) has 0.76 <= |x2| <= 0.985."""
    rng = np.random.default_rng(seed)
    zs = []
    while len(zs) < n:
        x2 = cmath.rect(rng.uniform(0.76, 0.985), rng.uniform(-math.pi, math.pi))
        z = (1.0 + x2) / (1.0 - x2)
        if abs(z + 1.0) > 2.0:
            zs.append(z)
    return zs


def test_p_sums_rep3_beyond_the_disk_where_the_connection_is_refused():
    # The resonant triple has no connection.  Outside |z+1| <= 2, beyond
    # AUTO_ARG_LIMIT, P sums REP3's series at x2, alone and in a one-point
    # array.  It is Pfaff's map of REP1's series at x1 = (1-z)/2 (DLMF
    # 15.8.1), which the explicit REP1 sums, so the two agree within their
    # estimates.
    for z in _beyond_the_disk(300, 27):
        alone, in_array = jacobi_p(_RESONANT, z), jacobi_p(_RESONANT, np.array([z]))
        assert (alone.provenance, in_array.provenance) == ("rep3", "rep3"), z
        ref = jacobi_p(_RESONANT, z, Representation.REP1)
        for v, e in ((alone.value, alone.abs_error_estimate), (in_array.value[0], in_array.abs_error_estimate[0])):
            assert abs(v - ref.value) <= e + ref.abs_error_estimate, z


def test_no_auto_call_goes_through_the_continuation():
    # Every AUTO plan code names a direct series or an exact finite sum, so
    # no scalar or array call of P or Q under AUTO calls the 2F1
    # continuation, the one place where the z/(z-1) map is taken.  Seeded z
    # of the scatter-eval box and beyond P's preferred disk; a generic
    # triple, the resonant one, the one whose companion terminates and a
    # polynomial degree.
    rng = np.random.default_rng(2027)
    zs = (rng.uniform(-4.0, 4.0, 200) + 1j * rng.uniform(-2.0, 2.0, 200)).tolist() + _beyond_the_disk(60, 28)
    triples = (JacobiParams(0.3 + 0.2j, -0.4, 1.1 - 0.1j), _RESONANT, _COMPANION_ENDS, JacobiParams(0.3, 0.2, 4))
    routed = AssertionError("an AUTO call went through the continuation")
    with mock.patch("jacobifn.jacobi_first._continued_2f1", side_effect=routed), mock.patch(
        "jacobifn.jacobi_second._continued_2f1", side_effect=routed
    ):
        for params in triples:
            for fn in (jacobi_p, jacobi_p_scaled, jacobi_q, jacobi_q_log):
                returned = [w for w in zs if not isinstance(_scalar(fn, params, w), JacobiFnError)]
                assert returned
                fn(params, np.array(returned))
    # An explicit representation still takes it.
    with mock.patch("jacobifn.jacobi_first._continued_2f1", side_effect=routed), pytest.raises(AssertionError):
        jacobi_p(_RESONANT, 3.0, Representation.REP1)


@pytest.mark.parametrize("fn", [jacobi_p, jacobi_p_scaled, jacobi_q, jacobi_q_log])
def test_thin_bands_beside_the_cuts_raise_no_convergent_path(fn):
    # Between CUT_GUARD and 2 CUT_GUARD from Q's cut [-1, 1], and from P's
    # cut (-oo, -1] where P's connection is refused, the 2F1's argument lies
    # within CUT_GUARD of the 2F1's cut [1, oo), and no series converges:
    # NoConvergentPath, alone and in a one-point array.  Within CUT_GUARD of
    # their cut P and Q raise DomainCutError.  Neither raises CutError, which
    # is neither error's subclass.
    rng = np.random.default_rng(31)
    n = 100
    if fn in (jacobi_p, jacobi_p_scaled):
        params, xs = _RESONANT, rng.uniform(-5.0, -1.0, n)
    else:
        params, xs = JacobiParams(0.3, 0.2, 0.45), rng.uniform(-1.0, 1.0, n)
    sign = rng.choice([-1.0, 1.0], n)
    for scale, want in ((rng.uniform(1.01, 1.99, n), NoConvergentPath), (rng.uniform(0.0, 0.99, n), DomainCutError)):
        for x, y in zip(xs.tolist(), (sign * scale * CUT_GUARD).tolist()):
            for z in (complex(x, y), np.array([complex(x, y)])):
                with pytest.raises(want):
                    fn(params, z)
