import cmath
import math
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bits
from jacobifn import hypergeom
from jacobifn.errors import (
    ContinuationRequired,
    CutError,
    DivergentError,
    JacobiFnError,
    LowerPoleError,
    NoConvergentPath,
    TruncationWarning,
    ZeroArgument,
)
from jacobifn.hypergeom import (
    HypParams,
    gauss2f1,
    ohyp,
    ohyp2f1,
    phyp,
    reverse_finite_series,
)
from jacobifn.quadrature import contour_derivative
from jacobifn.scalar_kernel import gamma, pochhammer, pochhammer_product, reciprocal_gamma


def vec(f):
    """A scalar integrand evaluated per node of the oracles' node arrays."""
    return np.vectorize(f, otypes=[complex])


def test_phyp_at_zero_is_one():
    assert phyp((0.3, 1.2), (2.5,), 0.0).value == 1.0


def test_phyp_finite_sum_3f2():
    r = phyp((-1, 2, 1), (3, 4), 1.0)
    assert r.value == pytest.approx(5.0 / 6.0, rel=1e-14)
    assert r.terminated


def test_phyp_terminating_2f1():
    r = phyp((-2, 3), (1,), 0.3)
    assert r.value == pytest.approx(-0.26, rel=1e-13)
    assert r.terms_used == 3


def test_phyp_accepts_params_object():
    r = phyp(HypParams((-2.0, 3.0), (1.0,), 0.3))
    assert r.value == pytest.approx(-0.26, rel=1e-13)


def test_phyp_errors():
    with pytest.raises(DivergentError):
        phyp((1, 1, 1), (2,), 0.1)
    with pytest.raises(ContinuationRequired):
        phyp((1, 1), (2,), 1.2)
    with pytest.raises(LowerPoleError):
        phyp((0.5, 0.5), (-1,), 0.2)


def test_termination_counts():
    for m in (0, 1, 4, 7):
        r = phyp((-m, 2.2), (3.3,), 0.4)
        assert r.terminated
        assert r.terms_used == m + 1


def test_gauss2f1_log_closed_form():
    r = gauss2f1(1, 1, 2, 0.5)
    assert r.value == pytest.approx(2 * math.log(2), rel=1e-12)


def test_gauss2f1_at_zero():
    assert gauss2f1(0.7, -1.3, 2.4, 0.0).value == 1.0


def test_gauss2f1_continued_matches_closed_form():
    # -log(1-z)/z stays valid off the cut; exercises the z/(z-1) map.
    for z in (-9.0, -2.0 + 2.0j, -0.4 + 1.2j):
        r = gauss2f1(1, 1, 2, z)
        expect = -cmath.log(1 - z) / z
        assert abs(r.value - expect) / abs(expect) < 1e-12


def test_gauss2f1_cut_error():
    with pytest.raises(CutError):
        gauss2f1(0.5, 0.7, 1.9, 1.5)
    # Terminating series are entire; the same point is fine.
    assert gauss2f1(-2, 3, 1, 1.5).terminated


def test_gauss2f1_no_convergent_path():
    # |z| and |z/(z-1)| both > 0.99 near z = 1/2 + i sqrt(3)/2-ish scaled out.
    with pytest.raises(NoConvergentPath):
        gauss2f1(0.5, 0.7, 1.9, 0.5 + 0.9j)


def test_pfaff_consistency_band(rng: Random):
    # Untransformed vs manually transformed evaluations agree on the overlap.
    for _ in range(40):
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        b = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        c = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
        r = rng.uniform(0.4, 0.75)
        # Stay where both the direct series and the mapped series converge
        # (Re z < 1/2 makes |z/(z-1)| < 1).
        th = rng.uniform(1.1, math.pi - 0.3)
        z = r * cmath.exp(1j * th)
        direct = phyp((a, b), (c,), z).value
        pfaff = (1 - z) ** (-a) * phyp((a, c - b), (c,), z / (z - 1)).value
        assert abs(direct - pfaff) <= 1e-10 * max(abs(direct), 1.0)


def test_ohyp2f1_is_gauss_over_gamma(rng: Random):
    for _ in range(40):
        a = complex(rng.uniform(-2, 2), rng.uniform(-0.8, 0.8))
        b = complex(rng.uniform(-2, 2), rng.uniform(-0.8, 0.8))
        c = complex(rng.uniform(-3, 3), rng.uniform(-0.8, 0.8))
        from jacobifn.scalar_kernel import distance_to_nonpositive_integers

        if distance_to_nonpositive_integers(c) < 0.1:
            continue
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4))
        lhs = ohyp2f1(a, b, c, z).value * gamma(c)
        rhs = gauss2f1(a, b, c, z).value
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


def test_ohyp2f1_regular_at_lower_poles():
    assert ohyp2f1(1, 1, 2, 0).value == pytest.approx(1.0)  # 1/Gamma(2)
    assert ohyp2f1(0.7, -0.2, -1, 0).value == 0.0  # 1/Gamma(-1)
    r = ohyp2f1(1, 1, -1, 0.5)
    assert r.value == pytest.approx(4.0, rel=1e-12)  # 2 z^2/(1-z)^3


def test_derivative_relations_against_contour(rng: Random):
    # The four factor-wise derivative relations of the regularized series,
    # checked against the Cauchy-contour derivative oracle.
    for _ in range(12):
        a = complex(rng.uniform(-1.5, 2.5), rng.uniform(-0.5, 0.5))
        b = complex(rng.uniform(-1.5, 2.5), rng.uniform(-0.5, 0.5))
        c = complex(rng.uniform(-1.0, 3.0), rng.uniform(-0.5, 0.5))
        w = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.25, 0.25))
        n = rng.randint(1, 3)

        F = lambda aa, bb, cc: vec(lambda x: ohyp2f1(aa, bb, cc, x).value)

        # plain derivative raises all parameters
        lhs = contour_derivative(F(a, b, c), w, n, 0.3)
        rhs = pochhammer(a, n) * pochhammer(b, n) * ohyp2f1(a + n, b + n, c + n, w).value
        assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1e-6)

        # x^(c-1)-weighted derivative lowers c; keep the disk inside (0,1)
        f4 = vec(lambda x: x ** (c - 1) * ohyp2f1(a, b, c, x).value)
        x0 = 0.45 + w / 4
        lhs = contour_derivative(f4, x0, n, 0.18)
        rhs = x0 ** (c - n - 1) * ohyp2f1(a, b, c - n, x0).value
        assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1e-6)

        # (1-x)^(a+b-c)-weighted derivative raises c
        f6 = vec(lambda x: (1 - x) ** (a + b - c) * ohyp2f1(a, b, c, x).value)
        lhs = contour_derivative(f6, w, n, 0.3)
        rhs = (
            pochhammer(c - a, n)
            * pochhammer(c - b, n)
            * (1 - w) ** (a + b - c - n)
            * ohyp2f1(a, b, c + n, w).value
        )
        assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1e-6)

        # doubly weighted derivative lowers everything
        f9 = vec(lambda x: x ** (c - 1) * (1 - x) ** (a + b - c) * ohyp2f1(a, b, c, x).value)
        x0 = 0.5 + w / 4
        lhs = contour_derivative(f9, x0, n, 0.15)
        rhs = (
            x0 ** (c - n - 1)
            * (1 - x0) ** (a + b - c - n)
            * ohyp2f1(a - n, b - n, c - n, x0).value
        )
        assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1e-6)


def test_reverse_finite_series_m0():
    d, r = reverse_finite_series((1.5, 2.5), (3.5,), 0, 0.7)
    assert d.value == 1.0 and r.value == 1.0


def test_reverse_finite_series_matches_direct():
    d, r = reverse_finite_series((1, 1, 1), (2, 2), 2, 0.5)
    assert d.value == pytest.approx(r.value, rel=1e-13)
    direct = 1 + 0.5 / 4 + (8.0 / 36) * 0.25 / 2
    assert d.value == pytest.approx(direct, rel=1e-13)

    d, r = reverse_finite_series((-5, 2, 1), (3, 4), 1, 2.0)
    assert d.value == pytest.approx(r.value, rel=1e-13)


def test_reverse_finite_series_complex_params(rng: Random):
    for _ in range(25):
        upper = tuple(
            complex(rng.uniform(-3, 3), rng.uniform(-1, 1)) for _ in range(3)
        )
        lower = tuple(
            complex(rng.uniform(0.5, 3), rng.uniform(-1, 1)) for _ in range(2)
        )
        m = rng.randint(0, 6)
        z = complex(rng.uniform(0.3, 2.0), rng.uniform(-1, 1))
        d, r = reverse_finite_series(upper, lower, m, z)
        assert abs(d.value - r.value) <= 1e-11 * max(abs(d.value), 1.0)


def test_reverse_finite_series_zero_argument():
    with pytest.raises(ZeroArgument):
        reverse_finite_series((1, 2), (3,), 2, 0.0)


def test_olver_general_series_matches_plain():
    val = ohyp((0.5, 1.5, 1.0), (2.2, 3.3), 0.4)
    ref = phyp((0.5, 1.5, 1.0), (2.2, 3.3), 0.4)
    assert val.value * gamma(2.2) * gamma(3.3) == pytest.approx(ref.value, rel=1e-12)
    # Olver form sails through a non-positive-integer lower parameter.
    r = ohyp((1.0, 1.0), (-1.0,), 0.5)
    assert r.value == pytest.approx(4.0 * reciprocal_gamma(1.0), rel=1e-12)


def test_truncation_warning_at_term_cap():
    import warnings

    from jacobifn.errors import TruncationWarning

    with pytest.warns(TruncationWarning):
        r = phyp((0.5, 0.5), (1.5,), 0.9995)
    assert not r.terminated
    assert r.abs_error_estimate > 1e-12


# Parameters of the 2F1 calls the Jacobi representations make for the
# catalog box, plus terminating uppers and lowers in -N0.
_box_param = st.one_of(
    st.builds(complex, st.floats(-3.0, 9.0), st.floats(-1.5, 1.5)),
    st.integers(-8, 0).map(float),
)
_lower_param = st.one_of(
    st.builds(complex, st.floats(-3.0, 9.0), st.floats(-1.5, 1.5)),
    st.integers(-4, 0).map(float),
)
_disk_point = st.builds(
    cmath.rect, st.floats(0.0, 0.99), st.floats(-math.pi, math.pi)
)


def _outcome(fn, *args):
    try:
        r = fn(*args)
    except JacobiFnError as exc:
        return type(exc)
    return (r.value, r.abs_error_estimate, r.terms_used, r.terminated)


@given(_box_param, _box_param, _lower_param, _disk_point)
@settings(max_examples=200)
def test_2f1_loop_matches_generic_loop(a, b, c, z):
    calls = [
        (ohyp2f1, a, b, c, z),
        (gauss2f1, a, b, c, z),
        (ohyp, (a, b), (c,), z),
        (phyp, (a, b), (c,), z),
    ]
    fast = [_outcome(*call) for call in calls]
    with mock.patch.object(hypergeom, "_ratio_loop_2f1", hypergeom._ratio_loop):
        generic = [_outcome(*call) for call in calls]
    assert fast == generic


def _recording(monkeypatch, name):
    """Replace the hypergeom function ``name`` by one that records what it returns."""
    seen = []
    real = getattr(hypergeom, name)

    def record(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(hypergeom, name, record)
    return seen


def test_ohyp2f1_work_count_pinned(monkeypatch):
    # A fixed sweep's total series work; a change to the stopping rule, the
    # argument map or the continuation shows up here as a different count,
    # and a change to the switch between the loop and the block tail as a
    # different number of tail sums.
    tails = _recording(monkeypatch, "_block_tail_2f1")
    rng = Random(20261018)
    terms = raised = 0
    for _ in range(200):
        a, b, c = (complex(rng.uniform(-1.0, 3.0), rng.uniform(-0.5, 0.5)) for _ in range(3))
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
        try:
            terms += ohyp2f1(a, b, c, z).terms_used
        except JacobiFnError:
            raised += 1
    assert (terms, raised, len(tails)) == (17358, 48, 20)


def test_scalar_call_work_count_pinned(monkeypatch):
    # 2,000 scalar calls from the box of the benchmark's scatter-eval
    # workload, jacobi_p and jacobi_q in turn, each with a fresh triple (Re in
    # [-0.65, 2.8], |Im| <= 0.45) and z (|Re z| < 4, |Im z| < 2).  Per kind:
    # the Lanczos sums of the gamma kernel, the 2F1 series terms and the calls
    # that raised.  A change to the gamma prefactors shows up in the first
    # count, one to the series or the routes in the second.
    from jacobifn import JacobiParams, jacobi_p, jacobi_q, scalar_kernel

    counts = {kind: [0, 0, 0] for kind in "PQ"}
    kind = "P"
    lanczos, series = scalar_kernel._lanczos_series, hypergeom._series

    def counted_lanczos(z):
        counts[kind][0] += 1
        return lanczos(z)

    def counted_series(*args):
        out = series(*args)
        counts[kind][1] += out.terms_used
        return out

    monkeypatch.setattr(scalar_kernel, "_lanczos_series", counted_lanczos)
    monkeypatch.setattr(hypergeom, "_series", counted_series)
    rng = Random(20261020)
    for i in range(2000):
        kind = "PQ"[i % 2]
        params = JacobiParams(*(complex(rng.uniform(-0.65, 2.8), rng.uniform(-0.45, 0.45)) for _ in range(3)))
        z = complex(rng.uniform(-4.0, 4.0), rng.uniform(-2.0, 2.0))
        try:
            (jacobi_p if kind == "P" else jacobi_q)(params, z)
        except JacobiFnError:
            counts[kind][2] += 1
    assert counts == {"P": [4005, 147862, 9], "Q": [2526, 87584, 158]}


# The 2F1 parameters that the Jacobi representations take from a triple of
# the catalog box: P's REP1 and REP3 at gamma, Q's REP1 and REP3 at gamma
# and at the connection's companion degree -alpha-beta-gamma-1 (there
# c = -alpha-beta-2 gamma, so Re c < 0 and k0 > 0 for most triples), each
# also with the z/(z-1) map's uppers (a, c-b).
_catalog = st.builds(complex, st.floats(-0.65, 2.8), st.floats(-0.45, 0.45))


@st.composite
def _jacobi_2f1(draw):
    al, be, ga = draw(_catalog), draw(_catalog), draw(_catalog)
    rep = draw(st.sampled_from(["P1", "P3", "Q1", "Q3", "Q1 companion", "Q3 companion"]))
    g = -al - be - ga - 1.0 if rep.endswith("companion") else ga
    if rep.startswith("P"):
        a, b, c = -g, (al + be + g + 1.0 if rep == "P1" else -be - g), al + 1.0
    else:
        a, b, c = g + 1.0, (al if rep.startswith("Q1") else be) + g + 1.0, al + be + 2.0 * g + 2.0
    if draw(st.booleans()):
        b = c - b
    return (a, b), (c,)


def _estimate(state):
    """The error estimate ``_series`` reports for a (k, last term, total, sum of |terms|) state."""
    k, term, _, abs_acc = state
    return (10.0 if k >= hypergeom.MAX_TERMS else 1.0) * abs(term) + hypergeom._EPS * abs_acc


@given(_jacobi_2f1(), st.floats(0.7, 0.99), st.floats(-math.pi, math.pi), st.booleans())
@settings(max_examples=300)
def test_block_tail_agrees_with_the_loop(params, modulus, angle, regularized):
    # Both continue from the leading terms; the tail's terms are products of
    # ratios, so its sum differs from the loop's by rounding, and a stop may
    # move by a term.
    upper, lower = params
    assume(hypergeom.termination_index(upper) is None)
    assume(regularized or hypergeom.termination_index(lower) is None)
    x = cmath.rect(modulus, angle)
    k0, *start = hypergeom._leading_terms(upper, lower, x, hypergeom.MAX_TERMS, regularized)
    loop = hypergeom._ratio_loop_2f1(upper, lower, x, k0, hypergeom.MAX_TERMS, True, *start)
    tail = hypergeom._block_tail_2f1(upper, lower, x, k0, *start, 64)
    assert abs(tail[0] - loop[0]) <= 1
    assert abs(tail[2] - loop[2]) <= _estimate(tail) + _estimate(loop)


def _series_bits(r):
    return bits(r.value), bits(r.abs_error_estimate), r.terms_used, r.terminated


def test_block_tail_bits_do_not_depend_on_the_block_width(monkeypatch):
    # Terms, running sums and the stop flags carry from block to block, so
    # blocks of 8 terms give the bits of the default blocks.  The width rule
    # is the one ``_series_batch`` uses: a budget of 1 point by 8 columns
    # keeps every block of the tail at 8 terms.
    rng = Random(20261019)
    calls = []
    for _ in range(40):
        a, b = (complex(rng.uniform(-1.0, 3.0), rng.uniform(-0.5, 0.5)) for _ in range(2))
        c = complex(rng.uniform(-2.5, 3.0), rng.uniform(-0.5, 0.5))
        x = cmath.rect(rng.uniform(0.9, 0.99), rng.uniform(-math.pi, math.pi))
        # Plain series only where c keeps off the lower-parameter poles.
        calls.append(((a, b), (c,), x, None, rng.random() < 0.5 or c.real < 0.5))
    tails = _recording(monkeypatch, "_block_tail_2f1")
    want = [_series_bits(hypergeom._series(*call)) for call in calls]
    assert len(tails) == len(calls)
    monkeypatch.setattr(hypergeom, "BATCH_POINTS", 1)
    monkeypatch.setattr(hypergeom, "_BATCH_COLS", 8)
    assert hypergeom._first_width(500.0, 1) == 8
    assert [_series_bits(hypergeom._series(*call)) for call in calls] == want


def test_tail_and_loop_warn_at_the_term_cap(monkeypatch):
    # At |x| = 0.9999 the series needs far more than MAX_TERMS terms; both
    # paths stop at the cap, warn, and report 10 |last term| + eps sum |terms|.
    tails = _recording(monkeypatch, "_block_tail_2f1")
    loops = _recording(monkeypatch, "_ratio_loop_2f1")
    args = ((0.5, 0.5), (1.5,), 0.9999)
    with pytest.warns(TruncationWarning):
        tail = ohyp(*args)
    monkeypatch.setattr(hypergeom, "_TAIL_TERMS", math.inf)
    with pytest.warns(TruncationWarning):
        loop = ohyp(*args)
    assert len(tails) == len(loops) == 1
    for r, state in ((tail, tails[0]), (loop, loops[0])):
        assert state[0] == hypergeom.MAX_TERMS
        assert r.terms_used == hypergeom.MAX_TERMS + 1 and not r.terminated
        assert r.abs_error_estimate == _estimate(state)
    assert abs(tail.value - loop.value) <= tail.abs_error_estimate + loop.abs_error_estimate



def _recurrence_rgamma(b, k0, k, rgamma=reciprocal_gamma):
    """1/Gamma(b + k) by the recurrence 1/Gamma(w) = w / Gamma(w + 1), down from rgamma(b + k0)."""
    r = rgamma(b + k0)
    for j in range(k0 - 1, k - 1, -1):
        r = (b + j) * r
    return r


def _leading_terms_reference(upper, lower, z, limit, regularized, rgamma=reciprocal_gamma):
    """The leading terms with each Pochhammer product formed anew by
    ``pochhammer_product`` and each 1/Gamma(b + k) anew by the recurrence."""
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
                term *= _recurrence_rgamma(b, k0, k, rgamma)
        total += term
        abs_acc += abs(term)
    return k0, term, total, abs_acc


def _state_bits(state):
    return tuple(x if isinstance(x, int) else bits(x) for x in state)


_signed = st.sampled_from([complex(-0.0, -0.0), complex(0.0, -0.0), complex(-2.0, -0.0), complex(1.5, -0.0)])


@given(
    upper=st.lists(st.one_of(st.builds(complex, st.floats(-6.0, 6.0), st.floats(-1.5, 1.5)), _signed), min_size=1, max_size=3),
    k0=st.integers(0, 12),
    shift=st.one_of(st.floats(0.0, 0.99), st.sampled_from([0.0, 0.5])),
    im=st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0])),
    z=st.one_of(_disk_point, _signed),
    regularized=st.booleans(),
)
@settings(max_examples=300)
def test_leading_terms_match_pochhammer_product_form(upper, k0, shift, im, z, regularized):
    # k0 = ceil(0.5 - Re c); shift 0.5 puts c on an integer, a pole of gamma.
    c = complex(0.5 - k0 + shift, im)
    args = (tuple(upper), (c,), z, hypergeom.MAX_TERMS, regularized)
    got = hypergeom._leading_terms(*args)
    assert got[0] == (k0 if regularized else 0)
    assert _state_bits(got) == _state_bits(_leading_terms_reference(*args))


# Stand-ins for 1/Gamma whose values have -0.0 parts: one shows the sign of
# its argument's imaginary zero, one is a constant.
_SIGNED_RGAMMA = (
    lambda w: complex(math.copysign(0.0, w.imag), 1.0),
    lambda w: complex(-0.0, 1.0),
)


@pytest.mark.parametrize("rgamma", range(len(_SIGNED_RGAMMA)))
@pytest.mark.parametrize("k0", [0, 1, 4])
@pytest.mark.parametrize("im", [0.0, -0.0])
def test_leading_terms_keep_the_signed_zeros_of_the_loop(monkeypatch, rgamma, k0, im):
    # The same operations on every bit, signed zeros included; the stand-in
    # replaces the one Lanczos sum per lower parameter.
    rgamma = _SIGNED_RGAMMA[rgamma]
    monkeypatch.setattr(hypergeom, "reciprocal_gamma", rgamma)
    c = complex(0.7 - k0, im)
    for z in (complex(-0.0, -0.0), 0.3 - 0.2j):
        args = ((complex(-0.0, -0.0), 1.5 + 0.0j), (c,), z, hypergeom.MAX_TERMS, True)
        want = _leading_terms_reference(*args, rgamma=rgamma)
        assert _state_bits(hypergeom._leading_terms(*args)) == _state_bits(want)


def test_reciprocal_gamma_run_matches_the_kernel_per_term():
    # The lower parameters the Jacobi layers form from catalog triples: P's
    # alpha+1, Q's alpha+beta+2 gamma+2 and its companion's -alpha-beta-2 gamma
    # (Re down to about -11, so up to a dozen leading terms).  The run from
    # one Lanczos sum agrees with ``reciprocal_gamma`` at every b + k within
    # 16 k0 ulps (8 at most over 9,000 such b), and is exactly 0 at a pole.
    rng = Random(20261020)
    for _ in range(300):
        a, b, g = (complex(rng.uniform(-0.65, 2.8), rng.uniform(-0.45, 0.45)) for _ in range(3))
        for c in (a + 1.0, a + b + 2.0 * g + 2.0, -a - b - 2.0 * g):
            k0 = max(0, math.ceil(0.5 - c.real))
            run = hypergeom._rgamma_run(c, k0)
            assert len(run) == k0 + 1
            for k, r in enumerate(run):
                want = reciprocal_gamma(c + k)
                assert abs(r - want) <= 16 * max(k0, 1) * hypergeom._EPS * abs(want)
    for c in (0.0, -1.0, -4.0, complex(-7.0, -0.0)):
        k0 = math.ceil(0.5 - c.real)
        run = hypergeom._rgamma_run(c, k0)
        assert [k for k, r in enumerate(run) if r == 0] == list(range(int(-c.real) + 1))


def _loops_agree(upper, lower, z, k, limit, term, total, abs_acc):
    args = (upper, lower, z, k, limit, True, term, total, abs_acc)
    fast = hypergeom._ratio_loop_2f1(*args)
    assert _state_bits(fast) == _state_bits(hypergeom._ratio_loop(*args))
    return fast


def test_stop_prefilter_matches_the_unfiltered_rule_on_edge_sums():
    upper, lower, z = (1.0 + 0.0j, 1.0 + 0.0j), (1.0 + 0.0j,), 0.5 + 0.0j
    # The next term is term * z; a start total of minus it leaves exactly 0,
    # or a subnormal total, against a sum of |terms| of 1.
    for term in (1e-3 + 0.0j, 1e-300 + 1e-301j):
        nxt = term * ((upper[0] + 1) * (upper[1] + 1)) * z / ((lower[0] + 1) * 2)
        for extra in (0.0, 5e-324, 1e-310, -4e-320):
            _loops_agree(upper, lower, z, 1, hypergeom.MAX_TERMS, term, complex(-nxt.real + extra, -nxt.imag), 1.0)
    # A cancelling series: 2F1(-30.5, 31; 1; 0.97) has terms of 1e17 and a
    # sum of order 1, so |total| is far below the sum of |terms|.
    k, term, total, acc = _loops_agree(
        (-30.5 + 0.0j, 31.0 + 0.0j), (1.0 + 0.0j,), 0.97 + 0.0j, 0, hypergeom.MAX_TERMS, 1.0 + 0.0j, 1.0 + 0.0j, 1.0
    )
    assert abs(total) < 1e-12 * acc
    # Subnormal terms, all below STOP_RATIO * 1e-300, against as small a sum
    # of |terms|: the rule counts them from the floor.
    for tiny in (1e-318, 5e-324, 1e-310):
        _loops_agree(upper, lower, z, 1, hypergeom.MAX_TERMS, complex(tiny, 0.0), complex(tiny, 0.0), tiny)
    # A series cut at the term cap, and one that starts a few terms below it.
    for k in (0, hypergeom.MAX_TERMS - 4):
        k_end, *_ = _loops_agree(
            (0.5 + 0.0j, 0.5 + 0.0j), (1.5 + 0.0j,), 0.9995 + 0.0j, k, hypergeom.MAX_TERMS, 1e-4 + 0.0j, 2.0 + 0.0j, 3.0
        )
        assert k_end == hypergeom.MAX_TERMS


@given(
    a=_box_param,
    b=_box_param,
    c=_lower_param.filter(lambda c: c.real > 0.5),
    z=_disk_point,
    k=st.one_of(st.integers(0, 40), st.integers(hypergeom.MAX_TERMS - 40, hypergeom.MAX_TERMS)),
    term=st.one_of(
        st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        st.builds(complex, st.floats(-1e-305, 1e-305), st.floats(-1e-305, 1e-305)),
    ),
    total=st.one_of(
        st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        st.builds(complex, st.floats(-1e-305, 1e-305), st.floats(-1e-305, 1e-305)),
    ),
    scale=st.one_of(st.just(0.0), st.floats(1e-300, 1e20)),
)
@settings(max_examples=300)
def test_stop_prefilter_matches_the_unfiltered_rule(a, b, c, z, k, term, total, scale):
    # Any state of the loop: the sum of |terms| so far need not bound |total|.
    _loops_agree((complex(a), complex(b)), (complex(c),), z, k, hypergeom.MAX_TERMS, term, total, abs(total) + scale)
