import cmath
import math
import warnings
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobifn.errors import (
    CutIntersection,
    DecayCheckFailed,
    ExponentError,
    NonConvergence,
    OrderCapExceeded,
)
from jacobifn.hypergeom import _CUT, power
from jacobifn.identity_catalog import P_DERIV_CUT, Q_DERIV_CUT, pval, qval
from jacobifn.jacobi_first import P_CUT, Q_CUT, jacobi_polynomial
from jacobifn.quadrature import (
    CUT_GUARD,
    FLAT,
    INV_SQ_MINUS,
    INV_SQ_PLUS,
    RAY_MARGIN,
    Cut,
    RepeatedIntegralSpec,
    contour_derivative,
    contour_derivatives,
    gauss_jacobi_rule,
    integrate_finite,
    integrate_to_infinity,
    repeated_integral,
    tanh_sinh_segment,
)


def analytic_moment(k: int, a: float, b: float) -> float:
    """Integral of t^k (1-t)^a (1+t)^b over [-1,1].

    M_0 is a beta value; higher moments follow the cancellation-free
    integration-by-parts recurrence
    (a+b+k+2) M_{k+1} = (b-a) M_k + k M_{k-1}.
    """
    m0 = 2.0 ** (a + b + 1) * math.exp(
        math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(a + b + 2)
    )
    if k == 0:
        return m0
    prev, cur = m0, m0 * (b - a) / (a + b + 2.0)
    for j in range(1, k):
        prev, cur = cur, ((b - a) * cur + j * prev) / (a + b + j + 2.0)
    return cur


def test_rule_two_point_legendre():
    r = gauss_jacobi_rule(2, 0.0, 0.0)
    assert r.nodes[0] == pytest.approx(-0.5773502691896258, abs=1e-12)
    assert r.nodes[1] == pytest.approx(0.5773502691896258, abs=1e-12)
    assert r.weights[0] == pytest.approx(1.0, rel=1e-12)
    assert r.weights[1] == pytest.approx(1.0, rel=1e-12)


def test_rule_one_point_weighted():
    r = gauss_jacobi_rule(1, 1.0, 0.0)
    assert r.nodes[0] == pytest.approx(-1.0 / 3.0, abs=1e-13)
    assert r.weights[0] == pytest.approx(2.0, rel=1e-13)


def test_rule_mass_and_ordering():
    for a, b in [(-0.5, 0.7), (2.0, 0.0), (0.3, -0.9)]:
        r = gauss_jacobi_rule(12, a, b)
        assert sum(r.weights) == pytest.approx(analytic_moment(0, a, b), rel=1e-12)
        assert all(x < y for x, y in zip(r.nodes, r.nodes[1:]))
        assert all(-1 < x < 1 for x in r.nodes)
        assert all(w > 0 for w in r.weights)


def test_rule_exactness_against_moments():
    for a in (-0.5, 0.0, 0.7, 2.0):
        for b in (-0.5, 0.0, 0.7, 2.0):
            for m in (1, 2, 5, 16):
                rule = gauss_jacobi_rule(m, a, b)
                for k in range(0, 2 * m, max(1, (2 * m) // 6)):
                    got = sum(w * t**k for t, w in zip(rule.nodes, rule.weights))
                    want = analytic_moment(k, a, b)
                    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_rule_exponent_error():
    with pytest.raises(ExponentError):
        gauss_jacobi_rule(4, -1.0, 0.0)


def test_integrate_finite_examples():
    assert integrate_finite(lambda t: 1.0, -0.5, 0.0).value == pytest.approx(
        2.0 * math.sqrt(2.0), rel=1e-12
    )
    assert integrate_finite(lambda t: t * t, 0.0, 0.0).value == pytest.approx(
        2.0 / 3.0, rel=1e-13
    )
    with pytest.raises(ExponentError):
        integrate_finite(lambda t: 1.0, -1.1, 0.0)


@pytest.mark.parametrize(
    "f",
    [np.exp, lambda t: power(2.2 + 0.4j - t, -1.3) * jacobi_polynomial(2, 0.4, 0.7, t)],
    ids=["exp", "kernel-core"],
)
def test_integrate_finite_calls_once_per_rule(f):
    """One call per rule size with the whole node array; same sum as per node."""
    calls = []

    def g(t):
        calls.append(t)
        return f(t)

    a, b = -0.3, 0.6
    got = integrate_finite(g, a, b)
    m = int(got.provenance.rsplit("-", 1)[1])
    assert all(isinstance(t, np.ndarray) for t in calls)
    assert [t.size for t in calls] == [8 * 2**k for k in range(len(calls))]
    assert calls[-1].size == m
    rule = gauss_jacobi_rule(m, a, b)
    per_node = sum(w * f(t) for t, w in zip(rule.nodes, rule.weights))
    assert abs(got.value - per_node) <= 1e-14 * abs(per_node)


def test_integrate_to_infinity_examples():
    assert integrate_to_infinity(lambda w: w**-2, 2.0, -2.0).value == pytest.approx(
        0.5, rel=1e-11
    )
    assert integrate_to_infinity(lambda w: np.exp(-w), 1.0, -math.inf).value == pytest.approx(
        math.exp(-1.0), rel=1e-11
    )
    with pytest.raises(DecayCheckFailed):
        integrate_to_infinity(lambda w: 1.0 / w, 2.0, -1.0)


def test_integrate_to_infinity_declared_exponent_gate():
    # The gate is the declared exponent alone: e <= -1 - RAY_MARGIN passes,
    # and the integrand's own error comes through; anything above (or nan)
    # raises before the integrand is called.
    g, sizes = _recording(lambda w: w**-1.25)
    integrate_to_infinity(g, 2.0, -1.0 - RAY_MARGIN)
    assert sizes[0] == 151

    def raises(w):
        raise ValueError("nodes raise")

    with pytest.raises(ValueError, match="nodes raise"):
        integrate_to_infinity(raises, 2.0, -2.0)
    for e in (-1.0 - RAY_MARGIN + 1e-9, -1.0, 0.0, math.nan):
        g, sizes = _recording(lambda w: w**-1.25)
        with pytest.raises(DecayCheckFailed, match="declared decay exponent"):
            integrate_to_infinity(g, 2.0, e)
        assert sizes == []


def test_integrate_to_infinity_slow_algebraic_decay():
    got = integrate_to_infinity(lambda w: w**-1.25, 2.0, -1.25).value
    assert got == pytest.approx(2.0**-0.25 / 0.25, rel=1e-9)


def test_repeated_order_one_is_plain():
    spec = RepeatedIntegralSpec(1, 0.0, 1.0, FLAT, "lower")
    got = repeated_integral(lambda w, hd, ld: w * w, spec).value
    assert got == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_repeated_flat_constant():
    spec = RepeatedIntegralSpec(2, 0.5, 1.0, FLAT, "lower")
    assert repeated_integral(lambda w, hd, ld: 1.0, spec).value == pytest.approx(
        0.125, rel=1e-12
    )


def test_repeated_order_cap():
    with pytest.raises(OrderCapExceeded):
        repeated_integral(lambda w, hd, ld: 1.0, RepeatedIntegralSpec(7, 0.0, 1.0, FLAT))


def test_repeated_matches_nested_singular_weight():
    f = lambda w, hd, ld: hd**0.3 * (1 + w) ** 0.2
    spec = RepeatedIntegralSpec(2, 0.4, 1.0, FLAT, "lower")
    reduced = repeated_integral(f, spec, anchor_exponent=0.3).value
    inner = np.vectorize(
        lambda x, hd, ld: repeated_integral(
            f, RepeatedIntegralSpec(1, x, 1.0, FLAT, "lower"), anchor_exponent=0.3
        ).value,
        otypes=[complex],
    )
    nested = repeated_integral(
        inner, RepeatedIntegralSpec(1, 0.4, 1.0, FLAT, "lower")
    ).value
    assert abs(reduced - nested) <= 1e-8 * abs(nested)


def test_repeated_integral_wrapped_integrand():
    """A *args wrapper of a three-argument integrand gives the same value."""
    f = lambda w, hd, ld: hd**0.3 * np.exp(w)

    def wrapped(*args):
        return f(*args)

    spec = RepeatedIntegralSpec(2, 0.4, 1.0, FLAT, "lower")
    want = repeated_integral(f, spec, anchor_exponent=0.3).value
    assert repeated_integral(wrapped, spec, anchor_exponent=0.3).value == want


def gauss_segment(g, lo, hi, m=80):
    """Plain Gauss-Legendre on the segments [lo, hi] (literal-nesting oracle).

    lo is an ndarray of lower limits; g is called once, on the nodes of every
    segment at once (shape lo.shape + (m,)).
    """
    rule = gauss_jacobi_rule(m, 0.0, 0.0)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return half * (g(mid[..., None] + half[..., None] * rule.nodes) @ rule.weights)


def test_repeated_matches_nested_smooth_sweep(rng: Random):
    # 20 seeded smooth integrands, n = 2 and 3, literal nesting as oracle.
    for trial in range(10):
        c1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        c2 = rng.uniform(0.5, 2.0)
        f = lambda w: np.exp(c1 * w) * (w + 3.0) ** -c2
        lo = rng.uniform(-0.5, 0.6)
        for n in (2, 3):
            spec = RepeatedIntegralSpec(n, lo, 1.0, FLAT, "lower")
            reduced = repeated_integral(lambda w, hd, ld: f(w), spec).value

            def nest(x, depth):
                if depth == 0:
                    return f(x)
                return gauss_segment(lambda w: nest(w, depth - 1), x, 1.0)

            nested = complex(nest(np.array(lo), n))
            assert abs(reduced - nested) <= 1e-7 * max(abs(nested), 1e-10)


def test_repeated_measure_reduction_matches_nested():
    # (w-1)^-2 measure from 1 to z, evaluated at the upper end.
    f = lambda w, hd, ld: ld**2.5
    z = 1.8
    spec = RepeatedIntegralSpec(2, 1.0, z, INV_SQ_MINUS, "upper")
    reduced = repeated_integral(f, spec, anchor_exponent=2.5).value

    # Literal nesting: inner iterate has the closed antiderivative chain
    # I1(x) = (2/3)(x-1)^1.5, so the outer layer is a plain weighted 1-D
    # integral of (2/3)(w-1)^(-0.5); absorb the endpoint power in the rule.
    rule = gauss_jacobi_rule(200, 0.0, -0.5)
    mid, half = 0.5 * (1.0 + z), 0.5 * (z - 1.0)
    smooth = lambda t: (2.0 / 3.0) * (half * (1.0 + t)) ** -0.5 * (1.0 + t) ** 0.5
    nested = half * sum(w * smooth(t) for t, w in zip(rule.nodes, rule.weights))
    assert abs(reduced - nested) <= 1e-9 * abs(nested)
    # Closed form: I2(z) = int_1^z (2/3)(w-1)^(-0.5) dw = (4/3)(z-1)^0.5.
    assert reduced == pytest.approx((4.0 / 3.0) * (z - 1.0) ** 0.5, rel=1e-10)


def test_repeated_plus_measure_smoke():
    f = lambda w, hd, ld: (w + 1.0) ** 2
    spec = RepeatedIntegralSpec(1, 1.0, 2.0, INV_SQ_PLUS, "upper")
    got = repeated_integral(f, spec).value
    assert got == pytest.approx(1.0, rel=1e-12)  # integral of dw over [1,2]


def test_tanh_sinh_segment_complex_exponent():
    got = tanh_sinh_segment(lambda x, omx, opx: omx ** (-0.5 + 0.4j)).value
    want = 2 ** (0.5 + 0.4j) / (0.5 + 0.4j)
    assert abs(got - want) / abs(want) < 1e-12


def test_tanh_sinh_level_in_chunks(monkeypatch):
    # A deep level reaches the integrand in chunks of at most _TS_CHUNK
    # nodes; the nodes, and so the level sums, are those of whole levels.
    from jacobifn import quadrature

    def run():
        sizes = []

        def g(x, omx, opx):
            sizes.append(x.size)
            return np.cos(300.0 * x)

        return tanh_sinh_segment(g, rtol=1e-14), sizes

    chunk = quadrature._TS_CHUNK
    chunked, sizes = run()
    monkeypatch.setattr(quadrature, "_TS_CHUNK", 1 << 30)
    whole, level_sizes = run()
    assert max(sizes) == chunk < max(level_sizes)
    assert sum(sizes) == sum(level_sizes)
    assert chunked == whole


def _recording(f):
    """f, and the list of the node counts of the calls made to it."""
    sizes = []

    def g(*args):
        sizes.append(args[0].size)
        return f(*args)

    return g, sizes


def _hex(value) -> tuple[str, str]:
    return complex(value).real.hex(), complex(value).imag.hex()


def test_tanh_sinh_segment_first_levels_in_one_call():
    # Levels 0-4, 161 nodes, reach the integrand in one call.  The value and
    # the estimate keep the bits of one call per level.
    g, sizes = _recording(lambda x, omx, opx: 1.0 / (3.0 + x))
    got = tanh_sinh_segment(g)
    assert (got.provenance, sizes) == ("tanh-sinh-seg-3", [161])
    assert _hex(got.value) == ("0x1.62e42fefa39efp-1", "0x0.0p+0")
    assert got.abs_error_estimate.hex() == "0x1.643a000000000p-38"


@pytest.mark.parametrize(
    "f, start, decay, level, sizes, value, estimate",
    [
        (
            lambda w: qval(0.3, 0.2, 1.1, w), 2.0 + 0.5j, -2.6, 4, [151],
            ("0x1.c79c3bf21802dp-5", "-0x1.b1d02a1c6276fp-6"), "0x1.1e3779b97f4a8p-57",
        ),
        (
            lambda w: np.exp(-w), 1.0, -math.inf, 5, [151, 150],
            ("0x1.78b56362cef37p-2", "0x0.0p+0"), "0x1.4800000000000p-49",
        ),
    ],
    ids=["Q-level-4", "exp-level-5"],
)
def test_integrate_to_infinity_first_levels_in_one_call(f, start, decay, level, sizes, value, estimate):
    # Levels 0-4 (151 nodes) in one call, then one call per level.  Q
    # decays like w^-(alpha+beta+gamma+1).
    g, seen = _recording(f)
    got = integrate_to_infinity(g, start, decay)
    assert (got.provenance, seen) == (f"tanh-sinh-{level}", sizes)
    assert _hex(got.value) == value
    assert got.abs_error_estimate.hex() == estimate


def test_contour_first_two_levels_in_one_call():
    # The m points and the m odd points in one call, then one per level.
    g, sizes = _recording(lambda w: 1.0 / (w - 1.5))
    got = contour_derivatives(g, 0.3, (0, 1, 2), 0.8)
    assert sizes == [32, 32, 64]
    assert [_hex(v) for v in got] == [
        ("-0x1.aaaaaaaaaaaaap-1", "-0x1.5387a13d6a78dp-56"),
        ("-0x1.638e38e38e38dp-1", "0x1.9d9a62633145cp-54"),
        ("-0x1.284bda12f684bp+0", "0x1.2aba7a022801cp-52"),
    ]


def test_tanh_sinh_raises_at_a_level_four_node():
    # The first call is speculative: this rule stops at level 3, but an
    # integrand that raises at a level-4 node raises.
    x4 = math.tanh(0.5 * math.pi * math.sinh(1.0 / 16.0))

    def g(x, omx, opx):
        if np.any(np.abs(x - x4) < 1e-12):
            raise ValueError("level-4 node")
        return 1.0 / (3.0 + x)

    with pytest.raises(ValueError, match="level-4 node"):
        tanh_sinh_segment(g)


def test_tanh_sinh_node_tables_are_read_only():
    # The node maps are built once per rule and call and shared by every
    # integral, so nothing may write into them.
    from jacobifn.quadrature import _FIRST_LEVELS, _TS_SEG_TMAX, _TS_TMAX, _columns, _ray_map, _segment_map

    for table in _columns(_ray_map, _TS_TMAX, _FIRST_LEVELS) + _columns(_segment_map, _TS_SEG_TMAX, (6,)):
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_contour_unit_points_are_read_only_roots_of_unity():
    # Built once per point count and shared by every contour: the bits of
    # the formula each level used to evaluate, and read-only.
    from jacobifn.quadrature import _unit_points

    for m in (16, 32, 4096):
        k = np.arange(m)
        assert _unit_points(m, False).tobytes() == np.exp(2j * np.pi * k / m).tobytes()
        assert _unit_points(m, True).tobytes() == np.exp(2j * np.pi * (2 * k + 1) / (2 * m)).tobytes()
        for table in (_unit_points(m, False), _unit_points(m, True)):
            with pytest.raises(ValueError):
                table[0] = 0.0


def test_complex_inf_at_a_node_raises_nonconvergence_without_a_warning():
    # A complex inf times a real weight forms inf * 0 (nan) in the imaginary
    # part; the level is not finite, and no numpy warning comes first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence, match="tanh-sinh-0: integrand values not finite"):
            integrate_to_infinity(lambda w: np.full(w.shape, complex(np.inf, 0.0)), 1.0 + 0.5j, -2.0)
        with pytest.raises(NonConvergence, match="tanh-sinh-seg-0"):
            tanh_sinh_segment(lambda x, omx, opx: np.where(x > 0.5, np.inf, np.exp(1j * x)))
        with pytest.raises(NonConvergence, match="gauss-jacobi-8"):
            integrate_finite(lambda t: np.where(t > 0.5, np.inf, np.exp(1j * t)), 0.0, 0.0)


def test_complex_inf_at_a_node_of_a_level_not_reached_is_ignored():
    # This rule stops at level 3; an inf at a level-4 node of its first call
    # changes nothing, as a call per level would not have sampled it.
    x4 = math.tanh(0.5 * math.pi * math.sinh(1.0 / 16.0))

    def g(x, omx, opx):
        return 1.0 / (3.0 + x) + 0.0j

    def g_inf(x, omx, opx):
        return np.where(np.abs(x - x4) < 1e-12, np.inf, g(x, omx, opx))

    expected = tanh_sinh_segment(g)
    assert expected.provenance == "tanh-sinh-seg-3"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tanh_sinh_segment(g_inf) == expected


def test_tanh_sinh_segment_integrand_may_write_into_its_nodes():
    # The integrand gets copies of the shared node maps, so one that scales
    # its arguments in place gets the same integral, call after call.
    def g(x, omx, opx):
        return np.cos(40.0 * x)

    def g_in_place(x, omx, opx):
        x *= 40.0
        return np.cos(x)

    expected = tanh_sinh_segment(g)
    assert tanh_sinh_segment(g_in_place) == expected
    assert tanh_sinh_segment(g_in_place) == expected
    assert tanh_sinh_segment(g) == expected


def test_contour_polynomial():
    assert contour_derivative(lambda w: w**3, 1.0, 2, 0.3) == pytest.approx(
        6.0, abs=1e-11
    )


def test_contour_exponential():
    got = contour_derivative(np.exp, 0.3, 4, 0.4)
    assert got == pytest.approx(math.exp(0.3), rel=1e-10)


def test_contour_high_order_of_low_degree_vanishes():
    got = contour_derivative(lambda w: 2.0 * w**2 - 3.0, 0.4, 5, 0.5)
    assert abs(got) <= 1e-10 * 3.0


def test_contour_cut_intersection():
    cut = Cut.left_ray(-1.0)
    with pytest.raises(CutIntersection):
        contour_derivative(lambda w: w, -0.5, 1, 1.0, cut=cut)
    # Default radius from the declared cut keeps the disk safe.
    val = contour_derivative(lambda w: w * w, -0.5 + 1.0j, 1, cut=cut)
    assert val == pytest.approx(2 * (-0.5 + 1.0j), rel=1e-11)


def test_contour_trapezoid_converges_geometrically():
    # Error ratio between M and 2M points <= 0.1 once M >= 32, checked on exp.
    z0, n, r = 0.3, 2, 0.5
    errs = []
    for m in (32, 64, 128):
        acc = 0.0 + 0.0j
        for j in range(m):
            w = cmath.exp(2j * math.pi * j / m)
            acc += cmath.exp(z0 + r * w) * cmath.exp(-2j * math.pi * j * n / m)
        est = acc * math.factorial(n) / (m * r**n)
        errs.append(abs(est - math.exp(z0)))
    assert errs[1] <= 0.1 * errs[0] or errs[1] < 1e-14
    assert errs[2] <= 0.1 * errs[1] or errs[2] < 1e-14


def test_contour_multi_order_consistent():
    orders = (0, 1, 2, 3)
    vals = contour_derivatives(np.exp, 0.2, orders, 0.4)
    for v in vals:
        assert v == pytest.approx(math.exp(0.2), rel=1e-9)


def test_cut_distances():
    c = Cut.union(Cut.left_ray(-1.0), Cut.right_ray(1.0))
    assert c.distance(0.0 + 1.0j) == pytest.approx(math.sqrt(2.0))
    assert c.distance(2.0 + 0.3j) == pytest.approx(0.3)
    seg = Cut.segment(-1.0, 1.0)
    assert seg.distance(0.2 + 0.4j) == pytest.approx(0.4)
    assert seg.distance(2.0) == pytest.approx(1.0)


# --- one cut model against the rules it replaced ------------------------------
#
# The Jacobi domains and the 2F1 used their own rules (scalars or arrays),
# the contour oracles a Cut of tagged pieces (scalars; written here to take
# arrays as well).  Copied here as the references: Cut.distance, of a scalar
# and of each element of an array, must give the scalar reference's bits
# wherever it is finite, and the same verdict against the guard everywhere.


def _where(cond, a, b):
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _p_rule(z):
    return _where(z.real <= -1.0, abs(z.imag), abs(z + 1.0))


def _q_rule(z):
    dm, dp = abs(z - 1.0), abs(z + 1.0)
    return _where(abs(z.real) <= 1.0, abs(z.imag), _where(dm <= dp, dm, dp))


def _2f1_rule(z):
    return _where(z.real >= 1.0, abs(z.imag), abs(z - 1.0))


def _tagged_distance(pieces, z):
    # The tagged Cut's scalar rule, with _where for its branches and min().
    best = math.inf
    for kind, p, q in pieces:
        if kind == "left":
            d = _where(z.real <= p, abs(z.imag), abs(z - p))
        elif kind == "right":
            d = _where(z.real >= p, abs(z.imag), abs(z - p))
        else:
            dp, dq = abs(z - p), abs(z - q)
            d = _where((p <= z.real) & (z.real <= q), abs(z.imag), _where(dq < dp, dq, dp))
        best = _where(d < best, d, best)
    return best


def _tagged(*pieces):
    return lambda z: _tagged_distance(pieces, z)


# (cut, reference, whether the reference is one of the array-capable rules)
_CUT_CASES = (
    (P_CUT, _p_rule, True),
    (Q_CUT, _q_rule, True),
    (_CUT, _2f1_rule, True),
    (P_CUT, _tagged(("left", -1.0, 0.0)), False),
    (Q_CUT, _tagged(("segment", -1.0, 1.0)), False),
    (P_DERIV_CUT, _tagged(("left", -1.0, 0.0), ("right", 1.0, 0.0)), False),
    (Q_DERIV_CUT, _tagged(("left", 1.0, 0.0)), False),
)


def _same_distance(got, want, rule: bool) -> None:
    got, want = float(got), float(want)
    if rule:
        # The array-capable rules: the same bits, nan included.
        assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want))
        assert (got >= CUT_GUARD) == (want >= CUT_GUARD)
    else:
        assert math.isfinite(got) == math.isfinite(want)
        if math.isfinite(want):
            assert got.hex() == want.hex()
    assert (got < CUT_GUARD) == (want < CUT_GUARD)


def _check_cuts(zs) -> None:
    z = np.array(zs, dtype=complex)
    for cut, ref, rule in _CUT_CASES:
        with np.errstate(all="ignore"):
            got = cut.distance(z)
        assert got.shape == z.shape
        for w, g in zip(zs, got):
            want = ref(w)
            _same_distance(cut.distance(w), want, rule)
            _same_distance(g, want, rule)


_ULP_EDGES = [
    0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
    math.nextafter(-1.0, 0.0), math.nextafter(-1.0, -2.0), 1e-12, -1e-12,
    math.nextafter(1e-12, 0.0), 5e-324, -5e-324, math.inf, -math.inf, math.nan,
]


def test_cut_distance_matches_the_replaced_rules_at_edges():
    _check_cuts([complex(x, y) for x in _ULP_EDGES for y in _ULP_EDGES])


# Parts up to 1e300, so that Python's abs of a difference does not overflow.
_cut_part = st.one_of(st.sampled_from(_ULP_EDGES), st.floats(-4.0, 4.0), st.floats(-1e300, 1e300))


@given(st.lists(st.builds(complex, _cut_part, _cut_part), min_size=1, max_size=16))
@settings(max_examples=400)
def test_cut_distance_matches_the_replaced_rules(zs):
    _check_cuts(zs)


def test_array_cut_distance_has_the_scalar_bits():
    # numpy's abs of a complex array rounds apart from Python's abs in the
    # last bit; Cut.distance forms its moduli with quadrature.modulus, so an
    # array's distances are the scalar call's at every point, nan included.
    rng = np.random.default_rng(20)
    z = rng.uniform(-4.0, 4.0, 5000) + 1j * rng.uniform(-2.0, 2.0, 5000)
    z[:len(_ULP_EDGES) ** 2] = [complex(x, y) for x in _ULP_EDGES for y in _ULP_EDGES]
    for cut in (P_CUT, Q_CUT, _CUT, P_DERIV_CUT, Q_DERIV_CUT):
        with np.errstate(all="ignore"):
            got = cut.distance(z)
        want = np.array([cut.distance(w) for w in z.tolist()])
        assert got.tobytes() == want.tobytes(), cut


# --- per-node and array evaluation of one integrand ---------------------------

_A, _B, _G = 0.3 + 0.2j, -0.4, 1.1 - 0.1j


def _counted(f):
    """f plus a count of the points it was evaluated at."""
    seen = [0]

    def g(*args):
        seen[0] += np.size(args[0])
        return f(*args)

    return g, seen


def _both_ways(oracle, f):
    """(value, points) of the oracle with f evaluated per node and per array.

    Per node, ``numpy.vectorize`` calls f once for each node, with scalars.
    """
    out = []
    for h in (np.vectorize(f, otypes=[complex]), f):
        g, seen = _counted(h)
        out.append((oracle(g), seen[0]))
    return out


def _assert_same(runs):
    (scalar, n_scalar), (batch, n_batch) = runs
    assert n_scalar == n_batch
    for s, b in zip(np.atleast_1d(scalar), np.atleast_1d(batch)):
        assert abs(s - b) <= 1e-13 * abs(s)


@pytest.mark.parametrize(
    "f",
    [np.exp, lambda w: power(w - 1.0, _A) * pval(_A, _B, _G, w)],
    ids=["exp", "weighted-P"],
)
def test_contour_vectorized_matches_scalar(f):
    oracle = lambda g: contour_derivatives(g, 1.6 + 0.7j, (0, 1, 2, 3), 0.4)
    _assert_same(_both_ways(oracle, f))
    oracle = lambda g: contour_derivative(g, 1.6 + 0.7j, 2, cut=Cut.left_ray(1.0))
    _assert_same(_both_ways(oracle, f))


@pytest.mark.parametrize(
    "g",
    [
        lambda x, omx, opx: np.exp(x),
        lambda x, omx, opx: power(omx, 0.3 + 0.2j) * qval(_A, _B, _G, 2.5 + x),
    ],
    ids=["exp", "weighted-Q"],
)
def test_tanh_sinh_segment_vectorized_matches_scalar(g):
    _assert_same(_both_ways(lambda h: tanh_sinh_segment(h).value, g))


@pytest.mark.parametrize(
    "f, decay",
    [(lambda w: np.exp(-w), -math.inf), (lambda w: qval(_A, _B, _G, w), -(_A + _B + _G + 1.0).real)],
    ids=["exp", "Q"],
)
def test_integrate_to_infinity_vectorized_matches_scalar(f, decay):
    oracle = lambda g: integrate_to_infinity(g, 2.0 + 0.5j, decay, rtol=1e-12).value
    _assert_same(_both_ways(oracle, f))


@pytest.mark.parametrize(
    "f, spec, anchor",
    [
        (lambda w, hd, ld: np.exp(w), RepeatedIntegralSpec(2, 0.2, 1.0), 0.0),
        (lambda w, hd, ld: np.exp(-w), RepeatedIntegralSpec(2, 1.5 + 0.5j, None), -math.inf),
        (
            lambda w, hd, ld: power(ld, _A + _B + 2.9) * pval(_A, _B, 1.9, w),
            RepeatedIntegralSpec(2, 1.0, 1.6 + 0.8j, INV_SQ_MINUS, "upper"),
            (_A + _B + 2.9).real,
        ),
    ],
    ids=["exp", "exp-ray", "FK1-integrand"],
)
def test_repeated_integral_vectorized_matches_scalar(f, spec, anchor):
    def oracle(g):
        return repeated_integral(g, spec, anchor_exponent=anchor, rtol=1e-12).value

    _assert_same(_both_ways(oracle, f))


# --- integrands that overflow ------------------------------------------------


def test_overflowing_integrands_raise():
    """An inf or nan sample raises instead of passing the doubling tests."""
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonConvergence):
            contour_derivatives(lambda w: np.exp(1000.0 * w), 1.0, (0, 1), 0.5)
        with pytest.raises(NonConvergence):
            tanh_sinh_segment(lambda x, omx, opx: omx**-4.0)
        # Declared to decay, as they do, but form inf * 0 far out on the ray.
        with pytest.raises(NonConvergence):
            integrate_to_infinity(lambda w: np.exp(-w) * w**40, 1.0, -math.inf)
        with pytest.raises(NonConvergence):
            integrate_to_infinity(lambda w: np.exp(-w) * w**400, 1.0, -math.inf)
        with pytest.raises(NonConvergence):
            integrate_finite(lambda t: np.exp(800.0 * (t + 1.0)), 0.0, 0.0)
