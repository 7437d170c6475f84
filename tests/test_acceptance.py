"""Acceptance suite: one test per exit criterion, each printing a pass line.

Budgets are asserted with the wall-clock limits the criteria state; all
tolerances are pinned here, not configured elsewhere.
"""

import cmath
import math
import time
from random import Random

import numpy as np
from conftest import jacobi_poly_via_recurrence
from jacobifn.cli import main
from jacobifn.identity_engine import (
    audit_constant,
    load_fixtures,
    ode_residual,
    verify_identity,
)
from jacobifn.jacobi_first import (
    JacobiParams,
    Representation,
    jacobi_p,
    jacobi_p_at_one,
)
from jacobifn.jacobi_second import QIntegralSpec, jacobi_q, jacobi_q_integral
from jacobifn.quadrature import FLAT, RepeatedIntegralSpec, gauss_jacobi_rule, repeated_integral
from jacobifn.scalar_kernel import gamma

DERIVATIVE_IDS = (
    ["FD1", "FD2", "FD3", "FD4"]
    + [f"FW{i}" for i in range(1, 9)]
    + ["SRL", "SD1", "SD2", "SD3", "SD4"]
    + [f"SW{i}" for i in range(1, 9)]
    + ["FR1", "FR2"]
)

INTEGRAL_IDS = (
    ["FI1", "FI2", "FI3a", "FI3b"]
    + [f"FJ{i}" for i in range(1, 5)]
    + [f"FK{i}" for i in range(1, 9)]
    + ["SI1", "SI2", "SI3", "SQ0", "SQk", "SN", "FT1"]
)


def _report(num, label, t0, budget):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {num}: PASS - {label} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert elapsed < budget


def test_acceptance_1_representation_agreement():
    t0 = time.time()
    rng = Random(101)

    def draw_params(valid):
        while True:
            p = JacobiParams(
                complex(rng.uniform(-0.9, 3), rng.uniform(-0.5, 0.5)),
                complex(rng.uniform(-0.9, 3), rng.uniform(-0.5, 0.5)),
                complex(rng.uniform(-0.9, 3), rng.uniform(-0.5, 0.5)),
            )
            if valid(p):
                return p

    checked_p = 0
    while checked_p < 200:
        p = draw_params(lambda q: q.first_kind_valid())
        r = rng.uniform(0.2, 3.0)
        th = rng.uniform(0.08, math.pi - 0.08) * (1 if rng.random() < 0.5 else -1)
        z = 1 + r * cmath.exp(1j * th)
        vals = []
        for k in (1, 2, 3, 4):
            try:
                vals.append(jacobi_p(p, z, Representation(k)))
            except Exception:
                continue
        for i in range(1, len(vals)):
            scale = max(abs(vals[0].value), 1e-12)
            bound = max(
                1e-9 * scale,
                3.0 * (vals[i].abs_error_estimate + vals[0].abs_error_estimate),
            )
            assert abs(vals[i].value - vals[0].value) <= bound, (p, z)
        checked_p += 1

    checked_q = 0
    while checked_q < 200:
        p = draw_params(lambda q: q.second_kind_valid())
        z = complex(rng.uniform(1.3, 4.0), rng.uniform(-1.0, 1.0))
        vals = []
        for k in (1, 2, 3, 4):
            try:
                vals.append(jacobi_q(p, z, Representation(k)))
            except Exception:
                continue
        assert len(vals) >= 2
        for i in range(1, len(vals)):
            scale = max(abs(vals[0].value), 1e-12)
            bound = max(
                1e-9 * scale,
                3.0 * (vals[i].abs_error_estimate + vals[0].abs_error_estimate),
            )
            assert abs(vals[i].value - vals[0].value) <= bound, (p, z)
        checked_q += 1

    _report(1, "400 seeded samples, all convergent representations agree", t0, 30)


def test_acceptance_2_polynomial_reduction():
    t0 = time.time()
    rng = Random(202)
    for n in range(11):
        for _ in range(50):
            a = rng.uniform(-0.6, 2.0)
            b = rng.uniform(-0.6, 2.0)
            z = complex(rng.uniform(-0.5, 1.9), rng.uniform(0.15, 1.1))
            got = jacobi_p(JacobiParams(a, b, n), z).value
            want = jacobi_poly_via_recurrence(n, a, b, z)
            assert abs(got - want) <= 1e-11 * max(abs(want), 1.0)
    _report(2, "degrees 0..10 match the three-term recurrence at 50 z-points", t0, 5)


def test_acceptance_3_ode_residual():
    t0 = time.time()
    rng = Random(303)
    done = 0
    while done < 100:
        p = JacobiParams(
            complex(rng.uniform(-0.65, 2.8), rng.uniform(-0.45, 0.45)),
            complex(rng.uniform(-0.65, 2.8), rng.uniform(-0.45, 0.45)),
            complex(rng.uniform(-0.6, 2.8), rng.uniform(-0.45, 0.45)),
        )
        if not p.first_kind_valid():
            continue
        z = complex(rng.uniform(0.2, 2.2), rng.uniform(0.35, 1.2))
        assert ode_residual("FIRST", p, z) <= 1e-7
        done += 1
    done = 0
    while done < 100:
        p = JacobiParams(
            complex(rng.uniform(-0.65, 2.8), rng.uniform(-0.45, 0.45)),
            complex(rng.uniform(-0.65, 2.8), rng.uniform(-0.45, 0.45)),
            complex(rng.uniform(-0.5, 2.5), rng.uniform(-0.45, 0.45)),
        )
        if not p.second_kind_valid():
            continue
        z = complex(rng.uniform(1.4, 3.8), rng.uniform(-1.0, 1.0))
        assert ode_residual("SECOND", p, z) <= 1e-7
        done += 1
    _report(3, "ODE residual <= 1e-7 for P and Q over 100 samples each", t0, 60)


def test_acceptance_4_derivative_catalog():
    t0 = time.time()
    for ident in DERIVATIVE_IDS:
        r = verify_identity(ident, samples=100, seed=404, tol=1e-8)
        assert r.failed == 0, (ident, r.worst_residual)
        assert r.run >= 30, (ident, r.run)
    _report(4, f"{len(DERIVATIVE_IDS)} derivative identities at 100 samples", t0, 300)


def test_acceptance_5_integral_catalog():
    t0 = time.time()
    for ident in INTEGRAL_IDS:
        r = verify_identity(ident, samples=50, seed=505, tol=1e-6)
        assert r.failed == 0, (ident, r.worst_residual)
        assert r.run >= 15, (ident, r.run)

    # Nested-oracle spot checks: order-2 reduction vs literal nesting.
    rng = Random(515)
    rule = gauss_jacobi_rule(80, 0.0, 0.0)

    def gauss_segment(g, lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return half * sum(w * g(mid + half * t) for t, w in zip(rule.nodes, rule.weights))

    for _ in range(20):
        c1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        c2 = rng.uniform(0.5, 2.0)
        f = lambda w: cmath.exp(c1 * w) * (w + 3.0) ** -c2
        lo = rng.uniform(-0.5, 0.6)
        reduced = repeated_integral(
            np.vectorize(lambda w, hd, ld: f(w), otypes=[complex]),
            RepeatedIntegralSpec(2, lo, 1.0, FLAT, "lower"),
        ).value
        nested = gauss_segment(lambda x: gauss_segment(f, x, 1.0), lo, 1.0)
        assert abs(reduced - nested) <= 1e-7 * max(abs(nested), 1e-10)

    _report(5, f"{len(INTEGRAL_IDS)} integral identities plus nested spot checks", t0, 600)


def test_acceptance_6_closed_form_pins():
    t0 = time.time()
    half_log3 = 0.5 * math.log(3.0)
    q_series = jacobi_q(JacobiParams(0, 0, 0), 2.0).value
    q_quad = jacobi_q_integral(QIntegralSpec(JacobiParams(0, 0, 0), 2.0)).value
    assert abs(q_series - half_log3) <= 1e-10
    assert abs(q_quad - half_log3) <= 1e-10

    p2 = jacobi_p(JacobiParams(0, 0, 2), 0.6).value
    assert abs(p2 - 0.04) <= 1e-12

    rng = Random(606)
    for _ in range(100):
        a = complex(rng.uniform(0.1, 3), rng.uniform(-0.45, 0.45))
        g = complex(rng.uniform(0.1, 3), rng.uniform(-0.45, 0.45))
        got = jacobi_p_at_one(JacobiParams(a, 0.4, g))
        want = gamma(a + g + 1) / (gamma(a + 1) * gamma(g + 1))
        assert abs(got - want) <= 1e-12 * abs(want)
    _report(6, "closed-form pins (half log 3, 0.04, value at 1)", t0, 5)


def test_acceptance_7_constant_audit_ledger():
    t0 = time.time()
    fixtures = load_fixtures()
    flagged = {"SD1": 1, "FK6": 1, "FK8": 1, "FJ4": 1}
    for ident, n in flagged.items():
        c1 = audit_constant(ident, n, samples=10, seed=707)
        c2 = audit_constant(ident, n, samples=10, seed=7007)
        assert abs(c1 - c2) <= 1e-6, (ident, c1, c2)
        rec = fixtures["entries"][ident]["audit"][str(n)]
        recorded = complex(rec["c"][0], rec["c"][1])
        assert abs(c1 - recorded) <= 1e-6
        # The resolved reading is the implemented one: constant 1.
        assert abs(c1 - 1.0) <= 1e-6
    # Provenance notes of the resolutions are recorded.
    for ident in ("FK6", "FJ4", "FT1", "FW7", "FR2", "SW5"):
        assert fixtures["entries"][ident]["note"]
    _report(7, "audited constants stable across seeds and recorded", t0, 120)


def test_acceptance_8_determinism(tmp_path):
    t0 = time.time()
    first = tmp_path / "all_a.json"
    second = tmp_path / "all_b.json"
    assert main(["verify", "--all", "--seed", "7", "--json", str(first)]) == 0
    assert main(["verify", "--all", "--seed", "7", "--json", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    _report(8, "verify --all --seed 7 twice, byte-identical reports", t0, 900)
