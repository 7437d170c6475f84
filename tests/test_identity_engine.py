import math
import re
from random import Random

import numpy as np
import pytest

from jacobifn.cli import main
from jacobifn.errors import (
    ConstraintViolation,
    EmptyAdmissibleSet,
    UnknownIdentity,
)
from jacobifn.identity_catalog import CATALOG, raising_form
from jacobifn.identity_engine import (
    audit_constant,
    eval_identity_sides,
    generate_fixtures,
    list_identities,
    ode_residual,
    rodrigues_jacobi,
    verify_identity,
)
from jacobifn.jacobi_first import POINTS_MEMO, JacobiParams, jacobi_polynomial
from jacobifn.jacobi_second import jacobi_q
from jacobifn.quadrature import RAY_MARGIN, Cut, contour_derivative
from jacobifn.result import EvalResult


def test_catalog_families_complete():
    ids = set(list_identities())
    expect = {f"FD{i}" for i in range(1, 5)}
    expect |= {f"FW{i}" for i in range(1, 9)}
    expect |= {"FR1", "FR2", "FI1", "FI2", "FI3a", "FI3b"}
    expect |= {f"FJ{i}" for i in range(1, 5)}
    expect |= {f"FK{i}" for i in range(1, 9)}
    expect |= {"FT1", "SRL"}
    expect |= {f"SD{i}" for i in range(1, 5)}
    expect |= {f"SI{i}" for i in range(1, 4)}
    expect |= {f"SW{i}" for i in range(1, 9)}
    expect |= {"SQ0", "SQk", "SN", "ODE-P", "ODE-Q"}
    assert ids == expect


def test_fd4_legendre_sample():
    # d/dz of the degree-2 Legendre case: both sides 3z at z=0.6 (+ offset
    # into the upper half-plane so the contour stays off the axis).
    z = 0.6 + 0.4j
    check = eval_identity_sides("FD4", JacobiParams(0, 0, 2), z, 1)
    assert check.lhs_value == pytest.approx(3 * z, rel=1e-10)
    assert check.rhs_value == pytest.approx(3 * z, rel=1e-12)
    assert check.residual <= 1e-10
    assert check.oracle_cost > 0


def test_constraint_violation_named():
    with pytest.raises(ConstraintViolation) as err:
        eval_identity_sides("FD1", JacobiParams(0.5, 0.0, -1.5), 0.6 + 0.4j, 1)
    assert "alpha+gamma" in str(err.value)


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        verify_identity("XX9", samples=5, seed=1)


def test_samples_precondition():
    with pytest.raises(ValueError):
        verify_identity("FD4", samples=0, seed=1)


def test_empty_admissible_set():
    entry_sample = CATALOG["FD4"].sample

    def doomed(rng, n):
        params, z = entry_sample(rng, n)
        return JacobiParams(0.5, params.beta, -1.5 - 0.0j), z

    with pytest.raises(EmptyAdmissibleSet):
        verify_identity("FD4", samples=5, seed=3, sample_override=doomed)


def test_verify_deterministic():
    r1 = verify_identity("FD4", samples=6, seed=42)
    r2 = verify_identity("FD4", samples=6, seed=42)
    assert r1 == r2
    r3 = verify_identity("FD4", samples=6, seed=43)
    assert r3.worst_residual != r1.worst_residual


def test_report_accounting():
    r = verify_identity("FJ2", samples=10, seed=7)
    assert r.samples_requested == 10
    assert r.run + r.skipped_constraint == 10
    assert r.run == r.passed + r.failed
    assert r.worst_sample is not None


def test_ode_residual_polynomial_case():
    assert ode_residual("FIRST", JacobiParams(0, 0, 3), 0.4 + 0.5j) <= 1e-9


def test_ode_residual_generic():
    assert ode_residual("FIRST", JacobiParams(0.3, -0.2, 1.7), 1.6 + 0.5j) <= 1e-7
    assert ode_residual("SECOND", JacobiParams(0.5, 0.5, 1.2), 2.5) <= 1e-7


def test_q_contours_keep_off_the_jump_left_of_minus_one():
    # Q's principal branch jumps across (-oo, -1): a contour about -2+0.1i
    # of radius half the distance to [-1, 1] would cross it and not converge.
    params, z = JacobiParams(0.3, 0.2, 0.7), -2.0 + 0.1j
    assert ode_residual("SECOND", params, z) <= 1e-7
    assert eval_identity_sides("SRL", params, z, 1).residual <= 1e-8


def test_rodrigues_degree_zero():
    assert rodrigues_jacobi(0, 0.3, 0.7, 1.4 + 0.2j, "ONE") == pytest.approx(1.0)
    assert rodrigues_jacobi(0, 0.3, 0.7, 1.4 + 0.2j, "TWO") == pytest.approx(1.0)


def test_rodrigues_constant_operand():
    # alpha = -n, beta = -1: the ONE operand (w-1)^0 (w+1)^0 is the constant
    # 1, and the degree-1 polynomial with alpha = beta = -1 vanishes.
    assert abs(rodrigues_jacobi(1, -1.0, -1.0, 0.3 + 0.4j, "ONE")) <= 1e-12
    assert abs(jacobi_polynomial(1, -1.0, -1.0, 0.3 + 0.4j)) <= 1e-12


def test_rodrigues_legendre_case():
    z = 0.6 + 0.4j
    want = jacobi_polynomial(2, 0, 0, z)
    assert rodrigues_jacobi(2, 0, 0, z, "ONE") == pytest.approx(want, rel=1e-10)
    assert rodrigues_jacobi(2, 0, 0, z, "TWO") == pytest.approx(want, rel=1e-10)


def test_rodrigues_variant_agreement():
    z = 1.4 + 0.6j
    one = rodrigues_jacobi(3, 1.0, 0.5, z, "ONE")
    two = rodrigues_jacobi(3, 1.0, 0.5, z, "TWO")
    assert abs(one - two) <= 1e-9 * abs(one)


def test_sq0_log_pin():
    check = eval_identity_sides("SQ0", JacobiParams(0, 0, 0), 2.0, 0)
    assert check.lhs_value == pytest.approx(0.5 * math.log(3.0), rel=1e-9)
    assert check.residual <= 1e-9


def test_raising_and_lowering_agree_with_contour(rng: Random):
    done = 0
    while done < 8:
        p = JacobiParams(
            complex(rng.uniform(0.0, 2), rng.uniform(-0.3, 0.3)),
            complex(rng.uniform(0.0, 2), rng.uniform(-0.3, 0.3)),
            complex(rng.uniform(0.3, 2), rng.uniform(-0.3, 0.3)),
        )
        z = complex(rng.uniform(1.6, 3.0), rng.uniform(-0.8, 0.8))
        if CATALOG["SRL"].constraints(p, z, 1) is not None:
            continue
        raising = raising_form(p, z)
        lowering = (
            -(p.alpha + p.beta + p.gamma + 1)
            / 2.0
            * jacobi_q(JacobiParams(p.alpha + 1, p.beta + 1, p.gamma - 1), z).value
        )
        contour = contour_derivative(
            lambda w: jacobi_q(p, w).value,
            z,
            1,
            cut=Cut.segment(-1.0, 1.0),
        )
        scale = max(abs(contour), 1e-12)
        assert abs(raising - lowering) <= 1e-8 * scale
        assert abs(raising - contour) <= 1e-8 * scale
        done += 1


def test_sd1_round_trip():
    # SD2 is the inverse closed form of SD1; its residual is the round trip.
    for n in (1, 2):
        r = verify_identity("SD2", samples=6, seed=5, n_values=(n,))
        assert r.failed == 0
        assert r.worst_residual <= 1e-8


def test_fi3_closed_forms_agree_and_match_quadrature(rng: Random):
    done = 0
    while done < 6:
        p = JacobiParams(
            complex(rng.uniform(0.0, 2), rng.uniform(-0.3, 0.3)),
            complex(rng.uniform(0.0, 2), rng.uniform(-0.3, 0.3)),
            complex(rng.uniform(0.2, 2), rng.uniform(-0.3, 0.3)),
        )
        import cmath

        z = 1 + rng.uniform(0.4, 1.2) * cmath.exp(1j * rng.uniform(0.7, 2.4))
        n = 1 + done % 2
        if (
            CATALOG["FI3a"].constraints(p, z, n) is not None
            or CATALOG["FI3b"].constraints(p, z, n) is not None
        ):
            continue
        ca = eval_identity_sides("FI3a", p, z, n)
        cb = eval_identity_sides("FI3b", p, z, n)
        assert ca.residual <= 1e-8
        assert cb.residual <= 1e-8
        assert abs(ca.rhs_value - cb.rhs_value) <= 1e-8 * max(abs(ca.rhs_value), 1e-12)
        done += 1


def test_audit_constants_near_one():
    for ident, n in [("SD1", 1), ("SD1", 2), ("FK6", 1), ("FK8", 2), ("FJ4", 1)]:
        c = audit_constant(ident, n, samples=6, seed=11)
        assert abs(c - 1.0) < 1e-8


def test_packaged_fixtures_reproduce():
    from jacobifn.identity_engine import load_fixtures, run_selftest

    data = load_fixtures()
    assert data["version"] == 1
    assert set(data["entries"]) == set(list_identities())
    failures = run_selftest()
    assert failures == []


def test_fixture_audit_constants_recorded_stable():
    from jacobifn.identity_engine import load_fixtures

    data = load_fixtures()
    for ident, block in data["entries"].items():
        for n, rec in block["audit"].items():
            c = complex(rec["c"][0], rec["c"][1])
            assert abs(c - 1.0) < 1e-6, f"{ident} n={n}: audited constant {c}"
            assert rec["spread"] < 1e-6


def _first_admissible(ident: str, seed: int):
    entry = CATALOG[ident]
    rng = Random(seed)
    for i in range(40):
        n = entry.n_values[i % len(entry.n_values)]
        params, z = entry.sample(rng, n)
        if entry.constraints(params, z, n) is None:
            return params, z, n
    raise AssertionError(f"{ident}: no admissible sample")


def test_oracle_cost_pinned():
    # One sample of every identity; the oracle evaluations (contour points,
    # quadrature nodes, integral calls) summed per family.  A change to a
    # stopping rule, a node set or the doubling shows up here.  The ODE
    # entries count one contour per sample (two before they shared it).
    costs: dict[str, int] = {}
    for ident in list_identities():
        check = eval_identity_sides(ident, *_first_admissible(ident, 4242))
        fam = re.match(r"[A-Z]+", ident).group(0)
        costs[fam] = costs.get(fam, 0) + check.oracle_cost
    assert costs == {
        "FD": 260, "FW": 488, "FR": 0, "FI": 647, "FJ": 1508, "FK": 1296, "FT": 0,
        "SRL": 65, "SD": 196, "SI": 456, "SW": 520, "SQ": 4, "SN": 2, "ODE": 128,
    }


def test_verify_memo_work_pinned(tmp_path):
    # The hits and misses of the P and Q array memo over one verify run,
    # from a cold memo: the batched P and Q calls that the identities
    # sharing a sampler repeat.  The oracle cost above counts requested
    # points, hits included.  A tanh-sinh integral asks for its levels 0-4
    # in one call and a contour its first two levels in one call, so these
    # count calls, not levels.
    POINTS_MEMO.cache_clear()
    argv = ["verify", "--all", "--samples", "2", "--seed", "7", "--json", str(tmp_path / "r.json")]
    assert main(argv) == 0
    assert POINTS_MEMO.cache_info()[:2] == (104, 46)


def test_ode_entry_runs_one_contour(monkeypatch):
    from jacobifn import identity_catalog

    contour = identity_catalog.contour_derivatives
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return contour(*args, **kwargs)

    for ident in ("ODE-P", "ODE-Q"):
        params, z, n = _first_admissible(ident, 7)
        t1, t2, t3 = identity_catalog._ode_terms(ident[-1], params, z)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(identity_catalog, "contour_derivatives", counted)
            check = eval_identity_sides(ident, params, z, n)
            # The rhs alone, as for a sample whose lhs did not run, computes
            # its own contour.
            rhs_alone = CATALOG[ident].rhs(params, z, n)
        assert calls == [z, z]
        assert (check.lhs_value, check.rhs_value, rhs_alone) == (t1 + t2, -t3, -t3)


def test_operator_power_of_order_zero_takes_arrays():
    # Every oracle path hands the integrand an array, n = 0 included.
    from jacobifn.identity_catalog import Q_DERIV_CUT, operator_power

    got = operator_power(lambda w: w * np.ones(w.shape), 1.5 + 1j, 0, 1.0, Q_DERIV_CUT)
    assert got == 1.5 + 1j


def test_contour_oracles_on_the_cut_raise_cut_intersection():
    # One radius rule for the plain derivative, the operator power and the
    # ODE terms: a point on the declared cut raises CutIntersection.
    from jacobifn.errors import CutIntersection
    from jacobifn.identity_catalog import Q_DERIV_CUT, _ode_terms, operator_power

    f = lambda w: w * w
    with pytest.raises(CutIntersection):
        operator_power(f, 0.5, 1, 1.0, Q_DERIV_CUT)
    with pytest.raises(CutIntersection):
        contour_derivative(f, 0.5, 1, cut=Q_DERIV_CUT)
    with pytest.raises(CutIntersection):
        _ode_terms("Q", JacobiParams(0.2, 0.3, 1.1), 0.5)


# --- ray entries: the declared decay exponent --------------------------------

# Each ray entry's kind and the entry whose weight rows it integrates: SI1-3
# mirror FJ1, FJ2 and FJ4 with Q for P.
_RAY_ENTRIES = {
    "FJ1": ("P", "FJ1"), "FJ2": ("P", "FJ2"), "FJ3": ("P", "FJ3"), "FJ4": ("P", "FJ4"),
    "SI1": ("Q", "FJ1"), "SI2": ("Q", "FJ2"), "SI3": ("Q", "FJ4"),
}


def _declared(ident: str, params: JacobiParams, n: int) -> float:
    """The decay exponent of the ray integrand, the kernel's lo_dist^(n-1) included."""
    from jacobifn.identity_catalog import _SOURCES, _ray_exponent

    kind, source = _RAY_ENTRIES[ident]
    return _ray_exponent(kind, _SOURCES[source][1], params) + n - 1


@pytest.mark.parametrize("ident", list(_RAY_ENTRIES))
def test_ray_entry_declares_the_decay_of_its_integrand(ident, monkeypatch):
    # The exponent a ray entry hands the ray is the slope of log|f| between
    # t = 1e6 and 1e9, f the integrand with the repeated-integral kernel,
    # which adds one power of lo_dist from n to n + 1.  The sample is the
    # oracle-cost pin's; where P's two terms beat, a two-point slope may
    # stray from the exponent of their envelope.
    from jacobifn import quadrature

    seen = []

    def capture(f, start, decay_exponent, *, rtol):
        seen.append((f, start, decay_exponent))
        return EvalResult(0j, 0.0, "captured")

    monkeypatch.setattr(quadrature, "integrate_to_infinity", capture)
    params, z, n = _first_admissible(ident, 4242)
    orders = (n, n + 1)
    for order in orders:
        CATALOG[ident].lhs(params, z, order)
    t = np.array([1e6, 1e9])
    for order, (f, start, decay) in zip(orders, seen, strict=True):
        assert decay == _declared(ident, params, order)
        log_f = np.log(np.abs(f(start + t)))
        slope = (log_f[1] - log_f[0]) / (math.log(t[1]) - math.log(t[0]))
        assert abs(slope - decay) <= 0.05


@pytest.mark.parametrize("ident", list(_RAY_ENTRIES))
def test_ray_gate_admits_every_admissible_sample(ident):
    # The hypothesis rows and the ray's gate test the same exponent with
    # the same RAY_MARGIN, so no admissible sample is refused by the ray.
    entry = CATALOG[ident]
    rng = Random(2000)
    admitted = 0
    for i in range(2000):
        n = entry.n_values[i % len(entry.n_values)]
        params, z = entry.sample(rng, n)
        if entry.constraints(params, z, n) is None:
            admitted += 1
            assert _declared(ident, params, n) <= -1.0 - RAY_MARGIN
    assert admitted > 1000


@pytest.mark.parametrize("seed", [1000, 3000])
def test_fj1_samples_that_beat_along_the_ray_pass(seed):
    # At these seeds an FJ1 integrand decays like t^-1.55 while its two
    # terms beat, so |f| * t^1.01 is not monotone on a sampled tail; a
    # declared exponent integrates them.
    report = verify_identity("FJ1", 20, seed)
    assert report.run > 0
    assert report.passed == report.run
