"""Seeded verification sweeps over the identity catalog.

``eval_identity_sides`` evaluates one sample of one identity through the
independent oracles (contour derivatives, repeated/improper quadrature) and
its closed form.  ``verify_identity`` drives a deterministic seeded sweep and
aggregates an IdentityReport.  ``audit_constant`` least-squares fits the
proportionality constant between the two sides, the guard used before any
closed form is frozen into the fixtures.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from importlib import resources
from random import Random

from .errors import (
    ConstraintViolation,
    EmptyAdmissibleSet,
    FixtureFormatError,
    UnknownIdentity,
)
from .hypergeom import power
from .identity_catalog import (
    CATALOG,
    CATALOG_ORDER,
    IdentityDescriptor,
    Q_DERIV_CUT,
    _ode_terms,
    operator_power,
    take_cost,
)
from .jacobi_first import JacobiParams

FIXTURES_RESOURCE = "fixtures/identities.json"


@dataclass(frozen=True)
class IdentityCheck:
    """Both sides of one identity at one sample point."""

    identity_id: str
    params: JacobiParams
    z: complex
    n: int
    lhs_value: complex
    rhs_value: complex
    residual: float
    oracle_cost: int


@dataclass(frozen=True)
class IdentityReport:
    """Aggregate of a seeded sweep; run = passed + failed."""

    identity_id: str
    seed: int
    tolerance: float
    samples_requested: int
    run: int
    passed: int
    failed: int
    skipped_constraint: int
    worst_residual: float
    worst_sample: tuple[JacobiParams, complex, int] | None


def list_identities() -> tuple[str, ...]:
    """Catalog keys in canonical order."""
    return CATALOG_ORDER


def get_descriptor(identity_id: str) -> IdentityDescriptor:
    try:
        return CATALOG[identity_id]
    except KeyError:
        raise UnknownIdentity(identity_id) from None


def _residual(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def eval_identity_sides(
    identity_id: str, params: JacobiParams, z: complex, n: int
) -> IdentityCheck:
    """Evaluate both sides of one identity; constraints are checked, not assumed."""
    entry = get_descriptor(identity_id)
    bad = entry.constraints(params, complex(z), n)
    if bad is not None:
        raise ConstraintViolation(f"{identity_id}: {bad}")
    take_cost()
    lhs = entry.lhs(params, complex(z), n)
    rhs = entry.rhs(params, complex(z), n)
    cost = take_cost()
    return IdentityCheck(
        identity_id, params, complex(z), n, lhs, rhs, _residual(lhs, rhs), cost
    )


def verify_identity(
    identity_id: str,
    samples: int,
    seed: int,
    tol: float | None = None,
    n_values: tuple[int, ...] | None = None,
    sample_override=None,
) -> IdentityReport:
    """Deterministic seeded sweep of one identity.

    Draws (params, z, n) from the entry's sampling recipe (or the override),
    skips constraint violators (they stay in the accounting), and aggregates
    pass/fail counts with the worst residual, ordered by sample index.
    """
    entry = get_descriptor(identity_id)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if tol is None:
        tol = entry.tolerance
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    nvals = n_values or entry.n_values
    draw = sample_override or entry.sample

    rng = Random(seed)
    run = passed = skipped = 0
    worst = -1.0
    worst_sample = None
    for i in range(samples):
        n = nvals[i % len(nvals)]
        params, z = draw(rng, n)
        bad = entry.constraints(params, z, n)
        if bad is not None:
            skipped += 1
            continue
        check = eval_identity_sides(identity_id, params, z, n)
        run += 1
        if check.residual <= tol:
            passed += 1
        if check.residual > worst:
            worst = check.residual
            worst_sample = (params, z, n)
    if run == 0:
        raise EmptyAdmissibleSet(
            f"{identity_id}: all {samples} samples violated the constraints"
        )
    return IdentityReport(
        identity_id,
        seed,
        tol,
        samples,
        run,
        passed,
        run - passed,
        skipped,
        worst,
        worst_sample,
    )


def audit_constant(
    identity_id: str, n: int, samples: int = 24, seed: int = 20240
) -> complex:
    """Least-squares fit of c minimizing sum |lhs - c*rhs|^2 over a sweep.

    A fitted c differing from 1 flags a closed form that does not match the
    oracle; the audited value is what gets frozen into the fixtures.
    """
    entry = get_descriptor(identity_id)
    rng = Random(seed)
    num = 0.0 + 0.0j
    den = 0.0
    got = 0
    attempts = 0
    while got < samples and attempts < 40 * samples:
        attempts += 1
        params, z = entry.sample(rng, n)
        if entry.constraints(params, z, n) is not None:
            continue
        check = eval_identity_sides(identity_id, params, z, n)
        scale = max(abs(check.rhs_value), 1e-300)
        num += (check.lhs_value / scale) * (check.rhs_value / scale).conjugate()
        den += abs(check.rhs_value / scale) ** 2
        got += 1
    if got == 0:
        raise EmptyAdmissibleSet(f"{identity_id}: audit found no admissible samples")
    return num / den


def ode_residual(kind: str, params: JacobiParams, z) -> float:
    """Relative residual of the defining differential equation.

    |(1-z^2) w'' + (beta-alpha-z(alpha+beta+2)) w' + gamma(alpha+beta+gamma+1) w|
    over the largest of the three term magnitudes; derivatives by contour.
    """
    if kind.upper() in ("P", "FIRST"):
        kind = "P"
    elif kind.upper() in ("Q", "SECOND"):
        kind = "Q"
    else:
        raise ValueError("kind must be FIRST/P or SECOND/Q")
    t1, t2, t3 = _ode_terms(kind, params, complex(z))
    scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
    return abs(t1 + t2 + t3) / scale


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


# --- fixtures ----------------------------------------------------------------


def _c2pair(x: complex) -> list[float]:
    return [float(x.real), float(x.imag)]


def _pair2c(v) -> complex:
    return complex(v[0], v[1])


def generate_fixtures(seed: int = 1105, pins_per_entry: int = 3) -> dict:
    """Build the fixtures payload: audited constants plus pinned samples."""
    entries = {}
    for ident in CATALOG_ORDER:
        entry = CATALOG[ident]
        audits = {}
        for n in entry.n_values:
            c1 = audit_constant(ident, n, samples=8, seed=seed)
            c2 = audit_constant(ident, n, samples=8, seed=seed + 7919)
            audits[str(n)] = {
                "c": _c2pair(c1),
                "c_alt_seed": _c2pair(c2),
                "spread": abs(c1 - c2),
            }
        rng = Random(seed + 101)
        pins = []
        attempts = 0
        while len(pins) < pins_per_entry and attempts < 200:
            attempts += 1
            n = entry.n_values[attempts % len(entry.n_values)]
            params, z = entry.sample(rng, n)
            if entry.constraints(params, z, n) is not None:
                continue
            check = eval_identity_sides(ident, params, z, n)
            pins.append(
                {
                    "alpha": _c2pair(complex(params.alpha)),
                    "beta": _c2pair(complex(params.beta)),
                    "gamma": _c2pair(complex(params.gamma)),
                    "z": _c2pair(z),
                    "n": n,
                    "lhs": _c2pair(check.lhs_value),
                    "rhs": _c2pair(check.rhs_value),
                    "residual": check.residual,
                    "tol": entry.tolerance,
                }
            )
        entries[ident] = {
            "audit": audits,
            "note": entry.note,
            "pins": pins,
        }
    return {"version": 1, "seed": seed, "entries": entries}


def load_fixtures(path: str | None = None) -> dict:
    """Read the fixtures payload from a file or the packaged resource."""
    try:
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            ref = resources.files("jacobifn").joinpath(FIXTURES_RESOURCE)
            data = json.loads(ref.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise FixtureFormatError(f"fixtures file not found: {exc}") from exc
    except (json.JSONDecodeError, OSError) as exc:
        raise FixtureFormatError(f"fixtures file unreadable: {exc}") from exc
    if not isinstance(data, dict) or "entries" not in data:
        raise FixtureFormatError("fixtures file missing the entries table")
    return data


def run_selftest(path: str | None = None) -> list[str]:
    """Re-evaluate every pinned sample; return failure descriptions.

    A pin passes when both recomputed sides land within 10x its recorded
    tolerance of the recorded values (relative to the recorded magnitude).
    """
    data = load_fixtures(path)
    failures: list[str] = []
    for ident, block in data["entries"].items():
        if ident not in CATALOG:
            failures.append(f"{ident}: unknown identity in fixtures")
            continue
        for i, pin in enumerate(block.get("pins", [])):
            params = JacobiParams(
                _pair2c(pin["alpha"]), _pair2c(pin["beta"]), _pair2c(pin["gamma"])
            )
            z = _pair2c(pin["z"])
            n = int(pin["n"])
            try:
                check = eval_identity_sides(ident, params, z, n)
            except Exception as exc:  # pragma: no cover - defensive
                failures.append(f"{ident} pin {i}: evaluation failed: {exc}")
                continue
            tol = 10.0 * float(pin["tol"])
            for label, got, rec in (
                ("lhs", check.lhs_value, _pair2c(pin["lhs"])),
                ("rhs", check.rhs_value, _pair2c(pin["rhs"])),
            ):
                scale = max(abs(rec), 1.0e-30)
                if abs(got - rec) / scale > tol:
                    failures.append(
                        f"{ident} pin {i}: {label} drifted by "
                        f"{abs(got - rec) / scale:.3e} (allowed {tol:.3e})"
                    )
    return failures
