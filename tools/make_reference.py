"""Write tests/reference_values.json: P and Q at seeded points, from mpmath.

    python3 tools/make_reference.py [--seed 25] [--p 200] [--q 100] [--out tests/reference_values.json]

A development script: it needs mpmath, which the library and its tests do
not import.  It draws parameter triples from the catalog box (Re in
[-0.65, 2.8], |Im| <= 0.45) and z with Re z < -0.5 and |z| <= 4.5, and
keeps ``--p`` points where ``jacobi_p``'s AUTO plan takes the large-z
connection and ``--q`` points for ``jacobi_q``.  Each value is computed at
30 and at 50 digits and kept only where the two agree to 1e-20 relative:

* P = Gamma(a+g+1) / (Gamma(g+1) Gamma(a+1)) 2F1(-g, g+a+b+1; a+1; (1-z)/2);
* Q by its REP1 formula (``jacobi_second._q_terms`` and
  ``_q_log_prefactor``): 2^(a+b+g) Gamma(a+g+1) Gamma(b+g+1) (z-1)^(-a-g-1)
  (z+1)^(-b) times the regularized 2F1(g+1, a+g+1; a+b+2g+2; 2/(1-z)),
  with principal logs.

Inputs and values are stored as hex floats (the value rounded to a double),
so signed zeros and last bits survive.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from random import Random

import mpmath as mp

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from jacobifn.jacobi_first import P_CONNECTION, JacobiParams, _p_plan  # noqa: E402


def _mpc(w: complex) -> mp.mpc:
    return mp.mpc(w.real, w.imag)


def reference(kind: str, a: complex, b: complex, g: complex, z: complex, digits: int) -> complex:
    """P or Q at (a, b, g, z) with mpmath at the given digits, as an mpc."""
    with mp.workdps(digits):
        a, b, g, z = _mpc(a), _mpc(b), _mpc(g), _mpc(z)
        if kind == "P":
            return mp.gamma(a + g + 1) * mp.rgamma(g + 1) * mp.rgamma(a + 1) * mp.hyp2f1(-g, g + a + b + 1, a + 1, (1 - z) / 2)
        c = a + b + 2 * g + 2
        log_factor = (
            (a + b + g) * mp.log(2) + mp.loggamma(a + g + 1) + mp.loggamma(b + g + 1)
            - (a + g + 1) * mp.log(z - 1) - b * mp.log(z + 1)
        )
        return mp.exp(log_factor) * mp.rgamma(c) * mp.hyp2f1(g + 1, a + g + 1, c, 2 / (1 - z))


def _hex(w: complex) -> list[str]:
    return [w.real.hex(), w.imag.hex()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=25)
    ap.add_argument("--p", type=int, default=200)
    ap.add_argument("--q", type=int, default=100)
    ap.add_argument("--out", default=os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests", "reference_values.json")))
    args = ap.parse_args(argv)
    rng = Random(args.seed)
    want = {"P": args.p, "Q": args.q}
    points = []
    dropped = 0
    while any(want.values()):
        kind = "P" if want["P"] and (not want["Q"] or rng.random() < 0.5) else "Q"
        a, b, g = (complex(rng.uniform(-0.65, 2.8), rng.uniform(-0.45, 0.45)) for _ in range(3))
        z = complex(rng.uniform(-4.5, -0.5), rng.uniform(-4.5, 4.5))
        if abs(z) > 4.5:
            continue
        params = JacobiParams(a, b, g)
        if kind == "P" and not (params.first_kind_valid() and _p_plan(params, z)[0] == P_CONNECTION):
            continue
        try:
            low, high = (reference(kind, a, b, g, z, d) for d in (30, 50))
        except (ValueError, ZeroDivisionError, mp.libmp.NoConvergence):
            dropped += 1
            continue
        if not high or abs(low - high) > 1e-20 * abs(high):
            dropped += 1
            continue
        value = complex(high)
        points.append({"kind": kind, "alpha": _hex(a), "beta": _hex(b), "gamma": _hex(g), "z": _hex(z), "value": _hex(value)})
        want[kind] -= 1
    with open(args.out, "w") as fh:
        json.dump({"seed": args.seed, "digits": [30, 50], "points": points}, fh, indent=0)
        fh.write("\n")
    print(f"wrote {len(points)} points to {args.out}; {dropped} dropped where 30 and 50 digits disagree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
