"""P and Q against high-precision reference values (``tests/reference_values.json``).

The fixture is written by ``tools/make_reference.py`` with mpmath at 30 and
50 digits: 200 P points where the AUTO plan takes the large-z connection and
100 Q points, box triples with Re z < -0.5 and |z| <= 4.5.  At each point the
scalar call and a one-point array call either return a value or raise a
documented ``JacobiFnError``; any other exception fails the test.  Two
counts per kind and call are pinned: the values returned and the estimate
misses, values whose error against the reference exceeds their own error
estimate.  A change may raise the first and lower the second; either move
is recorded by re-pinning.  Known defects at the pins: Q raises
NoConvergentPath at the 6 points of its lens about [-1, 1], and its
estimates miss at 42 (37 in arrays, which round apart) of its 94 values, by
small factors; one connection value of P misses its flat estimate.
"""

import json
import os

import numpy as np

from jacobifn import JacobiParams, jacobi_p, jacobi_q
from jacobifn.errors import JacobiFnError

_FIXTURE = os.path.join(os.path.dirname(__file__), "reference_values.json")


def _complex(parts) -> complex:
    return complex(float.fromhex(parts[0]), float.fromhex(parts[1]))


def _counts() -> dict:
    """{(kind, "scalar" or "array"): [values returned, estimate misses]}."""
    with open(_FIXTURE) as fh:
        points = json.load(fh)["points"]
    counts = {(kind, call): [0, 0] for kind in "PQ" for call in ("scalar", "array")}
    for point in points:
        kind = point["kind"]
        params = JacobiParams(*(_complex(point[name]) for name in ("alpha", "beta", "gamma")))
        z, ref = _complex(point["z"]), _complex(point["value"])
        fn = jacobi_p if kind == "P" else jacobi_q
        for call, arg in (("scalar", z), ("array", np.array([z]))):
            try:
                result = fn(params, arg)
            except JacobiFnError:
                continue
            value, err = complex(np.ravel(result.value)[0]), float(np.ravel(result.abs_error_estimate)[0])
            counts[kind, call][0] += 1
            counts[kind, call][1] += abs(value - ref) > err
    return counts


def test_reference_values_returned_and_estimate_misses_pinned():
    assert _counts() == {
        ("P", "scalar"): [200, 1],
        ("P", "array"): [200, 1],
        ("Q", "scalar"): [94, 42],
        ("Q", "array"): [94, 37],
    }
