"""Machine speed, sampled by a fixed calibration loop between operations.

On a shared machine other tenants slow the CPU by a third for minutes at a
time, so raw times of two runs of the same code differ by that much.  The
calibration loop is fixed work of the library's kind (complex series terms
through a helper function, small frozen dataclasses, ``cmath``/``math``
calls, a sort, scattered reads of an 8 MB list, short numpy vector
operations), and it never calls the library, so a change to the library does
not change it.  The scattered reads matter: a loop that stays in cache
tracks a neighbour's cache pressure less than the quadrature code does.  Run every ``EVERY_S`` seconds
between operations, its mean time divided by ``REF_S`` (its median time on the
shared 2-core x86-64 machine the benchmark was tuned on) is the run's
slowdown; rates and times scaled by it read as at that reference speed.  On
that machine, over ten 15 s windows of a 150 s trace that alternated the loop
with ``jacobi_p`` calls, the spread (quartile distance over median) of the
raw call time was 0.24 and of the scaled time 0.03; for identity samples
0.19 and 0.06.
"""

from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

EVERY_S = 0.1
REF_S = 0.0057


@dataclass(frozen=True)
class _Term:
    value: complex
    n: int


def _ratio(a: complex, b: complex, c: complex, n: int, z: complex) -> complex:
    return (a + n) * (b + n) / ((c + n) * (n + 1)) * z


_BITS = 18
_BIG: list[complex] = []  # filled by the first Clock: about 10 MB
_X = np.linspace(0.0, 3.0, 256)


def calibration_loop() -> complex:
    """About 6 ms of fixed work on the reference machine."""
    acc = 0j
    terms = []
    for j in range(40):
        a, b, c, z = 0.3 + 0.1j * j, 1.1 - 0.05j, 2.2 + 0.01j * j, 0.45 - 0.3j
        t, s = 1 + 0j, 1 + 0j
        for n in range(40):
            t = t * _ratio(a, b, c, n, z)
            s += t
            terms.append(_Term(t, n))
        try:
            if abs(s) > 1e300:
                raise OverflowError
            acc += cmath.log(s) + math.lgamma(1.5 + j * 0.1)
        except (ValueError, OverflowError):
            pass
    terms.sort(key=lambda x: abs(x.value))
    k, mask = 12345, (1 << _BITS) - 1
    for _ in range(3000):
        k = (k * 1103515245 + 12345) & mask
        acc += _BIG[k] * 1e-9
    for j in range(30):
        acc += complex((np.exp(1j * (_X + j)) * np.sqrt(_X + 1.0)).sum())
    return acc + terms[0].value


def loop_s() -> float:
    t0 = perf_counter()
    calibration_loop()
    return perf_counter() - t0


class Clock:
    """Calibration samples of one run; ``spent`` is their total time."""

    def __init__(self):
        if not _BIG:
            _BIG.extend(complex(k, -k) for k in range(1 << _BITS))
        self.times = array("d")
        self.spent = 0.0
        self._next = 0.0

    def maybe(self, now: float) -> None:
        """Sample the machine's speed if ``EVERY_S`` has passed since the last sample."""
        if now >= self._next:
            dt = loop_s()
            self.times.append(dt)
            self.spent += dt
            self._next = now + dt + EVERY_S

    def slowdown(self) -> float:
        """Mean calibration time over the reference time (1.0 at reference speed)."""
        return sum(self.times) / len(self.times) / REF_S if self.times else 1.0
