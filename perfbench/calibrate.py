"""The host's speed, measured with a fixed kernel that shares no code with fglops.

The benchmark runs on a few cores of a shared host whose speed drifts by up to
1.6x over tens of seconds, so a run's raw timings follow the host more than the
program.  A run therefore times this kernel before its first iteration and
after each one, and scales its times to the reference speed:

    time at reference speed = measured time * REFERENCE_S / kernel time

where the kernel time is the mean of the readings around the timed sample
(``run.end_to_end``).  Each reading is a mean too, not a median: the program's
own times include the host's short slow spells, so the kernel's must as well.

The kernel is a series product written here, in the shape of
``Series.__mul__``: dicts keyed by degree, holding dicts from tuple monomials
to Fraction coefficients.  It has to resemble the program: a small-int kernel
or one that walks a large dict followed the host's drift much worse (see
README.md).  It shares no code with fglops, so a change to fglops cannot
speed it up or slow it down.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Kernel time on the reference box (2 vCPUs of an Intel Xeon, Python 3.11)
# at a quiet spell: the unit the benchmark's times are reported in.
REFERENCE_S = 0.015
REPEATS = 10


def _series(shift: int) -> dict:
    """A truncated bivariate series: (j, k) -> {monomial in three variables: Fraction}."""
    return {
        (j, k): {(a % 4, a // 4 % 4, (a + j) % 3): Fraction((7 * a + 3 * j + shift) % 1999 - 999,
                                                             (a * k + shift) % 97 + 1)
                 for a in range(8 * j + 3 * k + shift, 8 * j + 3 * k + shift + 4)}
        for j in range(6) for k in range(6 - j)
    }


_A, _B = _series(1), _series(2)


def kernel() -> int:
    """The product of two series cut at total degree 7, as ``Series.__mul__`` forms it."""
    out: dict = {}
    for (j1, k1), p1 in _A.items():
        for (j2, k2), p2 in _B.items():
            if j1 + j2 + k1 + k2 >= 7:
                continue
            tgt = out.setdefault((j1 + j2, k1 + k2), {})
            for m1, c1 in p1.items():
                for m2, c2 in p2.items():
                    mo = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                    s = tgt.get(mo, 0) + c1 * c2
                    if s:
                        tgt[mo] = s
                    else:
                        del tgt[mo]
    return sum(len(t) for t in out.values())


def kernel_s() -> float:
    """Mean seconds of one kernel run over ``REPEATS`` runs: the host's speed now."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        kernel()
    return (time.perf_counter() - start) / REPEATS
