"""A fixed reference kernel that measures how fast the host runs right now.

On a shared VM the speed of the same Python code drifts by up to 2x,
both from one second to the next and for minutes at a time.  Timing a
document against kernel runs made just before and just after it
cancels that drift: the ratio of the two stays put while both move.
The kernel is plain Python from the standard library (float powers, dict
updates, ``Fraction`` arithmetic, ``json.dumps``, a keyed sort), the same
kind of work ``schauderspec`` does.  It does not touch the package, so a
change to the program cannot move it.

A normalised time is ``seconds / kernel seconds * REFERENCE_KERNEL_S``:
seconds at the speed where one kernel run takes ``REFERENCE_KERNEL_S``.

Set-up time (a fresh interpreter importing the package) is spent mostly
loading files and extension modules, which the kernel does not track.
It is timed against a fresh interpreter importing numpy alone instead,
the package's one third-party dependency: seconds at the speed where that
takes ``REFERENCE_IMPORT_S``.
"""

from __future__ import annotations

import gc
import json
import time
from fractions import Fraction

# One kernel run at the reference speed.  The kernel took 3.7-4.3 ms on
# a 2-vCPU x86-64 VM (Intel Xeon, 2.1 GHz nominal) with Python 3.11.7.
REFERENCE_KERNEL_S = 0.004
# A fresh interpreter importing numpy at the reference speed; it took
# 0.09-0.15 s on the same VM.
REFERENCE_IMPORT_S = 0.12


def kernel() -> None:
    s, counts = 0.0, {}
    for i in range(1, 6000):
        s += (i * 1.0001) ** -0.1
        counts[i % 97] = counts.get(i % 97, 0) + 1
    f = Fraction(0)
    for i in range(1, 400):
        f += Fraction(1, i) * Fraction(1, 2)
    json.dumps([{"a": i * 0.5, "b": str(i)} for i in range(800)])
    sorted(range(5000), key=lambda x: (x * 7919) % 10007)


def block(min_seconds: float) -> float:
    """Mean seconds of one kernel run over at least ``min_seconds``.

    Runs the kernel at least once.  The garbage collector is off while it
    runs, so objects the program left alive do not slow the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        runs, started = 0, time.perf_counter()
        while True:
            kernel()
            runs += 1
            elapsed = time.perf_counter() - started
            if elapsed >= min_seconds:
                return elapsed / runs
    finally:
        if enabled:
            gc.enable()


def normalised(seconds: float, before: float, after: float,
               reference: float = REFERENCE_KERNEL_S) -> float:
    """``seconds`` at the reference speed, given the reference runs around it."""
    return seconds / ((before + after) / 2) * reference
