"""Reference loop: a fixed standard-library computation that tracks how
fast this machine is running right now.

On a shared machine the speed of identical work drifts by up to 2x over
tens of seconds, in wall time and CPU time alike.  The benchmark runs
this loop between operations and reports every time at the loop's
nominal speed: a time t measured while one loop repetition took r ns is
reported as t * NOMINAL_REP_NS / r.

The loop sums the harmonic series to 32 terms in `fractions.Fraction`,
restarting every repetition so operand sizes stay fixed (about 50-bit
numerators and denominators).  That mixes object allocation, small
big-integer arithmetic and gcd, the same kind of work as the program's
exact arithmetic; an integer-only loop tracked the drift less well.

This module is imported before bdpants and keeps its own references to
everything it calls, so nothing the program defines or configures
reaches it.  The garbage collector is paused while the loop runs, so
the size of the program's heap cannot slow it.
"""

import gc
from fractions import Fraction
from time import perf_counter_ns

TERMS = 32
# One repetition on the 2-core machine the README figures come from,
# measured when it ran at its usual speed.  Only ratios to it matter.
NOMINAL_REP_NS = 125_000
# Repetitions per measurement: about 4 ms at nominal speed.
REPS = 32


def _harmonic(terms):
    s = Fraction(0)
    for k in range(1, terms + 1):
        s += Fraction(1, k)
    return s


_EXPECTED = _harmonic(TERMS)


def measure(reps=REPS):
    """Nanoseconds per repetition of the loop, measured now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        for _ in range(reps):
            s = _harmonic(TERMS)
        elapsed = perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()
    if s != _EXPECTED:
        raise RuntimeError("reference loop computed a wrong sum")
    return elapsed / reps
