"""Host-speed calibration of the end-to-end times.

The benchmark's host is a small virtual machine shared with other
tenants.  Its speed drifts by up to 2x over minutes, in plain Python
loops and in thread CPU time alike, so two sets of runs of the same code
can differ by more than any useful bound.  To take that drift out, a
fixed reference kernel is timed after each round period (and around each
restore, which runs in a process of its own), and times are scaled by
the mean of (reference time / kernel time) over the pass or the run:
they read as the times on a host where the kernel takes its reference
time.

One calibration says little about the operation next to it: the two
virtual CPUs run at different speeds, the process's threads move between
them, and a single kernel time jumps between two levels from one round to
the next.  Averaged over a pass, though, the kernel follows the host's
drift.

The kernel uses only the standard library and numpy, never the program,
so no change to the program can change it.  It is timed in the calling
thread's CPU time, so another thread of the process holding the GIL
(the service's poller, or a background thread the program starts) does
not count as a slower host.  It allocates no container objects, so the
cyclic garbage collector never runs inside it however large the
program's heap is.

The round periods are calibrated with an interpreter loop over a list
and a dict.  Over 17 ``big_change`` passes whose mean round time varied
by 0.108 (standard deviation over mean), round time over kernel time
varied by 0.028 with this loop alone, by 0.063 with a numpy gather over
an 8 MB array alone, and by 0.057 with the two together.

A restore (JSON decoding and object building, in a fresh process) is
calibrated with both halves.  Fourteen fresh-process restores of one
snapshot spread from 1.86 to 3.01 s raw and from 2.06 to 2.65 s scaled
by both halves; five ``big_change`` runs spread ``restore_s`` by 0.22
scaled by the loop alone, against 0.07 unscaled.
"""

from __future__ import annotations

import functools
import statistics
from time import thread_time

import numpy

#: Times, in seconds, of the interpreter loop and of the numpy gather on
#: the host that the scaled times describe: about their times on the
#: development host in its faster regime.
INTERPRETER_S = 0.00025
MEMORY_S = 0.00025

#: Timed kernel runs per calibration.
SAMPLES = 2

#: Untimed kernel runs before the timed ones.  A round period leaves the
#: kernel's data out of the caches, and the first few runs after it take
#: up to twice as long as the rest, by an amount that depends on what ran
#: before rather than on the host's speed.
WARMUP = 4

_TABLE = list(range(4096))
_DICT = {key * 7919: key for key in range(4096)}


@functools.cache
def _memory_data():
    rng = numpy.random.default_rng(20140901)
    array = rng.integers(0, 1 << 40, size=1 << 20)
    gather = rng.integers(0, array.size, size=1 << 14)
    out = numpy.empty(gather.size, dtype=array.dtype)
    return array, gather, out, numpy.sort(array[: 1 << 17]), array[:1024]


def _memory() -> None:
    array, gather, out, ordered, probes = _memory_data()
    numpy.take(array, gather, out=out)
    numpy.searchsorted(ordered, probes)


def _interpreter() -> int:
    table, lookup = _TABLE, _DICT
    x = total = 0
    for i in range(1500):
        x = table[(x * 31 + i) & 4095]
        value = lookup.get(x * 7919)
        if value is not None:
            total += value
    return total


def scale(memory: bool = False) -> float:
    """Factor that turns the time of an operation that just ended on this
    thread into its time on the reference host; with ``memory``, the
    kernel includes the numpy gather."""

    def kernel():
        _interpreter()
        if memory:
            _memory()

    for _ in range(WARMUP):
        kernel()
    times = []
    for _ in range(SAMPLES):
        started = thread_time()
        kernel()
        times.append(thread_time() - started)
    reference = INTERPRETER_S + (MEMORY_S if memory else 0.0)
    return reference / statistics.fmean(times)
