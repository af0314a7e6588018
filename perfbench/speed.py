"""The host speed probe that end-to-end times are scaled by.

The VM this benchmark was written on runs the same Python code at
speeds up to two times apart, and the speed changes within seconds and
between minutes (README.md, "Noise").  Ten runs of identical work can
then spread by more than any useful bound.  So every timed run also
times a fixed kernel, a *probe*, next to its ops, reads how much CPU
time the host took from the VM meanwhile, and reports each op time
scaled to a host of fixed speed that takes nothing::

    scaled time = measured time * REFERENCE_S / (probe time nearby)
                                * (1 - stolen share of busy CPU time nearby)

A probe is pure Python of the benchmark's own, so no change to the
package under test can make it faster or slower.  It runs register
arithmetic, attribute, list and dict accesses and calls, like the
compiler and the interpreter do, on a few KiB of data, so that what it
meets in the caches does not depend on the op before it.  It is timed
in CPU time of the calling thread: waiting for the interpreter lock, or
for the CPU while another process holds it, does not count, only how
fast the CPU runs a fixed amount of Python.

CPU time the host's hypervisor takes from a busy virtual CPU (steal,
in ``/proc/stat``) is not CPU time of the probe either, but it delays
the work.  It rose to a sixth of the CPU time when the VM kept both
its CPUs busy, and varied from run to run, so each scale also removes
the share of the busy CPU time that was stolen.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import NamedTuple

#: The probe time that defines the reference speed.  One probe took
#: about this long on the 2-vCPU VM the bounds were set on, in its
#: calm state.
REFERENCE_S = 0.001
#: Passes over the register program per probe.
PROBE_ROUNDS = 120


class _Cell:
    __slots__ = ("kind", "left", "right", "value")

    def __init__(self, kind: int, left: int, right: int, value: int) -> None:
        self.kind = kind
        self.left = left
        self.right = right
        self.value = value


_PROGRAM = [_Cell(i % 4, (i * 7) % 48, (i * 13 + 5) % 48, i * 3 + 1)
            for i in range(48)]
_NAMES = {f"v{i}": i for i in range(64)}
_KEYS = [f"v{(i * 11) % 64}" for i in range(64)]


def _bump(value: int, by: int) -> int:
    return (value + by) & 0xFFFFFFFF


def _kernel(rounds: int) -> int:
    program, names, keys = _PROGRAM, _NAMES, _KEYS
    regs = [0] * 48
    acc = 0
    for r in range(rounds):
        for cell in program:
            kind = cell.kind
            a = regs[cell.left]
            b = regs[cell.right]
            if kind == 0:
                v = _bump(a + b, cell.value)
            elif kind == 1:
                v = (a ^ (b << 1)) & 0xFFFFFFFF
            elif kind == 2:
                v = names[keys[(a + r) & 63]] + b
            else:
                v = max(a, b) - cell.value
            regs[cell.value % 48] = v
            acc += v & 7
    return acc


def probe() -> float:
    """CPU seconds of one run of the fixed kernel in this thread.

    A short untimed run first brings the kernel's code and data back
    into the caches, so that the time does not depend on what the op
    before it touched.
    """
    _kernel(PROBE_ROUNDS // 4)
    start = time.thread_time()
    _kernel(PROBE_ROUNDS)
    return time.thread_time() - start


def probe_cpus(count: int) -> list[float]:
    """``count`` probes, taken in turn on each CPU this process may use.

    For work that runs in another process, on whichever CPU the
    scheduler picks.  Call it while this process runs no other thread.
    """
    if not hasattr(os, "sched_setaffinity"):
        return [probe() for _ in range(count)]
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    samples = []
    try:
        for i in range(count):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            samples.append(probe())
    finally:
        os.sched_setaffinity(0, allowed)
    return samples


class Reading(NamedTuple):
    """Probe times taken just before a piece of work, and the CPU tick
    counters (see :func:`ticks`) then."""

    probes: list[float]
    busy: int
    stolen: int


def ticks() -> tuple[int, int]:
    """Busy and stolen clock ticks of all CPUs so far, from
    ``/proc/stat``; ``(0, 0)`` where it cannot be read."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:9]]
        user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq + steal, steal


def reading(probes: list[float]) -> Reading:
    return Reading(probes, *ticks())


def factors(readings: list[Reading], ends: list[tuple[int, int]],
            radius: int) -> list[float]:
    """One scale, from measured to reference time, for each of
    ``len(ends)`` timed pieces of work.

    ``readings[i]`` is taken just before piece ``i``, and the last one
    after the last piece; ``ends[i]`` holds the tick counters just after
    piece ``i``.  Piece ``i`` is scaled over the pieces from ``radius``
    before it to ``radius`` after it: by the median of the probes taken
    around them, so a probe that an interrupt happened to hit does not
    move it, and by the share of the busy CPU time during them that was
    not stolen.  Time between pieces (output checks, set-ups) does not
    count.
    """
    scales = []
    for i in range(len(ends)):
        lo, hi = max(0, i - radius), min(len(ends), i + radius + 1)
        scale = REFERENCE_S / statistics.median(
            [p for r in readings[lo:hi + 1] for p in r.probes])
        busy = sum(ends[j][0] - readings[j].busy for j in range(lo, hi))
        stolen = sum(ends[j][1] - readings[j].stolen for j in range(lo, hi))
        if busy > 0:
            scale *= 1.0 - stolen / busy
        scales.append(scale)
    return scales
