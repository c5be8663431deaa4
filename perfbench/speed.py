"""The machine's speed, sampled all through every timed region, and times
scaled to a fixed reference speed.

On a shared host the same code runs at different speeds from moment to
moment, as other tenants load the machine: on a 2-vCPU VM a fixed Python
loop took between about half and 1.3 times its usual time, in spells of
under a second to minutes. A run that falls in fast or slow spells then
reads fast or slow as a whole. To take that out, a fixed kernel that uses
no collgraph code is timed just before a timed region, every `PERIOD_S`
during it (from a SIGALRM handler) and just after it. The region's time,
less the time spent in the handler, is scaled by `REFERENCE_S` over the
median kernel time. The result reads as the time the region would take on a
machine that runs the kernel in `REFERENCE_S`. The kernel does the kind of
work collgraph does (JSON text of a trace-like document, parsed back and
walked with dict operations), so a slow spell slows both alike; a change to
collgraph leaves the kernel as it is, so it shows in full.

A handler runs between two Python bytecodes, so a sample that falls due
during a long call into C (such as `json.dumps` of a large trace) is taken
when that call returns. The kernel runs with the garbage collector held
off, so that it is not charged for a collection the program made due.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
from time import perf_counter

# Any fixed value would do: it only sets the unit. On a 2.1 GHz Xeon VM with
# Python 3.11 the kernel usually took 0.009 to 0.014 s, so scaled times
# there read about 0.7 to 1.0 times wall times.
REFERENCE_S = 0.010
PERIOD_S = 0.2

_DOC = {"ranks": [[{"id": i, "kind": ("SEND", "RECV", "COMP")[i % 3],
                    "deps": [i - 1] if i else [],
                    "attrs": {"peer": (r + 1) % 32, "size": 4096 * i}}
                   for i in range(64)] for r in range(32)]}


def kernel() -> list:
    """Fixed work: a JSON round trip of a 2048-node document, then a
    grouped sum over its nodes."""
    doc = json.loads(json.dumps(_DOC))
    totals: dict = {}
    for rank in doc["ranks"]:
        for node in rank:
            key = (node["kind"], node["attrs"]["peer"])
            totals[key] = totals.get(key, 0) + node["attrs"]["size"]
    return sorted(totals.items())


def time_kernel() -> float:
    """The kernel's time, with the garbage collector held off: the program's
    heap can be large, and a full collection that the program's allocations
    made due would otherwise fall inside the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Timed:
    """`with Timed() as t:` times its body; afterwards `t.wall_s` is the wall
    time of the body without the samples taken during it, `t.scaled_s` that
    time at reference speed and `t.kernel_s` the kernel's times.
    Regions do not nest: each one owns SIGALRM while it is open."""

    __slots__ = ("wall_s", "scaled_s", "kernel_s", "_paused_s", "_end", "_previous",
                 "_start")

    def __enter__(self) -> "Timed":
        self.kernel_s = [time_kernel()]
        self._paused_s = 0.0
        self._end = None
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = perf_counter()
        return self

    def _sample(self, signum, frame) -> None:
        if self._end is not None:  # fell due as the region closed
            return
        start = perf_counter()
        self.kernel_s.append(time_kernel())
        self._paused_s += perf_counter() - start

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._end = perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.kernel_s.append(time_kernel())
        self.wall_s = self._end - self._start - self._paused_s
        self.scaled_s = self.wall_s * REFERENCE_S / statistics.median(self.kernel_s)
