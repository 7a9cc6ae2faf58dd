"""Machine-speed probe for normalising times on a shared machine.

The benchmark was defined on a 2-vCPU VM on shared hardware.  At fixed
input its speed changed by up to 2x within minutes, with no steal time: the
process runs, only slower.  Raw times then spread more between runs than any
bound a later change could be judged by.

So the measured time is cut into stretches by a probe: a fixed computation
with plain numpy (single-point image sums of ``reference.py``), which never changes
with the program under test.  A stretch of t seconds between probes that
took p1 and p2 counts as t * NOMINAL_S / ((p1 + p2) / 2): seconds at the
speed at which the probe takes NOMINAL_S.  A change in the program moves t
and not the probe; a change in machine speed moves both.

While a log is started, an interval timer (SIGALRM, same thread) runs the
probe every PROBE_EVERY_S seconds, also in the middle of a long operation.
The probe's own time is left out of the operation's time, and out of
``SpeedLog.clock``, the clock the span recorder of a traced run reads.
"""
from __future__ import annotations

import signal
from time import perf_counter

import reference

#: Probe time on the VM the benchmark was defined on (2-vCPU Intel Xeon,
#: Python 3.11, numpy 2.4) while the host was quiet.  It only fixes the scale
#: of the reported seconds.
NOMINAL_S = 0.0066
#: Seconds between probes.
PROBE_EVERY_S = 1.0

_POINTS = ((3.3, 0.3, 0.0), (7.1, 0.6, 2.5), (11.2, 0.45, 17.0), (5.0, 0.9, 0.7))


def probe() -> float:
    """Seconds the fixed reference computation takes now."""
    start = perf_counter()
    for _ in range(4):
        for omega, x, y in _POINTS:
            reference.density(omega, x, y, 1000)
    return perf_counter() - start


class SpeedLog:
    """Operation time cut into stretches between probes.

    Time counts only between ``begin`` and ``end``.  Each counted segment is
    kept with the index of the probe before it and a caller-chosen tag (the
    round), so it can be normalised by the probes on both sides of it.  An
    alarm that arrives while the log updates itself is held until it is done.
    """

    def __init__(self):
        probe()  # the first call in a process pays one-time costs
        self.probes = [probe()]
        self.probe_s = 0.0
        self.segments: list[tuple[int, float, object]] = []
        self.tag: object = 0
        self._since: float | None = None
        self._op = 0.0
        self._critical = False
        self._due = False

    def begin(self) -> None:
        self._critical = True
        self._op = 0.0
        self._since = perf_counter()
        self._leave()

    def end(self) -> float:
        """Close the operation; returns its time without the probes inside it."""
        self._critical = True
        self._close_segment(perf_counter())
        self._since = None
        op = self._op
        self._leave()
        return op

    def checkpoint(self) -> None:
        """Run the probe now, closing the current stretch."""
        self._critical = True
        before = perf_counter()
        counting = self._since is not None
        if counting:
            self._close_segment(before)
        self.probes.append(probe())
        after = perf_counter()
        self.probe_s += after - before
        if counting:
            self._since = after
        self._due = False
        self._critical = False

    def clock(self) -> float:
        """perf_counter() less the time spent in probes."""
        # probe_s is read before the clock: an alarm handled right after
        # perf_counter() returns then leaves the reading consistent
        probe_s = self.probe_s
        return perf_counter() - probe_s

    def _close_segment(self, now: float) -> None:
        seconds = now - self._since
        self._op += seconds
        self.segments.append((len(self.probes) - 1, seconds, self.tag))

    def _leave(self) -> None:
        self._critical = False
        if self._due:
            self.checkpoint()

    def _on_alarm(self, signum, frame) -> None:
        if self._critical:
            self._due = True
        else:
            self.checkpoint()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        """Stop the timer, if any, and take the closing probe."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.checkpoint()

    def normalised(self, tag: object) -> float:
        """Normalised seconds of the segments with this tag; needs a later probe."""
        return sum(seconds * NOMINAL_S / (0.5 * (self.probes[i] + self.probes[i + 1]))
                   for i, seconds, t in self.segments if t == tag)
