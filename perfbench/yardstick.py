"""A clock in reference seconds: host speed measured all through the run.

On a shared host the speed of the same code flips between a fast and a
slow mode, about 2x apart, every second or so, as neighbours come and
go; ``/proc/stat`` shows no steal time while it happens, so neither wall
time nor CPU time can tell.  A run of a few cells cannot average that
out, and a speed sample taken only before and after a cell of several
seconds misses the modes the cell ran through.

``HostClock`` therefore interleaves a fixed pure-Python pass with the
program: an interval timer (``SIGALRM``) fires every ``PERIOD_S``, and
its handler, which runs in the main thread between two bytecodes of the
program, times one pass.  The wall time the program ran since the
previous pass is counted at the speed of the last ``SMOOTH`` passes:
``wall * REFERENCE_S / pass seconds``.  The passes' own time is not
counted.  On a host that runs the pass in ``REFERENCE_S``, reference
seconds equal wall seconds.

The pass shares no code with the program, so a change to the program
never moves it.  The garbage collector is held off while it runs, so a
collection the program's allocations are due never lands in it, and its
data fits in the caches, so it evicts little of the program's working set.
"""

from __future__ import annotations

import collections
import gc
import heapq
import signal
import statistics
import time

#: Events a pass schedules and serves.  ``REFERENCE_S`` holds for this size only.
EVENTS = 120

#: About the pass seconds in the fast mode of a 2-core shared container:
#: the scale of reported times.
REFERENCE_S = 0.0002

#: Seconds between passes, and passes whose median gives the current speed.
PERIOD_S = 0.01
SMOOTH = 5

_TABLE = {f"node{i:04d}/core/{i % 97}": i for i in range(EVENTS)}
_KEYS = list(_TABLE)


class _Event:
    __slots__ = ("time", "seq", "value")

    def __init__(self, time_: int, seq: int, value: int) -> None:
        self.time, self.seq, self.value = time_, seq, value

    def key(self) -> tuple[int, int]:
        return (self.time, self.seq)


def run_pass() -> float:
    """Seconds one pass takes now: a small event heap, served in order,
    with dict updates and a sort, i.e. the kinds of work an interpreted
    discrete-event loop does.  The collector is held off while it runs."""
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    heap: list = []
    totals: dict = {}
    for seq, name in enumerate(_KEYS):
        event = _Event((seq * 7919) % 127, seq, _TABLE[name])
        heapq.heappush(heap, (event.time, event.seq, event))
        bucket = f"t{seq % 31}"
        totals[bucket] = totals.get(bucket, 0) + event.value
    while heap:
        _, _, event = heapq.heappop(heap)
        totals[event.seq % 5] = event.key()
    sorted(totals.items(), key=str)
    elapsed = time.perf_counter() - t0
    if collecting:
        gc.enable()
    return elapsed


class HostClock:
    """Reference seconds of program time, while armed (a context manager).

    Only one can be armed at a time, since it owns ``SIGALRM``.
    """

    def __init__(self) -> None:
        self._recent = collections.deque(
            (run_pass() for _ in range(SMOOTH)), maxlen=SMOOTH)
        self._rate = REFERENCE_S / statistics.median(self._recent)
        self._ref = 0.0
        self._mark = time.perf_counter()
        self._previous = None
        #: Passes run, and wall seconds spent in them.
        self.passes = 0
        self.pass_s = 0.0

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self._ref += (start - self._mark) * self._rate
        self._recent.append(run_pass())
        self._rate = REFERENCE_S / statistics.median(self._recent)
        self._mark = time.perf_counter()
        self.pass_s += self._mark - start
        self.passes += 1

    def now(self) -> float:
        """Reference seconds the program has run since the clock was made."""
        while True:
            seen = self.passes
            value = self._ref + (time.perf_counter() - self._mark) * self._rate
            if self.passes == seen:  # no pass ran while reading
                return value

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
