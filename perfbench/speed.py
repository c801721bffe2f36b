"""Machine-speed index from a fixed reference computation.

On the shared two-CPU machines this benchmark was written on, the speed
of one CPU alternates between phases about 1.45x apart that last from a
fraction of a second to tens of seconds, independently on each CPU.  Raw
times of identical work therefore spread by 25-40% between runs.  The
runner pins itself to one CPU and samples this probe from a background
thread while the work runs; each measured time is divided by the mean
speed index sampled during it, so the times it reports are seconds at the
reference speed: the speed at which one probe takes ``REF_PROBE_S``.  The
probe runs no radialmot code, so a change to the package moves the
reported times as it moves the raw ones.

The probe is plain interpreter arithmetic and this module imports only the
standard library, so a fresh interpreter can sample it before ``import
radialmot`` without loading any of the package's dependencies.
"""

import threading
import time
from bisect import bisect_left, bisect_right

REF_PROBE_S = 3.6e-4  # one probe at the reference speed
PROBES_PER_SAMPLE = 5


def _probe() -> float:
    """Best of three runs of a fixed float loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(4000):
            s += i * 0.5
        best = min(best, time.perf_counter() - t0)
    return best


def sample() -> float:
    """Speed index now: median probe time over the reference time, so 1.25
    means the machine runs 1.25x slower than the reference."""
    runs = sorted(_probe() for _ in range(PROBES_PER_SAMPLE))
    return runs[len(runs) // 2] / REF_PROBE_S


class SpeedMonitor:
    """Samples the speed index every ``interval`` seconds from a thread.

    With the process pinned to one CPU, the thread measures the CPU the
    work runs on.  It records the CPU time it used, which the work lost to
    it, so ``adjust`` can take that out of a measured interval.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.mids: list[float] = []
        self.index: list[float] = []
        self.cpu: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedMonitor":
        self._record()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join()
        self._record()
        return False

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._record()

    def _record(self) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        value = sample()
        c1, t1 = time.thread_time(), time.perf_counter()
        self.mids.append((t0 + t1) / 2.0)
        self.index.append(value)
        self.cpu.append(c1 - c0)

    def adjust(self, start: float, end: float) -> float:
        """Seconds of work in [start, end] at the reference speed, once the
        monitor has stopped: the
        interval less the probe's CPU time inside it, divided by the mean
        speed index sampled within one interval of it."""
        mids = self.mids
        lo = bisect_left(mids, start)
        hi = bisect_right(mids, end)
        busy = sum(self.cpu[lo:hi])
        near_lo = bisect_left(mids, start - self.interval)
        near_hi = bisect_right(mids, end + self.interval)
        if near_hi == near_lo:  # no sample close by: take the nearest one
            near_lo = max(min(lo, len(mids) - 1), 0)
            near_hi = near_lo + 1
        window = self.index[near_lo:near_hi]
        return (end - start - busy) / (sum(window) / len(window))
