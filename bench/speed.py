"""Machine-speed calibration for the timed intervals.

On the shared 2-vCPU virtual machine this was built on, other tenants
contend for the cores, and the same fixed work runs up to ~2x slower for
seconds to tens of seconds at a time (measured: interquartile range 44% of
the median for one RK4 integration repeated for 90 s).  Whole-machine
controls are not available, so the speed of the core is sampled with a
short fixed pure-Python loop: once before and once after each timed
interval, and every SAMPLE_EVERY_S inside it, from a background thread
(while the op holds the interpreter lock the sample waits for it).
The interval, minus the CPU time of the samples taken inside it, is scaled
by REF_LOOP_S / (mean loop time).  The result is in *reference seconds*: the
time the interval would take on a machine where the loop takes exactly
REF_LOOP_S.  Raw wall-clock values are printed alongside in every report.
"""

import math
import threading
import time

LOOP_ITERATIONS = 5000
REF_LOOP_S = 1e-3
SAMPLE_EVERY_S = 0.05


def loop_seconds():
    """CPU time of one run of the fixed loop (not stretched by preemption)."""
    t0 = time.thread_time()
    acc = 0.0
    for i in range(LOOP_ITERATIONS):
        acc += math.sin(i * 1e-3) * math.cosh(1e-6 * i)
    return time.thread_time() - t0


class Interval:
    """One timed interval, in wall-clock and reference seconds."""

    def __init__(self):
        self._lock = threading.Lock()
        self._closed = False
        self.loops = [loop_seconds()]
        self.inside = 0.0
        self.start = time.perf_counter()
        _watcher().arm(self)

    def due(self):
        return self.start + SAMPLE_EVERY_S * len(self.loops)

    def sample(self):
        """Take one speed sample inside the interval; False once it is closed."""
        with self._lock:
            if self._closed:
                return False
            loop = loop_seconds()
            self.loops.append(loop)
            self.inside += loop
            return True

    def stop(self):
        """Close the interval; return (wall-clock seconds, reference seconds),
        both without the samples taken inside it."""
        with self._lock:
            raw = time.perf_counter() - self.start - self.inside
            self._closed = True
        _watcher().disarm()
        self.loops.append(loop_seconds())
        return raw, raw * REF_LOOP_S * len(self.loops) / sum(self.loops)


class _Watcher:
    """Background thread that samples the open interval every SAMPLE_EVERY_S."""

    def __init__(self):
        self.armed = None
        self.wake = threading.Event()
        threading.Thread(target=self._run, name="speed-sampler", daemon=True).start()

    def arm(self, interval):
        self.armed = interval
        self.wake.set()

    def disarm(self):
        self.armed = None

    def _run(self):
        while True:
            interval = self.armed
            if interval is None:
                self.wake.wait()
                self.wake.clear()
                continue
            delay = interval.due() - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            elif not interval.sample():
                self.wake.wait()
                self.wake.clear()


_WATCHER = None


def _watcher():
    global _WATCHER
    if _WATCHER is None:
        _WATCHER = _Watcher()
    return _WATCHER
