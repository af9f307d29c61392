"""Host-speed probe: how fast the CPU runs while a pass is being timed.

The benchmark's hosts are shared, and a neighbour's load slows every
instruction of a pass by as much as a third, for seconds to minutes at a
time (CPU time moves with wall time; steal time stays small).  A pass's
wall time therefore mixes the program's cost with the host's speed.  To
separate them, ``Probe`` runs a small fixed piece of work -- a Python loop
and a few numpy operations on a cache-resident array, nothing from singlab
-- every ``interval`` seconds during the pass, from a ``SIGALRM`` handler
in the main thread.  The handler measures the probe's own thread CPU time,
so waiting for the GIL or for a vCPU does not count, and adds its wall time
to ``paused`` so that the pass time can leave it out.

``normalize(wall)`` turns a pass's wall time into seconds at the nominal
host speed: the wall time minus the probes, divided by the slowdown (mean
probe time over ``NOMINAL_PROBE_S``) raised to ``HOST_SENSITIVITY``.  When
the host runs at nominal speed the two agree.  The exponent is there
because a pass, with its larger working set, slows more under the same
host load than the cache-resident probe: over 40 runs of the four workloads
(10 each, while raw pass times of the same code varied up to twofold), the
log of the pass time rose 0.9 to 1.5 times as fast as the log of the probe
time, depending on the workload.  With 1.25 the worst run-to-run spread of
a workload's median was 0.057 of the median, against 0.11 with 1.0 and
0.26 for raw wall time.

The probe runs only between Python bytecodes of the main thread, never
inside a C call, and touches no state of the library, so the results of a
pass are unchanged (the benchmark checks that they are byte-identical).
A probe first runs its work once untimed, to bring back into cache what
the pass evicted, and times the second run, so the pass's own memory
traffic does not slow it.  Work injected into a continuation pass shows in
full in the normalized time: streaming 32 MB arrays added 61% to the raw
and 64% to the normalized median, a Python dict build 16% and 20%, and
the probe's mean time stayed within 1% (pass-to-pass noise is a few %).
Without the warm-up run the streaming case slowed the probe by 8% and hid
a tenth of the change.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Thread CPU time of one probe on an unloaded host with an Intel Xeon
# (2 vCPUs, Python 3.11, numpy 2.4); the unit of normalized seconds.
NOMINAL_PROBE_S = 0.0018
HOST_SENSITIVITY = 1.25  # pass slowdown = probe slowdown ** HOST_SENSITIVITY
INTERVAL_S = 0.2

_DATA = np.linspace(0.0, 1.0, 2048)


def work() -> float:
    """The fixed piece of work a probe times."""
    acc = 0.0
    for i in range(6000):
        acc += (i * 0.5) % 7.0
    for _ in range(8):
        acc += float(np.sort(np.sin(_DATA * acc % 3.0))[7])
    return acc


class Probe:
    """Context manager that samples host speed every ``interval`` seconds."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []  # thread CPU seconds per probe
        self.paused = 0.0  # wall seconds spent in probes
        self._previous = None

    def _probe(self) -> float:
        start = time.perf_counter()
        work()  # warms the caches the pass has evicted; the second run is timed
        cpu = time.thread_time()
        work()
        self.samples.append(time.thread_time() - cpu)
        return time.perf_counter() - start

    def _on_alarm(self, *_):
        self.paused += self._probe()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        # A pass shorter than the interval still gets one sample.
        self._probe()
        return False

    def slowdown(self) -> float:
        """Mean probe time over the nominal one (1 on an unloaded host)."""
        return statistics.fmean(self.samples) / NOMINAL_PROBE_S

    def normalize(self, wall: float) -> float:
        """Seconds ``wall`` would have taken at nominal host speed.

        ``wall`` is the timed region's wall time, which includes the probes
        that ran inside it.
        """
        return (wall - self.paused) / self.slowdown() ** HOST_SENSITIVITY
