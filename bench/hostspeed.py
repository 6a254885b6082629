"""How fast the host ran while a pass was measured.

On a shared host the same pass can take 8 s or 13 s within minutes, because
other tenants slow the CPU down for stretches of tens of seconds.  A fixed
pure-Python loop slows down with it.  ``Sampler`` times a short run of that
loop every ``INTERVAL_S`` seconds of a worker (on ``SIGALRM``, between
bytecodes of whatever runs), so the worker can scale its measured times to
the reference speed at which the loop takes ``REFERENCE_LOOP_S``:

    time at reference speed = (measured time - sampling time)
                              * REFERENCE_LOOP_S / median loop time

The loop does the same work in every commit of the program, so the scale
cannot move with a change to twistres; only the host's speed moves it.
"""

import signal
import statistics
import time

SAMPLE_ITERATIONS = 10_000
INTERVAL_S = 0.05
# the sample loop's median time on a shared 2-core VM in a quiet phase;
# it only sets the scale of the reported times
REFERENCE_LOOP_S = 0.0007


def time_loop(iterations):
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


class Sampler:
    """Samples the loop on a real-time interval timer until ``stop()``."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t = time_loop(SAMPLE_ITERATIONS)
        self.samples.append(t)
        self.spent += t

    def start(self):
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def burst(self, count):
        """Take ``count`` samples now, for a stretch too short for the
        timer to sample (a worker's set-up)."""
        for _ in range(count):
            self._sample(None, None)

    def scale(self, first=0):
        """Reference loop time over the median loop time of the samples
        from index ``first`` on."""
        return REFERENCE_LOOP_S / statistics.median(self.samples[first:])
