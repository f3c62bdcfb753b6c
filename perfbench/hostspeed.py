"""Host-speed calibration for the end-to-end run.

The benchmark shares its host with other machines' work, and the host's
speed for identical work drifts by up to half, in bursts that last from a
fraction of a second to minutes.  A fixed calibration job, which never
touches the library, runs before the first op and after every op; each op's
wall time is scaled by the job's reference time over the mean of the two
samples around it.  The result is the op's time in seconds of the reference
host: the same work reads the same whether the host is busy or quiet, and a
change to the library moves it as much as it moves the raw time.

Two jobs, one per kind of op:

* in-process ops (``exact-certify``, ``search-certify``) use a job run in
  the benchmark's own interpreter: exact rational arithmetic, interpreted
  loops and small numpy calls, the mix those ops run;
* ``cli-session`` ops run in fresh interpreters and set-ups are mostly
  imports; their time follows the host's cost of starting and loading,
  which an in-process job does not track, so their job is a fresh
  ``python -c pass``.
"""

from __future__ import annotations

import subprocess
import sys
import threading
from fractions import Fraction
from time import perf_counter

# Wall time of each job on the reference host: a two-core Linux container,
# Python 3.11.7, numpy 2.4.6, in its quiet state.
IN_PROCESS_REF_S = 0.025
CHILD_REF_S = 0.06

CHILD_TIMEOUT_S = 60.0


def in_process_job() -> float:
    """Wall time of the in-process job, about 25 ms on the reference host."""
    import numpy as np

    start = perf_counter()
    x = Fraction(1)
    for i in range(1, 1500):
        x = (x * Fraction(i, i + 1) + Fraction(1, i)) / 2
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    a = np.arange(16.0)
    for _ in range(3000):
        a = np.sqrt(a * a + 1.0) - 0.5
    return perf_counter() - start


class HostSpeed:
    """Calibration samples of one run and the scaling they give."""

    def __init__(self, children: bool, env: dict, cwd):
        """``children``: the timed work runs in fresh interpreters."""
        if children:
            self.job, self.ref_s = lambda: self._child_job(env, cwd), CHILD_REF_S
        else:
            self.job, self.ref_s = in_process_job, IN_PROCESS_REF_S
        self.samples = []

    @staticmethod
    def _child_job(env: dict, cwd) -> float:
        # A blocking wait: waiting with a timeout polls, and the polling
        # interval would round the time up to its steps.
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "pass"], env=env, cwd=cwd,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        seconds = perf_counter() - start
        if code != 0:
            raise RuntimeError(f"calibration child exited with {code}")
        return seconds

    def sample(self) -> float:
        seconds = self.job()
        self.samples.append(seconds)
        return seconds

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` of work that ran between the samples ``before`` and
        ``after``, in seconds of the reference host."""
        return seconds * 2 * self.ref_s / (before + after)
