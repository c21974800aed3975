"""Machine speed, measured along a run with a fixed kernel.

The benchmark runs on machines whose speed drifts by tens of percent over
seconds to minutes, as other tenants of the host come and go.  Every task
slows with the machine, so a run times a kernel between its tasks, about
every CALIB_EVERY_S seconds of task time (and after every longer task),
and scales its task times by how fast the kernel ran over the run: by the
kernel's reference time (KERNELS) over the median of the run's samples.
Times reported this way are reference-speed times: what the task would
have taken on a machine where the kernel runs at reference speed.  The
kernels do not use delta2d, so a change to delta2d moves these times in
full.

Each workload is calibrated with the kind of work it mostly does:
  array   a bump evaluated on a 32 x 4096 polar grid and averaged over
          the angle, as the off-centre pairings do (offcentre);
  small   a 12-term power series on 32-point arrays in a Python loop, as
          K0 on quadrature panels is (origin);
  python  dict, string and list work, as parsing, rewriting, argument
          handling and printing are (symbolic).
"""

import statistics
import time

import numpy as np

CALIB_EVERY_S = 0.5
# A sample after t seconds of task time runs the kernel for about
# COST_FRAC * t, and at least MIN_REPEATS times.
COST_FRAC = 0.025
MIN_REPEATS = 3

_PANEL = np.linspace(0.1, 2.0, 32)
_THETA = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
_COS, _SIN = np.cos(_THETA), np.sin(_THETA)


def _array():
    x = np.outer(_PANEL, _COS) - 1.75
    y = np.outer(_PANEL, _SIN)
    s = x * x + y * y
    inside = s < 1.0
    v = np.where(inside, np.exp(1.0 - 1.0 / (1.0 - np.where(inside, s, 0.0))), 0.0)
    return float(v.mean(axis=1).sum())


def _small():
    acc = 0.0
    for _ in range(60):
        q = 0.25 * _PANEL * _PANEL
        term, total = np.ones_like(q), np.zeros_like(q)
        for k in range(1, 12):
            term = term * q / (k * k)
            total = total + term
        acc += float(np.dot(total, _PANEL))
    return acc


def _python():
    table = {str(i): 1.5 * i for i in range(1500)}
    out = []
    for i in range(2500):
        word = "w%d" % (i % 97)
        if word in table or i % 3:
            out.append("%s:%d" % (word, i))
    return len(",".join(out)) + sum(table.values())


# kernel and its time at reference speed (near its median on a shared
# 2-CPU Xeon at 2.0 GHz)
KERNELS = {"array": (_array, 0.005), "small": (_small, 0.003), "python": (_python, 0.0025)}
WORKLOAD_KERNEL = {"offcentre": "array", "origin": "small", "symbolic": "python"}


def sample(kernel, repeats=MIN_REPEATS):
    """Median time of `repeats` calls of the named kernel, in seconds."""
    fn = KERNELS[kernel][0]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Speedometer:
    """Kernel samples along a run, taken as the run reports its task time."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.reference_s = KERNELS[kernel][1]
        self.samples = [sample(kernel)]
        self._since = 0.0

    def ran(self, seconds):
        """Account for `seconds` of task time; sample when enough passed."""
        self._since += seconds
        if self._since >= CALIB_EVERY_S:
            self.close()

    def close(self):
        repeats = max(MIN_REPEATS, round(COST_FRAC * self._since / self.reference_s))
        self.samples.append(sample(self.kernel, repeats))
        self._since = 0.0

    def scale(self):
        """Factor from this run's times to reference-speed times."""
        return self.reference_s / statistics.median(self.samples)
