"""Host speed measurements that do not touch ``uncbound``."""

import statistics
import time


def calibrate():
    """Seconds for a fixed pure-Python loop; shows host drift, not a metric."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Host speed, sampled between ops with a fixed kernel outside uncbound.

    The kernel makes short-array scipy calls, fills fresh pages and builds
    Python floats from numbers and from text.  Those were the parts whose
    time best followed the workloads' op times on a shared host: over 90 s
    in which op times moved by 18-24% (coefficient of variation over 1 s
    windows), op time over kernel time moved by 6-9%.  Timed values are
    divided by the local kernel time and multiplied by ``REFERENCE_S``, so
    they read as times on a host where the kernel takes that long.  The
    wall-clock values are reported beside them.
    """

    REFERENCE_S = 0.006
    EVERY_S = 0.25  # op time between two probes
    WINDOW = 9  # probes in the running median that scales an op

    def __init__(self):
        import numpy
        from scipy.special import logsumexp

        self.np = numpy
        self.logsumexp = logsumexp
        self.short = numpy.linspace(1.0, 2.0, 64)
        self.text = "\n".join(map(repr, numpy.linspace(1e-3, 1.0, 1500).tolist()))
        self.samples = []  # (ops done before the probe, seconds)

    def kernel(self):
        start = time.perf_counter()
        for _ in range(20):
            self.logsumexp(self.short)
        self.np.ones(300_000).sum()
        [float(i) for i in range(30_000)]
        sum(float(word) for word in self.text.split())
        return time.perf_counter() - start

    def median_kernel(self, repeats):
        return statistics.median(self.kernel() for _ in range(repeats))

    def sample(self, ops_done, repeats=1):
        for _ in range(repeats):
            self.samples.append((ops_done, self.kernel()))

    def factors(self, count):
        """Per op, ``REFERENCE_S`` over the running-median probe time near it."""
        times = [seconds for _, seconds in self.samples]
        half = self.WINDOW // 2
        local = [statistics.median(times[max(k - half, 0):k + half + 1])
                 for k in range(len(times))]
        out = []
        k = 0
        for index in range(count):
            while k + 1 < len(self.samples) and self.samples[k + 1][0] <= index:
                k += 1
            out.append(self.REFERENCE_S / local[k])
        return out
