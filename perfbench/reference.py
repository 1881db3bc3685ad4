"""A fixed reference workload that measures how fast the host runs right now.

The benchmark runs on a shared host whose speed changes by up to 1.7x, in
CPU time as well as wall time, through busy neighbours on the same core,
cache and memory bandwidth. An operation's time divided by the time of this
workload, run in the same process over the same minutes, is much steadier. The workload mixes what the crbayes
operations spend their time on: interpreted Python, scalar numpy RNG calls in
a Python loop, vectorized scipy special functions, and JSON and CSV reports
of floats written the way crbayes writes them. It never calls crbayes, so a
change to crbayes cannot move it.
"""

import csv
import io
import json
import statistics
import time

import numpy as np
from scipy.special import gammaln

# Times are rescaled to a host on which one reference() call takes this many
# CPU seconds, about what it takes on a quiet 2-vCPU Xeon VM. The rescaled
# times therefore read close to plain CPU seconds.
NOMINAL_S = 0.1
# Reference runs between operations take this share of the operations' CPU time.
SHARE = 0.2


def reference() -> float:
    """Run the reference workload once; returns a checksum so nothing is optimized away."""
    acc = 0.0
    for i in range(200_000):
        acc += i * 0.5 % 7.0
    rng = np.random.default_rng(12345)
    p, e = 0.3, 0
    for _ in range(15_000):
        p = float(rng.beta(2.0 + e, 3.0 + e))
        e = int(rng.binomial(100, p))
    x = np.arange(1.0, 200_001.0)
    for _ in range(8):
        y = gammaln(x + 0.5) - np.log1p(x)
        acc += float(np.exp(y - y.max()).sum())
    values = [i * 1.2345678901 for i in range(15_000)]
    acc += len(json.dumps({"mass": values}, indent=2))
    buf = io.StringIO()
    writer = csv.writer(buf)
    for i, v in enumerate(values[:8_000]):
        writer.writerow([i, repr(v), repr(-v)])
    return acc + e + len(buf.getvalue())


def reference_s() -> float:
    """CPU seconds of one reference() call."""
    start = time.process_time()
    reference()
    return time.process_time() - start


class HostSpeed:
    """Reference runs spread over a run in proportion to the operations' CPU time.

    The host's speed changes by up to 1.7x within seconds, so it has to be
    sampled often and close to each operation. After each operation,
    ``after`` runs the reference until the reference runs add up to
    ``SHARE`` of the operations' CPU time so far. An operation is then
    rescaled by the mean of the reference runs just before and just after it.
    """

    def __init__(self):
        self.op_s = 0.0
        self.samples = [reference_s()]

    def after(self, op_s: float) -> int:
        """Sample the host after an operation; returns that operation's place among the samples."""
        place = len(self.samples)
        self.op_s += op_s
        while sum(self.samples) < SHARE * self.op_s:
            self.samples.append(reference_s())
        return place

    def around(self, place: int) -> float:
        """Mean CPU seconds of the reference runs just before and just after ``place``."""
        return statistics.fmean(self.samples[place - 1 : place + 1])


def speed_probe() -> float:
    """Median CPU seconds of three reference() calls."""
    return statistics.median(reference_s() for _ in range(3))
