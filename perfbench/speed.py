"""The machine's speed, probed during a run, and timings scaled by it.

The measuring machine is a share of a host whose speed changes by a third
and more from one minute to the next (see README.md, "Machine speed").
A run therefore times a fixed probe, made of the same kinds of work as the
queries (interpreter work like the row-text parse, numpy sorting like the
stripe kernels), before every analytic query and every short-request
block. A timing is reported at the reference speed: multiplied by
REF_PROBE_S over the median of the probes taken near it (its round and
the rounds on either side; for set-up, the whole run). The probe runs only
the benchmark's own code while no query is under way, so a change to the
program moves it only by leaving work running between queries.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the probe's median on the reference machine (2 vCPU, Python 3.11.7,
# numpy 2.4.6) when it was quiet; fixed, so that scaled figures stay
# comparable from run to run and from commit to commit
REF_PROBE_S = 0.008

_KEYS = np.arange(15_000, dtype=np.int64) * 2_654_435_761 % 1_000_003
_LINES = [f"{i},{i // 10},LC{i % 20:02d},{(i * 37) % 200}.5" for i in range(6_000)]


def _work() -> None:
    sums: dict[str, float] = {}
    for line in _LINES:
        fields = line.split(",")
        sums[fields[2]] = sums.get(fields[2], 0.0) + float(fields[3]) + int(fields[1])
    np.unique(_KEYS)
    np.sort(_KEYS.astype(np.float64))


def probe() -> float:
    """Seconds for one fixed piece of interpreter and numpy work.

    The work runs twice and only the second pass is timed, so that what
    the run did just before (and left in the CPU caches) does not count.
    """
    _work()
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scale(probes: list[float]) -> float:
    """Factor that brings timings made among these probes to the reference speed."""
    return REF_PROBE_S / statistics.median(probes)
