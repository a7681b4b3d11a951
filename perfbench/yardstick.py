"""A fixed reference computation that measures how fast the machine is now.

On a shared virtual machine (2-core KVM guest) the speed drifts by tens
of percent within minutes, and by as much within a few seconds: five
consecutive runs of one workload there read up to 43% apart on every
operation at once. Every run times this computation before the first
operation of a round and after every operation, and scales each
operation's time by ``REFERENCE_S`` over a yardstick time: the mean of the
yardstick's mean time in the round and of its two times just before and
just after the operation (``run.scaled``). A reported time is therefore
the time the operation would take while the yardstick takes
``REFERENCE_S``, its time on that machine in a quiet period.

The yardstick uses numpy and plain Python only, never the package under
test, so no change to the program moves it. It mixes the kinds of work the
program does: a per-row loop over numpy rows keyed by their bytes (as in
``cloud`` and ``embed``), a vectorised pairwise max-norm (as in ``approx``
and ``hull``) and plain interpreter arithmetic. Its inputs are fixed, and
it must not change while results measured with it are compared.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.015


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.points = rng.uniform(-1.0, 1.0, (3000, 3))
        self.functionals = rng.uniform(-1.0, 1.0, (4, 3))

    def work(self) -> int:
        seen = {}
        for row in self.points @ self.functionals.T:
            seen[np.where(row == 0.0, 0.0, row).tobytes()] = len(seen)
        near = self.points[:300]
        gaps = np.abs(near[:, None, :] - near[None, :, :]).max(axis=2)
        total = 0
        for i in range(20000):
            total += i * i
        return len(seen) + int(gaps.argmax()) + total % 7

    def seconds(self) -> float:
        """Time of one run of the reference computation."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def scale(self, times) -> float:
        """Factor that turns times measured alongside `times` into
        reference-speed times."""
        times = list(times)
        return REFERENCE_S * len(times) / sum(times)
