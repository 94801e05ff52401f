"""A fixed reference loop, timed between ops.

The 2-core hosts this benchmark was built on share their cores, caches and
memory with other tenants, and their speed drifts by 20-100% within minutes.
The drift is host-wide, so it slows a fixed loop about as it slows an op.
The end-to-end time metrics are therefore reported in units of this loop:
`perfbench/run.py` divides them by the mean seconds of the blocks of it
that were timed next to them.

The blocks run between ops and right after set-up, in the benchmark's own
process, while the program under test has nothing running: no child process
of the program competes with them, and nothing in them depends on the
program's heap, because the arrays they use are allocated once, when the
reference is made, and the pages they fault in are mapped by the loop
itself. Each part of a block starts with one untimed call that refills the
caches the op evicted.

The loop does not call dynvol. It has five parts, each a cost that drifts
apart from the others on a shared host and that the program's ops pay:
scalar arithmetic on floats in an interpreted loop, like the simulators and
the per-step estimators; dense kernel arithmetic on a small array, like the
state-domain fits on few points; first touches of fresh 4 KiB pages, and
of a region that asks for huge pages, as numpy does for arrays from 4 MiB
up, because the dense fits allocate large temporaries on every call; and a
pass over an array larger than a core's L2 cache, like the fits over many
points. Each part takes about a fifth of a block.
"""

from __future__ import annotations

import mmap
import time


class Reference:
    """The reference loop; `block()` times one block of it."""

    SCALAR_STEPS = 300
    ARRAY_SIZE = 128
    FAULT_PAGES = 64
    STREAM_BYTES = 8 << 20  # more than a core's 2 MiB of L2
    HUGE_BYTES = 6 << 20  # holds two aligned 2 MiB huge pages
    # calls of each part in one block: 60-80 ms each, 0.35 s a block, on
    # the 2-core Xeon VM the benchmark was built on
    CALLS = {"scalar": 800, "dense": 1300, "faults": 500, "huge": 15,
             "stream": 120}

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(20070101)
        n = self.ARRAY_SIZE
        self._np = np
        self._eps = rng.standard_normal(self.SCALAR_STEPS).tolist()
        self._x = rng.random(n)
        self._d = np.empty((n, n))
        self._d2 = np.empty((n, n))
        self._near = np.empty((n, n), dtype=bool)
        self._y = np.empty(n)
        self._big = rng.random(self.STREAM_BYTES // 8)
        self._parts = [(getattr(self, f"_{name}"), calls)
                       for name, calls in self.CALLS.items()]

    def _scalar(self):
        v = 0.01
        for e in self._eps:
            v = max(v + 0.1 * (0.01 - v) * 1e-3 + 0.2 * v * 0.03 * e, 1e-12)

    def _dense(self):
        np, x, d, d2, near = self._np, self._x, self._d, self._d2, self._near
        np.subtract(x[:, None], x[None, :], out=d)
        np.abs(d, out=d2)
        np.less(d2, 0.3, out=near)
        np.multiply(d, d, out=d2)
        np.subtract(1.0, d2, out=d2)
        np.multiply(d2, near, out=d2)
        np.matmul(x, d2, out=self._y)

    def _faults(self):
        pages = mmap.mmap(-1, self.FAULT_PAGES * mmap.PAGESIZE)
        for i in range(0, len(pages), mmap.PAGESIZE):
            pages[i] = 1
        pages.close()

    def _huge(self):
        pages = mmap.mmap(-1, self.HUGE_BYTES)
        pages.madvise(mmap.MADV_HUGEPAGE)
        self._np.frombuffer(pages, dtype=self._np.uint8).fill(1)
        pages.close()

    def _stream(self):
        self._np.multiply(self._big, 1.0, out=self._big)

    def block(self) -> float:
        """Seconds of one block: each part, called `CALLS` times."""
        total = 0.0
        for part, calls in self._parts:
            part()  # refills the caches; not timed
            t0 = time.perf_counter()
            for _ in range(calls):
                part()
            total += time.perf_counter() - t0
        return total
