"""A fixed piece of host work that tells how fast the machine is right now.

This sandbox changes speed: for minutes at a time every program on it,
cache-resident or not, runs 25-35 % slower (CPU time equals wall time
meanwhile, so it is the host, not the scheduler).  A run of 20 s sits inside
one such spell, so no statistic over its passes removes it.  What does is
timing, in every pass, work that no change to ``repro`` can move, and
reporting host seconds at the speed that work says the machine had.

The work is a mix of what the workloads do: sparse matrix-vector products
and small triangular solves, as the solver's kernels, and interpreter-bound
loops over tiny arrays and a dictionary, as its bookkeeping.  It calls only
NumPy and SciPy, nothing under ``repro``.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg
import scipy.sparse

#: Seconds `Calibration.seconds` takes on the two-core sandbox the workloads
#: were sized on, in a quiet spell.  It only makes normalized seconds read
#: like that machine's seconds; a ratio between two commits is free of it.
NOMINAL_S = 0.060


class Calibration:
    """Inputs of the calibration work, built once."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        second_difference = scipy.sparse.diags(
            [-1.0, 2.0, -1.0], [-1, 0, 1], shape=(140, 140))
        eye = scipy.sparse.identity(140)
        self.matrix = (scipy.sparse.kron(eye, second_difference)
                       + scipy.sparse.kron(second_difference, eye)).tocsr()
        self.vector = rng.standard_normal(self.matrix.shape[0])
        self.triangle = (np.triu(rng.standard_normal((30, 30)))
                         + 30.0 * np.eye(30))
        self.block = rng.standard_normal((30, 800))
        self.small = rng.standard_normal(100)

    def seconds(self) -> float:
        """Do the work once and return the host seconds it took."""
        start = time.perf_counter()
        for _ in range(10):
            self.matrix @ self.vector
        for _ in range(150):
            scipy.linalg.solve_triangular(self.triangle, self.block)
        total = 0.0
        for i in range(18_000):
            total += float((self.small * 1.0001 + i)[3])
        counts: dict[int, int] = {}
        for i in range(120_000):
            counts[i & 255] = counts.get(i & 255, 0) + i
        return time.perf_counter() - start
