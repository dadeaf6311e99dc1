"""Block s-step GMRES on a ragged partition (``ranks`` does not divide
``n``): the batched engine computes on the flat storage and replays
memoized per-rank charges there, and none of it may show.

Every member of a width-3 batch is bit-identical to its independent
scalar solve under either engine, and the batch's modeled times and
synchronization counts are the same under both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.krylov.block import block_sstep_gmres
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.ortho.bcgs import BCGS2Scheme
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import generic_cpu

N, RANKS, WIDTH = 101, 8, 3   # shards of 13, 13, 13, 13, 13, 12, 12, 12 rows
SOLVE = dict(s=4, restart=12, tol=1e-8, maxiter=240)
SCHEMES = {"two-stage": lambda: TwoStageScheme(big_step=12),
           "bcgs2": BCGS2Scheme}


def fresh_sim(engine):
    sim = Simulation(laplace2d(N, 1), ranks=RANKS, machine=generic_cpu(),
                     engine=engine)
    assert sim.n == N and not sim.partition.is_uniform
    return sim


def rhs_columns():
    cols = np.random.default_rng(4).standard_normal((N, WIDTH))
    return cols / np.linalg.norm(cols, axis=0)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_members_match_scalar_solves_under_both_engines(scheme):
    cols = rhs_columns()
    batches = {}
    for engine in ("loop", "batched"):
        batch = block_sstep_gmres(fresh_sim(engine), cols,
                                  scheme_factory=SCHEMES[scheme], **SOLVE)
        assert len(batch) == WIDTH
        for j, res in enumerate(batch):
            ref = sstep_gmres(fresh_sim(engine), cols[:, j],
                              scheme=SCHEMES[scheme](), **SOLVE)
            assert res.iterations > 0
            np.testing.assert_array_equal(res.x, ref.x)
            assert res.history.residuals == ref.history.residuals
            assert (res.converged, res.iterations, res.restarts) == (
                ref.converged, ref.iterations, ref.restarts)
        batches[engine] = batch
    for loop, batched in zip(batches["loop"], batches["batched"]):
        np.testing.assert_array_equal(batched.x, loop.x)
        assert batched.sync_count == loop.sync_count
        assert batched.times == loop.times
