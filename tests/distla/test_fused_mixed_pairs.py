"""One fused reduction may mix stacked and unstacked operand pairs.

The batched engine builds a ``(ranks, ...)`` stack group for a pair whose
operands carry stacks and falls back to per-rank partials for a pair that
does not — pair by pair, inside one collective.  Result and charges must
equal the loop engine's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distla import blas
from repro.distla.multivector import DistMultiVector
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer

N, RANKS = 48, 6


def fused_pairs(comm):
    part = Partition(N, RANKS)
    rng = np.random.default_rng(11)
    q = rng.standard_normal((N, 4))
    v = rng.standard_normal((N, 2))
    stacked_q = DistMultiVector.from_global(q, part, comm)
    stacked_v = DistMultiVector.from_global(v, part, comm)
    loose_v = DistMultiVector(
        part, comm, [np.array(v[part.local_slice(r)]) for r in range(RANKS)])
    assert stacked_q.stack is not None and loose_v.stack is None
    return [(stacked_q, stacked_v), (loose_v, loose_v), (stacked_q, loose_v)]


@pytest.mark.parametrize("posted", [False, True], ids=["blocking", "posted"])
def test_batched_equals_loop_on_mixed_pairs(posted):
    out = {}
    for engine in ("loop", "batched"):
        comm = SimComm(generic_cpu(), RANKS, Tracer())
        pairs = fused_pairs(comm)
        if posted:
            results = comm.wait(blas.post_block_dot_multi(pairs, engine=engine))
        else:
            results = blas.block_dot_multi(pairs, engine=engine)
        out[engine] = (results, comm.tracer.snapshot())
    for got, want in zip(out["batched"][0], out["loop"][0]):
        assert got.tobytes() == want.tobytes()
    assert out["batched"][1] == out["loop"][1]
    assert out["loop"][1].counts[("other", "allreduce")] == 1
