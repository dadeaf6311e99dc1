"""One fused reduction may mix library-built and shard-constructed
operands.

A vector constructed from per-rank shards is packed into the same flat
storage as every other, so the batched engine builds a ``(ranks, ...)``
stack group for each pair alike, inside one collective.  Result and
charges must equal the loop engine's.
"""

from __future__ import annotations

import numpy as np

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
    built_q = DistMultiVector.from_global(q, part, comm)
    built_v = DistMultiVector.from_global(v, part, comm)
    packed_v = DistMultiVector(
        part, comm, [np.array(v[part.local_slice(r)]) for r in range(RANKS)])
    assert packed_v.flat.tobytes() == built_v.flat.tobytes()
    return [(built_q, built_v), (packed_v, packed_v), (built_q, packed_v)]


def test_batched_equals_loop_on_mixed_pairs():
    out = {}
    for engine in ("loop", "batched"):
        comm = SimComm(generic_cpu(), RANKS, Tracer(), engine=engine)
        results = blas.block_dot_multi(fused_pairs(comm))
        out[engine] = (results, comm.tracer.snapshot())
    for got, want in zip(out["batched"][0], out["loop"][0]):
        assert got.tobytes() == want.tobytes()
    assert out["batched"][1] == out["loop"][1]
    assert out["loop"][1].counts[("other", "allreduce")] == 1
