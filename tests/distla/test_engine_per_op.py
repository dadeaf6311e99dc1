"""Loop-vs-batched engine equivalence, one costed BLAS op at a time.

``test_engine.py`` and ``test_engine_property.py`` run every op of
:mod:`repro.distla.blas` in one sequence; here each op runs alone, on
each partition shape, so that a broken kernel is named by the failing
case.  Per op and shape the two engines must return bit-identical
float64 values and charge identical modeled costs, and every op must
write through the operand's own float64 storage, never a copy of it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distla import blas
from repro.distla.multivector import DistMultiVector
from repro.obs.metrics import MetricsSnapshot
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer

KQ, KV = 5, 3

#: uniform (one run, a stack), ragged (two runs), one rank, more ranks
#: than rows (empty shards), explicit offsets (a run per rank, one empty)
PARTITIONS = {
    "uniform": lambda: Partition(96, 8),
    "ragged": lambda: Partition(101, 8),
    "one-rank": lambda: Partition(37, 1),
    "fewer-rows-than-ranks": lambda: Partition(5, 8),
    "offsets": lambda: Partition(40, 5, offsets=np.array([0, 9, 9, 22, 31,
                                                          40])),
}


def _block_dot(q, v, out, small, c):
    return [blas.block_dot(q, v)]


def _block_dot_multi(q, v, out, small, c):
    return blas.block_dot_multi([(q, v), (v, v), (q, q)])


def _dot_dd_dist(q, v, out, small, c):
    return list(blas.dot_dd_dist(q, v))


def _column_norms(q, v, out, small, c):
    return [blas.column_norms(q)]


def _block_update(q, v, out, small, c):
    blas.block_update(v, q, c["r_proj"])
    return []


def _trsm_inplace(q, v, out, small, c):
    blas.trsm_inplace(v, c["r_tri"])
    return []


def _scale_columns(q, v, out, small, c):
    blas.scale_columns(v, np.array([2.0, -1.0, 0.5]))
    return []


def _lincomb(q, v, out, small, c):
    blas.lincomb(out, [(2.0, v), (-1.0, v), (0.25, out)])
    return []


def _copy_into(q, v, out, small, c):
    blas.copy_into(out, v)
    return []


def _matvec_small(q, v, out, small, c):
    blas.matvec_small(v, c["coeffs"], small)
    return []


OPS = {f.__name__[1:]: f for f in (
    _block_dot, _block_dot_multi, _dot_dd_dist, _column_norms,
    _block_update, _trsm_inplace, _scale_columns, _lincomb, _copy_into,
    _matvec_small)}


def _operands(part: Partition, comm: SimComm, seed: int):
    """``(basis, out, small, q, v, consts)``: ``q`` and ``v`` are column
    views at nonzero offsets of ``basis``; ``out`` and ``small`` are
    whole multivectors; ``consts`` the replicated small matrices."""
    rng = np.random.default_rng(seed)
    n = part.n_global
    basis = DistMultiVector.from_global(
        rng.standard_normal((n, KQ + KV + 1)), part, comm)
    out = DistMultiVector.from_global(rng.standard_normal((n, KV)), part,
                                      comm)
    small = DistMultiVector.zeros(part, comm, 1)
    consts = {
        "r_proj": rng.standard_normal((KQ, KV)),
        "r_tri": np.triu(rng.standard_normal((KV, KV))) + 3.0 * np.eye(KV),
        "coeffs": rng.standard_normal((KV, 1)),
    }
    return (basis, out, small, basis.view_cols(slice(1, 1 + KQ)),
            basis.view_cols(slice(1 + KQ, 1 + KQ + KV)), consts)


def run_op(op: str, engine: str, part: Partition):
    """``op`` alone; returns ``(values, observed)``: the op's results and
    the operands it may write, and everything the tracer recorded."""
    tracer = Tracer()
    tracer.enable_spans()
    comm = SimComm(generic_cpu(), part.ranks, tracer, engine=engine)
    basis, out, small, q, v, consts = _operands(part, comm, 11)
    results = OPS[op](q, v, out, small, consts)
    values = [*results, basis.to_global(), out.to_global(),
              small.to_global()]
    observed = {
        "clock": tracer.clock,
        "by_kernel": dict(tracer.by_kernel),
        "counts": dict(tracer.counts),
        "payload_bytes": dict(tracer.payload_bytes),
        "metrics": MetricsSnapshot.of(tracer, tracer.spans, comm.machine,
                                      part.ranks).to_dict(),
    }
    return values, observed


@pytest.mark.parametrize("shape", PARTITIONS)
@pytest.mark.parametrize("op", OPS)
class TestEachOpOnEachPartition:
    def test_values_bit_identical(self, op, shape):
        part = PARTITIONS[shape]()
        loop, _ = run_op(op, "loop", part)
        batched, _ = run_op(op, "batched", part)
        assert len(batched) == len(loop)
        for got, want in zip(batched, loop):
            assert got.dtype == want.dtype == np.float64
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_charged_costs_identical(self, op, shape):
        part = PARTITIONS[shape]()
        _, loop = run_op(op, "loop", part)
        _, batched = run_op(op, "batched", part)
        assert batched == loop
        assert batched["clock"] > 0.0


@pytest.mark.parametrize("engine", ["loop", "batched"])
@pytest.mark.parametrize("op", OPS)
def test_writes_stay_in_the_float64_storage(op, engine):
    """Every operand keeps its float64 flat array through the op (the
    shards still alias it), and every reduction comes back float64."""
    part = Partition(101, 8)
    comm = SimComm(generic_cpu(), part.ranks, Tracer(), engine=engine)
    basis, out, small, q, v, consts = _operands(part, comm, 3)
    before = [(mv, mv.flat) for mv in (basis, out, small)]
    results = OPS[op](q, v, out, small, consts)
    for arr in results:
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
    for mv, flat in before:
        assert mv.flat is flat and flat.dtype == np.float64
        for shard in mv.shards:
            assert not shard.size or np.shares_memory(shard, flat)
