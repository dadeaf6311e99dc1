"""One local-kernel price table.

Every op of ``LOCAL_OPS`` charges the same record whether its formula is
evaluated per shard (the loop engine's ``charge_shards``) or once per
run of equal-count ranks (``charge_rows``): seconds, flops and memory
bytes, exactly.  On a uniform partition the paper-scale estimator,
pricing the op over ``nl = ceil(n / ranks)`` rows, charges the same
seconds bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.distla.engine import charge_rows, charge_shards
from repro.distla.multivector import DistMultiVector
from repro.experiments.estimator import CycleCostEstimator, ProblemShape
from repro.parallel.communicator import SimComm
from repro.parallel.costmodel import LOCAL_OPS
from repro.parallel.machine import summit
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer
from repro.precision.dtypes import word_bytes

N = 150
RANKS = 6
#: the args between ``rows`` and the word size, per table op
ARGS = {"dot": (3, 2), "dot_dd": (4, 4), "norm": (3,), "update": (5, 3),
        "matvec": (6, 1), "trsm": (5,), "scale": (3, 2), "axpy": (2, 3)}
PARTITIONS = {
    "uniform": lambda: Partition(N, RANKS),
    # two runs of equal-count ranks, one empty rank
    "ragged": lambda: Partition(N, RANKS, offsets=np.array(
        [0, 40, 80, 80, 110, 130, 150])),
}


def test_every_table_op_has_a_case():
    assert set(ARGS) == set(LOCAL_OPS)


def charged(charge, partition: Partition, op: str, storage: str):
    """The tracer row, flops and bytes one ``charge`` of ``op`` leaves."""
    comm = SimComm(summit(), RANKS, Tracer())
    mv = DistMultiVector.zeros(partition, comm, 3, storage=storage)
    charge(mv, op, *ARGS[op], mv.word_bytes)
    tracer = comm.tracer
    return dict(tracer.by_kernel), dict(tracer.flops), dict(tracer.mem_bytes)


@pytest.mark.parametrize("storage", ["fp64", "fp32"])
@pytest.mark.parametrize("shape", sorted(PARTITIONS))
@pytest.mark.parametrize("op", sorted(LOCAL_OPS))
def test_per_shard_and_per_run_records_agree(op, shape, storage):
    partition = PARTITIONS[shape]()
    assert partition.is_uniform == (shape == "uniform")
    per_shard = charged(charge_shards, partition, op, storage)
    per_run = charged(charge_rows, partition, op, storage)
    assert per_run == per_shard
    (row, seconds), = per_run[0].items()
    assert row[1] == LOCAL_OPS[op][0]
    assert seconds > 0 and per_run[1][row] > 0 and per_run[2][row] > 0
    if shape == "uniform":
        est = CycleCostEstimator(
            summit(), RANKS, ProblemShape(n=N, nnz=5.0 * N, halo_cols=10.0),
            m=5, s=5)
        assert est.nl == math.ceil(N / RANKS) == partition.counts[0]
        op_args = (op, *ARGS[op], word_bytes(storage))
        assert est._block(row[0], (op_args,)) == ((row, seconds, 1),)
