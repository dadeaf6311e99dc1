"""Loop vs batched engine over arbitrary partitions: bit for bit.

The batched engine computes on the flat ``(n, k)`` array behind each
operand — per-rank partials from one batched kernel per run of
equal-count ranks, row-local kernels tile by tile — and replays memoized
per-rank charges on ragged partitions.  The loop engine is the oracle:
every value, every modeled second and count, every collective payload
and every metrics total must come out identical, whatever the partition
(one rank, empty shards, fewer rows than columns, one / two / all
distinct runs), the storage precision and the column offset of a view.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distla import blas
from repro.distla.multivector import DistMultiVector
from repro.obs.metrics import MetricsRegistry
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer


@st.composite
def partitions(draw, n: int) -> Partition:
    """Default balanced splits (one run when ``ranks | n``, else two;
    ``ranks > n`` leaves empty shards) or explicit cut points (repeats
    give empty shards, distinct gaps one run per rank)."""
    if draw(st.booleans()):
        return Partition(n, draw(st.integers(1, 9)))
    ranks = draw(st.integers(1, 7))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=ranks - 1,
                                max_size=ranks - 1)))
    return Partition(n, ranks, offsets=np.array([0, *cuts, n]))


def run_every_blas_call(engine, part, seed, storage, accumulate, kq, kv,
                        spans):
    """One of every ``repro.distla.blas`` function on column views at
    nonzero offsets; returns everything an engine may not change."""
    machine = generic_cpu()
    tracer = Tracer()
    if spans:
        tracer.enable_spans()
    comm = SimComm(machine, part.ranks, tracer)
    registry = MetricsRegistry(machine, part.ranks)
    tracer.attach_metrics(registry)
    comm.cost = replace(comm.cost, metrics=registry)

    rng = np.random.default_rng(seed)
    n = part.n_global
    basis = DistMultiVector.from_global(
        rng.standard_normal((n, kq + kv + 2)), part, comm, storage=storage,
        accumulate=accumulate)
    q = basis.view_cols(slice(1, 1 + kq))
    v = basis.view_cols(slice(1 + kq, 1 + kq + kv))
    out = DistMultiVector.zeros(part, comm, kv, storage=storage,
                                accumulate=accumulate)
    col = out.view_cols(kv - 1)
    r_proj = rng.standard_normal((kq, kv))
    r_tri = np.triu(rng.standard_normal((kv, kv))) + 3.0 * np.eye(kv)
    coeffs = rng.standard_normal((kq, 1))

    values = [blas.block_dot(q, v, engine=engine)]
    values += blas.block_dot_multi([(q, v), (v, v)], engine=engine)
    request = blas.post_block_dot_multi([(v, q), (q, q)], engine=engine)
    blas.block_update(v, q, r_proj, engine=engine)  # inside the window
    values += comm.wait(request)
    values += blas.dot_dd_dist(q, v)
    values.append(blas.column_norms(q, engine=engine))
    blas.trsm_inplace(v, r_tri, engine=engine)
    blas.scale_columns(v, rng.standard_normal(kv), engine=engine)
    blas.lincomb(out, [(2.0, v), (-0.5, v), (0.25, out)], engine=engine)
    values.append(out.to_global())
    blas.copy_into(out, v, engine=engine)
    blas.matvec_small(q, coeffs, col, engine=engine)
    values += [basis.to_global(), out.to_global()]
    return {
        "values": values,
        "clock": tracer.clock,
        "by_kernel": dict(tracer.by_kernel),
        "counts": dict(tracer.counts),
        "payload_bytes": dict(tracer.payload_bytes),
        "metrics": registry.snapshot().to_dict(),
        "spans": [s.to_dict() for s in tracer.spans],
    }


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       storage=st.sampled_from(["fp64", "fp32", "bf16"]),
       accumulate=st.sampled_from(["fp64", "fp32"]),
       kq=st.integers(1, 4), kv=st.integers(1, 4), spans=st.booleans())
def test_batched_equals_loop(data, n, seed, storage, accumulate, kq, kv,
                             spans):
    part = data.draw(partitions(n))
    args = (part, seed, storage, accumulate, kq, kv, spans)
    loop = run_every_blas_call("loop", *args)
    batched = run_every_blas_call("batched", *args)
    assert len(batched["values"]) == len(loop["values"])
    for got, want in zip(batched.pop("values"), loop.pop("values")):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert batched == loop


@pytest.mark.parametrize("n, ranks", [(3969, 24), (2001, 7), (1728, 12)])
@pytest.mark.parametrize("storage", ["fp64", "fp32"])
def test_batched_equals_loop_at_solver_shapes(n, ranks, storage):
    """Shard heights and panel widths of the repo benchmark, where BLAS
    takes its blocked code paths and several tiles cover a kernel."""
    args = (Partition(n, ranks), 5, storage, "fp64", 30, 25, False)
    loop = run_every_blas_call("loop", *args)
    batched = run_every_blas_call("batched", *args)
    for got, want in zip(batched.pop("values"), loop.pop("values")):
        np.testing.assert_array_equal(got, want)
    assert batched == loop
