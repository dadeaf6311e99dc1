"""Loop vs batched engine over arbitrary partitions: bit for bit.

The batched engine computes on the flat ``(n, k)`` array behind each
operand — per-rank partials from one batched kernel per run of
equal-count ranks, row-local kernels tile by tile — and replays memoized
per-rank charges on ragged partitions.  The loop engine is the oracle:
every value, every modeled second and count, every collective payload
and every metrics total must come out identical, whatever the partition
(one rank, empty shards, fewer rows than columns, one / two / all
distinct runs) and the column offset of a view.
The same holds for the kernels above the BLAS layer that used to be
batched on uniform partitions only: the sketch of all four operator
families, the fused dot + sketch collective, and TSQR.

An engine is selected the one way there is: the communicator is bound
to it.
"""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distla import blas
from repro.distla.multivector import DistMultiVector
from repro.obs.metrics import MetricsSnapshot
from repro.ortho.backend import DistBackend, _sign_fix_qr
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer
from repro.sketch import make_operator, sketch_multivector


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


def observed_comm(engine, ranks, spans=True):
    """A communicator bound to ``engine``, spans recorded when asked;
    returns ``(comm, observe)`` where ``observe()`` is everything an
    engine may not change besides the values."""
    machine = generic_cpu()
    tracer = Tracer()
    if spans:
        tracer.enable_spans()
    comm = SimComm(machine, ranks, tracer, engine=engine)
    assert comm.engine == engine

    def observe() -> dict:
        return {
            "clock": tracer.clock,
            "by_kernel": dict(tracer.by_kernel),
            "counts": dict(tracer.counts),
            "payload_bytes": dict(tracer.payload_bytes),
            "metrics": MetricsSnapshot.of(tracer, tracer.spans, machine,
                                          ranks).to_dict(),
            "spans": [s.to_dict() for s in tracer.spans],
        }
    return comm, observe


def assert_same(batched: dict, loop: dict) -> None:
    """Values byte for byte (dtype included), everything else equal."""
    got, want = batched.pop("values"), loop.pop("values")
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert batched == loop


def run_every_blas_call(engine, part, seed, kq, kv, spans):
    """One of every ``repro.distla.blas`` function on column views at
    nonzero offsets; returns everything an engine may not change."""
    comm, observe = observed_comm(engine, part.ranks, spans)
    rng = np.random.default_rng(seed)
    n = part.n_global
    basis = DistMultiVector.from_global(
        rng.standard_normal((n, kq + kv + 2)), part, comm)
    q = basis.view_cols(slice(1, 1 + kq))
    v = basis.view_cols(slice(1 + kq, 1 + kq + kv))
    out = DistMultiVector.zeros(part, comm, kv)
    col = out.view_cols(kv - 1)
    r_proj = rng.standard_normal((kq, kv))
    r_tri = np.triu(rng.standard_normal((kv, kv))) + 3.0 * np.eye(kv)
    coeffs = rng.standard_normal((kq, 1))

    values = [blas.block_dot(q, v)]
    values += blas.block_dot_multi([(q, v), (v, v)])
    blas.block_update(v, q, r_proj)
    values += blas.dot_dd_dist(q, v)
    values.append(blas.column_norms(q))
    blas.trsm_inplace(v, r_tri)
    blas.scale_columns(v, rng.standard_normal(kv))
    blas.lincomb(out, [(2.0, v), (-0.5, v), (0.25, out)])
    values.append(out.to_global())
    blas.copy_into(out, v)
    blas.matvec_small(q, coeffs, col)
    values += [basis.to_global(), out.to_global()]
    return {"values": values, **observe()}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       kq=st.integers(1, 4), kv=st.integers(1, 4), spans=st.booleans())
def test_batched_equals_loop(data, n, seed, kq, kv, spans):
    part = data.draw(partitions(n))
    args = (part, seed, kq, kv, spans)
    assert_same(run_every_blas_call("batched", *args),
                run_every_blas_call("loop", *args))


@pytest.mark.parametrize("n, ranks", [(3969, 24), (2001, 7), (1728, 12)])
def test_batched_equals_loop_at_solver_shapes(n, ranks):
    """Shard heights and panel widths of the repo benchmark, where BLAS
    takes its blocked code paths and several tiles cover a kernel."""
    args = (Partition(n, ranks), 5, 30, 25, False)
    assert_same(run_every_blas_call("batched", *args),
                run_every_blas_call("loop", *args))


# ---------------------------------------------------------------------------
# above the BLAS layer: sketch, fused dot + sketch, TSQR
# ---------------------------------------------------------------------------

def run_sketch_kernels(engine, part, seed, k, family):
    """``sketch_multivector``, ``DistBackend.sketch`` and the fused dot +
    sketch collective on column views at a nonzero offset."""
    comm, observe = observed_comm(engine, part.ranks)
    n = part.n_global
    rng = np.random.default_rng(seed)
    basis = DistMultiVector.from_global(
        rng.standard_normal((n, k + 3)), part, comm)
    q, v = basis.view_cols(slice(1, 3)), basis.view_cols(slice(3, 3 + k))
    # SRHT samples without replacement from the padded length
    op = make_operator(family, n, min(12, 1 << max(0, (n - 1).bit_length())),
                       seed=seed)
    backend = DistBackend(comm)
    values = [sketch_multivector(v, op), backend.sketch(v, op)]
    dots, sketch = backend.fused_dots_sketch([(q, v), (v, v)], v, op)
    return {"values": [*values, *dots, sketch], **observe()}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       k=st.integers(1, 4),
       family=st.sampled_from(["sparse", "gaussian", "srht"]))
def test_sketch_batched_equals_loop(data, n, seed, k, family):
    args = (data.draw(partitions(n)), seed, k, family)
    assert_same(run_sketch_kernels("batched", *args),
                run_sketch_kernels("loop", *args))


def tsqr_per_rank(shards: list[np.ndarray], k: int):
    """TSQR one rank at a time — the formulation ``DistBackend.tsqr``
    (one batched QR and one batched GEMM per run of equal-count ranks,
    whatever the engine) is held to.  Returns ``(R, Q)``."""
    qs, rs = [], []
    for shard in shards:
        rows = shard.shape[0]
        padded = np.vstack([shard, np.zeros((max(0, k - rows), k))])
        q, r = np.linalg.qr(padded)
        qs.append(q[:rows])
        rs.append(r)

    def tree(rs):
        if len(rs) == 1:
            return rs[0], [np.eye(k)]
        half = (len(rs) + 1) // 2
        r_left, m_left = tree(rs[:half])
        r_right, m_right = tree(rs[half:])
        q, r = np.linalg.qr(np.vstack([r_left, r_right]))
        return r, ([m @ q[:k] for m in m_left] + [m @ q[k:] for m in m_right])

    r_final, coeffs = tree(rs)
    _, r_final, signs = _sign_fix_qr(None, np.triu(r_final))
    return r_final, np.concatenate(
        [q @ (m * signs) for q, m in zip(qs, coeffs)])


def run_tsqr(engine, part, arr):
    comm, observe = observed_comm(engine, part.ranks)
    basis = DistMultiVector.from_global(arr, part, comm)
    v = basis.view_cols(slice(1, arr.shape[1] - 1))
    reference = tsqr_per_rank([s.copy() for s in v.shards], v.n_cols)
    r = DistBackend(comm).tsqr(v)
    return {"values": [r, v.to_global()], **observe()}, reference


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       k=st.integers(1, 5))
def test_tsqr_batched_equals_loop_equals_per_rank(data, n, seed, k):
    part = data.draw(partitions(n))
    arr = np.random.default_rng(seed).standard_normal((n, k + 2))
    batched, reference = run_tsqr("batched", part, arr)
    for got, want in zip(batched["values"], reference):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert_same(batched, run_tsqr("loop", part, arr)[0])
