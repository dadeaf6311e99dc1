"""Loop-vs-batched engine ratios of the hot dense kernels, and the
stage-2 triangular solve against the Gram product.

Every engine bench here runs once per kernel-execution engine (``loop``
vs ``batched``) in the many-ranks strong-scaling regime where per-rank
Python dispatch dominates, and exists because
``scripts/compare_bench.py --check-speedup`` in CI's bench-smoke job
names it: the batched engine must stay >= 1.5x faster on
``test_block_dot`` and ``test_block_axpy``.  The ``*_ragged`` benches of
block_dot / block_update / trsm run the same operands on a rank count
that does not divide the row count — the batched engine then works per
run of equal-count ranks and replays memoized per-rank charges — and CI
gates their batched/loop ratio the same way; ``test_trsm_basis_view`` is
the ragged trsm on the operand the solver hands it, a 5-column view of a
61-column basis.

``test_trsm_stage2`` gates, in-run, the solve the two-stage scheme
delays to its second stage: ``trsm_inplace`` of a ``(40000, 61)`` panel
on 24 ranks may cost the host at most ``TRSM_OVER_GRAM_GATE`` times the
Gram product ``block_dot(v, v)`` of the same panel, both min of
interleaved rounds.  A dtrsm per rank does half the Gram's flops; on a
2-core x86 container it measured 1.5-1.7 Gram products, the
column-blocked substitution with per-rank GEMMs it replaced 3.1-3.4.

Both legs of a ratio come from one run on one machine; absolute host
seconds are ``perf/run.py``'s job, not this file's.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.distla import blas
from repro.distla.multivector import DistMultiVector
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer

K = 30

#: Engine-comparison setting: the strong-scaling regime (many ranks,
#: small per-rank shards) where the paper's machines actually operate and
#: where per-rank Python dispatch is the bottleneck the batched engine
#: removes.
ENGINE_N = 8_192
ENGINE_RANKS = 64
#: The ragged twin: 8 ranks of 129 rows, then 56 of 128.
ENGINE_N_RAGGED = ENGINE_N + 8
#: The stage-2 panel of the repo benchmark's ``laplace2d_two_stage``:
#: 200^2 rows on 24 ranks, ``m + 1 = 61`` columns.
STAGE2_N, STAGE2_RANKS, STAGE2_K = 40_000, 24, 61
TRSM_OVER_GRAM_GATE = 2.5


def _engine_operands(n, engine, k=K):
    comm = SimComm(generic_cpu(), ENGINE_RANKS, Tracer(), engine=engine)
    part = Partition(n, ENGINE_RANKS)
    rng = np.random.default_rng(0)
    basis = DistMultiVector.from_global(
        rng.standard_normal((n, k)), part, comm)
    return comm, part, basis


@pytest.fixture
def engine_setup(engine):
    """Strong-scaling operands for the engine comparison benches, on a
    communicator bound to the bench's ``engine`` parameter."""
    return _engine_operands(ENGINE_N, engine)


@pytest.fixture
def ragged_setup(engine):
    """The same operands on a partition the rank count does not divide."""
    assert ENGINE_N_RAGGED % ENGINE_RANKS
    return _engine_operands(ENGINE_N_RAGGED, engine)


def _bench_engine(benchmark, comm, op):
    """Benchmark ``op`` on ``comm``'s engine, recording modeled seconds
    too."""
    before = comm.tracer.clock
    op()
    benchmark.extra_info["engine"] = comm.engine
    benchmark.extra_info["ranks"] = ENGINE_RANKS
    benchmark.extra_info["modeled_seconds"] = comm.tracer.clock - before
    benchmark(op)


def _bench_block_dot(benchmark, setup):
    comm, part, basis = setup
    q = basis.view_cols(slice(0, 25))
    v = basis.view_cols(slice(25, 30))
    _bench_engine(benchmark, comm, lambda: blas.block_dot(q, v))


def _bench_trsm(benchmark, setup, cols=slice(25, 30)):
    comm, part, basis = setup
    v = basis.view_cols(cols)
    # Identity R: full dtrsm work, but iterating the bench cannot drift v
    # into denormals/overflow and skew the timing.
    r = np.eye(5)
    _bench_engine(benchmark, comm, lambda: blas.trsm_inplace(v, r))


@pytest.mark.parametrize("engine", ["loop", "batched"])
def test_block_dot(benchmark, engine_setup, engine):
    _bench_block_dot(benchmark, engine_setup)


@pytest.mark.parametrize("engine", ["loop", "batched"])
def test_block_dot_ragged(benchmark, ragged_setup, engine):
    _bench_block_dot(benchmark, ragged_setup)


@pytest.mark.parametrize("engine", ["loop", "batched"])
def test_block_axpy(benchmark, engine_setup, engine):
    comm, part, basis = engine_setup
    v = basis.view_cols(slice(25, 30))
    out = DistMultiVector.zeros(part, comm, 5)
    _bench_engine(benchmark, comm,
                  lambda: blas.lincomb(out, [(1.0, out), (-0.5, v)]))


@pytest.mark.parametrize("engine", ["loop", "batched"])
def test_block_update_ragged(benchmark, ragged_setup, engine):
    comm, part, basis = ragged_setup
    q = basis.view_cols(slice(0, 25))
    v = basis.view_cols(slice(25, 30))
    r = np.zeros((25, 5))
    _bench_engine(benchmark, comm,
                  lambda: blas.block_update(v, q, r))


@pytest.mark.parametrize("engine", ["loop", "batched"])
def test_trsm_ragged(benchmark, ragged_setup, engine):
    _bench_trsm(benchmark, ragged_setup)


@pytest.mark.parametrize("engine", ["loop", "batched"])
def test_trsm_basis_view(benchmark, engine):
    """The shape the solver runs: an s = 5 panel inside the
    ``n x (m + 1) = 61``-column basis, on the ragged partition."""
    _bench_trsm(benchmark, _engine_operands(ENGINE_N_RAGGED, engine, 61),
                cols=slice(30, 35))


def _best_seconds(ops, rounds=15):
    """Min-of-rounds wall clock per op, the ops interleaved."""
    best = dict.fromkeys(ops, float("inf"))
    for _ in range(rounds):
        for name, op in ops.items():
            t0 = time.perf_counter()
            op()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def test_trsm_stage2(benchmark, check):
    """The stage-2 solve on the batched engine, gated against the Gram
    product of the same panel."""
    comm = SimComm(generic_cpu(), STAGE2_RANKS, Tracer())
    v = DistMultiVector.from_global(
        np.random.default_rng(0).standard_normal((STAGE2_N, STAGE2_K)),
        Partition(STAGE2_N, STAGE2_RANKS), comm)
    r = np.eye(STAGE2_K)  # as _bench_trsm: iterating cannot drift v
    ops = {"trsm": lambda: blas.trsm_inplace(v, r),
           "gram": lambda: blas.block_dot(v, v)}
    best = _best_seconds(ops)
    ratio = best["trsm"] / best["gram"]
    check(ratio <= TRSM_OVER_GRAM_GATE,
          f"a stage-2 trsm costs the host {ratio:.2f} Gram products of "
          f"its panel (gate {TRSM_OVER_GRAM_GATE})")
    benchmark.extra_info.update(
        engine=comm.engine, ranks=STAGE2_RANKS, n=STAGE2_N, k=STAGE2_K,
        host_ratio_trsm_over_gram=ratio)
    benchmark(ops["trsm"])
