"""Host wall-time microbenchmarks of the library's hot kernels.

Unlike the artifact benches (which time *regenerating* a paper table),
these measure the real Python/NumPy execution speed of the core kernels —
the numbers a developer profiling this library cares about.

The ``test_block_dot`` / ``test_block_axpy`` / ``test_block_update`` /
``test_trsm`` benches run once per kernel-execution engine (``loop`` vs
``batched``) in the many-ranks strong-scaling regime where per-rank
Python dispatch dominates; ``scripts/compare_bench.py --check-speedup``
gates CI on the batched engine staying >= 1.5x faster on block_dot and
block_axpy.  The ``*_ragged`` twins of block_dot / block_update / trsm
run the same operands on a rank count that does not divide the row
count — the batched engine then works per run of equal-count ranks and
replays memoized per-rank charges — and CI gates their batched/loop
ratio, measured within the run, the same way; ``test_trsm_basis_view``
is the ragged trsm on the operand the solver hands it, a 5-column view
of a 61-column basis.  Each engine bench also
records the *modeled* seconds one call charges, so ``BENCH_kernels.json``
tracks modeled vs. wall time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distla import blas
from repro.distla.multivector import DistMultiVector
from repro.krylov.simulation import Simulation
from repro.matrices.stencil import laplace2d
from repro.matrices.synthetic import logscaled_matrix
from repro.ortho.backend import DistBackend, NumpyBackend
from repro.ortho.base import BlockDriver
from repro.ortho.bcgs_pip import BCGSPIP2Scheme, bcgs_pip_panel
from repro.ortho.cholqr import CholQR2
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer

N = 120_000
K = 30

#: Engine-comparison setting: the strong-scaling regime (many ranks,
#: small per-rank shards) where the paper's machines actually operate and
#: where per-rank Python dispatch is the bottleneck the batched engine
#: removes.
ENGINE_N = 8_192
ENGINE_RANKS = 64
#: The ragged twin: 8 ranks of 129 rows, then 56 of 128.
ENGINE_N_RAGGED = ENGINE_N + 8


@pytest.fixture
def dist_setup():
    comm = SimComm(generic_cpu(), 8, Tracer())
    part = Partition(N, 8)
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((N, K))
    # BCGS-PIP assumes an orthonormal prefix; orthonormalize columns 0..24
    q, _ = np.linalg.qr(arr[:, :25])
    arr[:, :25] = q
    basis = DistMultiVector.from_global(arr, part, comm)
    return comm, part, basis


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


def _bench_block_update(benchmark, setup):
    comm, part, basis = setup
    q = basis.view_cols(slice(0, 25))
    v = basis.view_cols(slice(25, 30))
    r = np.zeros((25, 5))
    _bench_engine(benchmark, comm,
                  lambda: blas.block_update(v, q, r))


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
def test_block_dot_fused(benchmark, engine_setup, engine):
    comm, part, basis = engine_setup
    q = basis.view_cols(slice(0, 25))
    v = basis.view_cols(slice(25, 30))
    _bench_engine(benchmark, comm,
                  lambda: blas.block_dot_multi([(q, v), (v, v)]))


@pytest.mark.parametrize("engine", ["loop", "batched"])
def test_block_axpy(benchmark, engine_setup, engine):
    comm, part, basis = engine_setup
    v = basis.view_cols(slice(25, 30))
    out = DistMultiVector.zeros(part, comm, 5)
    _bench_engine(benchmark, comm,
                  lambda: blas.lincomb(out, [(1.0, out), (-0.5, v)]))


@pytest.mark.parametrize("engine", ["loop", "batched"])
def test_block_update(benchmark, engine_setup, engine):
    _bench_block_update(benchmark, engine_setup)


@pytest.mark.parametrize("engine", ["loop", "batched"])
def test_block_update_ragged(benchmark, ragged_setup, engine):
    _bench_block_update(benchmark, ragged_setup)


@pytest.mark.parametrize("engine", ["loop", "batched"])
def test_trsm(benchmark, engine_setup, engine):
    _bench_trsm(benchmark, engine_setup)


@pytest.mark.parametrize("engine", ["loop", "batched"])
def test_trsm_ragged(benchmark, ragged_setup, engine):
    _bench_trsm(benchmark, ragged_setup)


@pytest.mark.parametrize("engine", ["loop", "batched"])
def test_trsm_basis_view(benchmark, engine):
    """The shape the solver runs: an s = 5 panel inside the
    ``n x (m + 1) = 61``-column basis, on the ragged partition."""
    _bench_trsm(benchmark, _engine_operands(ENGINE_N_RAGGED, engine, 61),
                cols=slice(30, 35))


def test_bcgs_pip_panel(benchmark, dist_setup):
    comm, part, basis = dist_setup
    backend = DistBackend(comm)
    work = basis.copy()

    def op():
        w = work.copy()
        return bcgs_pip_panel(backend, w, 25, 25, 30)

    benchmark(op)


def test_cholqr2_numpy(benchmark, rng=np.random.default_rng(1)):
    v = logscaled_matrix(N, 5, 1e4, rng)
    nb = NumpyBackend()
    benchmark(lambda: CholQR2().factor(nb, v.copy()))


def test_full_driver_pip2(benchmark):
    rng = np.random.default_rng(2)
    v = logscaled_matrix(40_000, 30, 1e4, rng)
    benchmark(lambda: BlockDriver(BCGSPIP2Scheme(), 5).run(v))


def test_full_driver_two_stage(benchmark):
    rng = np.random.default_rng(2)
    v = logscaled_matrix(40_000, 30, 1e4, rng)
    benchmark(lambda: BlockDriver(TwoStageScheme(big_step=30), 5).run(v))


def test_spmv_distributed(benchmark):
    sim = Simulation(laplace2d(120), ranks=8, machine=generic_cpu())
    x = sim.vector_from(np.random.default_rng(3).standard_normal(sim.n))
    out = sim.zeros(1)
    benchmark(lambda: sim.matrix.matvec(x, out=out))


def test_sstep_gmres_one_cycle(benchmark):
    from repro.krylov.sstep_gmres import sstep_gmres
    a = laplace2d(60)

    def solve():
        sim = Simulation(a, ranks=4, machine=generic_cpu())
        return sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=30,
                           tol=1e-30, maxiter=30)

    benchmark(solve)
