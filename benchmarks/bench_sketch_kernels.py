"""Wall-time microbenchmarks of the random-sketching subsystem.

Emits the ``BENCH_sketch.json`` artifact (see ``conftest.py``'s alias
map).  Three groups:

* ``test_sketch_apply`` — the distributed shard-local sketch under both
  kernel engines and all three operator families, in the many-ranks
  strong-scaling regime of ``bench_kernels.py``; each bench records the
  *modeled* seconds one application charges, which must be identical
  across engines (the cost-equivalence invariant).
  ``test_sketch_apply_ragged`` is the same sketch on a rank count that
  does not divide the row count, where the batched engine works per run
  of equal-count ranks.  No ``--check-speedup`` gate rides on either:
  the operator's own kernel dominates a sketch, and the measured
  loop / batched ratio (min of rounds, 64 ranks) is 1.1x for the sparse
  family and 0.9x for gaussian and srht on the ragged leg — the batched
  path is there to keep the loop bodies out of the default engine, not
  for speed.
* ``test_sketched_cholqr`` — the randomized intra-block factorization
  on the distributed backend.
* ``test_driver_*`` — full :class:`BlockDriver` runs of the randomized
  inter-block schemes at a condition number (1e12) where the classical
  two-stage scheme breaks down, asserting the stability claim the
  subsystem exists for while timing it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distla.multivector import DistMultiVector
from repro.matrices.synthetic import logscaled_matrix
from repro.ortho import get_intra_qr, get_scheme
from repro.ortho.analysis import orthogonality_error
from repro.ortho.backend import DistBackend
from repro.ortho.base import BlockDriver
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer
from repro.sketch import make_operator, sketch_multivector, sketch_rows

#: Strong-scaling regime of the engine benches in ``bench_kernels.py``.
ENGINE_N = 8_192
ENGINE_RANKS = 64
#: The ragged twin: 8 ranks of 129 rows, then 56 of 128.
ENGINE_N_RAGGED = ENGINE_N + 8
K = 30


def _bench_sketch_apply(benchmark, engine, family, n):
    """One sketch of an ``(n, K)`` basis on a communicator bound to
    ``engine``, recording the modeled seconds it charges."""
    comm = SimComm(generic_cpu(), ENGINE_RANKS, Tracer(), engine=engine)
    basis = DistMultiVector.from_global(
        np.random.default_rng(0).standard_normal((n, K)),
        Partition(n, ENGINE_RANKS), comm)
    m = sketch_rows(K, n, family=family)
    op = make_operator(family, n, m, seed=0xC0FFEE)
    before = comm.tracer.clock
    sketch_multivector(basis, op)
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["family"] = family
    benchmark.extra_info["ranks"] = ENGINE_RANKS
    benchmark.extra_info["m_rows"] = m
    benchmark.extra_info["modeled_seconds"] = comm.tracer.clock - before
    benchmark(lambda: sketch_multivector(basis, op))


@pytest.mark.parametrize("engine", ["loop", "batched"])
@pytest.mark.parametrize("family", ["sparse", "gaussian", "srht"])
def test_sketch_apply(benchmark, engine, family):
    _bench_sketch_apply(benchmark, engine, family, ENGINE_N)


@pytest.mark.parametrize("engine", ["loop", "batched"])
@pytest.mark.parametrize("family", ["sparse", "gaussian", "srht"])
def test_sketch_apply_ragged(benchmark, engine, family):
    """The same sketch on a partition the rank count does not divide:
    the batched engine works per run of equal-count ranks."""
    assert ENGINE_N_RAGGED % ENGINE_RANKS
    _bench_sketch_apply(benchmark, engine, family, ENGINE_N_RAGGED)


def test_sketched_cholqr(benchmark):
    comm = SimComm(generic_cpu(), 8, Tracer())
    part = Partition(120_000, 8)
    rng = np.random.default_rng(1)
    v = logscaled_matrix(120_000, 5, 1e10, rng)
    dv = DistMultiVector.from_global(v, part, comm)
    kernel = get_intra_qr("sketched_cholqr")()
    backend = DistBackend(comm)
    work = dv.copy()

    def op():
        w = work.copy()
        return kernel.factor(backend, w)

    benchmark(op)


def _driver_bench(benchmark, check, scheme_name, **scheme_kw):
    rng = np.random.default_rng(2)
    v = logscaled_matrix(40_000, K, 1e12, rng)
    scheme = get_scheme(scheme_name)(**scheme_kw)
    result = BlockDriver(scheme, 5).run(v)
    check(orthogonality_error(result.q) < 1e-11,
          f"{scheme_name} must stay O(eps)-orthogonal at kappa=1e12, "
          f"past the classical Pythagorean-Cholesky cliff")
    benchmark(lambda: BlockDriver(scheme, 5).run(v))


def test_driver_rbcgs(benchmark, check):
    _driver_bench(benchmark, check, "rbcgs")


def test_driver_sketched_two_stage(benchmark, check):
    _driver_bench(benchmark, check, "sketched-two-stage", big_step=K)
