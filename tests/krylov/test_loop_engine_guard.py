"""The loop kernel bodies run if and only if the communicator says ``loop``.

``LoopEngine`` is the oracle behind ``engine="loop"`` and nothing else:
no storage form, partition shape, kernel or solver may fall back to it
under the default binding.  The ``loop_body_probe`` fixture puts a
``BatchedEngine`` in the registry whose every route to a loop body
raises; under it run the fourteen fixed-budget solves of
``test_restart_golden.py`` and, on uniform, default-ragged and
explicit-offset partitions, the kernels that used to be batched on
uniform partitions only — the sketch of every operator family, the fused
dot + sketch collective, TSQR — and one of every BLAS kernel over an
operand constructed from per-rank shards.  The converse holds too: a
simulation bound to ``"loop"`` reaches every one of those bodies.
"""

from __future__ import annotations

import numpy as np
import pytest
from test_restart_golden import CASES, NX  # same directory

from repro.distla import blas
from repro.distla.multivector import DistMultiVector
from repro.krylov.simulation import Simulation
from repro.matrices.stencil import laplace2d
from repro.ortho.backend import DistBackend
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer
from repro.sketch import make_operator, sketch_multivector

#: uniform, default ragged (two runs), explicit offsets (a run per rank,
#: one of them empty)
PARTITIONS = {
    "uniform": lambda: Partition(96, 8),
    "ragged": lambda: Partition(101, 8),
    "offsets": lambda: Partition(96, 5, offsets=np.array([0, 10, 10, 40, 70,
                                                          96])),
}


def run_kernels(comm, part) -> None:
    """Sketch (every family), fused dot + sketch, TSQR, and every BLAS
    kernel with an operand constructed from shards."""
    n = part.n_global
    rng = np.random.default_rng(0)
    basis = DistMultiVector.from_global(rng.standard_normal((n, 6)), part,
                                        comm)
    q, v = basis.view_cols(slice(0, 2)), basis.view_cols(slice(2, 5))
    backend = DistBackend(comm)
    for family in ("sparse", "gaussian", "srht"):
        op = make_operator(family, n, 16, seed=1)
        sketch_multivector(v, op)
        backend.fused_dots_sketch([(q, v)], v, op)
    backend.tsqr(v)

    packed = DistMultiVector(part, comm, [np.array(s) for s in v.shards])
    column = DistMultiVector(part, comm, [np.zeros((rows, 1))
                                          for rows in part.counts.tolist()])
    blas.block_dot(packed, v)
    blas.block_dot_multi([(packed, packed), (q, packed)])
    blas.column_norms(packed)
    blas.block_update(packed, q, np.ones((2, 3)))
    blas.trsm_inplace(packed, np.triu(np.ones((3, 3))) + 2.0 * np.eye(3))
    blas.scale_columns(packed, np.full(3, 0.5))
    blas.lincomb(packed, [(1.0, v), (2.0, packed)])
    blas.copy_into(packed, v)
    blas.matvec_small(packed, np.ones((3, 1)), column)


@pytest.mark.parametrize("ranks", [4, 3], ids=["uniform", "ragged"])
@pytest.mark.parametrize("name", list(CASES))
def test_no_solver_reaches_a_loop_body(loop_body_probe, name, ranks):
    entered = loop_body_probe("batched")
    sim = Simulation(laplace2d(NX), ranks=ranks, machine=generic_cpu())
    assert sim.comm.engine == "batched"
    assert sim.partition.is_uniform == (ranks == 4)
    CASES[name](sim, sim.ones_solution_rhs())
    assert entered == []


@pytest.mark.parametrize("shape", PARTITIONS)
def test_no_kernel_reaches_a_loop_body(loop_body_probe, shape):
    entered = loop_body_probe("batched")
    part = PARTITIONS[shape]()
    run_kernels(SimComm(generic_cpu(), part.ranks, Tracer()), part)
    assert entered == []


def test_a_loop_bound_simulation_reaches_every_body(loop_body_probe):
    entered = loop_body_probe("loop")
    sim = Simulation(laplace2d(NX), ranks=3, machine=generic_cpu(),
                     engine="loop")
    CASES["sstep-sketched"](sim, sim.ones_solution_rhs())
    assert {"_dot_partials", "_sketch_partials", "block_update",
            "trsm_inplace"} <= set(entered)
    run_kernels(sim.comm, sim.partition)
    assert set(entered) == set(loop_body_probe.bodies)


@pytest.mark.parametrize("shape", PARTITIONS)
@pytest.mark.parametrize("engine", ["loop", "batched"])
def test_tsqr_factors_one_stack_per_run(monkeypatch, engine, shape):
    """TSQR is not an engine kernel, so no probe sees it: its leaves are
    one batched QR per run of equal-count ranks under either binding,
    never one per rank — counted at ``np.linalg.qr``."""
    part = PARTITIONS[shape]()
    comm = SimComm(generic_cpu(), part.ranks, Tracer(), engine=engine)
    v = DistMultiVector.from_global(
        np.random.default_rng(1).standard_normal((part.n_global, 3)),
        part, comm)
    calls, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr",
                        lambda a: calls.append(a.shape) or qr(a))
    DistBackend(comm).tsqr(v)
    leaves = [shape for shape in calls if len(shape) == 3]
    assert [s[0] for s in leaves] == [run[0] for run in part.runs]
    assert len(calls) - len(leaves) == part.ranks - 1  # the tree's nodes
