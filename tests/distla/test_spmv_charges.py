"""What one SpMV charges, and how many Python calls it takes to charge it.

``DistSparseMatrix.matvec`` evaluates its per-rank ``spmv_local`` costs
and its halo exchange's cost once and replays them.  These tests hold
the replay to the evaluation:

* the modeled charge stream of one ``sstep_gmres`` restart cycle, event
  by event, and the tracer's flop/byte columns, against values recorded
  with the per-rank loop that evaluated every cost on every call;
* the memo keys: repeated calls and alternating vector counts on one
  matrix charge what a fresh matrix charges;
* the point of it all: a warm ``matvec`` makes as many Python-level
  calls on 192 ranks as on 8.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from repro.distla.multivector import DistMultiVector
from repro.distla.spmatrix import DistSparseMatrix
from repro.exceptions import CommunicatorError, ShapeError
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu, summit
from repro.parallel.partition import Partition

ENGINES = ["loop", "batched"]

# One restart cycle (s=5, restart=maxiter=30, tol unreachable) of the
# default two-stage solve, recorded at the commit before the rank-fused
# SpMV.  ``digest`` is the sha256 of the kernel-span stream
# ``(phase, kernel, t0.hex(), t1.hex(), count, payload_bytes)``; the
# other fields repeat parts of it in readable form.  Charges are plain
# Python float arithmetic on fixed shapes, so the values do not depend
# on the machine, the BLAS or the engine.  An intentional change to a
# charge updates the numbers here in the same commit and says why.
GOLDEN = {
    "4 ranks": dict(
        nx=16, ranks=4, machine=generic_cpu, events=160,
        clock=8.690330375350137e-05,
        digest="719d46e607af81cdfadfe256f3d50fb6"
               "873b39c67d30b301cf19aa648c6069b6",
        # (modeled seconds, count, payload bytes)
        halo=(3.139679999999997e-05, 31, 7936.0),
        spmv_local=(8.127105882352935e-06, 31, 0.0),
        flops={
            ("ortho", "axpy"): 512.0, ("ortho", "dot"): 574464.0,
            ("ortho", "host"): 56970.666666666664,
            ("ortho", "scale"): 512.0, ("ortho", "trsm"): 82432.0,
            ("ortho", "update"): 409600.0, ("other", "axpy"): 1024.0,
            ("other", "host"): 882000.0, ("other", "norm"): 512.0,
            ("other", "update"): 15360.0,
            ("spmv", "spmv_local"): 75392.0},
        mem_bytes={
            ("ortho", "axpy"): 4096.0, ("ortho", "dot"): 719936.0,
            ("ortho", "host"): 0.0, ("ortho", "scale"): 4096.0,
            ("ortho", "trsm"): 259104.0, ("ortho", "update"): 558080.0,
            ("other", "axpy"): 12288.0, ("other", "host"): 0.0,
            ("other", "norm"): 2048.0, ("other", "update"): 64448.0,
            ("spmv", "spmv_local"): 635376.0}),
    "192 ranks": dict(
        nx=48, ranks=192, machine=summit, events=160,
        clock=0.01373087466512535,
        digest="5fba26c85a5de02bac94a012285d09c9"
               "9961a31eeb339a53bd7edc35fd63b07c",
        halo=(0.002015486079999999, 31, 6448.0),
        spmv_local=(0.007998224271604935, 31, 0.0),
        flops={
            ("ortho", "axpy"): 4608.0, ("ortho", "dot"): 5170176.0,
            ("ortho", "host"): 2734592.0, ("ortho", "scale"): 4608.0,
            ("ortho", "trsm"): 741888.0, ("ortho", "update"): 3686400.0,
            ("other", "axpy"): 9216.0, ("other", "host"): 42336000.0,
            ("other", "norm"): 4608.0, ("other", "update"): 138240.0,
            ("spmv", "spmv_local"): 702336.0},
        mem_bytes={
            ("ortho", "axpy"): 36864.0, ("ortho", "dot"): 7879680.0,
            ("ortho", "host"): 0.0, ("ortho", "scale"): 36864.0,
            ("ortho", "trsm"): 2532864.0, ("ortho", "update"): 6021120.0,
            ("other", "axpy"): 110592.0, ("other", "host"): 0.0,
            ("other", "norm"): 18432.0, ("other", "update"): 617472.0,
            ("spmv", "spmv_local"): 6856704.0}),
}


def one_cycle(gold: dict, engine: str, metrics: bool) -> Simulation:
    sim = Simulation(laplace2d(gold["nx"]), ranks=gold["ranks"],
                     machine=gold["machine"](), engine=engine,
                     metrics=metrics)
    sim.tracer.enable_spans()
    res = sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=30,
                      tol=1e-30, maxiter=30)
    assert res.restarts == 1
    return sim


def charge_stream(sim: Simulation) -> list[tuple]:
    return [(s.phase, s.name, s.t0.hex(), s.t1.hex(), s.count,
             s.payload_bytes)
            for s in sim.tracer.spans if s.cat == "kernel"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("grid", list(GOLDEN))
class TestGoldenCharges:
    def test_event_stream(self, grid, engine):
        gold = GOLDEN[grid]
        sim = one_cycle(gold, engine, metrics=False)
        tracer = sim.tracer
        for kernel in ("halo", "spmv_local"):
            key = ("spmv", kernel)
            assert (tracer.by_kernel[key], tracer.counts[key],
                    tracer.payload_bytes[key]) == gold[kernel], kernel
        stream = charge_stream(sim)
        assert len(stream) == gold["events"]
        assert tracer.clock == gold["clock"]
        digest = hashlib.sha256(
            "\n".join(map(repr, stream)).encode()).hexdigest()
        assert digest == gold["digest"]

    @pytest.mark.parametrize("metrics", [False, True])
    def test_flop_and_byte_columns(self, grid, engine, metrics):
        gold = GOLDEN[grid]
        sim = one_cycle(gold, engine, metrics=metrics)
        # a registry moves no charge ...
        assert sim.tracer.clock == gold["clock"]
        # ... and the kept records land where the evaluated shapes did,
        # whether or not anyone asked for metrics
        assert sim.tracer.flops == gold["flops"]
        assert sim.tracer.mem_bytes == gold["mem_bytes"]


# ----------------------------------------------------------------------
class TestMemoKeys:
    """Each call charges what a fresh evaluation charges."""

    N, RANKS = 120, 6

    def _operand(self, part, comm):
        x = np.linspace(-1.0, 1.0, self.N)
        return DistMultiVector.from_global(x, part, comm)

    @pytest.mark.parametrize("partition", [
        Partition(120, 6),
        Partition(120, 6, offsets=np.array([0, 7, 7, 50, 51, 119, 120]))],
        ids=["uniform", "ragged"])
    def test_repeated_calls_charge_like_fresh_matrices(self, partition):
        a = _banded(self.N)

        def run(matrix_for_call):
            comm = SimComm(summit(), self.RANKS)
            seen = []
            for _ in range(4):
                out = DistMultiVector.zeros(partition, comm, 1)
                with comm.tracer.phase("spmv"):
                    matrix_for_call(comm).matvec(
                        self._operand(partition, comm), out=out)
                seen.append(comm.tracer.to_dict())
            return seen

        shared: list[DistSparseMatrix] = []

        def one_matrix(comm):
            if not shared:
                shared.append(DistSparseMatrix(a, partition, comm))
            return shared[0]

        assert run(one_matrix) == run(
            lambda comm: DistSparseMatrix(a, partition, comm))

    def test_vector_counts_keep_separate_descriptors(self):
        part = Partition(self.N, self.RANKS)
        da = DistSparseMatrix(_banded(self.N), part,
                              SimComm(summit(), self.RANKS))
        plan = da.halo
        calls = [1, 2, 2, 1, 1, 2]
        shared, fresh = SimComm(summit(), self.RANKS), \
            SimComm(summit(), self.RANKS)
        for n_vectors in calls:
            shared.charge_halo(plan.recv_bytes(n_vectors))
            # plain lists carry no memo: evaluated on every call
            fresh.charge_halo([dict(d) for d in plan.recv_bytes(n_vectors)])
            assert shared.tracer.clock == fresh.tracer.clock
            assert (shared.tracer.payload_bytes
                    == fresh.tracer.payload_bytes)
        for n_vectors in calls:
            for by_peer, counts in zip(plan.recv_bytes(n_vectors),
                                       plan.recv_counts_by_peer):
                assert by_peer == {p: c * 8.0 * n_vectors
                                   for p, c in counts.items()}

    def test_one_plan_on_two_machines(self):
        """The remembered halo cost is per machine: a plan charged on
        Summit first still charges a generic CPU its own seconds."""
        part = Partition(self.N, self.RANKS)
        plan = DistSparseMatrix(_banded(self.N), part,
                                SimComm(summit(), self.RANKS)).halo
        recv = plan.recv_bytes()
        for machine in (summit(), generic_cpu(), summit()):
            shared, fresh = SimComm(machine, self.RANKS), \
                SimComm(machine, self.RANKS)
            shared.charge_halo(recv)
            fresh.charge_halo([dict(d) for d in recv])
            assert shared.tracer.clock == fresh.tracer.clock
            shared.charge_halo(recv)
            fresh.charge_halo([dict(d) for d in recv])
            assert shared.tracer.clock == fresh.tracer.clock

    def test_descriptor_count_is_checked_on_every_call(self):
        part = Partition(self.N, self.RANKS)
        plan = DistSparseMatrix(_banded(self.N), part,
                                SimComm(summit(), self.RANKS)).halo
        recv = plan.recv_bytes()
        SimComm(summit(), self.RANKS).charge_halo(recv)
        with pytest.raises(CommunicatorError):
            SimComm(summit(), self.RANKS + 1).charge_halo(recv)


def _banded(n: int):
    """Pentadiagonal-plus-far-band matrix: every rank of a 6-way split
    of 120 rows has neighbours on both sides and one distant peer."""
    bands = [-37, -2, -1, 0, 1, 2, 37]
    return sp.diags([np.full(n - abs(k), 1.0 + 0.1 * k) for k in bands],
                    bands).tocsr()


# ----------------------------------------------------------------------
class TestShardValidation:
    """Views and copies of a validated vector skip the per-shard check;
    shards handed in by a caller do not."""

    def test_mis_shaped_shard_rejected(self, comm4):
        part = Partition(12, 4)
        shards = [np.zeros((3, 2)) for _ in range(4)]
        shards[2] = np.zeros((4, 2))
        with pytest.raises(ShapeError, match="shard 2"):
            DistMultiVector(part, comm4, shards)

    def test_mismatched_column_count_rejected(self, comm4):
        part = Partition(12, 4)
        shards = [np.zeros((3, 2)) for _ in range(4)]
        shards[3] = np.zeros((3, 1))
        with pytest.raises(ShapeError, match="shard 3"):
            DistMultiVector(part, comm4, shards)

    def test_one_dimensional_shard_rejected(self, comm4):
        part = Partition(12, 4)
        shards = [np.zeros((3, 1)) for _ in range(3)] + [np.zeros(3)]
        with pytest.raises(ShapeError):
            DistMultiVector(part, comm4, shards)

    def test_wrong_shard_count_rejected(self, comm4):
        with pytest.raises(ShapeError, match="need 4 shards"):
            DistMultiVector(Partition(12, 4), comm4,
                            [np.zeros((3, 1)) for _ in range(3)])

    @pytest.mark.parametrize("partition", [
        Partition(12, 4), Partition(12, 4, offsets=np.array([0, 5, 5, 9, 12]))],
        ids=["uniform", "ragged"])
    def test_views_and_copies_keep_every_attribute(self, comm4, partition):
        v = DistMultiVector.zeros(partition, comm4, 3)
        view, dup = v.view_cols(slice(1, 3)), v.copy()
        for derived, cols in ((view, 2), (dup, 3)):
            assert derived.partition is v.partition
            assert derived.comm is v.comm
            assert derived.shape == (12, cols)
            assert (derived.stack is None) == (v.stack is None)
            assert [s.shape for s in derived.shards] == [
                (partition.local_count(r), cols) for r in range(4)]
        view.fill(1.0)
        assert v.to_global()[:, 1:].all() and not v.to_global()[:, 0].any()
        assert not dup.to_global().any()
        # a view of a view still pins the owning vector
        assert view.view_cols(0)._base is v


# ----------------------------------------------------------------------
def _python_calls(fn) -> int:
    """Python-level function calls made while ``fn`` runs (C calls are
    reported as ``c_call`` events and not counted)."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class TestRankScaling:
    """The interpreter work of one warm SpMV does not grow with ranks.

    A count, not a timing, so it holds on any machine.  With the
    per-rank loop (one scipy product, one cost evaluation and one
    ``local_count`` per rank, a shape check per shard and view) the
    same step made 294 Python calls on 8 ranks and 6182 on 192; it
    makes 56 on either now.
    """

    @staticmethod
    def _warm_matvec_calls(ranks: int) -> int:
        a = laplace2d(24)                  # 576 rows = 8 * 72 = 192 * 3
        sim = Simulation(a, ranks=ranks, machine=summit(), engine="batched")
        basis = DistMultiVector.zeros(sim.partition, sim.comm, 4)
        basis.view_cols(0).fill(1.0)

        def step():
            sim.matrix.matvec(basis.view_cols(0), out=basis.view_cols(1))

        step()                             # fills the per-plan memos
        return _python_calls(step)

    def test_calls_do_not_grow_from_8_to_192_ranks(self):
        few, many = self._warm_matvec_calls(8), self._warm_matvec_calls(192)
        assert many <= few, (few, many)
