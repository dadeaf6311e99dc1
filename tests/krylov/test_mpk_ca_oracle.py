"""The rank-fused CA kernel against the per-rank ghosted execution.

``MatrixPowersKernel._extend_ca`` computes a panel's values from ONE
global recurrence and charges the modeled machine's redundant ghost work
from memoized per-rank lists.  The oracle here is the execution it
replaced: every rank keeps a work array that is zero outside its own
closure, multiplies its own row block ``A[L_depth, :]``, redundantly
applies the preconditioner on its closure level, and evaluates every
cost formula afresh at every charge.  Values must agree bit for bit and
the two tracers charge for charge.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.krylov.basis import ChebyshevBasis, MonomialBasis, NewtonBasis
from repro.krylov.mpk import MatrixPowersKernel, PreconditionedOperator
from repro.krylov.simulation import Simulation
from repro.matrices.stencil import laplace2d
from repro.parallel.machine import summit
from repro.precond.block_jacobi import BlockJacobiPreconditioner
from repro.precond.gauss_seidel import LocalGaussSeidel
from repro.precond.jacobi import JacobiPreconditioner

POLYS = {
    "monomial": MonomialBasis,
    "newton": lambda: NewtonBasis(np.array([0.4, 1.3, 2.9, 4.1, 5.5])),
    "chebyshev": lambda: ChebyshevBasis(0.1, 8.0),
}
#: two panels of one depth (the second replays the first's memoized
#: charges) and a shallower one (its own plan)
PANELS = ((1, 5), (5, 9), (9, 11))
#: 144 rows: 4 ranks split evenly (stacked storage), 5 do not (shard loop)
PARTITIONS = {"uniform": 4, "ragged": 5}


class PerRankIdentity:
    def apply_ghosted(self, x, rows, out):
        out[rows] = x[rows]

    def charge_ghost_apply(self, comm, plan, level):
        pass


class PerRankJacobi:
    def __init__(self, sim):
        self.inv_diag = 1.0 / sim.matrix.to_scipy().diagonal()

    def apply_ghosted(self, x, rows, out):
        out[rows] = x[rows] * self.inv_diag[rows]

    def charge_ghost_apply(self, comm, plan, level):
        comm.charge("scale", comm.cost.record(lambda c: [
            c.blas1(int(plan.level_rows[r, level]), n_streams=2, writes=1)
            for r in range(plan.partition.ranks)]))


class PerRankBlockJacobi:
    """One ``LocalGaussSeidel`` per diagonal block; a closure level is
    solved block by block, every block costed afresh."""

    def __init__(self, sim, sweeps=1):
        self.part = sim.partition
        self.sweeps = sweeps
        self.solvers = []
        for rank, block in enumerate(map(sim.matrix.local_block,
                                         range(self.part.ranks))):
            sl = self.part.local_slice(rank)
            self.solvers.append(LocalGaussSeidel(
                block[:, sl.start:sl.stop].tocsr(), sweeps=sweeps))

    def apply_ghosted(self, x, rows, out):
        for peer in np.unique(self.part.owners(rows)):
            sl = self.part.local_slice(int(peer))
            out[sl] = self.solvers[int(peer)].apply(x[sl])

    def block_cost(self, cost, rank):
        solver = self.solvers[rank]
        rows = solver.a.shape[0]
        return self.sweeps * (
            cost.spmv(solver.a.nnz, rows, rows)
            + (solver.n_colors - 1) * cost.machine.kernel_latency)

    def charge_ghost_apply(self, comm, plan, level):
        comm.charge("spmv_local", comm.cost.record(lambda c: [
            sum(self.block_cost(c, int(peer))
                for peer in np.unique(self.part.owners(plan.levels[rank][level])))
            for rank in range(self.part.ranks)]))


PRECONDS = {
    "identity": (lambda: None, PerRankIdentity),
    "jacobi": (JacobiPreconditioner, PerRankJacobi),
    "block_jacobi": (BlockJacobiPreconditioner, PerRankBlockJacobi),
}


def _bytes(counts_by_rank, scale):
    return [{peer: cnt * scale for peer, cnt in by_peer.items()}
            for by_peer in counts_by_rank]


def extend_ca_per_rank(sim, poly, precond, expand, basis, lo, hi):
    """The per-rank ghosted CA panel (the body ``_extend_ca`` had)."""
    comm, tracer, part = sim.comm, sim.tracer, sim.partition
    a = sim.matrix.to_scipy()
    steps = hi - lo
    plan = sim.matrix.ghost_plan(steps, expand)
    n, ranks = part.n_global, part.ranks
    preconditioned = not isinstance(precond, PerRankIdentity)
    level_blocks = [[a[plan.levels[r][lvl], :] for lvl in range(steps)]
                    for r in range(ranks)]

    coeffs = {col: poly.coefficients(col - 1) for col in range(lo, hi)}
    track_prev = any(g != 0.0 for (_, _, g) in coeffs.values())
    gather_prev = coeffs[lo][2] != 0.0 and lo >= 2

    scale = 8.0 * (2 if gather_prev else 1)
    with tracer.phase("spmv"):
        comm.charge_halo(_bytes(plan.recv_counts_by_peer, scale))

    def gathered(col):
        g = basis.view_cols(col).to_global()[:, 0]
        out = []
        for r in range(ranks):
            w = np.zeros(n)
            held = plan.levels[r][steps]
            w[held] = g[held]
            out.append(w)
        return out

    v_k = gathered(lo - 1)
    v_km1 = gathered(lo - 2) if gather_prev else [None] * ranks
    z = [np.zeros(n) for _ in range(ranks)]
    nnz, rows = plan.level_nnz, plan.level_rows

    for col in range(lo, hi):
        depth = hi - 1 - col
        alpha, beta, gamma = coeffs[col]
        three_term = gamma != 0.0 and col >= 2
        v_new = []
        if preconditioned:
            with tracer.phase("precond"):
                for r in range(ranks):
                    precond.apply_ghosted(
                        v_k[r], plan.levels[r][depth + 1], z[r])
                precond.charge_ghost_apply(comm, plan, depth + 1)
        with tracer.phase("spmv"):
            for r in range(ranks):
                y = level_blocks[r][depth] @ (
                    z[r] if preconditioned else v_k[r])
                w = np.zeros(n)
                w[plan.levels[r][depth]] = y
                v_new.append(w)
            comm.charge("spmv_local", comm.cost.record(lambda c: [
                c.spmv(int(nnz[r, depth]), int(rows[r, depth]),
                       int(rows[r, depth + 1]))
                for r in range(ranks)]))
            if alpha != 0.0 or gamma != 0.0 or beta != 1.0:
                for r in range(ranks):
                    lvl = plan.levels[r][depth]
                    acc = (1.0 / beta) * v_new[r][lvl]
                    acc += (-alpha / beta) * v_k[r][lvl]
                    if three_term:
                        acc += (-gamma / beta) * v_km1[r][lvl]
                    v_new[r][lvl] = acc
                comm.charge("axpy", comm.cost.record(lambda c: [
                    c.blas1(int(rows[r, depth]),
                            n_streams=3 if three_term else 2,
                            writes=1)
                    for r in range(ranks)]))
        for r in range(ranks):
            basis.shards[r][:, col:col + 1] = (
                v_new[r][part.local_slice(r)][:, np.newaxis])
        if track_prev:
            v_km1 = v_k
        v_k = v_new


def _start(sim, k):
    basis = sim.zeros(k)
    v0 = np.random.default_rng(3).standard_normal(sim.n)
    basis.view_cols(0).assign_from(sim.vector_from(v0 / np.linalg.norm(v0)))
    return basis


def run_pair(poly, pc, ranks, metrics=False, **pc_kw):
    """(basis, tracer totals, collective counts, metrics totals) of the
    fused kernel and of the oracle, each on a fresh simulation."""
    factory, per_rank = PRECONDS[pc]
    out = []
    for fused in (True, False):
        sim = Simulation(laplace2d(12), ranks=ranks, machine=summit(),
                         metrics=metrics)
        precond = factory(**pc_kw)
        if precond is not None:
            precond.setup(sim.matrix)
        op = PreconditionedOperator(sim.matrix, precond)
        basis = _start(sim, PANELS[-1][1])
        if fused:
            mpk = MatrixPowersKernel(op, POLYS[poly](), mode="ca")
            for lo, hi in PANELS:
                mpk.extend(basis, lo, hi)
        else:
            oracle = (per_rank() if pc == "identity"
                      else per_rank(sim, **pc_kw))
            for lo, hi in PANELS:
                extend_ca_per_rank(sim, POLYS[poly](), oracle,
                                   op.ghost_expand, basis, lo, hi)
        out.append((basis.to_global(), sim.tracer.snapshot(),
                    sim.tracer.collective_counts(payload_bytes=True),
                    sim.metrics_doc().get("totals")))
    return out


def assert_same(fused, oracle):
    np.testing.assert_array_equal(fused[0], oracle[0])
    assert np.abs(fused[0][:, -1]).max() > 0.0
    # clock, seconds and counts per (phase, kernel), payload bytes,
    # flops and memory bytes — bit for bit
    assert fused[1] == oracle[1]
    assert fused[2] == oracle[2]
    assert fused[3] == oracle[3]


@pytest.mark.parametrize("partition", sorted(PARTITIONS))
@pytest.mark.parametrize("pc", sorted(PRECONDS))
@pytest.mark.parametrize("poly", sorted(POLYS))
def test_ca_matches_per_rank_execution(poly, pc, partition):
    assert_same(*run_pair(poly, pc, PARTITIONS[partition]))


@pytest.mark.parametrize("pc", sorted(PRECONDS))
def test_kept_charges_read_in_the_metrics_like_fresh_ones(pc):
    """The metrics snapshot of memoized records equals that of records
    evaluated afresh at every charge."""
    fused, oracle = run_pair("chebyshev", pc, 5, metrics=True)
    assert_same(fused, oracle)
    assert fused[3]["flops"] > 0 and fused[3]["mem_bytes"] > 0


def test_two_sweeps_block_jacobi_matches_per_rank_execution():
    assert_same(*run_pair("newton", "block_jacobi", 5, sweeps=2))
