"""Preconditioners: Jacobi, coloring, Gauss-Seidel, block Jacobi, Chebyshev."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, NumericalError
from repro.krylov.simulation import Simulation
from repro.matrices.stencil import laplace2d
from repro.parallel.machine import generic_cpu
from repro.precond.base import IdentityPreconditioner
from repro.precond.block_jacobi import BlockJacobiPreconditioner
from repro.precond.coloring import color_classes, greedy_coloring
from repro.precond.gauss_seidel import LocalGaussSeidel
from repro.precond.jacobi import JacobiPreconditioner
from repro.precond.polynomial import ChebyshevPreconditioner, gershgorin_interval


@pytest.fixture
def sim() -> Simulation:
    return Simulation(laplace2d(12), ranks=4, machine=generic_cpu())


class TestIdentity:
    def test_apply_copies(self, sim, rng):
        pc = IdentityPreconditioner().setup(sim.matrix)
        x = sim.vector_from(rng.standard_normal(sim.n))
        out = sim.zeros(1)
        pc.apply(x, out)
        np.testing.assert_array_equal(out.to_global(), x.to_global())


class TestJacobi:
    def test_apply_is_diag_scaling(self, sim, rng):
        pc = JacobiPreconditioner().setup(sim.matrix)
        x = rng.standard_normal(sim.n)
        out = sim.zeros(1)
        pc.apply(sim.vector_from(x), out)
        expected = x / sim.matrix.to_scipy().diagonal()
        np.testing.assert_allclose(out.to_global()[:, 0], expected,
                                   rtol=1e-14)

    def test_apply_before_setup_raises(self, sim):
        pc = JacobiPreconditioner()
        with pytest.raises(ConfigurationError):
            pc.apply(sim.zeros(1), sim.zeros(1))

    def test_zero_diagonal_rejected(self, comm4):
        from repro.distla.spmatrix import DistSparseMatrix
        from repro.parallel.partition import Partition
        a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 1.0]]))
        mat = DistSparseMatrix(a, Partition(2, 4,
                                            offsets=np.array([0, 1, 2, 2, 2])),
                               comm4)
        with pytest.raises(NumericalError):
            JacobiPreconditioner().setup(mat)

    @pytest.mark.parametrize("ranks, offsets", [
        (4, None), (5, None), (4, [0, 40, 40, 100, 144])],
        ids=["uniform", "ragged", "empty-rank"])
    def test_apply_equals_the_per_rank_formulation(self, rng, ranks,
                                                   offsets):
        """One multiply over the flat storage, charged per row: values,
        charge stream and metrics totals of one multiply and one cost
        evaluation per rank."""
        from repro.parallel.partition import Partition
        a = (laplace2d(12) + sp.diags(rng.uniform(1.0, 2.0, 144))).tocsr()
        data = rng.standard_normal((144, 4))

        def run(apply):
            part = Partition(144, ranks, offsets=(
                None if offsets is None else np.array(offsets)))
            sim = Simulation(a, ranks=ranks, machine=generic_cpu(),
                             partition=part, spans=True, metrics=True)
            pc = JacobiPreconditioner().setup(sim.matrix)
            basis = sim.vector_from(data)
            for cols in (slice(0, 1), slice(1, 4)):
                x, out = basis.view_cols(cols), sim.zeros(
                    cols.stop - cols.start)
                apply(pc, x, out)
                yield out.to_global().tobytes()
            yield [(s.phase, s.name, s.t0.hex(), s.t1.hex(), s.count)
                   for s in sim.tracer.spans if s.cat == "kernel"]
            yield sorted(sim.tracer.flops.items())
            yield sorted(sim.tracer.mem_bytes.items())

        def per_rank(pc, x, out):
            comm = x.comm
            for rows, xs, outs in zip(x.partition.local_slices, x.shards,
                                      out.shards):
                np.multiply(xs, pc._inv_diag[rows, np.newaxis], out=outs)
            comm.charge("scale", comm.cost.record(lambda c: [
                c.blas1(s.size, n_streams=2, writes=1) for s in x.shards]))

        got = list(run(JacobiPreconditioner.apply))
        assert got == list(run(per_rank))
        assert len(got[2]) == 2 and got[3]  # two charges, flops counted


class TestColoring:
    def test_valid_coloring_on_laplacian(self):
        a = laplace2d(8)
        colors = greedy_coloring(a)
        coo = a.tocoo()
        for i, j in zip(coo.row, coo.col):
            if i != j:
                assert colors[i] != colors[j]

    def test_stencil_uses_two_colors(self):
        # 5-point stencil graph is bipartite
        colors = greedy_coloring(laplace2d(6))
        assert colors.max() == 1

    @given(st.integers(min_value=2, max_value=40),
           st.floats(min_value=0.05, max_value=0.4))
    @settings(max_examples=15, deadline=None)
    def test_valid_on_random_graphs(self, n, density):
        a = sp.random(n, n, density=density, random_state=n) + sp.eye(n)
        colors = greedy_coloring(a)
        pattern = (a + a.T).tocoo()
        for i, j in zip(pattern.row, pattern.col):
            if i != j:
                assert colors[i] != colors[j]

    def test_color_classes_partition(self):
        colors = greedy_coloring(laplace2d(5))
        classes = color_classes(colors)
        allidx = np.sort(np.concatenate(classes))
        np.testing.assert_array_equal(allidx, np.arange(25))


class TestLocalGaussSeidel:
    @pytest.mark.parametrize("ordering", ["natural", "multicolor"])
    def test_reduces_residual(self, ordering, rng):
        a = laplace2d(8).tocsr()
        x = rng.standard_normal(64)
        gs = LocalGaussSeidel(a, ordering=ordering, sweeps=1)
        z = gs.apply(x)
        assert np.linalg.norm(x - a @ z) < np.linalg.norm(x)

    @pytest.mark.parametrize("ordering", ["natural", "multicolor"])
    def test_more_sweeps_better(self, ordering, rng):
        a = laplace2d(8).tocsr()
        x = rng.standard_normal(64)
        r1 = np.linalg.norm(x - a @ LocalGaussSeidel(
            a, ordering=ordering, sweeps=1).apply(x))
        r4 = np.linalg.norm(x - a @ LocalGaussSeidel(
            a, ordering=ordering, sweeps=4).apply(x))
        assert r4 < r1

    def test_natural_first_sweep_is_triangular_solve(self, rng):
        a = laplace2d(6).tocsr()
        x = rng.standard_normal(36)
        gs = LocalGaussSeidel(a, ordering="natural", sweeps=1)
        z = gs.apply(x)
        lower = sp.tril(a).tocsr()
        expected = sp.linalg.spsolve_triangular(lower, x, lower=True)
        np.testing.assert_allclose(z, expected, rtol=1e-12)

    def test_validation(self):
        a = laplace2d(4).tocsr()
        with pytest.raises(ConfigurationError):
            LocalGaussSeidel(a, ordering="zigzag")
        with pytest.raises(ConfigurationError):
            LocalGaussSeidel(a, sweeps=0)
        gs = LocalGaussSeidel(a)
        with pytest.raises(ConfigurationError):
            gs.apply(np.ones(5))

    def test_zero_diagonal_rejected(self):
        a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(NumericalError):
            LocalGaussSeidel(a)


class TestBlockJacobi:
    def test_apply_matches_per_block_gs(self, sim, rng):
        pc = BlockJacobiPreconditioner(ordering="natural").setup(sim.matrix)
        x = rng.standard_normal(sim.n)
        out = sim.zeros(1)
        pc.apply(sim.vector_from(x), out)
        # reference: per-rank triangular solve on the diagonal block
        part = sim.partition
        a = sim.matrix.to_scipy()
        expected = np.zeros(sim.n)
        for r in range(part.ranks):
            sl = part.local_slice(r)
            block = a[sl, sl].tocsr()
            lower = sp.tril(block).tocsr()
            expected[sl] = sp.linalg.spsolve_triangular(lower, x[sl],
                                                        lower=True)
        np.testing.assert_allclose(out.to_global()[:, 0], expected,
                                   rtol=1e-12)

    def test_multicolor_charges_precond_free_comm(self, sim, rng):
        pc = BlockJacobiPreconditioner().setup(sim.matrix)
        before = sim.tracer.sync_count()
        out = sim.zeros(1)
        pc.apply(sim.vector_from(rng.standard_normal(sim.n)), out)
        assert sim.tracer.sync_count() == before  # local => no reduces


def _mixed_blocks_matrix(reverse_rows: bool = False) -> sp.csr_matrix:
    """40 rows whose three diagonal blocks (14/13/13 rows on 3 ranks)
    need different colour counts — a path, a dense block, a star, under
    random extra coupling within and between blocks; optionally with
    every row's entries stored in descending column order."""
    rng = np.random.default_rng(11)
    path = sp.diags([-np.ones(13), -np.ones(13)], [-1, 1])
    dense = sp.csr_matrix(-rng.uniform(0.1, 1.0, (13, 13)))
    star = sp.lil_matrix((13, 13))
    star[0, 1:] = -1.0
    star[1:, 0] = -0.5
    coupling = sp.random(40, 40, density=0.08, random_state=5)
    a = sp.csr_matrix(sp.block_diag([path, dense, star]) - coupling)
    a.setdiag(rng.uniform(20.0, 30.0, 40))
    a = sp.csr_matrix(a)
    a.sort_indices()
    if reverse_rows:
        for lo, hi in zip(a.indptr[:-1], a.indptr[1:]):
            a.indices[lo:hi] = a.indices[lo:hi][::-1].copy()
            a.data[lo:hi] = a.data[lo:hi][::-1].copy()
        a.has_sorted_indices = False
    return a


class TestBlockJacobiFusedSweep:
    """One multicolor sweep over the block-diagonal part of ``A`` against
    one ``LocalGaussSeidel`` per block, and the memoized charges against
    a fresh evaluation at every apply."""

    CASES = {
        "stencil-uniform": dict(a=lambda: laplace2d(12), ranks=4),
        "stencil-ragged": dict(a=lambda: laplace2d(12), ranks=5),
        "colour-counts-differ": dict(a=_mixed_blocks_matrix, ranks=3),
        "unsorted-rows": dict(
            a=lambda: _mixed_blocks_matrix(reverse_rows=True), ranks=3),
        "two-sweeps": dict(a=_mixed_blocks_matrix, ranks=3, sweeps=2),
        "three-sweeps": dict(a=_mixed_blocks_matrix, ranks=3, sweeps=3),
        # operands the colour-order first sweep must not treat differently
        "negative-zeros": dict(a=_mixed_blocks_matrix, ranks=3,
                               x=lambda x: np.where(x < 0.5, -0.0, x)),
        "nan": dict(a=_mixed_blocks_matrix, ranks=3, sweeps=2,
                    x=lambda x: np.where(np.arange(x.size) % 7 == 3,
                                         np.nan, x)),
        "inf": dict(a=_mixed_blocks_matrix, ranks=3, sweeps=2,
                    x=lambda x: np.where(np.arange(x.size) % 9 == 4,
                                         np.copysign(np.inf, x), x)),
        "natural": dict(a=_mixed_blocks_matrix, ranks=3, ordering="natural"),
        "natural-two-sweeps": dict(a=lambda: laplace2d(12), ranks=5,
                                   ordering="natural", sweeps=2),
    }

    @staticmethod
    def per_block_solvers(sim, **kw):
        offsets = sim.partition.offsets
        return [LocalGaussSeidel(block[:, offsets[r]:offsets[r + 1]].tocsr(),
                                 **kw)
                for r, block in enumerate(map(sim.matrix.local_block,
                                              range(sim.partition.ranks)))]

    @staticmethod
    def charge_fresh(sim, solvers, sweeps, blocks_by_rank):
        """What the per-block code charged: every block costed anew."""
        def block_cost(cost, rank):
            rows = solvers[rank].a.shape[0]
            return sweeps * (
                cost.spmv(solvers[rank].a.nnz, rows, rows)
                + (solvers[rank].n_colors - 1)
                * sim.machine.kernel_latency)
        sim.comm.charge("spmv_local", sim.comm.cost.record(lambda c: [
            sum(block_cost(c, int(b)) for b in blocks)
            for blocks in blocks_by_rank]))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_values_equal_per_block_sweeps(self, case):
        spec = dict(self.CASES[case])
        a, ranks = spec.pop("a")(), spec.pop("ranks")
        operand = spec.pop("x", lambda x: x)
        sim = Simulation(a, ranks=ranks, machine=generic_cpu())
        pc = BlockJacobiPreconditioner(**spec).setup(sim.matrix)
        solvers = self.per_block_solvers(sim, **spec)
        if case in ("colour-counts-differ", "unsorted-rows"):
            assert len({s.n_colors for s in solvers}) > 1
        x = sim.vector_from(
            operand(np.random.default_rng(2).standard_normal(sim.n)))
        expected = sim.zeros(1)
        for r, solver in enumerate(solvers):
            expected.shards[r][:, 0] = solver.apply(x.shards[r][:, 0])
        out = sim.zeros(1)
        pc.apply(x, out)
        assert out.to_global().tobytes() == expected.to_global().tobytes()
        assert np.any(out.to_global() != 0.0)
        # the CA kernel's whole-vector form: float64 in, float64 out
        ghosted = pc.apply_ghosted(x.to_global()[:, 0])
        assert ghosted.dtype == np.float64
        assert ghosted.tobytes() == expected.to_global()[:, 0].tobytes()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_an_apply_into_its_operand_is_the_same_apply(self, case):
        """``apply`` reads the operand's storage and writes the result's
        directly, so ``out`` may be ``x``."""
        spec = dict(self.CASES[case])
        a, ranks = spec.pop("a")(), spec.pop("ranks")
        operand = spec.pop("x", lambda x: x)
        sim = Simulation(a, ranks=ranks, machine=generic_cpu())
        pc = BlockJacobiPreconditioner(**spec).setup(sim.matrix)
        x = operand(np.random.default_rng(5).standard_normal(sim.n))
        expected = sim.zeros(1)
        pc.apply(sim.vector_from(x), expected)
        aliased = sim.vector_from(x)
        pc.apply(aliased, aliased)
        assert aliased.to_global().tobytes() == expected.to_global().tobytes()
        # a column view of a wider basis, into the next column
        basis = sim.zeros(3)
        basis.scatter_col(1, x)
        pc.apply(basis.view_cols(1), basis.view_cols(2))
        assert basis.flat[:, 2].tobytes() == expected.flat[:, 0].tobytes()
        assert basis.flat[:, 1].tobytes() == x.tobytes()

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            BlockJacobiPreconditioner(ordering="zigzag")
        with pytest.raises(ConfigurationError):
            BlockJacobiPreconditioner(sweeps=0)
        sim = Simulation(sp.diags([0.0, 1.0, 1.0, 1.0]).tocsr(), ranks=2,
                         machine=generic_cpu())
        with pytest.raises(NumericalError):
            BlockJacobiPreconditioner().setup(sim.matrix)

    @pytest.mark.parametrize("metrics", [False, True])
    @pytest.mark.parametrize("ordering", ["multicolor", "natural"])
    def test_replayed_charges_equal_fresh_ones(self, ordering, metrics):
        """``apply`` and ``ghost_apply_charge`` evaluate their per-rank
        records once and keep them; tracer and registry must not be
        able to tell."""
        sims = [Simulation(_mixed_blocks_matrix(), ranks=3,
                           machine=generic_cpu(), metrics=metrics)
                for _ in range(2)]
        replayed, fresh = sims
        pc = BlockJacobiPreconditioner(
            sweeps=2, ordering=ordering).setup(replayed.matrix)
        solvers = self.per_block_solvers(fresh, ordering=ordering, sweeps=2)
        plans = [sim.matrix.ghost_plan(2, "block") for sim in sims]
        x = np.random.default_rng(2).standard_normal(40)
        for sim in sims:
            with sim.tracer.phase("precond"):
                for _ in range(3):
                    if sim is replayed:
                        pc.apply(sim.vector_from(x), sim.zeros(1))
                    else:
                        self.charge_fresh(sim, solvers, 2,
                                          [[r] for r in range(3)])
                for level in (2, 1, 2, 1):
                    if sim is replayed:
                        sim.comm.charge(*pc.ghost_apply_charge(
                            sim.comm.cost, plans[0], level))
                    else:
                        self.charge_fresh(
                            sim, solvers, 2,
                            [per_rank[level]
                             for per_rank in plans[1].level_ranks])
        assert replayed.tracer.snapshot() == fresh.tracer.snapshot()
        assert replayed.tracer.phase_seconds("precond") > 0.0
        assert (replayed.metrics_doc().get("totals")
                == fresh.metrics_doc().get("totals"))
        if metrics:
            assert replayed.metrics_doc()["totals"]["flops"] > 0


class TestGhostedApply:
    """``apply_ghosted`` returns the exact float64 ``M^{-1} x``, not a
    copy of it."""

    PRECONDS = {"jacobi": JacobiPreconditioner,
                "block-jacobi": BlockJacobiPreconditioner}

    @pytest.mark.parametrize("name", sorted(PRECONDS))
    def test_equals_the_exact_apply(self, sim, name):
        pc = self.PRECONDS[name]().setup(sim.matrix)
        x = np.random.default_rng(3).standard_normal(sim.n) * 1e3
        exact = (pc._solve(x) if name == "block-jacobi"
                 else x * (1.0 / sim.matrix.diagonal()))
        got = pc.apply_ghosted(x)
        assert got.dtype == np.float64
        assert got.tobytes() == exact.tobytes()

    def test_result_is_not_copied(self, sim, monkeypatch):
        pc = BlockJacobiPreconditioner().setup(sim.matrix)
        solved = np.random.default_rng(4).standard_normal(sim.n)
        monkeypatch.setattr(pc, "_solve", lambda x: solved)
        assert pc.apply_ghosted(np.ones(sim.n)) is solved


class TestChebyshev:
    def test_gershgorin_bounds_spectrum(self):
        sim = Simulation(laplace2d(8), ranks=2, machine=generic_cpu())
        lo, hi = gershgorin_interval(sim.matrix)
        eigs = np.linalg.eigvalsh(sim.matrix.to_scipy().toarray())
        assert lo <= eigs.min() + 1e-10
        assert hi >= eigs.max() - 1e-10

    def test_approximates_inverse(self, sim, rng):
        pc = ChebyshevPreconditioner(degree=8).setup(sim.matrix)
        x = rng.standard_normal(sim.n)
        out = sim.zeros(1)
        pc.apply(sim.vector_from(x), out)
        a = sim.matrix.to_scipy()
        z = out.to_global()[:, 0]
        # preconditioned residual much smaller than unpreconditioned
        assert (np.linalg.norm(x - a @ z) < 0.7 * np.linalg.norm(x))

    def test_degree_validation(self):
        with pytest.raises(ConfigurationError):
            ChebyshevPreconditioner(degree=0)

    def test_bad_interval(self, sim):
        pc = ChebyshevPreconditioner(degree=2, interval=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            pc.setup(sim.matrix)
