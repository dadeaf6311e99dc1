"""Communication-avoiding MPK: bit-identity, communication profile,
preconditioner composition, degenerate paths."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ConfigurationError
from repro.krylov.basis import ChebyshevBasis, MonomialBasis, NewtonBasis
from repro.krylov.mpk import MPK_MODES, MatrixPowersKernel, \
    PreconditionedOperator
from repro.krylov.options import SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.parallel.machine import MachineSpec, generic_cpu, summit
from repro.precond.block_jacobi import BlockJacobiPreconditioner
from repro.precond.jacobi import JacobiPreconditioner
from repro.precond.polynomial import ChebyshevPreconditioner

ENGINES = ["loop", "batched"]


def make_basis(sim, k, rng):
    basis = sim.zeros(k)
    v0 = rng.standard_normal(sim.n)
    v0 /= np.linalg.norm(v0)
    basis.view_cols(0).assign_from(sim.vector_from(v0))
    return basis


def generate(mode, engine, *, nx=12, ranks=4, poly=None, precond_factory=None,
             panels=((1, 6), (6, 9)), seed=3):
    sim = Simulation(laplace2d(nx), ranks=ranks, machine=generic_cpu(),
                     engine=engine)
    pc = (precond_factory().setup(sim.matrix)
          if precond_factory is not None else None)
    op = PreconditionedOperator(sim.matrix, pc)
    mpk = MatrixPowersKernel(op, poly, mode=mode)
    basis = make_basis(sim, max(hi for _, hi in panels),
                       np.random.default_rng(seed))
    for lo, hi in panels:
        mpk.extend(basis, lo, hi)
    return basis.to_global(), sim.tracer


POLYS = {
    "monomial": MonomialBasis,
    "newton": lambda: NewtonBasis(np.array([0.4, 1.3, 2.9, 4.1, 5.5])),
    "chebyshev": lambda: ChebyshevBasis(0.1, 8.0),
}


class TestBitIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("poly", sorted(POLYS))
    def test_ca_matches_standard(self, engine, poly):
        std, _ = generate("standard", engine, poly=POLYS[poly]())
        ca, _ = generate("ca", engine, poly=POLYS[poly]())
        np.testing.assert_array_equal(std, ca)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("pc", [JacobiPreconditioner,
                                    BlockJacobiPreconditioner])
    def test_ca_matches_standard_preconditioned(self, engine, pc):
        std, _ = generate("standard", engine, precond_factory=pc)
        ca, _ = generate("ca", engine, precond_factory=pc)
        np.testing.assert_array_equal(std, ca)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_ca_matches_standard_three_term_preconditioned(self, engine):
        """Chebyshev recurrence (gamma != 0) reaches back across the
        panel boundary — the prev vector rides in the same exchange."""
        std, _ = generate("standard", engine,
                          poly=ChebyshevBasis(0.1, 8.0),
                          precond_factory=BlockJacobiPreconditioner)
        ca, _ = generate("ca", engine, poly=ChebyshevBasis(0.1, 8.0),
                         precond_factory=BlockJacobiPreconditioner)
        np.testing.assert_array_equal(std, ca)

    def test_engines_bit_identical_in_ca_mode(self):
        loop, _ = generate("ca", "loop", poly=POLYS["newton"]())
        batched, _ = generate("ca", "batched", poly=POLYS["newton"]())
        np.testing.assert_array_equal(loop, batched)


class TestCommunicationProfile:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_exchange_per_panel(self, engine):
        _, tr_std = generate("standard", engine)
        _, tr_ca = generate("ca", engine)
        # two panels of 5 + 3 steps: standard pays one halo per step
        assert tr_std.kernel_count("spmv", "halo") == 8
        assert tr_ca.kernel_count("spmv", "halo") == 2

    def test_same_spmv_call_count(self):
        _, tr_std = generate("standard", "loop")
        _, tr_ca = generate("ca", "loop")
        assert (tr_std.kernel_count("spmv", "spmv_local")
                == tr_ca.kernel_count("spmv", "spmv_local") == 8)

    def test_ca_charges_redundant_work(self):
        """CA's local SpMV seconds exceed standard's (ghost rings are
        recomputed) while its halo seconds shrink."""
        _, tr_std = generate("standard", "loop", nx=16, ranks=8)
        _, tr_ca = generate("ca", "loop", nx=16, ranks=8)
        assert (tr_ca.kernel_seconds("spmv", "spmv_local")
                > tr_std.kernel_seconds("spmv", "spmv_local"))
        assert (tr_ca.kernel_seconds("spmv", "halo")
                < tr_std.kernel_seconds("spmv", "halo"))

    def test_s1_panels_degenerate_to_standard_costs(self):
        """With s=1 panels the depth-1 closure IS the standard halo, so
        beyond the one-time plan analysis CA charges exactly the
        standard kernel's modeled time."""
        panels = tuple((k, k + 1) for k in range(1, 7))
        _, tr_std = generate("standard", "loop", panels=panels)
        _, tr_ca = generate("ca", "loop", panels=panels)
        assert tr_std.kernel_count("spmv", "halo") == 6
        assert tr_ca.kernel_count("spmv", "halo") == 6
        plan_setup = tr_ca.kernel_seconds("spmv", "ghost_plan")
        assert plan_setup > 0.0  # charged once, on the cache miss
        assert tr_ca.kernel_count("spmv", "ghost_plan") == 1
        assert (tr_ca.clock - plan_setup
                == pytest.approx(tr_std.clock, rel=1e-12))


class TestDegeneratePaths:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("ranks", [1, 3])
    def test_ghost_level_zero_block_diagonal(self, engine, ranks):
        """No inter-rank coupling: empty ghost regions, zero-byte
        exchange, still bit-identical under both engines."""
        blocks = [sp.diags([2.0] * 4) + sp.diags([1.0] * 3, 1)
                  for _ in range(3)]
        a = sp.block_diag(blocks).tocsr()
        res = {}
        for mode in MPK_MODES:
            sim = Simulation(a, ranks=ranks, machine=generic_cpu(),
                             engine=engine)
            basis = make_basis(sim, 5, np.random.default_rng(0))
            mpk = MatrixPowersKernel(
                PreconditionedOperator(sim.matrix), mode=mode)
            mpk.extend(basis, 1, 5)
            res[mode] = (basis.to_global(),
                         sim.tracer.kernel_seconds("spmv", "halo"))
        np.testing.assert_array_equal(res["standard"][0], res["ca"][0])
        assert res["ca"][1] == 0.0  # nothing to exchange

    @pytest.mark.parametrize("engine", ENGINES)
    def test_single_step_panel(self, engine):
        std, _ = generate("standard", engine, panels=((1, 2),))
        ca, _ = generate("ca", engine, panels=((1, 2),))
        np.testing.assert_array_equal(std, ca)

    def test_empty_panel_is_noop(self):
        sim = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        basis = make_basis(sim, 4, np.random.default_rng(0))
        mpk = MatrixPowersKernel(PreconditionedOperator(sim.matrix),
                                 mode="ca")
        before = sim.tracer.clock
        mpk.extend(basis, 2, 2)
        assert sim.tracer.clock == before


def _congested_summit(lat_mult: float) -> MachineSpec:
    """Summit with a congested inter-node link (2 MB/s) and every
    latency constant scaled ``lat_mult``-fold: the regime where one
    aggregated deep-halo exchange saves the most latency."""
    m = summit()
    return m.with_overrides(
        name=f"summit_congested_lat{lat_mult:g}x",
        net_bandwidth_inter=2.0e6,
        net_latency_intra=m.net_latency_intra * lat_mult,
        net_latency_inter=m.net_latency_inter * lat_mult,
        device_sync_latency=m.device_sync_latency * lat_mult,
        kernel_latency=m.kernel_latency * lat_mult,
        spmv_fixed_overhead=m.spmv_fixed_overhead * lat_mult)


AUTO_MACHINES = {
    "summit": summit,
    "generic_cpu": generic_cpu,
    **{f"congested-lat{lat}x": (lambda lat=lat: _congested_summit(lat))
       for lat in (1, 16, 64)},
}


#: preconditioner factories ``"auto"`` is held against every explicit
#: mode that accepts them
AUTO_PRECOND_FACTORIES = {
    "none": lambda: None,
    "jacobi": JacobiPreconditioner,
    "block_jacobi": BlockJacobiPreconditioner,
    "chebyshev": lambda: ChebyshevPreconditioner(degree=2),
}


class TestAutoPicksTheCheaperKernel:
    """``mpk_mode="auto"`` prices a cycle under ``"standard"`` and, when
    the operator composes, ``"ca"``, and runs the cheaper; whatever it
    picks must cost no more modeled time than any explicit mode that
    accepts the operator, on latency-bound, bandwidth-bound and
    congested machines alike."""

    @pytest.mark.parametrize("machine", AUTO_MACHINES)
    @pytest.mark.parametrize("pc", AUTO_PRECOND_FACTORIES)
    @pytest.mark.parametrize("nx, ranks, s", [
        (16, 4, 5), (32, 8, 3), (64, 8, 5), (48, 6, 2), (40, 12, 8)])
    def test_auto_clock_is_at_most_every_accepting_mode(self, machine, pc,
                                                        nx, ranks, s):
        runs = {}
        for mode in ("auto", *MPK_MODES):
            sim = Simulation(laplace2d(nx), ranks=ranks,
                             machine=AUTO_MACHINES[machine]())
            try:
                res = sstep_gmres(sim, sim.ones_solution_rhs(), s=s,
                                  restart=4 * s, tol=0.0, maxiter=40,
                                  precond=AUTO_PRECOND_FACTORIES[pc](),
                                  options=SolverOptions(mpk_mode=mode))
            except ConfigurationError:
                assert mode != "standard"  # the one mode accepting all
                continue
            runs[mode] = (sim.tracer.clock, res)
        auto_clock, auto = runs.pop("auto")
        assert auto_clock == runs[auto.diagnostics["mpk_mode"]][0]
        for clock, res in runs.values():
            assert auto_clock <= clock
            # the kernel choice moves charges only, never values
            assert res.x.tobytes() == auto.x.tobytes()
            assert res.history.residuals == auto.history.residuals


#: preconditioner -> the mode ``"auto"`` must resolve to.  Block-Jacobi
#: rounds every ghost level up to whole owner blocks, so ``"ca"``
#: re-runs the neighbours' sweeps: at ``laplace2d(24)``, 6 ranks,
#: ``s=4`` it prices (and charges) more than ``"standard"`` on each
#: machine below.
AUTO_PRECONDS = {
    "none": (lambda: None, "ca"),
    "jacobi": (JacobiPreconditioner, "ca"),
    "block_jacobi": (BlockJacobiPreconditioner, "standard"),
    "chebyshev": (lambda: ChebyshevPreconditioner(degree=2), "standard"),
}


class TestAutoIsItsResolvedMode:
    """``"auto"`` is nothing but its resolution — the mode whose cycle
    prices cheaper, ``"standard"`` when the preconditioner does not
    compose with the ghost closure: the same values, collectives and
    modeled clock as naming that mode outright, on every machine."""

    @pytest.mark.parametrize("machine",
                             ["summit", "generic_cpu", "congested-lat16x"])
    @pytest.mark.parametrize("pc", AUTO_PRECONDS)
    def test_auto_equals_the_explicit_mode(self, pc, machine):
        factory, expected = AUTO_PRECONDS[pc]
        runs = {}
        for mode in ("auto", expected):
            sim = Simulation(laplace2d(24), ranks=6,
                             machine=AUTO_MACHINES[machine]())
            res = sstep_gmres(sim, sim.ones_solution_rhs(), s=4,
                              restart=12, tol=0.0, maxiter=24,
                              precond=factory(),
                              options=SolverOptions(mpk_mode=mode))
            runs[mode] = (sim.tracer.clock, res)
        (auto_clock, auto), (clock, named) = runs["auto"], runs[expected]
        assert auto.diagnostics["mpk_mode"] == expected
        assert auto_clock == clock
        assert auto.sync_count == named.sync_count
        assert auto.x.tobytes() == named.x.tobytes()
        assert auto.history.residuals == named.history.residuals


class TestComposition:
    def test_general_preconditioner_rejected(self):
        sim = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        pc = ChebyshevPreconditioner(degree=2).setup(sim.matrix)
        op = PreconditionedOperator(sim.matrix, pc)
        assert not op.supports_ca
        with pytest.raises(ConfigurationError, match="compose"):
            MatrixPowersKernel(op, mode="ca")

    def test_unknown_mode_rejected(self):
        sim = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        # "ca_overlap" is the retired overlapped (PA2) kernel
        for mode in ("avoidant", "ca_overlap"):
            with pytest.raises(ConfigurationError) as info:
                MatrixPowersKernel(PreconditionedOperator(sim.matrix),
                                   mode=mode)
            assert repr(mode) in str(info.value)
            assert str(MPK_MODES) in str(info.value)

    def test_ghost_expand_follows_preconditioner(self):
        sim = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        assert PreconditionedOperator(sim.matrix).ghost_expand == "pointwise"
        jac = PreconditionedOperator(
            sim.matrix, JacobiPreconditioner().setup(sim.matrix))
        assert jac.ghost_expand == "pointwise"
        bj = PreconditionedOperator(
            sim.matrix, BlockJacobiPreconditioner().setup(sim.matrix))
        assert bj.ghost_expand == "block"


class TestSolverIntegration:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_sstep_gmres_ca_converges_identically(self, engine):
        results = {}
        for mode in MPK_MODES:
            sim = Simulation(laplace2d(16), ranks=4, machine=generic_cpu(),
                             engine=engine)
            results[mode] = sstep_gmres(sim, sim.ones_solution_rhs(), s=5,
                                        restart=20, tol=1e-8, maxiter=2000,
                                        options=SolverOptions(mpk_mode=mode))
        std, ca = results["standard"], results["ca"]
        assert ca.converged
        assert ca.diagnostics["mpk_mode"] == "ca"
        np.testing.assert_array_equal(std.x, ca.x)
        assert std.iterations == ca.iterations

    def test_auto_mode_falls_back_for_general_preconditioner(self):
        sim = Simulation(laplace2d(12), ranks=4, machine=generic_cpu())
        pc = ChebyshevPreconditioner(degree=2)
        res = sstep_gmres(sim, sim.ones_solution_rhs(), s=4, restart=12,
                          tol=1e-8, maxiter=600, precond=pc,
                          options=SolverOptions(mpk_mode="auto"))
        assert res.diagnostics["mpk_mode"] == "standard"
        assert res.converged

    def test_auto_mode_selects_ca_for_local_preconditioner(self):
        sim = Simulation(laplace2d(12), ranks=4, machine=generic_cpu())
        res = sstep_gmres(sim, sim.ones_solution_rhs(), s=4, restart=12,
                          tol=1e-8, maxiter=600,
                          precond=JacobiPreconditioner(),
                          options=SolverOptions(mpk_mode="auto"))
        assert res.diagnostics["mpk_mode"] == "ca"
        assert res.converged

    def test_ca_mode_raises_for_general_preconditioner(self):
        sim = Simulation(laplace2d(12), ranks=4, machine=generic_cpu())
        with pytest.raises(ConfigurationError, match="compose"):
            sstep_gmres(sim, sim.ones_solution_rhs(), s=4, restart=12,
                        precond=ChebyshevPreconditioner(degree=2),
                        options=SolverOptions(mpk_mode="ca"))

    def test_unknown_mpk_mode_rejected(self):
        sim = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        with pytest.raises(ConfigurationError):
            sstep_gmres(sim, np.ones(sim.n),
                        options=SolverOptions(mpk_mode="always"))


class TestScratchInvalidation:
    def test_scratch_rebinds_on_comm_change(self):
        """A stale scratch bound to another simulation's communicator
        must not leak charges into the wrong tracer."""
        pc = JacobiPreconditioner()
        sim1 = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        op = PreconditionedOperator(sim1.matrix,
                                    pc.setup(sim1.matrix))
        x1 = sim1.vector_from(np.ones(sim1.n))
        out1 = sim1.zeros(1)
        op.apply(x1, out1)
        scratch1 = op._scratch
        assert scratch1.comm is sim1.comm
        # same partition shape, different simulation/communicator
        sim2 = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        op.matrix = sim2.matrix
        op.precond = JacobiPreconditioner().setup(sim2.matrix)
        x2 = sim2.vector_from(np.ones(sim2.n))
        out2 = sim2.zeros(1)
        op.apply(x2, out2)
        assert op._scratch is not scratch1
        assert op._scratch.comm is sim2.comm


class TestForeignPreconditioner:
    """A preconditioner set up on another partition would have the CA
    kernel index blocks that are not this matrix's: the solvers used to
    skip ``setup`` on ``is_setup`` alone."""

    @pytest.mark.parametrize("pc", [JacobiPreconditioner,
                                    BlockJacobiPreconditioner])
    @pytest.mark.parametrize("solve", ["scalar", "block"])
    @pytest.mark.parametrize("other", [(8, 2), (10, 4)],
                             ids=["other-ranks", "other-matrix"])
    def test_solvers_reject_it_before_charging(self, pc, solve, other):
        from repro.krylov.block import block_sstep_gmres

        nx, ranks = other
        foreign = Simulation(laplace2d(nx), ranks=ranks,
                             machine=generic_cpu())
        precond = pc().setup(foreign.matrix)
        sim = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        b = sim.ones_solution_rhs()
        before = sim.tracer.snapshot()
        with pytest.raises(ConfigurationError) as err:
            if solve == "scalar":
                sstep_gmres(sim, b, s=4, restart=12, precond=precond,
                            options=SolverOptions(mpk_mode="ca"))
            else:
                block_sstep_gmres(sim, b[:, np.newaxis], s=4, restart=12,
                                  precond=precond,
                                  options=SolverOptions(mpk_mode="ca"))
        assert f"({nx * nx}, {ranks})" in str(err.value)
        assert "(64, 4)" in str(err.value)
        assert sim.tracer.snapshot() == before

    def test_same_partition_is_reused_without_setup(self):
        """Set up once, solve on a second simulation of the same shape:
        still allowed (and still not set up again)."""
        sim1 = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        precond = BlockJacobiPreconditioner().setup(sim1.matrix)
        sim2 = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        res = sstep_gmres(sim2, sim2.ones_solution_rhs(), s=4, restart=12,
                          tol=1e-8, maxiter=400, precond=precond,
                          options=SolverOptions(mpk_mode="ca"))
        assert res.converged
        assert precond.matrix is sim1.matrix
