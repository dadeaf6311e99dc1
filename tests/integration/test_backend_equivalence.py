"""Cross-backend equivalence: backend="mp" must reproduce backend="sim"
bit-for-bit — solutions, histories, and the modeled twin's accounting —
across engines, precisions, MPK modes and degenerate solves."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.krylov.options import SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import generic_cpu

ENGINES = ("loop", "batched")


def _solve_both(a, b, *, engine="batched", ranks=4, scheme_factory=None,
                **solver_kwargs):
    """Run the identical solve on both backends; return (sim, mp) info."""
    out = {}
    for backend in ("sim", "mp"):
        scheme = (scheme_factory() if scheme_factory is not None
                  else TwoStageScheme(solver_kwargs.get("restart", 12)))
        with Simulation(a, ranks=ranks, machine=generic_cpu(),
                        engine=engine, backend=backend) as sim:
            res = sstep_gmres(sim, b, scheme=scheme, **solver_kwargs)
            modeled = (sim.comm.modeled if backend == "mp"
                       else sim.tracer)
            out[backend] = {
                "res": res,
                "clock": modeled.clock,
                "by_kernel": dict(modeled.by_kernel),
                "counts": dict(modeled.counts),
            }
    return out["sim"], out["mp"]


def _assert_equivalent(sim_out, mp_out):
    a, b = sim_out["res"], mp_out["res"]
    assert a.x.tobytes() == b.x.tobytes(), "solution bytes differ"
    assert a.converged == b.converged
    assert a.iterations == b.iterations
    assert a.restarts == b.restarts
    assert a.relative_residual == b.relative_residual
    np.testing.assert_array_equal(*a.history.as_arrays()[1:],
                                  *b.history.as_arrays()[1:])
    # the mp modeled twin carries the sim prediction exactly
    assert mp_out["clock"] == sim_out["clock"]
    assert mp_out["by_kernel"] == sim_out["by_kernel"]
    assert mp_out["counts"] == sim_out["counts"]


class TestSolveEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_two_stage_fp64(self, engine):
        a = laplace2d(16)
        sim_out, mp_out = _solve_both(
            a, np.ones(a.shape[0]), engine=engine,
            s=3, restart=12, tol=1e-8, options=SolverOptions())
        assert sim_out["res"].converged
        _assert_equivalent(sim_out, mp_out)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_dd_gram_scheme(self, engine):
        """The dd-Gram passes ride ``allreduce_dd`` on the workers."""
        from repro.precision.kernels import MixedPrecisionTwoStageScheme
        a = laplace2d(16)
        sim_out, mp_out = _solve_both(
            a, np.ones(a.shape[0]), engine=engine,
            s=3, restart=12, tol=1e-8,
            scheme_factory=lambda: MixedPrecisionTwoStageScheme(
                big_step=12, gram="dd", breakdown="shift"))
        assert sim_out["res"].converged
        assert sim_out["counts"][("ortho", "allreduce")] > 0
        _assert_equivalent(sim_out, mp_out)

    @pytest.mark.parametrize("mpk_mode", ["standard", "ca"])
    def test_mpk_modes(self, mpk_mode):
        """Both MPK communication patterns execute identically on real
        ranks — including the CA ghost-zone kernel's driver-side loops
        over shared shards."""
        a = laplace2d(16)
        sim_out, mp_out = _solve_both(
            a, np.ones(a.shape[0]),
            s=3, restart=12, tol=1e-8,
            options=SolverOptions(mpk_mode=mpk_mode))
        assert sim_out["res"].converged
        _assert_equivalent(sim_out, mp_out)

    def test_s_equals_one_degenerate(self):
        a = laplace2d(10)
        sim_out, mp_out = _solve_both(
            a, np.ones(a.shape[0]),
            s=1, restart=10, tol=1e-8, maxiter=3000,
            scheme_factory=lambda: TwoStageScheme(10))
        assert sim_out["res"].converged
        _assert_equivalent(sim_out, mp_out)

    @staticmethod
    def _happy_breakdown(scale=1.0, ranks=4, engine="batched"):
        n = 64
        diag = np.repeat([1.0, 2.0, 3.0, 4.0], n // 4)
        a = sp.diags(diag).tocsr()
        b = scale * np.asarray(a @ np.ones(n)).ravel()
        sim_out, mp_out = _solve_both(
            a, b, engine=engine, ranks=ranks,
            s=2, restart=8, tol=1e-10, maxiter=200,
            scheme_factory=lambda: TwoStageScheme(8))
        res = sim_out["res"]
        assert res.converged
        assert any("breakdown" in rec.events for rec in res.telemetry)
        _assert_equivalent(sim_out, mp_out)

    def test_happy_breakdown_mid_panel(self):
        """Minimal-polynomial-degree-4 operator: the Cholesky breakdown
        and cycle truncation happen identically on the executor."""
        self._happy_breakdown()

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("scale,ranks", [
        (1.0, 7), (3.0, 2), (1e-3, 2), (7.7, 7), (1e5, 2)])
    def test_happy_breakdown_any_last_bit(self, scale, ranks, engine):
        """The fifth basis column is numerically dependent, so whether
        its panel's factorization and the big panel's flush see a tiny
        positive or a tiny negative pivot is decided by the last bit —
        which the right-hand-side scaling, the partition and the engine
        all move.  Every variant must converge: a failed flush falls
        back to the last sound prefix of the cycle instead of dropping
        the whole cycle."""
        self._happy_breakdown(scale, ranks, engine)


class TestMeasuredSide:
    def test_mp_records_wall_clock_per_phase(self):
        """Beyond bit-identity: the measured tracer must actually have
        accumulated wall time in the phases the solve went through."""
        a = laplace2d(16)
        b = np.ones(a.shape[0])
        with Simulation(a, ranks=4, machine=generic_cpu(),
                        backend="mp") as sim:
            res = sstep_gmres(sim, b, s=3, restart=12, tol=1e-8,
                              scheme=TwoStageScheme(12))
            measured = dict(sim.tracer.by_phase)
            measured_kernels = dict(sim.tracer.by_kernel)
        assert res.converged
        for phase in ("spmv", "ortho"):
            assert measured.get(phase, 0.0) > 0.0
        # the worker-executed SpMV splits into halo + local compute
        assert any(k == "spmv_local" for _, k in measured_kernels)
        assert any(k == "halo" for _, k in measured_kernels)
        assert any(k == "allreduce" for _, k in measured_kernels)
