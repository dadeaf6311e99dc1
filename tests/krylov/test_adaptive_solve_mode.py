"""Adaptive solve-mode switching off the PR-3 solver diagnostics."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ConfigurationError
from repro.krylov.options import SOLVE_MODES, SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import generic_cpu


def _laplace_sim():
    return Simulation(laplace2d(20), ranks=4, machine=generic_cpu())


class TestAdaptiveMode:
    def test_adaptive_is_a_registered_mode(self):
        assert SOLVE_MODES == ("classical", "sketched", "adaptive")
        with pytest.raises(ConfigurationError):
            sstep_gmres(_laplace_sim(), np.ones(400),
                        options=SolverOptions(solve_mode="auto"))

    def test_well_conditioned_switches_down_to_classical(self):
        """Healthy diagnostics => the solver drops the sketch collectives
        and finishes in classical mode."""
        sim = _laplace_sim()
        b = sim.ones_solution_rhs()
        res = sstep_gmres(sim, b, s=5, restart=30, tol=1e-8, maxiter=4000,
                          options=SolverOptions(solve_mode="adaptive"))
        assert res.converged
        d = res.diagnostics
        assert d["solve_mode"] == "adaptive"
        assert d["final_mode"] == "classical"
        assert d["mode_switches"] >= 1
        assert d["basis_condition_max"] < 1e3

    def test_ill_conditioned_stays_sketched(self):
        """A basis whose condition estimate exceeds the threshold must
        never drop to the classical coordinate solve."""
        a = sp.diags(np.logspace(0.0, np.log10(50.0), 400)).tocsr()
        b = np.asarray(a @ np.ones(400)).ravel()
        with np.errstate(all="ignore"):
            res = sstep_gmres(
                Simulation(a, ranks=4, machine=generic_cpu()), b, s=14,
                restart=28, tol=1e-8, maxiter=1500,
                scheme=TwoStageScheme(big_step=28, breakdown="shift"),
                options=SolverOptions(solve_mode="adaptive"))
        assert res.converged
        assert res.diagnostics["final_mode"] == "sketched"
        assert res.diagnostics["mode_switches"] == 0
        assert res.diagnostics["basis_condition_max"] > 1e6

    def test_threshold_knobs(self):
        """An impossible condition threshold pins the solver in sketched
        mode even on a benign problem."""
        sim = _laplace_sim()
        b = sim.ones_solution_rhs()
        res = sstep_gmres(sim, b, s=5, restart=30, tol=1e-8, maxiter=4000,
                          options=SolverOptions(solve_mode="adaptive",
                                                adaptive_cond_threshold=0.0))
        assert res.converged
        assert res.diagnostics["final_mode"] == "sketched"
        assert res.diagnostics["mode_switches"] == 0

    def test_adaptive_matches_fixed_modes_solution(self):
        sim = _laplace_sim()
        b = sim.ones_solution_rhs()
        adaptive = sstep_gmres(sim, b, s=5, restart=30, tol=1e-8,
                               maxiter=4000,
                               options=SolverOptions(solve_mode="adaptive"))
        classical = sstep_gmres(_laplace_sim(), b, s=5, restart=30, tol=1e-8,
                                maxiter=4000)
        np.testing.assert_allclose(adaptive.x, classical.x, atol=1e-6)


class TestEmbeddingQualityDiagnostic:
    def test_sketched_solve_surfaces_leave_one_out(self):
        sim = _laplace_sim()
        b = sim.ones_solution_rhs()
        res = sstep_gmres(sim, b, s=5, restart=30, tol=1e-8, maxiter=4000,
                          options=SolverOptions(solve_mode="sketched"))
        d = res.diagnostics
        assert "embedding_distortion_max" in d
        assert np.isfinite(d["embedding_distortion_max"])
        assert d["embedding_distortion_max"] > 0.0

    def test_classical_solve_has_no_embedding_diag(self):
        sim = _laplace_sim()
        b = sim.ones_solution_rhs()
        res = sstep_gmres(sim, b, s=5, restart=30, tol=1e-8, maxiter=4000)
        assert "embedding_distortion_max" not in res.diagnostics
