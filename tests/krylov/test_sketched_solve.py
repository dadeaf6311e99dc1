"""Sketch-space least squares + the sstep_gmres solve_mode switch."""

from __future__ import annotations

import importlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ConfigurationError, ShapeError
from repro.krylov.hessenberg import (
    least_squares_residual,
    sketched_least_squares,
)
from repro.krylov.options import SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.ortho.randomized import RBCGSScheme, SketchedTwoStageScheme
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import generic_cpu

ENGINES = ["loop", "batched"]


def make_sim(a, ranks=4, engine=None):
    return Simulation(a, ranks=ranks, machine=generic_cpu(), engine=engine)


def random_hessenberg(rng, c):
    h = np.triu(rng.standard_normal((c + 1, c)), -1)
    return h


class TestSketchedLeastSquares:
    def test_orthonormal_sketch_matches_classical(self, rng):
        """With an orthonormal sketched basis the sketch-space solve is
        the classical coordinate solve."""
        c = 8
        h = random_hessenberg(rng, c)
        rhs = rng.standard_normal(c + 1)
        sq, _ = np.linalg.qr(rng.standard_normal((4 * (c + 1), c + 1)))
        y_ref, r_ref = least_squares_residual(h, 1.0, rhs=rhs)
        y, resid, info = sketched_least_squares(sq, h, rhs)
        np.testing.assert_allclose(y, y_ref, rtol=1e-10, atol=1e-12)
        assert resid == pytest.approx(r_ref, rel=1e-10, abs=1e-14)
        assert info["basis_condition"] == pytest.approx(1.0, rel=1e-10)
        assert info["embedding_rows"] == 4 * (c + 1)
        assert not info["rank_deficient"]

    def test_minimizes_embedded_residual_on_skewed_basis(self, rng):
        """On a non-orthogonal basis the sketch-space minimizer beats the
        coordinate minimizer in the *embedded* (true-residual) metric."""
        c = 6
        h = random_hessenberg(rng, c)
        rhs = rng.standard_normal(c + 1)
        # a deliberately skewed "basis sketch": SV with cond ~ 1e6
        sq = (np.linalg.qr(rng.standard_normal((40, c + 1)))[0]
              * np.logspace(0, -6, c + 1)[np.newaxis, :])
        y, resid, info = sketched_least_squares(sq, h, rhs)
        y_dense = np.linalg.lstsq(sq @ h, sq @ rhs, rcond=None)[0]
        np.testing.assert_allclose(y, y_dense, rtol=1e-6, atol=1e-9)
        assert resid == pytest.approx(
            float(np.linalg.norm(sq @ rhs - (sq @ h) @ y)), rel=1e-8,
            abs=1e-12)
        y_cls, _ = least_squares_residual(h, 1.0, rhs=rhs)
        cls_embedded = float(np.linalg.norm(sq @ (rhs - h @ y_cls)))
        assert resid <= cls_embedded + 1e-12
        assert info["basis_condition"] == pytest.approx(1e6, rel=1e-3)

    def test_rank_deficient_sketch_falls_back(self, rng):
        c = 4
        h = random_hessenberg(rng, c)
        sq = rng.standard_normal((20, c + 1))
        sq[:, -1] = 0.0  # exactly dependent sketched column
        y, resid, info = sketched_least_squares(sq, h, np.ones(c + 1))
        assert info["rank_deficient"]
        assert np.isinf(info["basis_condition"])
        assert np.all(np.isfinite(y)) and np.isfinite(resid)

    def test_shape_errors(self, rng):
        h = random_hessenberg(rng, 4)
        good = rng.standard_normal((20, 5))
        with pytest.raises(ShapeError):  # not a Hessenberg shape
            sketched_least_squares(good, np.zeros((4, 4)), np.ones(4))
        with pytest.raises(ShapeError):  # sketch misses basis columns
            sketched_least_squares(good[:, :4], h, np.ones(5))
        with pytest.raises(ShapeError):  # fewer sketch rows than columns
            sketched_least_squares(good[:4], h, np.ones(5))
        with pytest.raises(ShapeError):  # rhs length mismatch
            sketched_least_squares(good, h, np.ones(4))


class TestSolveModeSwitch:
    def test_unknown_mode_rejected(self):
        sim = make_sim(laplace2d(8))
        with pytest.raises(ConfigurationError):
            sstep_gmres(sim, np.ones(sim.n),
                        options=SolverOptions(solve_mode="randomised"))

    def test_classical_mode_has_no_diagnostics(self):
        sim = make_sim(laplace2d(8))
        res = sstep_gmres(sim, sim.ones_solution_rhs(), s=3, restart=9)
        assert res.diagnostics == {}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sketched_with_classical_scheme(self, engine):
        """A deterministic scheme has no basis sketch; the solver
        maintains one itself and still converges."""
        sim = make_sim(laplace2d(16), engine=engine)
        b = sim.ones_solution_rhs()
        res = sstep_gmres(sim, b, s=5, restart=20, tol=1e-8, maxiter=3000,
                          scheme=TwoStageScheme(big_step=20),
                          options=SolverOptions(solve_mode="sketched"))
        assert res.converged
        np.testing.assert_allclose(res.x, 1.0, atol=1e-5)
        d = res.diagnostics
        assert d["solve_mode"] == "sketched"
        assert d["basis_condition_max"] >= 1.0
        # residual gap bounded by the embedding distortion, not eps
        assert d["residual_gap_max"] < 1e-2
        assert d["embedding_rows"] > 21

    @pytest.mark.parametrize("make_scheme", [
        lambda: RBCGSScheme(),
        lambda: SketchedTwoStageScheme(big_step=10, fused=True),
    ], ids=["rbcgs", "fused-sketched-two-stage"])
    def test_sketched_reuses_scheme_sketch(self, make_scheme):
        """Randomized schemes expose their basis sketch; over one fixed
        restart cycle the sketched solve must charge exactly as many
        collectives as the classical mode (ZERO extra sketches)."""
        a = laplace2d(16)
        results = {}
        for mode in ("classical", "sketched"):
            sim = make_sim(a)
            # tol unreachable + maxiter == restart: exactly one full
            # cycle runs in both modes, so collectives are comparable.
            res = sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=20,
                              tol=1e-30, maxiter=20, scheme=make_scheme(),
                              options=SolverOptions(solve_mode=mode))
            results[mode] = res
        assert (results["sketched"].sync_count
                == results["classical"].sync_count)

    def test_solver_sketch_costs_one_collective_per_checkpoint(self):
        """Without a scheme sketch the solver sketches newly-finalized
        columns itself: one extra allreduce per checkpoint."""
        a = laplace2d(16)
        results = {}
        for mode in ("classical", "sketched"):
            sim = make_sim(a)
            res = sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=20,
                              tol=1e-30, maxiter=20,
                              scheme=TwoStageScheme(big_step=10),
                              options=SolverOptions(solve_mode=mode))
            results[mode] = res
        checkpoints = len(results["sketched"].history) - 1  # minus iter 0
        assert (results["sketched"].sync_count
                == results["classical"].sync_count + checkpoints)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fused_rgs_converges(self, engine):
        sim = make_sim(laplace2d(16), engine=engine)
        b = sim.ones_solution_rhs()
        res = sstep_gmres(sim, b, s=5, restart=20, tol=1e-8, maxiter=3000,
                          scheme=SketchedTwoStageScheme(big_step=20,
                                                        fused=True),
                          options=SolverOptions(solve_mode="sketched"))
        assert res.converged
        a = sim.matrix.to_scipy()
        true_rel = np.linalg.norm(b - a @ res.x) / np.linalg.norm(b)
        assert true_rel <= 1e-7

    def test_engines_bit_identical(self):
        """The full sketched solve is bit-reproducible across engines."""
        a = laplace2d(14)
        xs = {}
        for engine in ENGINES:
            sim = make_sim(a, engine=engine)
            res = sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=20,
                              tol=1e-8, maxiter=2000,
                              scheme=SketchedTwoStageScheme(big_step=20,
                                                            fused=True),
                              options=SolverOptions(solve_mode="sketched"))
            xs[engine] = (res.x, res.iterations, res.relative_residual)
        np.testing.assert_array_equal(xs["loop"][0], xs["batched"][0])
        assert xs["loop"][1:] == xs["batched"][1:]


class TestEdgeCases:
    """Hessenberg-recovery edge cases, both solve modes, both engines."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("solve_mode", ["classical", "sketched"])
    def test_zero_rhs(self, engine, solve_mode):
        sim = make_sim(laplace2d(8), engine=engine)
        res = sstep_gmres(sim, np.zeros(sim.n), s=3, restart=9,
                          options=SolverOptions(solve_mode=solve_mode))
        assert res.converged and res.iterations == 0

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("solve_mode", ["classical", "sketched"])
    def test_s_equals_one_degenerate_cycle(self, engine, solve_mode):
        """s=1: every panel is a single column (the first block two);
        the mixed Hessenberg recovery degenerates to standard Arnoldi
        bookkeeping and must still converge."""
        sim = make_sim(laplace2d(10), engine=engine)
        b = sim.ones_solution_rhs()
        res = sstep_gmres(sim, b, s=1, restart=12, tol=1e-8, maxiter=3000,
                          options=SolverOptions(solve_mode=solve_mode))
        assert res.converged
        np.testing.assert_allclose(res.x, 1.0, atol=1e-5)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("solve_mode", ["classical", "sketched"])
    def test_happy_breakdown_mid_panel(self, engine, solve_mode):
        """An operator with minimal polynomial degree 4 closes the
        Krylov space mid-cycle: the second panel's Cholesky breaks down,
        the solver truncates at the last sound checkpoint, and the
        restart loop still drives the residual to tol."""
        n = 64
        diag = np.repeat([1.0, 2.0, 3.0, 4.0], n // 4)
        a = sp.diags(diag).tocsr()
        sim = make_sim(a, engine=engine)
        b = np.asarray(a @ np.ones(n)).ravel()
        res = sstep_gmres(sim, b, s=2, restart=8, tol=1e-10, maxiter=200,
                          options=SolverOptions(solve_mode=solve_mode))
        assert res.converged
        np.testing.assert_allclose(res.x, 1.0, atol=1e-8)
        # the space closed at dimension 4: no cycle ran to full restart
        assert res.iterations < 8 * res.restarts + 8

    def test_total_breakdown_still_stalls(self):
        """A = I closes the space immediately in every cycle; the solver
        must stop with stalled=True in sketched mode too (no checkpoint
        is ever produced)."""
        a = sp.identity(32, format="csr") * 2.0
        sim = make_sim(a)
        b = np.ones(32) * 2.0
        res = sstep_gmres(sim, b, s=3, restart=9, tol=1e-20, maxiter=100,
                          options=SolverOptions(solve_mode="sketched"))
        assert not res.converged
        assert res.stalled


class TestAutomaticResketch:
    """The leave-one-out monitor redraws the embedding mid-solve."""

    @pytest.fixture
    def forced_redraw(self, monkeypatch):
        """A threshold below any achievable distortion: every cycle's
        checkpoint arms a redraw."""
        # the package re-exports the function under the module's name
        module = importlib.import_module("repro.krylov.sstep_gmres")
        monkeypatch.setattr(module, "DEFAULT_RESKETCH_THRESHOLD", -1.0)

    def test_constants_keep_the_old_option_defaults(self):
        """The family and the redraw threshold used to be SolverOptions
        fields; every caller ran on these defaults."""
        module = importlib.import_module("repro.krylov.sstep_gmres")
        assert module.SKETCH_FAMILY == "sparse"
        assert module.DEFAULT_RESKETCH_THRESHOLD == 10.0

    def test_healthy_embedding_never_resketches(self):
        sim = make_sim(laplace2d(16))
        res = sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=20,
                          tol=1e-8, maxiter=3000,
                          scheme=TwoStageScheme(big_step=20),
                          options=SolverOptions(solve_mode="sketched"))
        assert res.converged
        assert res.diagnostics["resketch_count"] == 0

    def test_threshold_crossing_redraws_operator(self, forced_redraw):
        """With every cycle's checkpoint arming a redraw, the solve keeps
        converging on the freshly drawn embeddings and reports the
        count."""
        sim = make_sim(laplace2d(16))
        res = sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=10,
                          tol=1e-8, maxiter=3000,
                          scheme=TwoStageScheme(big_step=10),
                          options=SolverOptions(solve_mode="sketched"))
        assert res.converged
        assert res.diagnostics["resketch_count"] >= 1
        # at most one redraw per restart cycle, however many checkpoints
        assert res.diagnostics["resketch_count"] <= res.restarts

    def test_resketch_overrides_scheme_sketch(self, forced_redraw):
        """After a redraw the solver cannot keep reusing the scheme's
        basis sketch (it cannot redraw the scheme's operators), so it
        maintains its own — and still converges with the fused scheme."""
        sim = make_sim(laplace2d(16))
        res = sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=10,
                          tol=1e-8, maxiter=3000,
                          scheme=SketchedTwoStageScheme(big_step=10,
                                                        fused=True),
                          options=SolverOptions(solve_mode="sketched"))
        assert res.converged
        assert res.diagnostics["resketch_count"] >= 1


class TestEmbeddingQualityDiagnostic:
    def test_sketched_solve_surfaces_leave_one_out(self):
        sim = make_sim(laplace2d(20))
        res = sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=30,
                          tol=1e-8, maxiter=4000,
                          options=SolverOptions(solve_mode="sketched"))
        d = res.diagnostics
        assert "embedding_distortion_max" in d
        assert np.isfinite(d["embedding_distortion_max"])
        assert d["embedding_distortion_max"] > 0.0

    def test_classical_solve_has_no_embedding_diag(self):
        sim = make_sim(laplace2d(20))
        res = sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=30,
                          tol=1e-8, maxiter=4000)
        assert "embedding_distortion_max" not in res.diagnostics
