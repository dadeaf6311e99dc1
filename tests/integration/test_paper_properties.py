"""End-to-end checks of the paper's headline structural claims.

These run the *live* solvers (and, for the synchronization algebra, the
estimator beside them) and verify the synchronization algebra, the
convergence equivalences, and the stability claims the paper's abstract
and Section V promise.  The module takes a few seconds, so it runs in
every tier-1 leg: no ``slow`` mark (CI's quick lane deselects
``-m "not slow"``).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.estimator import CycleCostEstimator, ProblemShape

from repro.krylov.gmres import gmres
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import convection_diffusion_2d, laplace2d
from repro.matrices.synthetic import glued_matrix
from repro.ortho.analysis import orthogonality_error
from repro.ortho.base import BlockDriver
from repro.ortho.bcgs import BCGS2Scheme
from repro.ortho.bcgs_pip import BCGSPIP2Scheme
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import generic_cpu, summit
from repro.parallel.partition import Partition


def one_cycle(scheme, nx=16, ranks=6, m=20, s=5):
    sim = Simulation(laplace2d(nx), ranks=ranks, machine=summit())
    b = sim.ones_solution_rhs()
    res = sstep_gmres(sim, b, s=s, restart=m, tol=1e-30, maxiter=m,
                      scheme=scheme)
    return res


@st.composite
def cycle_shapes(draw, nx: int = 16, max_m: int = 40):
    """``(s, bs, m, partition)``: ``bs = k s`` and ``m = j bs <= max_m``
    over a uniform split or explicit ragged offsets of ``nx * nx`` rows."""
    s = draw(st.integers(2, 5))
    bs = s * draw(st.integers(1, max_m // s))
    m = bs * draw(st.integers(1, max_m // bs))
    n, ranks = nx * nx, draw(st.integers(1, 12))
    if draw(st.booleans()):
        return s, bs, m, Partition(n, ranks)
    cuts = draw(st.lists(st.integers(1, n - 1), min_size=ranks - 1,
                         max_size=ranks - 1, unique=True))
    return s, bs, m, Partition(n, ranks, offsets=np.array([0, *sorted(cuts),
                                                           n]))


class TestSynchronizationAlgebra:
    """Sync counts per cycle match the paper's closed forms (live run)."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(shape=cycle_shapes())
    def test_sync_closed_forms_hold_live_and_estimated(self, shape):
        """One live cycle (``tol=0``, ``maxiter=m``) under each scheme
        syncs exactly its closed form, and the estimator's recorded
        cycle of the same ``(m, s, bs)`` prices the same count.

        The right-hand side is random: the all-ones solution's smooth one
        reaches a happy breakdown of the 256-row Krylov space within
        ~25 steps, where the two-stage flush retries on a shorter prefix
        (three more syncs) instead of following the closed form."""
        s, bs, m, part = shape
        rhs = np.random.default_rng(0).standard_normal(part.n_global)
        expected = {
            "two_stage": (lambda: TwoStageScheme(big_step=bs),
                          1 + m // s + m // bs),
            "pip2": (BCGSPIP2Scheme, 1 + 2 * m // s),
            "bcgs2": (BCGS2Scheme, 3 + 5 * (m // s - 1)),
        }
        est = CycleCostEstimator(summit(), part.ranks,
                                 ProblemShape.stencil2d(16), m=m, s=s)
        for config, (scheme, syncs) in expected.items():
            sim = Simulation(laplace2d(16), ranks=part.ranks,
                             partition=part, machine=summit())
            res = sstep_gmres(sim, rhs, s=s, restart=m, tol=0.0, maxiter=m,
                              scheme=scheme())
            assert res.sync_count == syncs, (config, res.sync_count)
            assert est.cycle(config, bs=bs).sync_count() == syncs, config

    def test_bcgs2_five_per_panel(self):
        res = one_cycle(BCGS2Scheme())
        panels = 20 // 5
        # 5 per panel after the first (2 for CholQR2-only panel 1)
        # + 1 initial residual norm
        assert res.sync_count == 5 * (panels - 1) + 2 + 1

    def test_pip2_two_per_panel(self):
        res = one_cycle(BCGSPIP2Scheme())
        panels = 20 // 5
        assert res.sync_count == 2 * panels + 1

    def test_two_stage_one_per_panel_plus_big(self):
        res = one_cycle(TwoStageScheme(big_step=20))
        panels = 20 // 5
        assert res.sync_count == panels + 1 + 1

    def test_standard_three_per_iteration(self):
        sim = Simulation(laplace2d(16), ranks=6, machine=summit())
        b = sim.ones_solution_rhs()
        res = gmres(sim, b, restart=20, tol=1e-30, maxiter=20)
        assert res.sync_count == 3 * 20 + 1


class TestSolverEquivalences:
    def test_all_solvers_same_solution(self):
        a = convection_diffusion_2d(10)
        xs = []
        for kind in ("standard", "bcgs2", "pip2", "two"):
            sim = Simulation(a, ranks=4, machine=generic_cpu())
            b = sim.ones_solution_rhs()
            if kind == "standard":
                res = gmres(sim, b, restart=20, tol=1e-10, maxiter=4000)
            else:
                scheme = {"bcgs2": BCGS2Scheme(), "pip2": BCGSPIP2Scheme(),
                          "two": TwoStageScheme(20)}[kind]
                res = sstep_gmres(sim, b, s=5, restart=20, tol=1e-10,
                                  maxiter=4000, scheme=scheme)
            assert res.converged, kind
            xs.append(res.x)
        for x in xs[1:]:
            np.testing.assert_allclose(x, xs[0], atol=1e-7)

    def test_matches_scipy_solution(self):
        a = laplace2d(12)
        sim = Simulation(a, ranks=4, machine=generic_cpu())
        b = sim.ones_solution_rhs()
        res = sstep_gmres(sim, b, s=5, restart=30, tol=1e-10, maxiter=4000,
                          scheme=TwoStageScheme(30))
        x_ref = spla.spsolve(a.tocsc(), b)
        np.testing.assert_allclose(res.x, x_ref, atol=1e-6)

    def test_true_vs_estimated_residual_agree(self):
        a = laplace2d(16)
        sim = Simulation(a, ranks=4, machine=generic_cpu())
        b = sim.ones_solution_rhs()
        res = sstep_gmres(sim, b, s=5, restart=30, tol=1e-8, maxiter=4000,
                          scheme=BCGSPIP2Scheme())
        true_rel = np.linalg.norm(b - a @ res.x) / np.linalg.norm(b)
        # the solver's reported residual comes from the explicit restart
        # recomputation, so it must match the truth tightly
        assert true_rel == pytest.approx(res.relative_residual, rel=1e-6)


class TestStabilityHeadlines:
    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_two_stage_O_eps_on_random_glued(self, seed):
        """Property test of Theorem V.1's conclusion across random draws."""
        g = glued_matrix(800, 5, 8, panel_cond=1e6, growth=2.0,
                         rng=np.random.default_rng(seed))
        out = BlockDriver(TwoStageScheme(big_step=20), 5).run(g.matrix)
        assert orthogonality_error(out.q) < 1e-12

    def test_two_stage_survives_where_conditioning_grows(self):
        """Paper Fig. 8: prefix kappa crosses 1e9, error stays O(eps)."""
        g = glued_matrix(3000, 5, 12, panel_cond=1e7, growth=2.0,
                         rng=np.random.default_rng(88))
        from repro.ortho.analysis import condition_number
        assert condition_number(g.matrix) > 1e9
        out = BlockDriver(TwoStageScheme(big_step=60), 5).run(g.matrix)
        assert orthogonality_error(out.q) < 1e-12


class TestOrthoTimeOrderingLive:
    def test_full_ordering_on_simulated_summit(self):
        """The abstract's performance ordering out of live (not analytic)
        simulation at 2 Summit nodes."""
        a = laplace2d(24)
        times = {}
        for key in ("standard", "bcgs2", "pip2", "two"):
            sim = Simulation(a, ranks=12, machine=summit())
            b = sim.ones_solution_rhs()
            if key == "standard":
                res = gmres(sim, b, restart=30, tol=1e-30, maxiter=30)
            else:
                scheme = {"bcgs2": BCGS2Scheme(), "pip2": BCGSPIP2Scheme(),
                          "two": TwoStageScheme(30)}[key]
                res = sstep_gmres(sim, b, s=5, restart=30, tol=1e-30,
                                  maxiter=30, scheme=scheme)
            times[key] = res.ortho_time
        assert (times["standard"] > times["bcgs2"] > times["pip2"]
                > times["two"])
