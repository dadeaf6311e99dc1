"""SolveResult.telemetry: per-cycle records from the real solvers, and
their consistency with the legacy diagnostics keys they now back."""

from __future__ import annotations

import numpy as np
import pytest

from repro.krylov.options import SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.obs.telemetry import CycleRecord
from repro.ortho.randomized import SketchedTwoStageScheme
from repro.ortho.two_stage import TwoStageScheme


def _solve(nx=24, s=3, restart=12, tol=1e-9, **kw):
    sim = Simulation(laplace2d(nx), ranks=4)
    return sstep_gmres(sim, sim.ones_solution_rhs(), s=s, restart=restart,
                       tol=tol, maxiter=400, **kw)


class TestSstepTelemetry:
    def test_one_record_per_restart(self):
        res = _solve(scheme=TwoStageScheme(big_step=12))
        assert len(res.telemetry) == res.restarts
        assert all(isinstance(r, CycleRecord) for r in res.telemetry)
        assert [r.cycle for r in res.telemetry] == list(range(res.restarts))

    def test_iterations_cumulative_and_final(self):
        res = _solve(scheme=TwoStageScheme(big_step=12))
        iters = [r.iterations for r in res.telemetry]
        assert iters == sorted(iters)
        assert iters[-1] == res.iterations

    def test_residual_norm_tracks_convergence(self):
        res = _solve(scheme=TwoStageScheme(big_step=12))
        assert res.converged
        assert res.telemetry[-1].residual_norm is not None
        assert res.telemetry[-1].residual_norm <= res.telemetry[0].residual_norm

    def test_residual_gap_lands_one_cycle_late(self):
        """The explicit residual exposing cycle k's gap is computed at
        cycle k+1's top — so all but possibly the last record carry one
        (the gap monitor runs on the sketched path only)."""
        res = _solve(nx=32, tol=1e-11,
                     scheme=SketchedTwoStageScheme(big_step=12),
                     options=SolverOptions(solve_mode="sketched"))
        if res.restarts < 2:
            pytest.skip("needs at least two restart cycles")
        gaps = [r.residual_gap for r in res.telemetry[:-1]]
        assert all(g is not None and g >= 0.0 for g in gaps)
        # a classical solve has no sketch, hence no gap observations
        classical = _solve(scheme=TwoStageScheme(big_step=12))
        assert all(r.residual_gap is None for r in classical.telemetry)

    def test_diagnostics_derived_from_telemetry(self):
        res = _solve(scheme=SketchedTwoStageScheme(big_step=12),
                     options=SolverOptions(solve_mode="sketched"))
        conds = [r.basis_condition for r in res.telemetry
                 if r.basis_condition is not None]
        assert conds, "sketched cycles must observe basis condition"
        assert res.diagnostics["basis_condition_max"] == max(conds)
        gaps = [r.residual_gap for r in res.telemetry
                if r.residual_gap is not None]
        assert res.diagnostics["residual_gap_max"] == max(gaps + [0.0])
        dist = [r.embedding_distortion for r in res.telemetry
                if r.embedding_distortion is not None]
        assert res.diagnostics["embedding_distortion_max"] == max(
            dist + [0.0])

    def test_mode_stamped_per_cycle(self):
        res = _solve(scheme=TwoStageScheme(big_step=12))
        assert all(r.mode == "classical" for r in res.telemetry)
        res = _solve(scheme=SketchedTwoStageScheme(big_step=12),
                     options=SolverOptions(solve_mode="sketched"))
        assert all(r.mode == "sketched" for r in res.telemetry)


class TestAdaptiveTelemetry:
    def test_segments_concatenate_with_global_numbering(self):
        from repro.krylov.adaptive import adaptive_sstep_gmres
        sim = Simulation(laplace2d(24), ranks=4)
        res = adaptive_sstep_gmres(sim, sim.ones_solution_rhs(), s_max=6,
                                   restart=12, tol=1e-9, maxiter=400)
        cycles = [r.cycle for r in res.telemetry]
        assert cycles == sorted(cycles)
        assert len(set(cycles)) == len(cycles), "renumbering must not collide"
        iters = [r.iterations for r in res.telemetry]
        assert iters == sorted(iters)


class TestTelemetrySerialization:
    def test_records_round_trip_json(self):
        import json
        res = _solve(scheme=TwoStageScheme(big_step=12))
        docs = [r.to_dict() for r in res.telemetry]
        back = [CycleRecord.from_dict(d) for d in json.loads(json.dumps(docs))]
        assert back == res.telemetry

    def test_telemetry_is_plain_list_of_floats(self):
        res = _solve(scheme=TwoStageScheme(big_step=12))
        for r in res.telemetry:
            for v in (r.residual_norm, r.residual_gap, r.basis_condition):
                assert v is None or isinstance(v, float)
            assert not isinstance(r.iterations, np.integer)
