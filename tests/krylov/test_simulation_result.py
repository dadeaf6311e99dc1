"""Simulation bundle and result containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.krylov.result import ConvergenceHistory, SolveResult
from repro.krylov.simulation import Simulation
from repro.matrices.stencil import laplace2d
from repro.parallel.machine import generic_cpu, vortex
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer


class TestSimulation:
    def test_default_machine_is_summit(self):
        sim = Simulation(laplace2d(6), ranks=2)
        assert sim.machine.name == "summit"

    def test_shared_tracer(self):
        tr = Tracer()
        sim = Simulation(laplace2d(6), ranks=2, machine=generic_cpu(),
                         tracer=tr)
        assert sim.tracer is tr
        sim.matrix.matvec(sim.vector_from(np.ones(36)))
        assert tr.clock > 0

    def test_explicit_partition(self):
        part = Partition(36, 3)
        sim = Simulation(laplace2d(6), ranks=3, machine=generic_cpu(),
                         partition=part)
        assert sim.partition is part

    def test_partition_mismatch(self):
        with pytest.raises(ShapeError):
            Simulation(laplace2d(6), ranks=3, partition=Partition(36, 4))

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    @pytest.mark.parametrize("entry", [np.nan, -np.inf])
    def test_non_finite_matrix_refused_before_any_charge(self, entry,
                                                         backend):
        """Let in, it surfaces from inside the first trsm as a bare
        ValueError naming no argument, 14 charges into the solve."""
        a = laplace2d(6).tocsr()
        a.data[7] = entry
        tracer = Tracer()
        with pytest.raises(ConfigurationError,
                           match="matrix contains non-finite entries"):
            Simulation(a, ranks=4, machine=generic_cpu(), tracer=tracer,
                       backend=backend)
        assert tracer.clock == 0.0 and not tracer.counts

    def test_ones_solution_rhs(self):
        sim = Simulation(laplace2d(5), ranks=2, machine=vortex())
        b = sim.ones_solution_rhs()
        np.testing.assert_allclose(b, laplace2d(5) @ np.ones(25))

    def test_vector_helpers(self):
        sim = Simulation(laplace2d(5), ranks=2, machine=generic_cpu())
        v = sim.vector_from(np.arange(25.0))
        assert v.shape == (25, 1)
        z = sim.zeros(3)
        assert z.shape == (25, 3)
        assert "Simulation" in repr(sim)


class TestConvergenceHistory:
    def test_record_and_arrays(self):
        h = ConvergenceHistory()
        h.record(0, 1.0)
        h.record(5, 0.1)
        its, res = h.as_arrays()
        np.testing.assert_array_equal(its, [0, 5])
        np.testing.assert_allclose(res, [1.0, 0.1])
        assert len(h) == 2


class TestSolveResult:
    def test_derived_metrics(self):
        r = SolveResult(x=np.ones(3), converged=True, iterations=10,
                        restarts=2, relative_residual=1e-7,
                        history=ConvergenceHistory(),
                        times={"total": 2.0, "ortho": 1.0, "spmv": 0.5,
                               "precond": 0.25},
                        solver="s", scheme="t")
        assert r.total_time == 2.0
        assert r.ortho_time == 1.0
        assert r.spmv_time == 0.75  # spmv + precond
        assert r.time_per_iteration() == 0.2
        assert "converged" in r.summary()

    def test_zero_iteration_guard(self):
        r = SolveResult(x=np.ones(1), converged=True, iterations=0,
                        restarts=0, relative_residual=0.0,
                        history=ConvergenceHistory(), times={"total": 1.0})
        assert r.time_per_iteration() == 1.0
