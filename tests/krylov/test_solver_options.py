"""SolverOptions: validation, the one way in, and wiring."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

import repro
from repro.exceptions import ConfigurationError
from repro.krylov.options import (
    MPK_SOLVER_MODES,
    SOLVE_MODES,
    SolverOptions,
)
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import generic_cpu


def make_sim():
    return Simulation(laplace2d(12), ranks=4, machine=generic_cpu())


def solve(sim, **kwargs):
    b = np.ones(sim.n)
    return sstep_gmres(sim, b, s=3, restart=9, tol=1e-8,
                       scheme=TwoStageScheme(9), **kwargs)


class TestDataclass:
    def test_defaults(self):
        opts = SolverOptions()
        assert opts.solve_mode == "classical"
        assert opts.mpk_mode == "standard"

    def test_fields_are_the_two_caller_knobs(self):
        assert [f.name for f in dataclasses.fields(SolverOptions)] == [
            "solve_mode", "mpk_mode"]

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SolverOptions().solve_mode = "sketched"

    @pytest.mark.parametrize("mode", ["quantum", "adaptive"])
    def test_invalid_solve_mode(self, mode):
        with pytest.raises(ConfigurationError, match="solve_mode"):
            SolverOptions(solve_mode=mode)

    def test_invalid_mpk_mode(self):
        # "ca_overlap" is the retired overlapped (PA2) kernel
        for mode in ("telepathy", "ca_overlap"):
            with pytest.raises(ConfigurationError, match="mpk_mode") as info:
                SolverOptions(mpk_mode=mode)
            assert repr(mode) in str(info.value)
            assert str(MPK_SOLVER_MODES) in str(info.value)

    @pytest.mark.parametrize("field, value", [
        ("solve_mode", "Sketched"), ("solve_mode", None),
        ("mpk_mode", "CA"), ("mpk_mode", None),
    ])
    def test_bad_field_is_refused_at_construction(self, field, value):
        """Refused when the options are built — before a solve could
        charge anything."""
        fields = dict(solve_mode="sketched", mpk_mode="auto")
        fields[field] = value
        with pytest.raises(ConfigurationError, match=field):
            SolverOptions(**fields)

    @pytest.mark.parametrize("field, value", [
        *(("solve_mode", mode) for mode in SOLVE_MODES),
        *(("mpk_mode", mode) for mode in MPK_SOLVER_MODES),
    ])
    def test_legal_edge_values_are_kept(self, field, value):
        assert getattr(SolverOptions(**{field: value}), field) == value

    def test_replace_revalidates(self):
        opts = SolverOptions().replace(solve_mode="sketched")
        assert opts.solve_mode == "sketched"
        with pytest.raises(ConfigurationError):
            opts.replace(mpk_mode="nope")

    def test_mode_constants(self):
        assert SOLVE_MODES == ("classical", "sketched")
        assert MPK_SOLVER_MODES == ("standard", "ca", "auto")

    def test_top_level_exports(self):
        assert repro.SolverOptions is SolverOptions
        assert "SolverOptions" in repro.__all__
        assert "make_comm" in repro.__all__
        assert repro.make_comm is repro.parallel.make_comm


class TestOptionsPath:
    def test_options_drive_the_solve(self):
        sim = make_sim()
        res = solve(sim, options=SolverOptions(solve_mode="sketched"))
        assert res.converged
        assert res.diagnostics["solve_mode"] == "sketched"

    def test_none_options_means_defaults(self):
        sim = make_sim()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no deprecation noise
            res = solve(sim)
        assert res.converged
        assert "solve_mode" not in res.diagnostics


class TestOneWayIn:
    """``options=SolverOptions(...)`` is the only route for a knob."""

    def test_bare_knob_is_type_error(self):
        sim = make_sim()
        with pytest.raises(TypeError, match="unexpected keyword"):
            solve(sim, solve_mode="sketched")
        assert sim.tracer.clock == 0.0


class TestDownstreamWiring:
    def test_adaptive_forwards_options(self):
        from repro.krylov.adaptive import adaptive_sstep_gmres
        sim = make_sim()
        res = adaptive_sstep_gmres(
            sim, np.ones(sim.n), s_max=3, restart=9, tol=1e-8,
            options=SolverOptions(solve_mode="sketched"))
        assert res.converged
        assert res.diagnostics["solve_mode"] == "sketched"
