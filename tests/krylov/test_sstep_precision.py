"""The solve runs its basis in fp64; a dd-Gram orthogonalization reaches
it as ``scheme=``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.krylov.options import SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.ortho.bcgs_pip import BCGSPIP2Scheme
from repro.parallel.machine import generic_cpu
from repro.precision.kernels import MixedPrecisionTwoStageScheme

NX = 20
A = laplace2d(NX)


def _solve(engine=None, **kw):
    sim = Simulation(A, ranks=4, machine=generic_cpu(), engine=engine)
    b = sim.ones_solution_rhs()
    return sstep_gmres(sim, b, **{"s": 5, "restart": 30, "tol": 1e-8,
                                   "maxiter": 4000, **kw})


def _dd_scheme(stages=("first", "big_panel")):
    return MixedPrecisionTwoStageScheme(big_step=30, gram="dd",
                                        breakdown="shift", stages=stages)


STAGES = [("first",), ("big_panel",), ("first", "big_panel")]


class TestDefaults:
    def test_default_solve_reports_no_precision_keys(self):
        res = _solve()
        assert res.converged
        assert not {"precision", "storage"} & set(res.diagnostics)

    def test_default_scheme_is_pip2(self):
        assert _solve().scheme == BCGSPIP2Scheme.name

    def test_block_default_scheme_is_pip2(self):
        from repro.krylov.block import block_sstep_gmres
        sim = Simulation(A, ranks=4, machine=generic_cpu())
        bs = np.stack([sim.ones_solution_rhs()] * 2, axis=1)
        members = block_sstep_gmres(sim, bs, s=5, restart=30, tol=1e-8)
        assert [m.scheme for m in members] == [BCGSPIP2Scheme.name] * 2


class TestDDGramScheme:
    def test_dd_gram_scheme_converges(self):
        res = _solve(scheme=_dd_scheme())
        assert res.converged
        assert res.scheme == MixedPrecisionTwoStageScheme.name
        x = np.ones(A.shape[0])
        assert np.linalg.norm(res.x - x) / np.linalg.norm(x) < 1e-6

    @pytest.mark.parametrize("basis", ["monomial", "newton"])
    @pytest.mark.parametrize("stages", STAGES, ids="+".join)
    def test_engines_bit_identical(self, stages, basis):
        loop = _solve(engine="loop", scheme=_dd_scheme(stages), basis=basis)
        batched = _solve(engine="batched", scheme=_dd_scheme(stages),
                         basis=basis)
        assert loop.converged
        assert loop.x.tobytes() == batched.x.tobytes()
        assert loop.iterations == batched.iterations
        assert loop.total_time == batched.total_time
        assert loop.sync_count == batched.sync_count

    def test_dd_passes_cost_more_syncs_than_fp64(self):
        """A dd pass with a prefix cannot fuse P into the dd collective,
        so the same solve synchronizes more often than the fp64 pass of
        the classical two-stage scheme."""
        from repro.ortho.two_stage import TwoStageScheme
        dd = _solve(scheme=_dd_scheme(), maxiter=60, tol=0.0)
        fp64 = _solve(scheme=TwoStageScheme(big_step=30, breakdown="shift"),
                      maxiter=60, tol=0.0)
        assert dd.iterations == fp64.iterations == 60
        assert dd.sync_count > fp64.sync_count

    def test_block_members_match_scalar_solves(self):
        from repro.krylov.block import block_sstep_gmres
        sim = Simulation(A, ranks=4, machine=generic_cpu())
        bs = np.stack([sim.ones_solution_rhs(),
                       np.linspace(1.0, 2.0, sim.n)], axis=1)
        members = block_sstep_gmres(sim, bs, s=5, restart=30, tol=1e-8,
                                    maxiter=4000,
                                    scheme_factory=_dd_scheme)
        for col, member in enumerate(members):
            alone = Simulation(A, ranks=4, machine=generic_cpu())
            ref = sstep_gmres(alone, bs[:, col], s=5, restart=30, tol=1e-8,
                              maxiter=4000, scheme=_dd_scheme())
            assert member.scheme == MixedPrecisionTwoStageScheme.name
            assert member.x.tobytes() == ref.x.tobytes()
            assert member.iterations == ref.iterations

    def test_dd_gram_with_sketched_solve_mode(self):
        res = _solve(scheme=_dd_scheme(),
                     options=SolverOptions(solve_mode="sketched"))
        assert res.converged
        assert res.diagnostics["solve_mode"] == "sketched"

