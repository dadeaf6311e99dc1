"""Tracer-based communication-budget regression tests.

Every synchronization the solver charges per restart cycle is frozen
here — halo exchanges split by MPK mode, allreduces split by
orthogonalization scheme — as BOTH a message count and a payload byte
budget (``Tracer.collective_counts(payload_bytes=True)``).  The counts
are structural, not tuned:

* halo exchanges: 1 (explicit residual check) + one per basis column
  for the standard MPK, or + one per s-panel for the CA MPK;
* allreduces: 1 (residual norm) + the scheme's per-panel collectives
  (two-stage: one fused stage-1 reduce per panel + one stage-2 pass at
  the cycle end; BCGS-PIP2: two fused reduces per panel — the paper's
  "two global reduces per block"; fused sketched two-stage: ONE
  collective per stage pass, the RGS contract; RBCGS: three per panel —
  sketch, projection, normalization).

The byte budgets are exact for the fixed problem below (laplace2d(16)
on 4 ranks): payloads come from the charge sites' message descriptors,
so they are deterministic and engine-independent.  If an intentional
algorithm change shifts a budget, update the number here *in the same
commit* and say why in its message.
"""

from __future__ import annotations

import pytest

from repro.krylov.options import SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import _panel_bounds, sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.ortho.bcgs_pip import BCGSPIP2Scheme
from repro.ortho.randomized import RBCGSScheme, SketchedTwoStageScheme
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import generic_cpu

S = 5
RESTART = 30
PANELS = len(_panel_bounds(S, RESTART + 1))  # 6 panels per cycle
ENGINES = ["loop", "batched"]

# Frozen payload budgets (bytes) for laplace2d(16) on 4 ranks.  The
# depth-1 halo moves two 16-wide ghost rows of float64 per exchange;
# the residual-norm allreduce carries one scalar.  Scheme totals are
# the summed Gram/sketch message descriptors over one restart cycle.
HALO_EXCHANGE_BYTES = 2 * 16 * 8       # 256 B per depth-1 exchange
CA_HALO_BYTES = 7_168                  # deep-ghost total, any CA mode
RESIDUAL_NORM_BYTES = 8                # one scalar reduce
TWO_STAGE_ORTHO_BYTES = 12_176
BCGS_PIP2_ORTHO_BYTES = 8_976
FUSED_SKETCHED_ORTHO_BYTES = 80_576
RBCGS_ORTHO_BYTES = 86_352


def run_one_cycle(scheme_factory, engine, **option_kw):
    """Exactly one restart cycle: tol unreachable, maxiter = restart.

    Returns (total, ortho-phase) ``collective_counts`` docs, each
    ``{kind: {"count": n, "bytes": b}}``.
    """
    sim = Simulation(laplace2d(16), ranks=4, machine=generic_cpu(),
                     engine=engine)
    res = sstep_gmres(sim, sim.ones_solution_rhs(), s=S, restart=RESTART,
                      tol=1e-30, maxiter=RESTART, scheme=scheme_factory(),
                      options=SolverOptions(**option_kw))
    assert res.restarts == 1
    total = sim.tracer.collective_counts(payload_bytes=True)
    ortho = sim.tracer.collective_counts("ortho", payload_bytes=True)
    return total, ortho


class TestHaloBudget:
    """1 residual matvec + (columns | panels) MPK exchanges per cycle."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_standard_mpk_pays_one_exchange_per_column(self, engine):
        total, _ = run_one_cycle(
            lambda: TwoStageScheme(big_step=RESTART), engine)
        assert total["halo"]["count"] == 1 + RESTART
        assert total["halo"]["bytes"] == (1 + RESTART) * HALO_EXCHANGE_BYTES

    @pytest.mark.parametrize("engine", ENGINES)
    def test_ca_mpk_pays_one_exchange_per_panel(self, engine):
        total, _ = run_one_cycle(
            lambda: TwoStageScheme(big_step=RESTART), engine, mpk_mode="ca")
        assert total["halo"]["count"] == 1 + PANELS
        assert total["halo"]["bytes"] == CA_HALO_BYTES

    def test_mpk_mode_does_not_change_allreduce_budget(self):
        """CA trades halo latency only — global reductions are the
        ortho schemes' business: neither their count nor their payload
        may move."""
        std_total, std_ortho = run_one_cycle(
            lambda: TwoStageScheme(big_step=RESTART), "loop")
        ca_total, ca_ortho = run_one_cycle(
            lambda: TwoStageScheme(big_step=RESTART), "loop", mpk_mode="ca")
        assert ca_total["allreduce"] == std_total["allreduce"]
        assert ca_ortho["allreduce"] == std_ortho["allreduce"]


class TestAllreduceBudget:
    """Per-cycle global-reduction budgets per orthogonalization scheme."""

    @staticmethod
    def _check(total, ortho, *, count, ortho_bytes):
        assert ortho["allreduce"]["count"] == count
        assert total["allreduce"]["count"] == count + 1
        assert ortho["allreduce"]["bytes"] == ortho_bytes
        assert (total["allreduce"]["bytes"] - ortho["allreduce"]["bytes"]
                == RESIDUAL_NORM_BYTES)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_two_stage(self, engine):
        total, ortho = run_one_cycle(
            lambda: TwoStageScheme(big_step=RESTART), engine)
        # one fused stage-1 reduce per panel + one stage-2 pass at the
        # cycle end + the residual-norm reduce
        self._check(total, ortho, count=PANELS + 1,
                    ortho_bytes=TWO_STAGE_ORTHO_BYTES)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_bcgs_pip2(self, engine):
        total, ortho = run_one_cycle(BCGSPIP2Scheme, engine)
        # the paper's one-stage baseline: 2 fused reduces per panel
        self._check(total, ortho, count=2 * PANELS,
                    ortho_bytes=BCGS_PIP2_ORTHO_BYTES)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fused_sketched_two_stage(self, engine):
        total, ortho = run_one_cycle(
            lambda: SketchedTwoStageScheme(big_step=RESTART, fused=True),
            engine, solve_mode="sketched")
        # the RGS contract: ONE collective per stage pass (6 panel
        # passes + 1 cycle-end pass), and the sketched solve path reuses
        # the scheme's basis sketch at zero extra collectives
        self._check(total, ortho, count=PANELS + 1,
                    ortho_bytes=FUSED_SKETCHED_ORTHO_BYTES)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rbcgs(self, engine):
        total, ortho = run_one_cycle(RBCGSScheme, engine)
        # sketch + projection + normalization reduces per panel
        self._check(total, ortho, count=3 * PANELS,
                    ortho_bytes=RBCGS_ORTHO_BYTES)

    def test_two_stage_beats_one_stage_budget(self):
        """The paper's core claim in count form: fewer synchronizations,
        even though the fused stage-1 messages are individually fatter."""
        _, two = run_one_cycle(
            lambda: TwoStageScheme(big_step=RESTART), "loop")
        _, one = run_one_cycle(BCGSPIP2Scheme, "loop")
        assert two["allreduce"]["count"] < one["allreduce"]["count"]
        assert two["allreduce"]["bytes"] > one["allreduce"]["bytes"]


class TestBlockSolverBudget:
    """The batched multi-RHS solver's frozen per-cycle budgets.

    The contract: a width-``w`` batch keeps the scalar solver's
    collective *count* budget exactly (the whole point of fusing the
    members' charges) while every payload budget scales exactly ``w``
    fold — messages concatenate, they are never re-scheduled.
    """

    @staticmethod
    def run_block_cycle(width, engine, scheme_factory, **option_kw):
        import numpy as np

        from repro.krylov.block import block_sstep_gmres
        sim = Simulation(laplace2d(16), ranks=4, machine=generic_cpu(),
                         engine=engine)
        rng = np.random.default_rng(0)
        cols = rng.standard_normal((sim.n, width))
        results = block_sstep_gmres(
            sim, cols, s=S, restart=RESTART, tol=1e-30, maxiter=RESTART,
            scheme_factory=scheme_factory,
            options=SolverOptions(**option_kw))
        assert all(r.restarts == 1 for r in results)
        total = sim.tracer.collective_counts(payload_bytes=True)
        return total

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("width", [2, 4])
    def test_two_stage_counts_frozen_bytes_scale(self, width, engine):
        total = self.run_block_cycle(
            width, engine, lambda: TwoStageScheme(big_step=RESTART))
        # scalar budgets verbatim: counts must NOT grow with the width
        assert total["allreduce"]["count"] == PANELS + 1 + 1
        assert total["halo"]["count"] == 1 + RESTART
        # payloads are exactly width x the scalar budgets
        assert total["allreduce"]["bytes"] == width * (
            TWO_STAGE_ORTHO_BYTES + RESIDUAL_NORM_BYTES)
        assert total["halo"]["bytes"] == width * (
            (1 + RESTART) * HALO_EXCHANGE_BYTES)

    @pytest.mark.parametrize("width", [2, 4])
    def test_bcgs_pip2_ca_counts_frozen_bytes_scale(self, width):
        total = self.run_block_cycle(
            width, "loop", BCGSPIP2Scheme, mpk_mode="ca")
        assert total["allreduce"]["count"] == 2 * PANELS + 1
        assert total["halo"]["count"] == 1 + PANELS
        assert total["allreduce"]["bytes"] == width * (
            BCGS_PIP2_ORTHO_BYTES + RESIDUAL_NORM_BYTES)
        assert total["halo"]["bytes"] == width * CA_HALO_BYTES

    def test_width_independence_across_widths(self):
        """Same count doc at every width; bytes in exact proportion."""
        docs = {w: self.run_block_cycle(
            w, "loop", lambda: TwoStageScheme(big_step=RESTART))
            for w in (1, 2, 4)}
        base = docs[1]
        for w in (2, 4):
            assert {k: v["count"] for k, v in docs[w].items()} \
                == {k: v["count"] for k, v in base.items()}
            assert {k: v["bytes"] for k, v in docs[w].items()} \
                == {k: v["bytes"] * w for k, v in base.items()}
