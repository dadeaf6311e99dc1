"""The two-stage scheme (paper Section V, Fig. 5, Theorem V.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import EPS
from repro.exceptions import CholeskyBreakdownError, ConfigurationError
from repro.matrices.synthetic import glued_matrix, logscaled_matrix
from repro.ortho.analysis import (condition_number, orthogonality_error,
                                  representation_error)
from repro.ortho.backend import NumpyBackend
from repro.ortho.base import BlockDriver, OrthoObserver, PanelInfo
from repro.ortho.bcgs_pip import BCGSPIP2Scheme, BCGSPIPScheme
from repro.ortho.randomized import RBCGSScheme, SketchedTwoStageScheme
from repro.ortho.two_stage import TwoStageScheme
from repro.precision.kernels import MixedPrecisionTwoStageScheme


@pytest.fixture
def nb():
    return NumpyBackend()


class RecordingObserver(OrthoObserver):
    def __init__(self):
        self.events: list[PanelInfo] = []

    def on_event(self, info, backend, basis):
        self.events.append(info)


class TestEquivalences:
    def test_bs_equals_s_reproduces_pip2_bitwise(self, nb, rng):
        """Paper: 'with bs = s ... the two-stage approach becomes the
        standard one-stage BCGS-PIP2'. Same op sequence -> same bits."""
        v = logscaled_matrix(300, 20, 1e5, rng)
        out_ts = BlockDriver(TwoStageScheme(big_step=5), panel_width=5).run(v)
        out_pip = BlockDriver(BCGSPIP2Scheme(), panel_width=5).run(v)
        np.testing.assert_array_equal(out_ts.q, out_pip.q)
        np.testing.assert_allclose(np.triu(out_ts.r), np.triu(out_pip.r),
                                   rtol=1e-15, atol=1e-18)

    def test_bs_equals_m_single_big_panel(self, nb, rng):
        v = logscaled_matrix(400, 20, 1e4, rng)
        out = BlockDriver(TwoStageScheme(big_step=20), panel_width=5).run(v)
        assert orthogonality_error(out.q) < 1000 * EPS
        assert representation_error(v, out.q, out.r) < 1e-12


class TestStability:
    @pytest.mark.parametrize("big_step", [10, 20, 30, 60])
    def test_glued_matrix_O_eps(self, nb, rng, big_step):
        # The Fig. 8 setting (scaled down): panels kappa 1e7, growth 2
        g = glued_matrix(2000, 5, 12, panel_cond=1e7, growth=2.0, rng=rng)
        out = BlockDriver(TwoStageScheme(big_step=big_step),
                          panel_width=5).run(g.matrix)
        assert orthogonality_error(out.q) < 1e4 * EPS
        assert representation_error(g.matrix, out.q, out.r) < 1e-11

    def test_preprocessed_big_panel_condition_O1(self, nb, rng):
        """Theorem V.1 / eq. (11): after stage 1 the accumulated big panel
        [Q_{1:l-1}, Qhat] has condition number O(1)."""
        g = glued_matrix(1500, 5, 12, panel_cond=1e6, growth=2.0, rng=rng)
        observed = []

        class CondObserver(OrthoObserver):
            def on_event(self, info, backend, basis):
                if info.stage == "first":
                    observed.append(
                        condition_number(basis[:, : info.hi]))

        BlockDriver(TwoStageScheme(big_step=30), panel_width=5).run(
            g.matrix, observer=CondObserver())
        assert max(observed) < 10.0

    def test_final_r_factorizes_v(self, nb, rng):
        v = logscaled_matrix(500, 30, 1e5, rng)
        out = BlockDriver(TwoStageScheme(big_step=15), panel_width=5).run(v)
        np.testing.assert_allclose(out.q @ np.triu(out.r), v,
                                   rtol=1e-9, atol=1e-10)


class TestMechanics:
    def test_finality_only_at_big_panels(self, nb, rng):
        scheme = TwoStageScheme(big_step=10)
        basis = rng.standard_normal((200, 20))
        r = np.zeros((20, 20))
        scheme.begin_cycle(nb, basis, r)
        assert scheme.panel_arrived(0, 5) is False
        assert scheme.final_cols == 0
        assert scheme.panel_arrived(5, 10) is True
        assert scheme.final_cols == 10
        assert scheme.panel_arrived(10, 15) is False
        assert scheme.finish_cycle() is True   # flush partial big panel
        assert scheme.final_cols == 15

    def test_observer_event_sequence(self, nb, rng):
        v = logscaled_matrix(200, 20, 1e3, rng)
        obs = RecordingObserver()
        BlockDriver(TwoStageScheme(big_step=10), panel_width=5).run(
            v, observer=obs)
        stages = [e.stage for e in obs.events]
        assert stages == ["first", "first", "big_panel",
                          "first", "first", "big_panel"]

    def test_w_factor_records_stage1_representation(self, nb, rng):
        """w[:, k] must satisfy: stage-1 content of column k equals
        Q_final @ w[:, k]."""
        v = logscaled_matrix(300, 10, 1e3, rng)
        scheme = TwoStageScheme(big_step=10)
        basis = v.copy()
        r = np.zeros((10, 10))
        w = np.zeros((10, 10))
        scheme.begin_cycle(nb, basis, r, w=w)
        scheme.panel_arrived(0, 5)
        qhat_snapshot = basis[:, :5].copy()  # stage-1 content
        scheme.panel_arrived(5, 10)          # triggers stage 2
        recon = basis @ w[:, :5]
        np.testing.assert_allclose(recon, qhat_snapshot, rtol=1e-10,
                                   atol=1e-12)

    def test_sync_pattern(self, comm4, rng):
        from repro.distla.multivector import DistMultiVector
        from repro.ortho.backend import DistBackend
        from repro.parallel.partition import Partition
        part = Partition(300, 4)
        db = DistBackend(comm4)
        basis = DistMultiVector.from_global(
            rng.standard_normal((300, 20)), part, comm4)
        r = np.zeros((20, 20))
        scheme = TwoStageScheme(big_step=20)
        scheme.begin_cycle(db, basis, r)
        for lo in range(0, 20, 5):
            before = comm4.tracer.sync_count()
            scheme.panel_arrived(lo, lo + 5)
            after = comm4.tracer.sync_count()
            if lo < 15:
                assert after - before == 1      # stage 1 only
            else:
                assert after - before == 2      # stage 1 + big panel

    def test_invalid_big_step(self):
        with pytest.raises(ConfigurationError):
            TwoStageScheme(big_step=0)

    @pytest.mark.parametrize("cls", [TwoStageScheme,
                                     MixedPrecisionTwoStageScheme,
                                     SketchedTwoStageScheme])
    @pytest.mark.parametrize("kwargs, named", [
        ({"big_step": 2.5}, "2.5"), ({"big_step": True}, "True"),
        ({"big_step": np.float64(5.0)}, "5.0"), ({"big_step": "5"}, "'5'"),
        ({"big_step": 5, "breakdown": "bogus"}, "'bogus'"),
        ({"big_step": 5, "breakdown": None}, "None"),
    ], ids=["float", "bool", "numpy float", "str", "policy", "no policy"])
    def test_a_bad_argument_is_refused_at_construction(self, cls, kwargs,
                                                       named):
        with pytest.raises(ConfigurationError, match=named):
            cls(**kwargs)

    def test_one_stage_refuses_an_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="'bogus'"):
            BCGSPIP2Scheme(breakdown="bogus")

    @pytest.mark.parametrize("policy", ["bogus", None, "Shift"])
    def test_single_pass_pip_refuses_an_unknown_policy(self, policy):
        """``BCGSPIPScheme`` used to keep any policy, which the
        Pythagorean factor then read as "raise"."""
        with pytest.raises(ConfigurationError,
                           match=rf"\('raise', 'shift'\), got {policy!r}$"):
            BCGSPIPScheme(breakdown=policy)

    @pytest.mark.parametrize("policy", ["bogus", None, "Raise"])
    def test_rbcgs_refuses_an_unknown_policy(self, policy):
        """``RBCGSScheme`` used to keep any policy, which the Pythagorean
        factor of its whitened panels then read as "raise"."""
        with pytest.raises(ConfigurationError,
                           match=rf"\('raise', 'shift'\), got {policy!r}$"):
            RBCGSScheme(breakdown=policy)

    @pytest.mark.parametrize("breakdown", ["raise", "shift"])
    def test_single_pass_schemes_keep_a_valid_policy(self, breakdown):
        assert BCGSPIPScheme(breakdown=breakdown).breakdown == breakdown
        assert RBCGSScheme(breakdown=breakdown).breakdown == breakdown

    @pytest.mark.parametrize("big_step", [1, 7, np.int64(60)])
    @pytest.mark.parametrize("breakdown", ["raise", "shift"])
    def test_every_valid_argument_is_kept(self, big_step, breakdown):
        scheme = TwoStageScheme(big_step, breakdown=breakdown)
        assert (scheme.big_step, scheme.breakdown) == (big_step, breakdown)

    @pytest.mark.parametrize("sound", [0, 4, 6])
    def test_failed_flush_retreats_panel_by_panel(self, nb, rng, sound):
        """A flush that breaks down leaves the columns untouched, so it
        can be retried without the newest stage-1 panel until a sound
        prefix (here: at most ``sound`` columns) or nothing is left."""

        class BreaksBeyond(TwoStageScheme):
            def _stage_pass(self, lo, hi, *, stage):
                if stage == "big_panel" and hi > sound:
                    raise CholeskyBreakdownError("dependent column",
                                                 panel_index=lo)
                return super()._stage_pass(lo, hi, stage=stage)

        v = logscaled_matrix(200, 7, 1e3, rng)
        basis = v.copy()
        r = np.zeros((7, 7))
        scheme = BreaksBeyond(big_step=20)
        scheme.begin_cycle(nb, basis, r)
        for lo, hi in ((0, 3), (3, 5), (5, 7)):
            assert scheme.panel_arrived(lo, hi) is False
        flushed, retries = False, 0
        while True:
            try:
                flushed = scheme.finish_cycle()
                break
            except CholeskyBreakdownError:
                retries += 1
                if not scheme.drop_trailing_panel():
                    break
        final = {0: 0, 4: 3, 6: 5}[sound]
        assert scheme.final_cols == final
        assert flushed is (final > 0)
        assert retries == {0: 3, 4: 2, 6: 1}[sound]
        assert scheme.pushed_cols == final
        if final:
            q = basis[:, :final]
            assert orthogonality_error(q) < 1000 * EPS
            assert representation_error(
                v[:, :final], q, r[:final, :final]) < 1e-12

    def test_nothing_to_drop_without_pending_panels(self, nb, rng):
        scheme = TwoStageScheme(big_step=5)
        scheme.begin_cycle(nb, rng.standard_normal((100, 10)),
                           np.zeros((10, 10)))
        assert scheme.drop_trailing_panel() is False
        scheme.panel_arrived(0, 5)  # flushed by its own stage 2
        assert scheme.drop_trailing_panel() is False
        assert BCGSPIP2Scheme().drop_trailing_panel() is False

    def test_sketched_flush_is_not_retried(self, nb, rng, monkeypatch):
        """Its stage pass whitens the panel before the Cholesky factor,
        so a failed flush has already modified the columns: it drops the
        pending big panel rather than leave it for a retry."""
        from repro.ortho import randomized
        scheme = randomized.SketchedTwoStageScheme(big_step=20,
                                                   breakdown="raise")
        scheme.begin_cycle(nb, rng.standard_normal((100, 10)),
                           np.zeros((10, 10)))
        scheme.panel_arrived(0, 5)

        def broken(*args, **kwargs):
            raise CholeskyBreakdownError("forced", panel_index=0)
        monkeypatch.setattr(randomized, "_pythagorean_factor", broken)
        with pytest.raises(CholeskyBreakdownError):
            scheme.finish_cycle()
        assert scheme.drop_trailing_panel() is False
        assert scheme.finish_cycle() is False
        assert (scheme.pushed_cols, scheme.final_cols) == (0, 0)

    def test_empty_finish_is_noop(self, nb, rng):
        scheme = TwoStageScheme(big_step=5)
        basis = rng.standard_normal((100, 10))
        r = np.zeros((10, 10))
        scheme.begin_cycle(nb, basis, r)
        scheme.panel_arrived(0, 5)  # big panel complete at 5
        assert scheme.finish_cycle() is False
