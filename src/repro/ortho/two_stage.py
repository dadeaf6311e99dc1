"""The paper's contribution: two-stage block orthogonalization (Fig. 5).

Stage 1 (every panel of ``s`` columns): ONE BCGS-PIP pass against
*everything* before the panel — the fully-orthogonalized prefix
``Q_{1:l-1}`` plus the pre-processed panels ``Qhat_{l:j-1}`` of the
current big panel (Fig. 5 line 14).  Objective: keep the accumulated
basis well conditioned so the matrix-powers kernel can keep extending it
(1 synchronization per s steps).

Stage 2 (every big panel of ``bs`` columns): ONE BCGS-PIP pass of the
whole big panel ``Qhat_{l:t}`` against the final prefix (Fig. 5 line 17),
followed by the R fix-up of lines 18-19:

    R_{1:l-1, l:t} := T_{1:l-1} @ Rhat + R_{1:l-1, l:t}
    R_{l:t,  l:t}  := T_big     @ Rhat

(1 synchronization per bs steps, and — crucially for data reuse — local
GEMMs of width ``bs`` instead of ``s``.)

Extremes: ``bs <= s`` makes every panel its own big panel, which IS
one-stage BCGS-PIP2 (:class:`repro.ortho.bcgs_pip.BCGSPIP2Scheme` is
this class at ``big_step = 1``); ``bs == m`` is one pre-processing pass
per panel plus a single big orthogonalization per restart cycle — the
paper's best performer (priced at the paper's sizes as
``docs/cost-model.md``, "Paper-scale pricing", describes).

R columns only become *final* at stage-2 boundaries, so a solver driving
this scheme can only test convergence every ``bs`` steps — reproducing
the iteration-count granularity visible in the paper's Tables III/IV
(e.g. 60300 = 1005 * 60 for two-stage vs 60255 = 12051 * 5 for
one-stage).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.ortho.base import BlockOrthoScheme
from repro.ortho.bcgs_pip import bcgs_pip_panel, check_breakdown


class TwoStageScheme(BlockOrthoScheme):
    """Two-stage BCGS-PIP block orthogonalization (paper Section V).

    Parameters
    ----------
    big_step:
        The second-stage step size ``bs`` (s <= bs <= m).  Stage 2
        triggers whenever at least ``big_step`` pre-processed columns have
        accumulated, and always at :meth:`finish_cycle`.
    breakdown:
        Cholesky-breakdown policy for both stages ("raise" or "shift").
    """

    name = "two-stage"
    finality = "big_panel"
    #: observer stage of the pass that makes columns final
    final_stage = "big_panel"

    def __init__(self, big_step: int, breakdown: str = "raise") -> None:
        super().__init__()
        if (not isinstance(big_step, (int, np.integer))
                or isinstance(big_step, bool) or big_step < 1):
            raise ConfigurationError(
                f"big_step must be an integer >= 1, got {big_step!r}")
        self.big_step = big_step
        self.breakdown = check_breakdown(breakdown)
        self._big_lo = 0
        self._pending_los: list[int] = []  # stage-1 panels awaiting stage 2

    def begin_cycle(self, backend, basis, r, observer=None, w=None,
                    cycle: int = 0) -> None:
        super().begin_cycle(backend, basis, r, observer=observer, w=w,
                            cycle=cycle)
        self._big_lo = 0
        self._pending_los = []

    # ------------------------------------------------------------------
    def _stage_pass(self, lo: int, hi: int, *, stage: str
                    ) -> tuple["np.ndarray | None", np.ndarray]:
        """One orthogonalization pass of basis columns ``[lo, hi)``
        against everything before ``lo``; returns ``(P, T)`` with
        ``V_old = Q_prefix P + Q_new T`` (the :func:`bcgs_pip_panel`
        contract).  Both stages use the same pass; subclasses override
        to change the factorization (e.g. sketch-preconditioned in
        :class:`repro.ortho.randomized.SketchedTwoStageScheme`) while
        inheriting the two-stage bookkeeping unchanged.  ``stage`` is
        ``"first"`` or ``"big_panel"``.
        """
        return bcgs_pip_panel(self.backend, self.basis, lo, lo, hi,
                              breakdown=self.breakdown, panel_index=lo)

    def panel_arrived(self, lo: int, hi: int) -> bool:
        self._check_panel(lo, hi)
        # ---- Stage 1: pre-process the new panel (Fig. 5 line 14) -----
        # Prefix = final columns + already-pre-processed columns, i.e.
        # everything before lo.
        p, r_jj = self._stage_pass(lo, hi, stage="first")
        if p is not None:
            self.r[:lo, lo:hi] = p
        self.r[lo:hi, lo:hi] = r_jj
        self._pushed_cols = hi
        self._pending_los.append(lo)
        self._emit("first", panel_index=lo, lo=lo, hi=hi,
                   prefix=self._big_lo)
        # ---- Stage 2 when the big panel is full -----------------------
        if hi - self._big_lo >= self.big_step:
            self._second_stage(hi)
            return True
        return False

    def finish_cycle(self) -> bool:
        """Flush a partially-filled big panel (end of restart cycle)."""
        if self._pushed_cols > self._big_lo:
            self._second_stage(self._pushed_cols)
            return True
        return False

    def drop_trailing_panel(self) -> bool:
        """Give up the newest pre-processed panel after :meth:`finish_cycle`
        broke down, so the flush can be retried on a shorter prefix.

        Stage 1 can let a numerically dependent column through on a
        last-bit positive pivot (a happy breakdown inside a panel); the
        big panel's Gram matrix is then singular to rounding and stage 2
        fails — before it touches a column, since the Cholesky factor
        precedes the update.  The columns before the dropped panel and
        their stage-1 ``R`` entries do not involve it, so they are still
        a valid pending big panel.  Returns True while columns remain to
        flush.
        """
        if not self._pending_los:
            return False
        self._pushed_cols = self._pending_los.pop()
        return bool(self._pending_los)

    # ------------------------------------------------------------------
    def _second_stage(self, hi: int) -> None:
        """Orthogonalize the big panel ``[big_lo, hi)`` (Fig. 5 l. 17-19)."""
        lo = self._big_lo
        backend = self.backend
        width = hi - lo
        p, t_big = self._stage_pass(lo, hi, stage="big_panel")
        r_hat = np.triu(self.r[lo:hi, lo:hi]).copy()
        if p is not None:
            backend.host_flops(2.0 * lo * width * width)
            self.r[:lo, lo:hi] = p @ r_hat + self.r[:lo, lo:hi]
        backend.host_flops(2.0 * width ** 3)
        self.r[lo:hi, lo:hi] = t_big @ r_hat
        if self.w is not None:
            # Record the final-Q representation of the big panel's
            # *pre-processed* content: Qhat = Q_pre @ p + Q_big @ t_big.
            # The s-step solver needs this for MPK start columns that were
            # consumed while still in stage-1 state.
            if p is not None:
                self.w[:lo, lo:hi] = p
            self.w[lo:hi, lo:hi] = t_big
        self._big_lo = hi
        self._final_cols = hi
        self._pending_los = []
        self._emit(self.final_stage, panel_index=lo, lo=lo, hi=hi, prefix=lo)
