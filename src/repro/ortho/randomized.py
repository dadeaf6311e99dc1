"""Randomized inter-block orthogonalization schemes on :mod:`repro.sketch`.

Two schemes take the paper's Section IX pointer — random sketching to
push block orthogonalization past the CholQR stability cliff — and make
it drivable by the s-step solver (following the randomized block-GS
line of Balabanov 2022, the s-step follow-up arXiv:2503.16717, and the
backward-stability analysis of Carson & Ma arXiv:2409.03079):

* :class:`RBCGSScheme` — sketched BCGS-PIP.  Per panel, the projection
  coefficients and the panel sketch travel in ONE fused collective; the
  panel is then *whitened* with the sketch-QR factor before a single
  Cholesky pass.  No Pythagorean subtraction ``G - P.T P`` ever happens,
  so the ``kappa > eps^{-1/2}`` breakdown mode of BCGS-PIP is gone.
* :class:`SketchedTwoStageScheme` — the paper's two-stage scheme with
  every stage pass (the per-panel pre-processing *and* the big-panel
  second stage) sketch-preconditioned.  The big-panel pass in
  particular factors a panel whose width is ``bs``; whitening it first
  keeps the Cholesky well inside its comfort zone at condition numbers
  up to ``~1/eps`` — the regime ``experiments/sketch_stability.py``
  sweeps.

Both schemes derive every sketching operator deterministically from
``(seed, cycle)`` (see :mod:`repro.sketch.seeding`): repeated solves
with a reused scheme instance reproduce bit-for-bit, while distinct
restart cycles draw fresh embeddings — re-using one embedding across
adaptively generated panels would void the w.h.p. guarantee.
"""

from __future__ import annotations

import numpy as np

from repro.config import DEFAULT_SEED
from repro.exceptions import CholeskyBreakdownError
from repro.ortho.base import BlockOrthoScheme
from repro.ortho.bcgs_pip import _pythagorean_factor, bcgs_pip_panel
from repro.ortho.two_stage import TwoStageScheme
from repro.sketch import (
    canonical_family,
    derive_seed,
    make_operator,
    right_apply_inverse,
    sketch_qr,
    sketch_rows,
)


class RBCGSScheme(BlockOrthoScheme):
    """Sketched BCGS-PIP: fused projection+sketch, whitened normalization.

    Per panel ``V`` of ``c`` columns against the final prefix ``Q``:

    1. ``P = Q.T V`` and ``SV = S V`` in ONE fused reduction;
       ``V <- V - Q P`` locally.
    2. Host: update the residual sketch ``SV <- SV - (SQ) P`` (first
       order, no communication), QR it, and whiten ``V <- V R_s^{-1}``
       — now ``kappa(V) = O(1)`` w.h.p. regardless of the input panel.
    3. ``G = V.T V`` fused with a fresh sketch of the whitened panel
       (one reduction); Cholesky of the *benign* G, final TRSM.  The
       fresh sketch maintains ``SQ`` for later panels with no extra
       synchronization.
    4. Optionally (``reorth``, default True) one classical BCGS-PIP
       clean-up pass, which is safe precisely because the panel is
       already orthonormal — restoring BCGS2-like O(eps) orthogonality.

    3 synchronizations per panel with reorthogonalization (2 without)
    versus 2 for BCGS-PIP2 — the price of never forming the
    breakdown-prone Pythagorean Gram ``G - P.T P``.

    Parameters
    ----------
    operator:
        Sketch family (:data:`repro.sketch.OPERATOR_FAMILIES`).
    oversample:
        Optional sketch rows per basis column (defaults to the
        :func:`repro.sketch.embedding_dim` heuristic for the full
        basis width).
    seed:
        Base seed; per-cycle operator seeds are derived from it.
    reorth:
        Run the classical clean-up pass (default True).
    breakdown:
        Cholesky recovery policy for the whitened panels ("shift" by
        default — whitening makes a genuine breakdown here mean
        numerical rank deficiency of the panel itself).
    rank_tol:
        Relative tolerance for clipping near-singular sketch pivots
        (default :data:`repro.sketch.DEFAULT_RANK_TOL`).
    """

    name = "rbcgs"
    finality = "panel"

    def __init__(self, operator: str = "sparse",
                 oversample: int | None = None, seed: int = DEFAULT_SEED,
                 reorth: bool = True, breakdown: str = "shift",
                 rank_tol: float | None = None) -> None:
        super().__init__()
        self.operator_family = canonical_family(operator)
        self.oversample = oversample
        self.seed = seed
        self.reorth = reorth
        self.breakdown = breakdown
        self.rank_tol = rank_tol
        self._op = None
        self._sq: np.ndarray | None = None

    # ------------------------------------------------------------------
    def begin_cycle(self, backend, basis, r, observer=None, w=None,
                    cycle: int = 0) -> None:
        super().begin_cycle(backend, basis, r, observer=observer, w=w,
                            cycle=cycle)
        n = backend.n_rows_global(basis)
        k_total = r.shape[0]
        m = sketch_rows(k_total, n, family=self.operator_family,
                        oversample=self.oversample)
        self._op = make_operator(
            self.operator_family, n, m,
            derive_seed(self.seed, "rbcgs", self.cycle))
        self._sq = np.zeros((m, k_total))

    def panel_arrived(self, lo: int, hi: int) -> bool:
        self._check_panel(lo, hi)
        backend = self.backend
        v = backend.view(self.basis, slice(lo, hi))
        c = hi - lo
        m = self._op.m_rows
        # -- 1: fused projection + sketch (one reduction) ---------------
        if lo:
            q = backend.view(self.basis, slice(0, lo))
            (p,), sv = backend.fused_dots_sketch([(q, v)], v, self._op)
            backend.update(v, q, p)
            sv = sv - self._sq[:, :lo] @ p
            backend.host_flops(2.0 * m * lo * c)
        else:
            p = None
            sv = backend.sketch(v, self._op)
        # -- 2: whiten from the sketch ----------------------------------
        r_s, _ = sketch_qr(sv, rank_tol=self.rank_tol)
        backend.host_flops(2.0 * m * c * c)
        backend.trsm(v, r_s)
        # -- 3: benign Cholesky + fresh sketch (one reduction) ----------
        (g,), sv2 = backend.fused_dots_sketch([(v, v)], v, self._op)
        t = _pythagorean_factor(g, None, breakdown=self.breakdown,
                                panel_index=lo)
        backend.host_flops(c ** 3 / 3.0)
        backend.trsm(v, t)
        r_panel = t @ r_s
        sq_panel = right_apply_inverse(sv2, t)  # sketch of the new Q panel
        backend.host_flops(2.0 * m * c * c)
        self._emit("first", panel_index=lo, lo=lo, hi=hi, prefix=lo)
        # -- 4: classical clean-up pass (one reduction) -----------------
        if self.reorth:
            p2, t2 = bcgs_pip_panel(backend, self.basis, lo, lo, hi,
                                    breakdown=self.breakdown, panel_index=lo)
            if p2 is not None:
                sq_panel = sq_panel - self._sq[:, :lo] @ p2
                correction = p2 @ r_panel
                p = correction if p is None else p + correction
                backend.host_flops(2.0 * lo * c * (m + c))
            sq_panel = right_apply_inverse(sq_panel, t2)
            r_panel = t2 @ r_panel
            backend.host_flops(2.0 * (m + c) * c * c)
            self._emit("second", panel_index=lo, lo=lo, hi=hi, prefix=lo)
        self._sq[:, lo:hi] = sq_panel
        if p is not None:
            self.r[:lo, lo:hi] = p
        self.r[lo:hi, lo:hi] = r_panel
        self._pushed_cols = hi
        self._final_cols = hi
        return True

    @property
    def basis_sketch(self) -> "np.ndarray | None":
        if self._sq is None or not self._final_cols:
            return None
        return self._sq[:, : self._final_cols]


class SketchedTwoStageScheme(TwoStageScheme):
    """Two-stage scheme whose stage passes are sketch-preconditioned.

    Inherits the full two-stage state machine (big-panel accumulation,
    R fix-up, ``w`` bookkeeping, ``bs``-granular finality) and replaces
    only the factorization kernel: each pass over columns ``[lo, hi)``

    1. projects the panel against the prefix *explicitly*
       (``P = Q.T V``; one reduction) — no Pythagorean subtraction,
    2. sketches the projected panel (one reduction) and whitens it with
       the sketch-QR factor — this is the step that tames the
       ``bs``-wide big-panel pass at condition numbers up to ``~1/eps``,
    3. finishes with one Cholesky pass on the whitened panel (one
       reduction; shift recovery by default).

    3 synchronizations per pass versus 1 for the classical BCGS-PIP
    pass: the communication price of the stability headroom documented
    in ``experiments/sketch_stability.py`` (kappa up to 1e15, where the
    classical scheme's stage-1 Cholesky breaks down outright).

    With ``fused=True`` every stage pass instead travels in ONE
    collective — the projection coefficients and the panel sketch are
    fused exactly like :class:`RBCGSScheme`'s step 1, the residual
    sketch is corrected on the host from the maintained basis sketch
    (``SV - (SQ) P``, first order), and the pass finishes with the
    sketch-QR whitening alone — no l2-Cholesky, no second reduction.
    The contract changes accordingly: the factorization stays *exact*
    (``V = Q R`` to rounding) and the basis stays *numerically full
    rank* (whitening knocks the condition number down by orders of
    magnitude, keeping it far from ``1/eps`` for inputs up to
    ``kappa ~ 1e15``), but explicit l2 orthogonality is NOT maintained
    — the first-order sketch correction cancels catastrophically on
    extreme inputs, which is precisely the price of dropping the second
    collective (the fresh post-whitening sketch is what buys
    :class:`RBCGSScheme` its O(eps) orthogonality).  This is the
    randomized-GMRES (RGS) contract: pair it with
    ``SolverOptions(solve_mode="sketched")``, which solves the small
    least-squares problem in sketch space and never relies on explicit
    orthogonality — the solver then reuses the maintained basis sketch
    (:attr:`basis_sketch`) at zero extra communication.  1
    synchronization per stage pass, matching the classical BCGS-PIP
    pass it replaces.
    """

    name = "sketched-two-stage"

    def __init__(self, big_step: int, breakdown: str = "shift",
                 operator: str = "sparse", oversample: int | None = None,
                 seed: int = DEFAULT_SEED,
                 rank_tol: float | None = None, fused: bool = False) -> None:
        super().__init__(big_step, breakdown=breakdown)
        self.operator_family = canonical_family(operator)
        self.oversample = oversample
        self.seed = seed
        self.rank_tol = rank_tol
        self.fused = fused
        self._op = None
        self._sq: np.ndarray | None = None

    def begin_cycle(self, backend, basis, r, observer=None, w=None,
                    cycle: int = 0) -> None:
        super().begin_cycle(backend, basis, r, observer=observer, w=w,
                            cycle=cycle)
        n = backend.n_rows_global(basis)
        k_total = r.shape[0]
        m = sketch_rows(k_total, n, family=self.operator_family,
                        oversample=self.oversample)
        self._op = make_operator(
            self.operator_family, n, m,
            derive_seed(self.seed, "sketched-two-stage", self.cycle))
        self._sq = np.zeros((m, k_total)) if self.fused else None

    def _stage_pass(self, lo: int, hi: int, *, stage: str
                    ) -> tuple[np.ndarray | None, np.ndarray]:
        if self.fused:
            return self._fused_stage_pass(lo, hi)
        backend = self.backend
        v = backend.view(self.basis, slice(lo, hi))
        c = hi - lo
        m = self._op.m_rows
        if lo:
            q = backend.view(self.basis, slice(0, lo))
            p = backend.dot(q, v)                            # sync
            backend.update(v, q, p)
        else:
            p = None
        sv = backend.sketch(v, self._op)                     # sync
        r_s, _ = sketch_qr(sv, rank_tol=self.rank_tol)
        backend.host_flops(2.0 * m * c * c)
        backend.trsm(v, r_s)
        g = backend.dot(v, v)                                # sync
        t = _pythagorean_factor(g, None, breakdown=self.breakdown,
                                panel_index=lo)
        backend.host_flops(c ** 3 / 3.0)
        backend.trsm(v, t)
        return p, t @ r_s

    def _second_stage(self, hi: int) -> None:
        try:
            super()._second_stage(hi)
        except CholeskyBreakdownError:
            # the pass had projected and whitened the big panel before its
            # Cholesky failed: nothing is left pending for a flush to retry
            self._pushed_cols, self._pending_los = self._big_lo, []
            raise

    def _fused_stage_pass(self, lo: int, hi: int
                          ) -> tuple[np.ndarray | None, np.ndarray]:
        """One stage pass in ONE collective (the RGS-style fusion).

        The projection ``P = Q.T V`` and the panel sketch ``S V``
        share a single allreduce; the prefix contribution is removed
        from the sketch on the host (``SV - (SQ) P`` — first order, no
        communication), and the sketch-QR factor both whitens the panel
        and *is* its triangular factor.  The maintained basis sketch is
        updated with the whitened panel's sketch ``(SV - SQ P) R_s^{-1}``
        — again host-only.
        """
        backend = self.backend
        v = backend.view(self.basis, slice(lo, hi))
        c = hi - lo
        m = self._op.m_rows
        if lo:
            q = backend.view(self.basis, slice(0, lo))
            (p,), sv = backend.fused_dots_sketch([(q, v)], v, self._op)
            backend.update(v, q, p)
            sv = sv - self._sq[:, :lo] @ p
            backend.host_flops(2.0 * m * lo * c)
        else:
            p = None
            sv = backend.sketch(v, self._op)                 # sync (the one)
        r_s, _ = sketch_qr(sv, rank_tol=self.rank_tol)
        backend.host_flops(2.0 * m * c * c)
        backend.trsm(v, r_s)
        self._sq[:, lo:hi] = right_apply_inverse(sv, r_s)
        backend.host_flops(m * c * c)
        return p, r_s

    @property
    def basis_sketch(self) -> "np.ndarray | None":
        if self._sq is None or not self._final_cols:
            return None
        return self._sq[:, : self._final_cols]
