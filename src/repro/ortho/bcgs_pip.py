"""BCGS with Pythagorean inner product — BCGS-PIP / BCGS-PIP2 (Fig. 4).

BCGS-PIP fuses the inter-block projection ``P = Q.T V`` and the panel
Gram matrix ``G = V.T V`` into ONE all-reduce, then forms the panel's
Cholesky factor from the block Pythagorean identity

    (V - Q P).T (V - Q P)  =  G - P.T P      (when Q.T Q = I),

so the whole panel is orthonormalized with a single synchronization.
Applying it twice (BCGS-PIP2) restores O(eps) orthogonality under
condition (5) — Theorem IV.2 — with two synchronizations per s steps
versus five for BCGS2+CholQR2, and 1.5x less intra-block flops (one
Gram+Chol+TRSM per pass instead of CholQR2's two plus a separate BCGS).

When the Pythagorean Gram update loses positive definiteness (condition
(5) violated), the Cholesky factorization breaks down; the ``breakdown``
policy either raises (default — the caller decides) or applies a shifted
factorization in the spirit of shifted CholQR [11].

:class:`BCGSPIP2Scheme` is :class:`~repro.ortho.two_stage.TwoStageScheme`
with every panel its own big panel; ``docs/cost-model.md`` ("Paper-scale
pricing") says how both are priced at the paper's sizes.
"""

from __future__ import annotations

import numpy as np

from repro.config import EPS
from repro.exceptions import CholeskyBreakdownError, ConfigurationError
from repro.ortho.backend import OrthoBackend
from repro.ortho.base import BlockOrthoScheme
from repro.ortho.cholqr import cholesky_factor


#: Cholesky-breakdown policies: re-raise, or retry with a growing shift
BREAKDOWNS = ("raise", "shift")


def check_breakdown(breakdown: str) -> str:
    """``breakdown`` if it is one of :data:`BREAKDOWNS`, else a
    :class:`ConfigurationError` naming it and them."""
    if breakdown not in BREAKDOWNS:
        raise ConfigurationError(f"breakdown must be one of "
                                 f"{BREAKDOWNS}, got {breakdown!r}")
    return breakdown


def _pythagorean_factor(g: np.ndarray, p: np.ndarray | None, *,
                        breakdown: str, panel_index: int) -> np.ndarray:
    """Cholesky factor of ``G - P.T P`` with the configured recovery."""
    s = g if p is None else g - p.T @ p
    try:
        return cholesky_factor(s, panel_index=panel_index)
    except CholeskyBreakdownError:
        if breakdown != "shift":
            raise
    # Shifted recovery: sigma scaled to the Gram's norm, escalating.
    k = s.shape[0]
    norm_s = float(np.linalg.norm(s, 2))
    sigma = max(11.0 * k * (k + 1) * EPS * norm_s, EPS * norm_s)
    for attempt in range(6):
        try:
            return cholesky_factor(s, shift=sigma * 10.0 ** attempt,
                                   panel_index=panel_index)
        except CholeskyBreakdownError:
            continue
    raise CholeskyBreakdownError(
        f"shifted Pythagorean factorization failed for panel {panel_index}",
        panel_index=panel_index)


def bcgs_pip_panel(backend: OrthoBackend, basis, prefix_cols: int,
                   lo: int, hi: int, *, breakdown: str = "raise",
                   panel_index: int = 0
                   ) -> tuple[np.ndarray | None, np.ndarray]:
    """One BCGS-PIP pass (Fig. 4a) over basis columns ``[lo, hi)``.

    The panel is orthogonalized against columns ``[0, prefix_cols)``
    (normally ``prefix_cols == lo``) and orthonormalized internally —
    all with a single synchronization.  Returns ``(P, R_jj)`` where ``P``
    is ``None`` for an empty prefix (the pass degenerates to CholQR).
    """
    v = backend.view(basis, slice(lo, hi))
    c = hi - lo
    if prefix_cols == 0:
        g = backend.fused_dots([(v, v)])[0]                    # 1 sync
        backend.host_flops(c ** 3 / 3.0)
        r_jj = _pythagorean_factor(g, None, breakdown=breakdown,
                                   panel_index=panel_index)
        backend.trsm(v, r_jj)
        return None, r_jj
    q = backend.view(basis, slice(0, prefix_cols))
    p, g = backend.fused_dots([(q, v), (v, v)])                # 1 sync
    backend.host_flops(2.0 * prefix_cols * c * c + c ** 3 / 3.0)
    r_jj = _pythagorean_factor(g, p, breakdown=breakdown,
                               panel_index=panel_index)
    backend.update(v, q, p)
    backend.trsm(v, r_jj)
    return p, r_jj


class BCGSPIPScheme(BlockOrthoScheme):
    """Single-pass BCGS-PIP: 1 sync per panel, error bounded by (6).

    Alone this only *pre-processes* (orthogonality error grows with
    kappa^2 of the input); it is exposed mainly for the Section VI
    numerics and as the building block of the two-stage scheme.
    """

    name = "bcgs-pip"
    finality = "panel"

    def __init__(self, breakdown: str = "raise") -> None:
        super().__init__()
        self.breakdown = check_breakdown(breakdown)

    def panel_arrived(self, lo: int, hi: int) -> bool:
        self._check_panel(lo, hi)
        p, r_jj = bcgs_pip_panel(self.backend, self.basis, lo, lo, hi,
                                 breakdown=self.breakdown, panel_index=lo)
        if p is not None:
            self.r[:lo, lo:hi] = p
        self.r[lo:hi, lo:hi] = r_jj
        self._pushed_cols = hi
        self._final_cols = hi
        self._emit("first", panel_index=lo, lo=lo, hi=hi, prefix=lo)
        return True


# two_stage builds on bcgs_pip_panel above and BCGS-PIP2 below builds on
# two_stage (repro.ortho imports this module first)
from repro.ortho.two_stage import TwoStageScheme  # noqa: E402


class BCGSPIP2Scheme(TwoStageScheme):
    """BCGS-PIP applied twice (Fig. 4b): O(eps) error, 2 syncs per panel.

    The paper's new one-stage variant ("s-step + BCGS-PIP2" in
    Tables III/IV), as the identity the paper states: the second pass
    and the ``R`` fix-up of Fig. 4b lines 5-6 are stage 2 of Fig. 5.
    """

    name = "bcgs-pip2"
    finality = "panel"
    final_stage = "second"

    def __init__(self, breakdown: str = "raise") -> None:
        super().__init__(big_step=1, breakdown=breakdown)

    def panel_arrived(self, lo: int, hi: int) -> bool:
        try:
            return super().panel_arrived(lo, hi)
        except CholeskyBreakdownError:
            # one-stage contract: a panel whose second pass broke down was
            # never pushed, so there is nothing for finish_cycle() to retry
            self.drop_trailing_panel()
            raise
