"""Low-synchronization Gram-Schmidt (the paper's ref. [25]).

The paper's related work cites "low-synchronous variants of block
orthogonalization algorithms [7], [25]" — one global reduction per new
column instead of CGS2's three.  This module implements the
delayed-reorthogonalization DCGS-2 of Swirydowicz, Langou, Ananthan,
Yang, Thomas (2020) / Yamazaki et al. [25] as a stateful column
orthogonalizer.

Invariant at the start of step ``j`` (j >= 2): columns ``0..j-2`` are
settled (orthonormal), column ``j-1`` is *pending* — projected once,
unnormalized, its reorthogonalization deferred.  Step ``j`` issues ONE
fused reduction

    [ Q_{0:j-2}, q_pend ]^T  [ q_pend, w_j ]

from which it (a) applies the delayed second Gram-Schmidt pass to the
pending column and normalizes it via the Pythagorean identity
``alpha^2 = q^T q - z^T z``, and (b) first-pass-projects the new vector
``w_j`` against all settled columns — all remaining work is local.
Total: ~1 synchronization per column (k + 1 for k columns) versus 3k for
CGS2, with the same O(eps) orthogonality for numerically full-rank input
(verified in ``tests/ortho/test_low_sync.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConfigurationError, NumericalError
from repro.ortho.backend import OrthoBackend


class DCGS2Orthogonalizer:
    """Stateful one-reduce-per-column Gram-Schmidt over a shared basis.

    Usage::

        ortho = DCGS2Orthogonalizer()
        beta = ortho.start(backend, basis)   # settles column 0
        for j in range(1, k):
            # caller fills basis column j with the next raw vector, then:
            r = ortho.push(j)                # finalizes column j-1 (or None)
        r_last = ortho.flush()               # finalizes the last column

    ``push(j)``/``flush()`` return the final R column of the column they
    settle: coefficients of the *raw* vector over the settled orthonormal
    columns, diagonal entry last.
    """

    def __init__(self) -> None:
        self.backend: OrthoBackend | None = None
        self.basis = None
        self._pending: int | None = None      # index of the pending column
        self._pending_r: np.ndarray | None = None  # its first-pass coeffs
        self._posted = None                   # post_push handle in flight
        self._posted_for: int | None = None   # the push index it belongs to
        #: After each settle: representation [z...; alpha] of the settled
        #: column's *pre-settle (pending) content* over the final basis —
        #: what pipelined GMRES needs for its Hessenberg recovery, since
        #: the operator consumed the column in exactly that state.
        self.settled_content_rep: np.ndarray | None = None

    # ------------------------------------------------------------------
    def start(self, backend: OrthoBackend, basis) -> float:
        """Settle column 0 by exact normalization (one reduction)."""
        self.backend = backend
        self.basis = basis
        col = backend.view(basis, slice(0, 1))
        beta = float(backend.norms(col)[0])                      # sync
        if beta == 0.0:
            raise NumericalError("DCGS2 seed column has zero norm")
        backend.scale_cols(col, np.array([1.0 / beta]))
        self._pending = None
        self._pending_r = None
        return beta

    # ------------------------------------------------------------------
    def post_push(self, j: int) -> bool:
        """Post the settle-side half of ``push(j)``'s fused reduction.

        The pairs ``(Q_{0:j-2}, q_pend)`` and ``(q_pend, q_pend)`` read
        only columns that are final when ``push(j-1)`` returns — NOT the
        raw column ``j`` — so the caller may post them *before* the
        operator application that fills column ``j`` and let the
        collective overlap with it (pipelined GMRES's comm_overlap
        path).  ``push(j)`` then waits the posted half and issues only
        the remaining ``w``-side pairs blocking; per-pair reduction
        trees are independent, so every settled value is bit-identical
        to the unposted path.

        Returns True when something was posted; ``push(1)`` has nothing
        postable (its only pair involves the yet-unwritten new column).
        """
        if self.backend is None:
            raise ConfigurationError("call start() before post_push()")
        expected = 1 if self._pending is None else self._pending + 1
        if j != expected:
            raise ConfigurationError(
                f"post_push({j}) out of order; expected push({expected})")
        if self._posted is not None:
            raise ConfigurationError(
                f"push({self._posted_for}) partial already posted")
        if self._pending is None:
            return False
        settled = self._pending
        qm = self.backend.view(self.basis, slice(0, settled))
        qp = self.backend.view(self.basis, slice(settled, settled + 1))
        self._posted = self.backend.post_fused_dots([(qm, qp), (qp, qp)])
        self._posted_for = j
        return True

    def push(self, j: int) -> np.ndarray | None:
        """Process raw column ``j``; settle column ``j-1`` if pending.

        One fused reduction (two when :meth:`post_push` split off the
        settle-side half).  Returns the settled column's R column, or
        ``None`` on the first push (column 0 settled in :meth:`start`).
        """
        backend, basis = self.backend, self.basis
        if backend is None:
            raise ConfigurationError("call start() before push()")
        expected = 1 if self._pending is None else self._pending + 1
        if j != expected:
            raise ConfigurationError(
                f"push({j}) out of order; expected push({expected})")
        w = backend.view(basis, slice(j, j + 1))
        if self._pending is None:
            # First push: only the first-pass projection of w exists.
            q0 = backend.view(basis, slice(0, 1))
            (pw,) = backend.fused_dots([(q0, w)])                # sync
            backend.update(w, q0, pw)
            self._pending = 1
            self._pending_r = pw[:, 0].copy()
            return None
        settled = self._pending  # count of settled columns = pending index
        qm = backend.view(basis, slice(0, settled))
        qp = backend.view(basis, slice(settled, settled + 1))
        if self._posted is not None:
            # overlapped path: the settle-side pairs were posted before
            # the operator application; only the w pairs sync here
            z_m, qq_m = backend.wait_fused_dots(self._posted)    # wait
            self._posted = None
            self._posted_for = None
            pw_m, qw_m = backend.fused_dots([(qm, w), (qp, w)])  # sync
        else:
            z_m, pw_m, qq_m, qw_m = backend.fused_dots(
                [(qm, qp), (qm, w), (qp, qp), (qp, w)])          # sync
        z = z_m[:, 0]
        pw = pw_m[:, 0]
        qq = float(qq_m[0, 0])
        qw = float(qw_m[0, 0])
        # (a) delayed second pass + Pythagorean normalization of q_pend
        alpha_sq = qq - float(z @ z)
        # R column of the raw vector that lived in the settled column:
        # first-pass coeffs + delayed correction, diagonal alpha.
        r = np.zeros(settled + 1)
        r[: self._pending_r.shape[0]] = self._pending_r
        r[: z.shape[0]] += z
        self._check_independent(alpha_sq, r, settled)
        alpha = math.sqrt(alpha_sq)
        r[settled] = alpha
        content = np.zeros(settled + 1)
        content[: z.shape[0]] = z
        content[settled] = alpha
        self.settled_content_rep = content
        backend.update(qp, qm, z[:, np.newaxis])
        backend.scale_cols(qp, np.array([1.0 / alpha]))
        # (b) first-pass projection of w against ALL settled columns;
        # the coefficient on the just-settled column follows from the
        # pre-correction products: q_new^T w = (qw - z.pw) / alpha.
        beta = (qw - float(z @ pw)) / alpha
        backend.update(w, qm, pw[:, np.newaxis])
        backend.update(w, qp, np.array([[beta]]))
        self._pending = j
        self._pending_r = np.concatenate([pw, [beta]])
        return r

    @staticmethod
    def _check_independent(alpha_sq: float, r_prefix: np.ndarray,
                           column: int) -> None:
        """Breakdown when the surviving component is at roundoff level
        *relative to the raw column's norm* — recovered via Pythagoras
        from the accumulated R coefficients."""
        orig_sq = max(alpha_sq, 0.0) + float(r_prefix @ r_prefix)
        eps = float(np.finfo(np.float64).eps)
        if alpha_sq <= 1.0e4 * eps * eps * orig_sq:
            raise NumericalError(
                f"DCGS2 breakdown: column {column} numerically dependent")

    # ------------------------------------------------------------------
    def flush(self) -> np.ndarray:
        """Settle the last pending column (one extra reduction)."""
        backend, basis = self.backend, self.basis
        if self._pending is None:
            raise ConfigurationError("nothing to flush")
        settled = self._pending
        qm = backend.view(basis, slice(0, settled))
        qp = backend.view(basis, slice(settled, settled + 1))
        if self._posted is not None:
            # a posted partial for an aborted push covers exactly these
            # pairs (the settled columns have not changed since)
            z_m, g = backend.wait_fused_dots(self._posted)       # wait
            self._posted = None
            self._posted_for = None
        else:
            z_m, g = backend.fused_dots([(qm, qp), (qp, qp)])    # sync
        z = z_m[:, 0]
        alpha_sq = float(g[0, 0]) - float(z @ z)
        r = np.zeros(settled + 1)
        r[: self._pending_r.shape[0]] = self._pending_r
        r[: z.shape[0]] += z
        self._check_independent(alpha_sq, r, settled)
        alpha = math.sqrt(alpha_sq)
        r[settled] = alpha
        content = np.zeros(settled + 1)
        content[: z.shape[0]] = z
        content[settled] = alpha
        self.settled_content_rep = content
        backend.update(qp, qm, z[:, np.newaxis])
        backend.scale_cols(qp, np.array([1.0 / alpha]))
        self._pending = None
        self._pending_r = None
        return r
