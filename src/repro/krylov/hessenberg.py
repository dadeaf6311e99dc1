"""Hessenberg recovery and the small least-squares solve.

s-step GMRES never forms Arnoldi coefficients directly; after block
orthogonalization it holds ``V = Q R`` and the basis recurrence
``A V_{1:c} = V_{1:c+1} T``, from which (paper Fig. 1 line 14)

    H_{1:c+1, 1:c} = R_{1:c+1, 1:c+1} T_{1:c+1, 1:c} R^{-1}_{1:c, 1:c}.

The approximate solution then minimizes ``||gamma e1 - H y||`` exactly as
in standard GMRES.  Both computations are replicated small host-side
dense ops (paper Sec. VII: "operations with the small projected matrices,
including solving a small least-squares problem, is redundantly done on
CPU by each MPI process").
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.exceptions import NumericalError, ShapeError


def assemble_hessenberg_mixed(r: np.ndarray, w_tilde: np.ndarray,
                              poly, c: int) -> np.ndarray:
    """Hessenberg recovery for in-place block orthogonalization.

    When panels are orthogonalized *in place*, the matrix powers kernel
    restarts each block from the current (orthogonalized or, for the
    two-stage scheme, pre-processed) content of the previous block's last
    column — not from the raw generated vector.  Writing ``u_k`` for the
    actual MPK input at step k and expanding the basis recurrence

        A u_k = beta_k v_{k+1} + alpha_k u_k + gamma_k u_{k-1},

    with ``v_{k+1} = Q r[:, k+1]`` and ``u_k = Q w_tilde[:, k]`` we get
    ``A Q W = Q C`` with ``C[:, k] = beta_k r[:, k+1] + alpha_k w[:, k]
    + gamma_k w[:, k-1]``, hence ``H = C W^{-1}`` (W is upper
    triangular).  With every ``w_tilde`` column equal to the matching
    ``r`` column this reduces to the paper's ``H = R T R^{-1}``
    (Fig. 1 line 14) — the paper's notation absorbs the in-place
    bookkeeping by defining each block's first column as the
    orthogonalized shared vector.

    ``w_tilde`` must be (>= c+1, >= c): column k = representation of the
    step-k MPK input over the final basis.
    """
    if r.shape[0] <= c or r.shape[1] <= c:
        raise ShapeError(f"R of shape {r.shape} too small for c={c}")
    if w_tilde.shape[0] < c + 1 or w_tilde.shape[1] < c:
        raise ShapeError(f"W of shape {w_tilde.shape} too small for c={c}")
    cmat = np.zeros((c + 1, c))
    for k in range(c):
        alpha, beta, gamma = poly.coefficients(k)
        cmat[:, k] = beta * r[: c + 1, k + 1]
        if alpha != 0.0:
            cmat[:, k] += alpha * w_tilde[: c + 1, k]
        if gamma != 0.0 and k > 0:
            cmat[:, k] += gamma * w_tilde[: c + 1, k - 1]
    w_small = np.triu(w_tilde[:c, :c])
    diag = np.abs(np.diag(w_small))
    if diag.size and (np.min(diag) == 0.0
                      or np.min(diag) < 1e-300 * max(1.0, np.max(diag))):
        raise NumericalError(
            "W factor numerically singular while assembling Hessenberg")
    return scipy.linalg.solve_triangular(w_small, cmat.T, trans="T",
                                         lower=False).T


def least_squares_residual(h: np.ndarray, gamma: float,
                           rhs: np.ndarray | None = None
                           ) -> tuple[np.ndarray, float]:
    """Minimize ``||gamma e1 - H y||_2`` for (c+1) x c Hessenberg ``H``.

    ``rhs`` optionally replaces ``gamma e1`` (the s-step solver passes
    ``gamma R[:, 0]`` since the cycle's starting vector has coordinates
    ``R[:, 0]``, not exactly ``e1``, over the final basis).

    Returns ``(y, residual_norm)``.  Solved via dense QR; the cost is
    O(c^3) host flops, negligible next to the distributed kernels but
    charged by callers via ``host_flops``.
    """
    h = np.asarray(h, dtype=np.float64)
    rows, cols = h.shape
    if rows != cols + 1:
        raise ShapeError(f"H must be (c+1) x c, got {h.shape}")
    if rhs is None:
        rhs = np.zeros(rows)
        rhs[0] = gamma
    else:
        rhs = np.asarray(rhs, dtype=np.float64).ravel()
        if rhs.shape[0] != rows:
            raise ShapeError(f"rhs length {rhs.shape[0]} != {rows}")
    q, r = np.linalg.qr(h, mode="reduced")
    z = q.T @ rhs
    diag = np.abs(np.diag(r))
    if cols and np.min(diag) == 0.0:
        y = np.linalg.lstsq(h, rhs, rcond=None)[0]
    else:
        y = scipy.linalg.solve_triangular(r, z, lower=False)
    resid = float(np.linalg.norm(rhs - h @ y))
    return y, resid


def sketched_least_squares(sq: np.ndarray, h: np.ndarray,
                           rhs: np.ndarray
                           ) -> tuple[np.ndarray, float, dict]:
    """Sketch-space GMRES least squares (randomized GMRES à la RGS).

    The cycle's residual over the basis is ``V_{1:c+1} (rhs - H y)``.
    Classical s-step GMRES minimizes the *coordinate* norm
    ``||rhs - H y||`` — correct only while ``V`` is orthonormal.  Here
    we are given the sketched basis ``sq = S V_{1:c+1}`` (``m`` rows)
    and minimize the *embedded* residual instead:

        min_y || S V (rhs - H y) ||_2  =  min_y || R_s (rhs - H y) ||_2

    with ``S V = Q_s R_s`` the thin QR of the sketch.  Since ``S`` is an
    eps-embedding of ``span(V)``, the minimum is within ``(1 +- eps)``
    of the true residual norm *whatever* the conditioning of ``V`` — the
    basis only needs to be numerically full-rank, not orthogonal.  This
    is what lets the solver run on a merely sketch-orthonormal basis
    (``SketchedTwoStageScheme(fused=True)``).

    Returns ``(y, resid_est, info)``: the minimizer, the sketched
    residual norm ``||R_s (rhs - H y)||`` (a backward-stable estimate of
    ``||b - A x||`` up to embedding distortion; cf. the residual-gap
    analysis of arXiv:2409.03079), and diagnostics — ``basis_condition``
    (``kappa(R_s)``, which estimates ``kappa(V)`` through the
    embedding), ``embedding_rows`` and ``rank_deficient``.
    """
    sq = np.asarray(sq, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    rows, cols = h.shape
    if rows != cols + 1:
        raise ShapeError(f"H must be (c+1) x c, got {h.shape}")
    if sq.ndim != 2 or sq.shape[1] != rows:
        raise ShapeError(
            f"sketched basis of shape {sq.shape} does not cover the "
            f"{rows} basis columns of H")
    if sq.shape[0] < rows:
        raise ShapeError(
            f"sketch has {sq.shape[0]} rows < {rows} basis columns: not "
            f"an embedding")
    rhs = np.asarray(rhs, dtype=np.float64).ravel()
    if rhs.shape[0] != rows:
        raise ShapeError(f"rhs length {rhs.shape[0]} != {rows}")
    _, r_s = np.linalg.qr(sq, mode="reduced")
    diag_s = np.abs(np.diag(r_s))
    dmax = float(np.max(diag_s)) if diag_s.size else 0.0
    if dmax == 0.0:
        raise NumericalError("sketched basis is identically zero")
    rank_deficient = bool(np.min(diag_s) == 0.0)
    # Whitened (well-conditioned) small problem: g = R_s H, z = R_s rhs.
    g = r_s @ h
    z = r_s @ rhs
    q_g, r_g = np.linalg.qr(g, mode="reduced")
    diag_g = np.abs(np.diag(r_g))
    if cols and np.min(diag_g) == 0.0:
        y = np.linalg.lstsq(g, z, rcond=None)[0]
    else:
        y = scipy.linalg.solve_triangular(r_g, q_g.T @ z, lower=False)
    resid = float(np.linalg.norm(z - g @ y))
    info = {
        "basis_condition": float(np.inf) if rank_deficient
        else float(np.linalg.cond(r_s)),
        "embedding_rows": int(sq.shape[0]),
        "rank_deficient": rank_deficient,
    }
    return y, resid, info
