"""The paper's Hessenberg recovery ``H = R T R^{-1}`` (Fig. 1 line 14):
the oracle ``test_hessenberg.py`` compares
:func:`repro.krylov.hessenberg.assemble_hessenberg_mixed` against.

The solver recovers ``H`` from the in-place bookkeeping
(``assemble_hessenberg_mixed``), which reduces to this form whenever
every MPK input column equals the matching ``R`` column.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.exceptions import NumericalError, ShapeError


def assemble_hessenberg(r: np.ndarray, t: np.ndarray, c: int) -> np.ndarray:
    """``H = R_{1:c+1,1:c+1} T_{1:c+1,1:c} R^{-1}_{1:c,1:c}``.

    ``r`` must contain the final upper-triangular factor through column
    ``c`` (inclusive, i.e. shape at least (c+1, c+1)); ``t`` is the
    change-of-basis matrix of shape at least (c+1, c).
    """
    if r.shape[0] <= c or r.shape[1] <= c:
        raise ShapeError(f"R of shape {r.shape} too small for c={c}")
    if t.shape[0] < c + 1 or t.shape[1] < c:
        raise ShapeError(f"T of shape {t.shape} too small for c={c}")
    r_big = np.triu(r[: c + 1, : c + 1])
    r_small = r_big[:c, :c]
    diag = np.abs(np.diag(r_small))
    if diag.size and (np.min(diag) == 0.0
                      or np.min(diag) < 1e-300 * max(1.0, np.max(diag))):
        raise NumericalError(
            "R factor numerically singular while assembling Hessenberg")
    m = r_big @ t[: c + 1, :c]
    # H = M @ R_small^{-1}  <=>  solve R_small.T @ H.T = M.T
    h = scipy.linalg.solve_triangular(r_small, m.T, trans="T", lower=False).T
    return h
