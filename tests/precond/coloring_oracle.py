"""Row-by-row reference for the greedy coloring (the oracle of
``test_coloring_oracle.py``).

The loop :func:`repro.precond.coloring.greedy_coloring` replaced: visit
the rows in order, mark the colors of the already-colored neighbours of
row ``i`` in the symmetrized pattern ``a + a.T`` with NumPy scalar
indexing, and take the first unmarked one.  Slow and plain on purpose;
the list pass must agree with it entry for entry.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def greedy_coloring(a: sp.spmatrix) -> np.ndarray:
    """First-fit greedy coloring of the symmetrized sparsity graph."""
    a = sp.csr_matrix(a)
    n = a.shape[0]
    # symmetrize the pattern so the coloring is valid for both sweeps
    pattern = a + a.T
    pattern = sp.csr_matrix(pattern)
    indptr, indices = pattern.indptr, pattern.indices
    colors = np.full(n, -1, dtype=np.int64)
    # scratch: last row that used each color, avoids clearing a set per row
    color_mark = np.full(64, -1, dtype=np.int64)
    for i in range(n):
        neigh = indices[indptr[i]:indptr[i + 1]]
        for j in neigh:
            cj = colors[j]
            if cj >= 0:
                if cj >= color_mark.size:
                    color_mark = np.concatenate(
                        [color_mark, np.full(cj + 64, -1, dtype=np.int64)])
                color_mark[cj] = i
        c = 0
        while c < color_mark.size and color_mark[c] == i:
            c += 1
        colors[i] = c
    return colors
