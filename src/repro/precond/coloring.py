"""Greedy distance-1 graph coloring (Deveci et al. [10], sequential form).

Multicolor Gauss-Seidel needs a partition of the unknowns into color
classes with no intra-class adjacency: rows of one color can then be
updated concurrently on a GPU.  The paper uses the parallel coloring of
Kokkos Kernels; our simulator only needs the coloring itself, so a
first-fit greedy pass over the local sparsity graph suffices (it yields
the same small color counts — 2 for bipartite stencils, <= max-degree+1
in general).

How it runs: first fit visits the rows in order, so when row ``i`` is
reached its colored neighbours are exactly those with ``j < i``.  The
strictly lower part of the symmetrized pattern is built once with array
operations; then ONE pass over plain Python lists gives each row a
one-hot color bit: the OR ``m`` of its lower neighbours' bits, and the
lowest bit clear in ``m``, ``(m + 1) & ~m``.  Python integers have no
width, so the color count has no cap.  (A level-set wavefront would
vectorize the pass, but its depth is ``n`` on a chain.)
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def _strictly_lower(a: sp.csr_matrix) -> tuple[list[int], list[int]]:
    """``(indptr, indices)`` lists of the entries ``j < i`` of row ``i``
    of ``a + a.T``, each row's in stored order."""
    # the sum, not the union of patterns: entries that cancel are dropped
    pattern = sp.csr_matrix(a + a.T)
    rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
    lower = pattern.indices < rows
    kept_before = np.concatenate(([0], np.cumsum(lower)))
    return (kept_before[pattern.indptr].tolist(),
            pattern.indices[lower].tolist())


def greedy_coloring(a: sp.spmatrix) -> np.ndarray:
    """First-fit greedy coloring of the symmetrized sparsity graph.

    Returns an int array ``colors`` of length n with ``colors[i] !=
    colors[j]`` whenever ``a[i, j] + a[j, i]`` is structurally nonzero
    (i != j); row ``i`` gets the smallest color no ``j < i`` of those
    holds.
    """
    indptr, indices = _strictly_lower(sp.csr_matrix(a))
    bits: list[int] = []
    for lo, hi in zip(indptr, indptr[1:]):
        m = 0
        for j in indices[lo:hi]:
            m |= bits[j]
        bits.append((m + 1) & ~m)
    return np.fromiter(map(int.bit_length, bits), dtype=np.int64,
                       count=len(bits)) - 1


def color_classes(colors: np.ndarray) -> list[np.ndarray]:
    """Index arrays per color, ordered by color id."""
    n_colors = int(colors.max()) + 1 if colors.size else 0
    return [np.flatnonzero(colors == c) for c in range(n_colors)]
