"""Sketching operators: random subspace embeddings behind one interface.

A sketching operator is a wide random matrix ``S`` of shape
``(m_rows, n_rows)`` with ``m_rows << n_rows`` that preserves the
geometry of any fixed ``k``-dimensional subspace w.h.p. (an (eps, k)
oblivious subspace embedding):

    (1 - eps) ||x||  <=  ||S x||  <=  (1 + eps) ||x||   for x in the span.

Three families, each a :class:`SketchOperator`:

* :class:`SparseSignSketch` — ``nnz`` random signed entries per input
  row (``nnz = 1`` is the classical CountSketch).  Application is a
  streaming scatter-add: O(nnz * n * k) work, no dense operator storage.
* :class:`GaussianSketch` — i.i.d. ``N(0, 1/m)`` entries; the textbook
  embedding with the sharpest constants, applied as a GEMM.
* :class:`SRHTSketch` — subsampled randomized Hadamard transform
  ``P H D``; entries are ``+-1/sqrt(m)`` with Walsh-pattern signs,
  evaluated entrywise so any column block can be materialized locally.

The key property the distributed layer (:mod:`repro.sketch.distributed`)
exploits: ``S @ V = sum_r S[:, rows_r] @ V_r`` — every rank applies the
columns of ``S`` matching its row shard and the partial sketches meet in
one allreduce.  :meth:`SketchOperator.partial` produces such a shard
contribution from *global* row offsets only, so the sketch is
bit-identical regardless of how (or whether) the rows are partitioned.

Operators are deterministic functions of ``(family, n_rows, m_rows,
seed)``; derive seeds with :func:`repro.sketch.seeding.derive_seed`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import ConfigurationError
from repro.sketch.seeding import derive_seed


class SketchOperator(ABC):
    """A random ``(m_rows, n_rows)`` subspace-embedding operator.

    Subclasses generate their randomness lazily but deterministically
    from ``seed``; two instances with equal ``(family, n_rows, m_rows,
    seed)`` are the same operator.
    """

    #: registry key of the operator family (set by subclasses)
    family: str = "abstract"

    def __init__(self, n_rows: int, m_rows: int, seed: int) -> None:
        if n_rows < 1:
            raise ConfigurationError(f"n_rows must be >= 1, got {n_rows}")
        if m_rows < 1:
            raise ConfigurationError(f"m_rows must be >= 1, got {m_rows}")
        self.n_rows = int(n_rows)
        self.m_rows = int(m_rows)
        self.seed = int(seed)

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.m_rows, self.n_rows)

    @abstractmethod
    def partial(self, block: np.ndarray, row_offset: int) -> np.ndarray:
        """``S[:, row_offset : row_offset + len(block)] @ block``.

        ``block`` is a ``(rows, k)`` slab holding global rows
        ``[row_offset, row_offset + rows)`` of the sketched matrix; the
        return value is this slab's ``(m_rows, k)`` contribution to the
        full sketch.  Summing the contributions of any row partition
        reproduces ``S @ V`` exactly.
        """

    def partial_stack(self, stack: np.ndarray, row_offset: int
                      ) -> np.ndarray:
        """Per-rank contributions of a ``(ranks, rows, k)`` stack of
        consecutive equal-count ranks starting at global row
        ``row_offset``.

        Slice ``r`` holds global rows ``[row_offset + r * rows,
        row_offset + (r+1) * rows)``.  The base implementation loops
        :meth:`partial`; subclasses override with batched kernels that
        stay bit-identical to the loop.
        """
        rows = stack.shape[1]
        return np.stack([self.partial(stack[r], row_offset + r * rows)
                         for r in range(stack.shape[0])])

    def local_op(self, k: int) -> tuple:
        """``(op, *args)`` of the :data:`~repro.parallel.costmodel.LOCAL_OPS`
        entry pricing one ``(rows, k)`` shard contribution, ``rows`` left
        to the caller."""
        return ("sketch_dense", self.m_rows, k)

    # -- conveniences ----------------------------------------------------
    def apply(self, arr: np.ndarray) -> np.ndarray:
        """Full sketch ``S @ arr`` of an in-memory ``(n_rows, k)`` array."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, np.newaxis]
        if arr.shape[0] != self.n_rows:
            raise ConfigurationError(
                f"operator sketches {self.n_rows} rows, got {arr.shape[0]}")
        return self.partial(arr, 0)

    def matrix(self) -> np.ndarray:
        """Dense ``(m_rows, n_rows)`` materialization (tests/debugging)."""
        return self.partial(np.eye(self.n_rows), 0)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(n_rows={self.n_rows}, "
                f"m_rows={self.m_rows}, seed={self.seed:#x})")


# ---------------------------------------------------------------------------
# sparse sign / CountSketch
# ---------------------------------------------------------------------------

class SparseSignSketch(SketchOperator):
    """Sparse-sign embedding: ``nnz`` entries ``+-1/sqrt(nnz)`` per row.

    Column ``j`` of ``S`` (input row ``j``) hits buckets
    ``buckets[j, 0..nnz)`` with signs ``signs[j, 0..nnz)``; application
    is a scatter-add over the input rows — one streaming pass, no dense
    operator.  ``nnz = 1`` is CountSketch (Clarkson & Woodruff); small
    ``nnz`` (2-8) buys Gaussian-like reliability at sparse cost
    (Martinsson & Tropp 2020, Sec. 9).
    """

    family = "sparse"

    def __init__(self, n_rows: int, m_rows: int, seed: int,
                 nnz_per_row: int = 1) -> None:
        super().__init__(n_rows, m_rows, seed)
        if nnz_per_row < 1:
            raise ConfigurationError(
                f"nnz_per_row must be >= 1, got {nnz_per_row}")
        self.nnz_per_row = int(nnz_per_row)
        rng = np.random.default_rng(
            derive_seed(seed, "sparse-sign", n_rows, m_rows, nnz_per_row))
        self._buckets = rng.integers(0, m_rows,
                                     size=(n_rows, self.nnz_per_row))
        self._signs = rng.choice(np.array([-1.0, 1.0]),
                                 size=(n_rows, self.nnz_per_row))
        self._signs *= 1.0 / math.sqrt(self.nnz_per_row)

    def partial(self, block: np.ndarray, row_offset: int) -> np.ndarray:
        rows, k = block.shape
        sl = slice(row_offset, row_offset + rows)
        out = np.zeros((self.m_rows, k))
        for j in range(self.nnz_per_row):
            np.add.at(out, self._buckets[sl, j],
                      block * self._signs[sl, j, np.newaxis])
        return out

    def partial_stack(self, stack: np.ndarray, row_offset: int
                      ) -> np.ndarray:
        ranks, rows, k = stack.shape
        out = np.zeros((ranks, self.m_rows, k))
        span = slice(row_offset, row_offset + ranks * rows)
        rank_idx = np.repeat(np.arange(ranks), rows).reshape(ranks, rows)
        for j in range(self.nnz_per_row):
            buckets = self._buckets[span, j].reshape(ranks, rows)
            signs = self._signs[span, j].reshape(ranks, rows)
            # One unbuffered scatter-add; within each (rank, bucket, col)
            # slot contributions land in ascending local-row order exactly
            # like the per-rank loop, so the result is bit-identical.
            np.add.at(out, (rank_idx, buckets),
                      stack * signs[:, :, np.newaxis])
        return out

    def local_op(self, k: int) -> tuple:
        return ("sketch_sparse", k, self.nnz_per_row)


# ---------------------------------------------------------------------------
# Gaussian
# ---------------------------------------------------------------------------

#: Global rows per deterministic generation chunk.  Entries for global
#: row ``i`` live in chunk ``i // _GAUSS_CHUNK`` and depend only on the
#: chunk index — never on shard boundaries — so any partition of the
#: rows sees the same operator.
_GAUSS_CHUNK = 4096


class GaussianSketch(SketchOperator):
    """Dense Gaussian embedding: i.i.d. ``N(0, 1/m_rows)`` entries.

    Entries are generated per fixed-size chunk of *global* rows (seeded
    by chunk index) and cached, so repeated applications and arbitrary
    shard boundaries are deterministic and cheap after the first pass.
    """

    family = "gaussian"

    def __init__(self, n_rows: int, m_rows: int, seed: int) -> None:
        super().__init__(n_rows, m_rows, seed)
        self._chunks: dict[int, np.ndarray] = {}

    def _rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``[lo, hi)`` of the scaled ``(n_rows, m_rows)`` factor."""
        if hi <= lo:  # empty shard (over-decomposed partition)
            return np.zeros((0, self.m_rows))
        parts = []
        scale = 1.0 / math.sqrt(self.m_rows)
        for c in range(lo // _GAUSS_CHUNK, (hi - 1) // _GAUSS_CHUNK + 1):
            chunk = self._chunks.get(c)
            if chunk is None:
                base = c * _GAUSS_CHUNK
                count = min(_GAUSS_CHUNK, self.n_rows - base)
                rng = np.random.default_rng(
                    derive_seed(self.seed, "gaussian-chunk",
                                self.n_rows, self.m_rows, c))
                chunk = rng.standard_normal((count, self.m_rows)) * scale
                self._chunks[c] = chunk
            base = c * _GAUSS_CHUNK
            parts.append(chunk[max(lo - base, 0): hi - base])
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)

    def partial(self, block: np.ndarray, row_offset: int) -> np.ndarray:
        rows = block.shape[0]
        return self._rows(row_offset, row_offset + rows).T @ block

    def partial_stack(self, stack: np.ndarray, row_offset: int
                      ) -> np.ndarray:
        ranks, rows, k = stack.shape
        starts = [row_offset + r * rows for r in range(ranks)]
        blocks = np.stack([self._rows(lo, lo + rows).T for lo in starts])
        return np.matmul(blocks, stack)


# ---------------------------------------------------------------------------
# subsampled randomized Hadamard transform
# ---------------------------------------------------------------------------

def _popcount(arr: np.ndarray) -> np.ndarray:
    """Per-element population count of a non-negative integer array."""
    if hasattr(np, "bitwise_count"):  # NumPy >= 2.0
        return np.bitwise_count(arr)
    out = np.zeros_like(arr)
    work = arr.copy()
    while work.any():
        out += work & 1
        work >>= 1
    return out


class SRHTSketch(SketchOperator):
    """Subsampled randomized Hadamard transform ``sqrt(n/m) P H D``.

    ``D`` is a random diagonal of signs, ``H`` the (orthonormal)
    Walsh-Hadamard transform on the power-of-two padding of ``n_rows``,
    and ``P`` samples ``m_rows`` rows without replacement.  Entries are
    closed-form — ``S[r, j] = d_j (-1)^{popcount(sel_r & j)} / sqrt(m)``
    — so any column block materializes locally from global row indices
    alone (the property the shard-local distributed application needs;
    a fused O(n log n) FHT would not decompose this way).  The modeled
    cost is honest about that choice: we charge the explicit tall GEMM
    this simulation executes, not the fast transform.
    """

    family = "srht"

    def __init__(self, n_rows: int, m_rows: int, seed: int) -> None:
        super().__init__(n_rows, m_rows, seed)
        n_pad = 1 << max(0, (n_rows - 1).bit_length())
        if m_rows > n_pad:
            raise ConfigurationError(
                f"SRHT samples without replacement: m_rows={m_rows} exceeds "
                f"padded length {n_pad}")
        self.n_pad = n_pad
        rng = np.random.default_rng(
            derive_seed(seed, "srht", n_rows, m_rows))
        self._selected = np.sort(rng.choice(n_pad, size=m_rows,
                                            replace=False))
        self._d = rng.choice(np.array([-1.0, 1.0]), size=n_rows)
        self._d *= 1.0 / math.sqrt(m_rows)

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Columns ``[lo, hi)`` of ``S`` as a dense ``(m_rows, hi-lo)``."""
        cols = np.arange(lo, hi, dtype=np.int64)
        parity = _popcount(self._selected[:, np.newaxis]
                           & cols[np.newaxis, :]) & 1
        return (1.0 - 2.0 * parity) * self._d[np.newaxis, lo:hi]

    def partial(self, block: np.ndarray, row_offset: int) -> np.ndarray:
        rows = block.shape[0]
        return self.block(row_offset, row_offset + rows) @ block

    def partial_stack(self, stack: np.ndarray, row_offset: int
                      ) -> np.ndarray:
        ranks, rows, k = stack.shape
        starts = [row_offset + r * rows for r in range(ranks)]
        blocks = np.stack([self.block(lo, lo + rows) for lo in starts])
        return np.matmul(blocks, stack)


# ---------------------------------------------------------------------------
# sizing heuristics and registry
# ---------------------------------------------------------------------------

#: Practical oversampling constants per family: sketch rows per subspace
#: dimension at the reference distortion 1/2.  Sparse-sign needs more
#: rows than a dense embedding for the same failure probability.
_FAMILY_OVERSAMPLE = {"sparse": 4.0, "gaussian": 2.0, "srht": 2.0}

#: Selectable operator families (aliases included).
OPERATOR_FAMILIES: dict[str, type[SketchOperator]] = {
    "sparse": SparseSignSketch,
    "countsketch": SparseSignSketch,
    "gaussian": GaussianSketch,
    "srht": SRHTSketch,
}


def canonical_family(name: str) -> str:
    """Normalize an operator-family name (``"CountSketch"`` -> ``"sparse"``)."""
    key = str(name).strip().lower().replace("_", "").replace("-", "")
    if key in ("countsketch", "sparsesign"):
        return "sparse"
    if key in OPERATOR_FAMILIES:
        return key
    raise ConfigurationError(
        f"unknown sketch operator family {name!r}; expected one of "
        f"{sorted(set(OPERATOR_FAMILIES))}")


def embedding_dim(k: int, *, family: str = "sparse",
                  distortion: float = 0.5, min_pad: int = 8) -> int:
    """Heuristic sketch-row count for a ``k``-dimensional subspace.

    Scales the per-family practical constant by ``(1/2 / distortion)^2``
    (embedding dimension grows as ``1/eps^2``); ``min_pad`` extra
    dimensions guard the tiny-``k`` regime.  These are the working
    choices of the randomized CholQR / randomized block-GS literature
    (Balabanov 2022; Carson & Ma 2024), not sharp theory bounds.
    """
    if k < 1:
        raise ConfigurationError(f"subspace dimension must be >= 1, got {k}")
    if not 0.0 < distortion < 1.0:
        raise ConfigurationError(
            f"distortion must be in (0, 1), got {distortion}")
    c = _FAMILY_OVERSAMPLE[canonical_family(family)]
    m = math.ceil(c * (k + min_pad) * (0.5 / distortion) ** 2)
    return max(m, k + min_pad)


def sketch_rows(k: int, n_rows: int, *, family: str = "sparse",
                oversample: int | None = None, min_pad: int = 8) -> int:
    """Sketch rows for a ``k``-column panel over ``n_rows`` global rows.

    ``oversample`` (rows per column, the knob :class:`SketchedCholQR`
    exposes) overrides the :func:`embedding_dim` heuristic; the result
    is clamped so the sketch never exceeds the input height (and, for
    SRHT, the power-of-two padded length it samples from without
    replacement — always >= ``n_rows`` >= ``k``, so the factor stays
    full rank).
    """
    if oversample is not None:
        m = max(int(oversample) * k, k + min_pad)
    else:
        m = embedding_dim(k, family=family, min_pad=min_pad)
    m = min(m, max(n_rows, k + min_pad))
    if canonical_family(family) == "srht":
        m = min(m, 1 << max(0, (n_rows - 1).bit_length()))
    return m


def make_operator(family: str, n_rows: int, m_rows: int, seed: int,
                  **kwargs) -> SketchOperator:
    """Instantiate an operator by family name (see :data:`OPERATOR_FAMILIES`)."""
    cls = OPERATOR_FAMILIES[canonical_family(family)]
    return cls(n_rows, m_rows, seed, **kwargs)
