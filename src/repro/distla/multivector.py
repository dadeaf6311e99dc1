"""Block-row distributed multivectors (sets of long column vectors).

A :class:`DistMultiVector` is an ``n x k`` dense block whose rows belong
to the ranks of a :class:`~repro.parallel.partition.Partition`.  Every
vector the library builds (``zeros``, ``from_global``, ``copy``,
``view_cols``) keeps its values in ONE ``(n, k)`` array, :attr:`flat`,
allocated through the communicator and always COLUMN-MAJOR — the local
layout of a Tpetra MultiVector (Kokkos ``LayoutLeft``), which the
paper's block kernels run on; there is no row-major variant and nothing
selects a layout.  A basis vector is contiguous, so the SpMV reads its
operand and writes its result in place; a column range is one
contiguous slab, so a Krylov solver can preallocate the full
``n x (m+1)`` basis once and hand orthogonalization kernels zero-copy
panel views (O(1) whatever the rank count) that BLAS takes as they are
— the Tpetra subview pattern.

The per-rank structure is derived on demand and never copies:
:attr:`shards` are the row slices of the flat array, one per rank, and
:attr:`stack` is its ``(ranks, rows, k)`` reshape (strides ``(rows, 1,
n)`` words), which exists only on a uniform partition.
The batched engine (:mod:`repro.distla.engine`) computes on ``flat``;
the loop engine, the real-process SpMV and TSQR read ``shards`` /
``stack``.  A vector constructed from caller-supplied shards has no flat
array and every kernel takes the per-rank path.

Storage precision: every multivector carries a storage spec
(:data:`repro.precision.dtypes.STORAGE_SPECS` — ``"fp64"``/``"fp32"``/
``"bf16"``) that decides the container dtype and the word size the cost
model charges.  Low-precision vectors are *storage* formats only: the
engines accumulate reductions in float64 and round results to the
storage grid on write (``"bf16"`` rides in float32 containers, rounded
to the bfloat16 grid and charged at 2 bytes/word).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.parallel.communicator import SimComm
from repro.parallel.partition import Partition
from repro.precision import dtypes as _pdtypes


class DistMultiVector:
    """``n_global x k`` dense block, rows distributed by ``partition``.

    Not a NumPy subclass on purpose: every arithmetic op must go through
    the costed BLAS layer, so the container exposes only structure
    (shards, views, gather/scatter) and no operators.
    """

    __slots__ = ("partition", "comm", "storage", "accumulate",
                 "_base", "_flat", "_shards")

    def __init__(self, partition: Partition, comm: SimComm,
                 shards: list[np.ndarray] | None,
                 _base: "DistMultiVector | None" = None,
                 _flat: np.ndarray | None = None,
                 storage: str | None = None, accumulate: str = "fp64"):
        if _flat is not None:  # library-built: conformal by construction
            dtype = _flat.dtype
        else:
            if len(shards) != partition.ranks:
                raise ShapeError(
                    f"need {partition.ranks} shards, got {len(shards)}")
            k = shards[0].shape[1]
            for r, s in enumerate(shards):
                if s.ndim != 2 or s.shape != (partition.local_count(r), k):
                    raise ShapeError(
                        f"shard {r} has shape {s.shape}, expected "
                        f"({partition.local_count(r)}, {k})")
            dtype = shards[0].dtype
        if storage is None:
            # Infer from the container dtype (callers constructing shards
            # directly predate the precision subsystem): float32 shards
            # are fp32 storage, everything else the fp64 default.  bf16
            # cannot be inferred — its container IS float32 — so it must
            # be requested explicitly.
            storage = "fp32" if dtype == np.float32 else "fp64"
        elif dtype != _pdtypes.container_dtype(storage):
            # A mislabeled vector would silently compute in the wrong
            # precision AND mischarge bytes (the engines' word-size
            # decisions key off `storage`).
            raise ShapeError(
                f"shards have dtype {dtype}, but storage {storage!r} "
                f"requires {_pdtypes.container_dtype(storage)}")
        if accumulate not in _pdtypes.ACCUMULATE_SPECS:
            raise ShapeError(
                f"unknown accumulate precision {accumulate!r}; expected "
                f"one of {_pdtypes.ACCUMULATE_SPECS}")
        self.partition = partition
        self.comm = comm
        self.storage = _pdtypes.validate_storage(storage)
        # Precision shard-local kernels accumulate partial results in
        # before the (always-float64) reduction tree; "fp32" only takes
        # effect for low-precision storage (see repro.distla.engine).
        self.accumulate = accumulate
        self._base = _base  # keeps the owning vector alive for views
        self._flat = _flat  # None: shards supplied by the caller
        self._shards = shards  # None until asked for, when `_flat` is set

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, partition: Partition, comm: SimComm, k: int,
              storage: str = "fp64",
              accumulate: str = "fp64") -> "DistMultiVector":
        # the communicator owns vector storage: a heap array from the
        # simulator, a shared-memory segment from the mp backend
        flat = comm.alloc(partition.n_global, k,
                          _pdtypes.container_dtype(storage))
        return cls(partition, comm, None, _flat=flat, storage=storage,
                   accumulate=accumulate)

    @classmethod
    def from_global(cls, arr: np.ndarray, partition: Partition,
                    comm: SimComm, storage: str = "fp64",
                    accumulate: str = "fp64") -> "DistMultiVector":
        """Scatter a global ``(n, k)`` or ``(n,)`` array over the ranks
        (a copy, rounded to the ``storage`` grid)."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, np.newaxis]
        if arr.shape[0] != partition.n_global:
            raise ShapeError(
                f"array has {arr.shape[0]} rows, partition expects "
                f"{partition.n_global}")
        new = cls.zeros(partition, comm, arr.shape[1], storage, accumulate)
        new._flat[...] = _pdtypes.quantize(arr, storage)
        return new

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def n_global(self) -> int:
        return self.partition.n_global

    @property
    def n_cols(self) -> int:
        first = self._flat if self._flat is not None else self._shards[0]
        return int(first.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_global, self.n_cols)

    @property
    def flat(self) -> np.ndarray | None:
        """The column-major ``(n, k)`` array holding every rank's rows
        (what the batched engine computes on); None when built from
        caller-supplied shards."""
        return self._flat

    @property
    def shards(self) -> list[np.ndarray]:
        """One ``(rows_on_rank, k)`` array per rank — row slices of
        :attr:`flat` when there is one, built on first use."""
        if self._shards is None:
            self._shards = [self._flat[rows]
                            for rows in self.partition.local_slices]
        return self._shards

    @property
    def stack(self) -> np.ndarray | None:
        """:attr:`flat` as a ``(ranks, rows, k)`` view (splitting the row
        axis never copies); None without a flat array or when ragged."""
        flat, part = self._flat, self.partition
        if flat is None or not part.is_uniform:
            return None
        return flat.reshape(part.ranks, part.runs[0][2], flat.shape[1])

    @property
    def np_dtype(self) -> np.dtype:
        """Container dtype of the shards (bf16 rides in float32)."""
        return _pdtypes.container_dtype(self.storage)

    @property
    def word_bytes(self) -> float:
        """Bytes per stored word — what the cost model charges per element."""
        return _pdtypes.word_bytes(self.storage)

    def quantize(self, arr: np.ndarray) -> np.ndarray:
        """Round ``arr`` to this vector's storage grid (container dtype)."""
        return _pdtypes.quantize(arr, self.storage)

    def _derived(self, flat: np.ndarray | None,
                 shards: list[np.ndarray] | None,
                 base: "DistMultiVector | None") -> "DistMultiVector":
        """A vector over storage sliced or copied from this one's:
        conformal by construction, so the constructor's checks (which
        caller-supplied shards still go through) are skipped."""
        new = object.__new__(DistMultiVector)
        new.partition = self.partition
        new.comm = self.comm
        new.storage = self.storage
        new.accumulate = self.accumulate
        new._base = base
        new._flat = flat
        new._shards = shards
        return new

    def view_cols(self, cols: slice | int) -> "DistMultiVector":
        """Zero-copy view of a column range (int selects one column)."""
        if isinstance(cols, int):
            cols = slice(cols, cols + 1)
        base = self._base or self
        if self._flat is not None:
            return self._derived(self._flat[:, cols], None, base)
        return self._derived(None, [s[:, cols] for s in self._shards], base)

    def copy(self) -> "DistMultiVector":
        if self._flat is not None:
            # through the communicator: column-major, and shared memory
            # on the mp backend
            flat = self.comm.alloc(*self._flat.shape, self._flat.dtype)
            flat[...] = self._flat
            return self._derived(flat, None, None)
        return self._derived(
            None, [np.array(s, copy=True) for s in self._shards], None)

    def to_global(self) -> np.ndarray:
        """Gather into one C-ordered ``(n, k)`` array (a copy;
        simulation-side, not costed)."""
        if self._flat is not None:
            return self._flat.copy()
        return np.concatenate(self._shards, axis=0)

    def scatter_col(self, col: int, values: np.ndarray) -> None:
        """Write a global length-``n`` vector into column ``col`` (the
        container dtype casts; round to the storage grid beforehand)."""
        if self._flat is not None:
            self._flat[:, col] = values
            return
        for rows, shard in zip(self.partition.local_slices, self._shards):
            shard[:, col] = values[rows]

    def assign_from(self, other: "DistMultiVector") -> None:
        """Copy ``other``'s values into this vector's storage (rounding
        to its storage grid across precisions)."""
        self._check_conformal(other)
        same = self.storage == other.storage
        if self._flat is not None and other._flat is not None:
            pairs = [(self._flat, other._flat)]
        else:
            pairs = zip(self.shards, other.shards)
        for mine, theirs in pairs:
            mine[...] = theirs if same else self.quantize(theirs)

    def fill(self, value: float) -> None:
        value = self.quantize(np.asarray(value, dtype=np.float64))
        for block in (self._shards if self._flat is None else [self._flat]):
            block[...] = value

    def _check_conformal(self, other: "DistMultiVector") -> None:
        if self.partition != other.partition:
            raise ShapeError("multivectors live on different partitions")
        if self.n_cols != other.n_cols:
            raise ShapeError(
                f"column mismatch: {self.n_cols} vs {other.n_cols}")

    def __repr__(self) -> str:
        extra = "" if self.storage == "fp64" else f", storage={self.storage!r}"
        return (f"DistMultiVector(shape={self.shape}, "
                f"ranks={self.partition.ranks}{extra})")
