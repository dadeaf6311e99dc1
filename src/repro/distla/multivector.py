"""Block-row distributed multivectors (sets of long column vectors).

A :class:`DistMultiVector` is an ``n x k`` dense block whose rows belong
to the ranks of a :class:`~repro.parallel.partition.Partition`.  Every
vector (``zeros``, ``from_global``, ``copy``, ``view_cols``, or the
constructor, which packs the per-rank shards it is given) keeps its
values in ONE ``(n, k)`` array, :attr:`flat`, allocated through the
communicator and always COLUMN-MAJOR — the local layout of a Tpetra
MultiVector (Kokkos ``LayoutLeft``), which the paper's block kernels run
on; there is no row-major variant, no second storage form, and nothing
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
The batched engine (:mod:`repro.distla.engine`), the SpMV and TSQR
compute on ``flat``; the loop engine reads ``shards``; ``stack``'s one
reader is the real-process SpMV (``MpComm.exec_spmv``).

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
                 shards: list[np.ndarray],
                 storage: str | None = None, accumulate: str = "fp64"):
        """Pack one ``(rows_on_rank, k)`` array per rank into a vector of
        its own storage (the arrays are copied, never aliased)."""
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
            # Infer from the shards' dtype: float32 shards are fp32
            # storage, everything else the fp64 default.  bf16 cannot be
            # inferred — its container IS float32 — so it must be
            # requested explicitly.
            storage = "fp32" if dtype == np.float32 else "fp64"
        elif dtype != _pdtypes.container_dtype(storage):
            # A mislabeled vector would silently compute in the wrong
            # precision AND mischarge bytes (the engines' word-size
            # decisions key off `storage`).
            raise ShapeError(
                f"shards have dtype {dtype}, but storage {storage!r} "
                f"requires {_pdtypes.container_dtype(storage)}")
        self._allocate(partition, comm, k, storage, accumulate)
        for rows, shard in zip(partition.local_slices, shards):
            self._flat[rows] = shard

    def _allocate(self, partition: Partition, comm: SimComm, k: int,
                  storage: str, accumulate: str) -> None:
        """Bind a zeroed ``(n, k)`` vector of ``storage`` precision."""
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
        self._base = None  # views keep their owning vector alive here
        # the communicator owns vector storage: a heap array from the
        # simulator, a shared-memory segment from the mp backend
        self._flat = comm.alloc(partition.n_global, k,
                                _pdtypes.container_dtype(storage))
        self._shards = None  # row slices of `_flat`, built when asked for

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, partition: Partition, comm: SimComm, k: int,
              storage: str = "fp64",
              accumulate: str = "fp64") -> "DistMultiVector":
        new = object.__new__(cls)
        new._allocate(partition, comm, k, storage, accumulate)
        return new

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
        return int(self._flat.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_global, self.n_cols)

    @property
    def flat(self) -> np.ndarray:
        """The column-major ``(n, k)`` array holding every rank's rows
        (what the batched engine computes on)."""
        return self._flat

    @property
    def shards(self) -> list[np.ndarray]:
        """One ``(rows_on_rank, k)`` array per rank — row slices of
        :attr:`flat`, built on first use."""
        if self._shards is None:
            self._shards = [self._flat[rows]
                            for rows in self.partition.local_slices]
        return self._shards

    @property
    def stack(self) -> np.ndarray | None:
        """:attr:`flat` as a ``(ranks, rows, k)`` view (splitting the row
        axis never copies); None when the partition is ragged."""
        flat, part = self._flat, self.partition
        if not part.is_uniform:
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

    def _derived(self, flat: np.ndarray,
                 base: "DistMultiVector | None") -> "DistMultiVector":
        """A vector over storage sliced or copied from this one's:
        conformal by construction, so nothing is checked."""
        new = object.__new__(DistMultiVector)
        new.partition = self.partition
        new.comm = self.comm
        new.storage = self.storage
        new.accumulate = self.accumulate
        new._base = base
        new._flat = flat
        new._shards = None
        return new

    def view_cols(self, cols: slice | int) -> "DistMultiVector":
        """Zero-copy view of a column range (int selects one column)."""
        if isinstance(cols, int):
            cols = slice(cols, cols + 1)
        return self._derived(self._flat[:, cols], self._base or self)

    def copy(self) -> "DistMultiVector":
        # through the communicator: column-major, and shared memory on
        # the mp backend
        flat = self.comm.alloc(*self._flat.shape, self._flat.dtype)
        flat[...] = self._flat
        return self._derived(flat, None)

    def to_global(self) -> np.ndarray:
        """Gather into one C-ordered ``(n, k)`` array (a copy;
        simulation-side, not costed)."""
        return self._flat.copy()

    def scatter_col(self, col: int, values: np.ndarray) -> None:
        """Write a global length-``n`` vector into column ``col`` (the
        container dtype casts; round to the storage grid beforehand)."""
        self._flat[:, col] = values

    def assign_from(self, other: "DistMultiVector") -> None:
        """Copy ``other``'s values into this vector's storage (rounding
        to its storage grid across precisions)."""
        self._check_conformal(other)
        same = self.storage == other.storage
        self._flat[...] = other._flat if same else self.quantize(other._flat)

    def fill(self, value: float) -> None:
        self._flat[...] = self.quantize(np.asarray(value, dtype=np.float64))

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
