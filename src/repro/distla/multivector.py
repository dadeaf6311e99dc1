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

Every multivector stores float64, the paper's working precision: real
input of any other dtype (float32, integers) is copied in exactly, and
a complex or non-numeric input is refused with a
:class:`~repro.exceptions.ShapeError` rather than truncated.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.parallel.communicator import SimComm
from repro.parallel.partition import Partition


def _check_real(dtype: np.dtype) -> None:
    """Refuse input that is not real — anything but a float, integer or
    bool dtype: float64 storage would drop a complex value's imaginary
    part."""
    if dtype.kind not in "fiub":
        raise ShapeError(
            f"a multivector stores float64; input of dtype {dtype} is "
            f"not real")


class DistMultiVector:
    """``n_global x k`` dense block, rows distributed by ``partition``.

    Not a NumPy subclass on purpose: every arithmetic op must go through
    the costed BLAS layer, so the container exposes only structure
    (shards, views, gather/scatter) and no operators.
    """

    __slots__ = ("partition", "comm", "_base", "_flat", "_shards")

    def __init__(self, partition: Partition, comm: SimComm,
                 shards: list[np.ndarray]):
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
            _check_real(s.dtype)
        self._allocate(partition, comm, k)
        for rows, shard in zip(partition.local_slices, shards):
            self._flat[rows] = shard

    def _allocate(self, partition: Partition, comm: SimComm, k: int) -> None:
        """Bind a zeroed ``(n, k)`` vector."""
        self.partition = partition
        self.comm = comm
        self._base = None  # views keep their owning vector alive here
        # the communicator owns vector storage: a heap array from the
        # simulator, a shared-memory segment from the mp backend
        self._flat = comm.alloc(partition.n_global, k)
        self._shards = None  # row slices of `_flat`, built when asked for

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, partition: Partition, comm: SimComm,
              k: int) -> "DistMultiVector":
        new = object.__new__(cls)
        new._allocate(partition, comm, k)
        return new

    @classmethod
    def from_global(cls, arr: np.ndarray, partition: Partition,
                    comm: SimComm) -> "DistMultiVector":
        """Scatter a global ``(n, k)`` or ``(n,)`` array over the ranks
        (a copy)."""
        arr = np.asarray(arr)
        _check_real(arr.dtype)
        if arr.ndim == 1:
            arr = arr[:, np.newaxis]
        if arr.shape[0] != partition.n_global:
            raise ShapeError(
                f"array has {arr.shape[0]} rows, partition expects "
                f"{partition.n_global}")
        new = cls.zeros(partition, comm, arr.shape[1])
        new._flat[...] = arr
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

    def _derived(self, flat: np.ndarray,
                 base: "DistMultiVector | None") -> "DistMultiVector":
        """A vector over storage sliced or copied from this one's:
        conformal by construction, so nothing is checked."""
        new = object.__new__(DistMultiVector)
        new.partition = self.partition
        new.comm = self.comm
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
        flat = self.comm.alloc(*self._flat.shape)
        flat[...] = self._flat
        return self._derived(flat, None)

    def to_global(self) -> np.ndarray:
        """Gather into one C-ordered ``(n, k)`` array (a copy;
        simulation-side, not costed)."""
        return self._flat.copy()

    def scatter_col(self, col: int, values: np.ndarray) -> None:
        """Write a global length-``n`` vector into column ``col``."""
        self._flat[:, col] = values

    def assign_from(self, other: "DistMultiVector") -> None:
        """Copy ``other``'s values into this vector's storage."""
        self._check_conformal(other)
        self._flat[...] = other._flat

    def fill(self, value: float) -> None:
        self._flat[...] = value

    def _check_conformal(self, other: "DistMultiVector") -> None:
        if self.partition != other.partition:
            raise ShapeError("multivectors live on different partitions")
        if self.n_cols != other.n_cols:
            raise ShapeError(
                f"column mismatch: {self.n_cols} vs {other.n_cols}")

    def __repr__(self) -> str:
        return (f"DistMultiVector(shape={self.shape}, "
                f"ranks={self.partition.ranks})")
