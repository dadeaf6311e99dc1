"""Simulated MPI communicator over per-rank shards.

:class:`SimComm` provides the two communication patterns block
orthogonalization needs — global reductions and neighbourhood (halo)
exchange — executing them *for real* over per-rank contributions so the
floating-point result matches what a genuine MPI run produces with a
binary-tree reduction order, while charging modeled time to the
:class:`~repro.parallel.tracing.Tracer`.

Why tree order matters: orthogonality-error experiments are sensitive to
the summation order of Gram-matrix contributions.  ``sum(shards)`` in rank
order would be a *different* algorithm than MPI's pairwise trees; we fold
halves exactly like recursive doubling.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from repro import config
from repro.dd.core import dd_add
from repro.exceptions import CommunicatorError
from repro.parallel.costmodel import _DOUBLE, CostModel, KernelCharge
from repro.parallel.machine import MachineSpec
from repro.parallel.tracing import Tracer


class HaloDescriptors(list):
    """Per-rank ``{peer: bytes}`` descriptors of one neighbourhood exchange
    that remember what the exchange costs.

    A plain ``list[dict[int, float]]`` to every consumer.  A halo plan
    builds one per exchanged operand count and hands the same object
    to every SpMV, so :meth:`SimComm._halo_cost` evaluates the per-rank
    cost formula once per ``(machine, ranks)`` instead of once per
    exchange.  Read-only after construction: the remembered cost is
    that of the contents it was first charged with.
    """

    __slots__ = ("costs",)

    def __init__(self, recv_bytes_by_rank=()) -> None:
        super().__init__(recv_bytes_by_rank)
        #: ``(machine, ranks) -> (slowest rank's seconds, its bytes)``
        self.costs: dict[tuple[MachineSpec, int], tuple[float, float]] = {}


def _dd_combine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Double-double add of two ``(rows, 2m)`` blocks laid out ``[hi | lo]``."""
    m = a.shape[1] // 2
    hi, lo = dd_add((a[:, :m], a[:, m:]), (b[:, :m], b[:, m:]))
    return np.concatenate([hi, lo], axis=1)


class SimComm:
    """A communicator binding ``size`` simulated ranks to one machine model.

    This is the ``"sim"`` backend of the
    :class:`~repro.parallel.api.Communicator` protocol — the *planner*:
    reductions execute driver-side (in MPI-faithful tree order) and every
    charge is **modeled** seconds from the cost model, never wall clock.

    Parameters
    ----------
    machine:
        Hardware description (one rank = one device).
    size:
        Number of ranks.
    tracer:
        Modeled-time accumulator; a fresh one is created when omitted.
    engine:
        Kernel-execution engine (``"loop"`` / ``"batched"``) of every
        costed kernel over this communicator — the one place an engine is
        selected.  ``None`` binds :func:`repro.config.get_engine`, the
        default; an unknown name is a ``ValueError`` here, not inside the
        first BLAS call.
    """

    #: Protocol backend name (:data:`repro.parallel.api.BACKENDS`).
    backend = "sim"

    def __init__(self, machine: MachineSpec, size: int,
                 tracer: Tracer | None = None,
                 engine: str | None = None) -> None:
        if size < 1:
            raise CommunicatorError(f"communicator size must be >= 1, got {size}")
        self.machine = machine
        self.size = int(size)
        self.tracer = tracer if tracer is not None else Tracer()
        #: The tracer carrying *modeled* charges: this communicator's own
        #: here; the mp backend's modeled twin there (its ``tracer`` runs
        #: on the measured clock).
        self.modeled = self.tracer
        self.cost = CostModel(machine)
        if engine is None:
            engine = config.get_engine()
        elif engine not in config.ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of "
                             f"{config.ENGINES}")
        self.engine = engine
        #: Fusion state (:meth:`group` / :meth:`member`): kernel ->
        #: occurrences a leader has charged in the open group, and kernel
        #: -> the current member's occurrence index; ``None`` outside.
        self._fused: dict[str, int] | None = None
        self._cursor: dict[str, int] | None = None

    def _charge(self, kernel: str, seconds: float, count: int = 1,
                payload_bytes: float | None = None, *,
                flops: float | None = None, mem_bytes: float | None = None,
                driver_side: bool = False) -> None:
        """Hand one modeled charge record to the tracer.

        Every cost this class computes funnels through here — on the
        simulator, on the mp backend (whose :meth:`_charge_measured` then
        records its wall clock beside it) and inside lockstep batches.
        ``payload_bytes`` (collectives), ``flops`` / ``mem_bytes`` (a
        :class:`KernelCharge`) and ``driver_side`` (kernels the mp
        backend runs on the driver process) never affect the seconds.

        Inside a fusion :meth:`member`, the first member to reach
        occurrence ``i`` of ``kernel`` in the open :meth:`group` is the
        leader and charges in full; a later member there is a follower:
        the launch / latency part is paid, so it charges its marginal
        work ``max(0, seconds - fixed_cost)`` with ``count=0`` — and its
        whole payload and shapes, which the fused pass does carry.
        """
        cursor = self._cursor
        if cursor is not None:
            idx = cursor.get(kernel, 0)
            cursor[kernel] = idx + 1
            if idx < self._fused.get(kernel, 0):
                seconds = max(0.0, seconds
                              - self.cost.fixed_cost(kernel, self.size))
                count = 0
            else:
                self._fused[kernel] = idx + 1
        self.modeled.add(kernel, seconds, count, payload_bytes, driver_side,
                         flops, mem_bytes)
        self._charge_measured(kernel, count, payload_bytes, driver_side)

    def _charge_measured(self, kernel: str, count: int,
                         payload_bytes: float | None,
                         driver_side: bool) -> None:
        """Record the wall clock of the charge just made (no-op: nothing
        is measured here; the mp backend overrides)."""

    # -- lockstep fusion scopes -----------------------------------------
    @contextmanager
    def group(self):
        """One lockstep round of a batch: the :meth:`member` scopes inside
        share fused occurrences (see :meth:`_charge`).  Charges outside
        any member fuse nothing; a group opened inside another is inert —
        its members' charges belong to the enclosing member's stream."""
        if self._fused is not None:
            yield
            return
        self._fused = {}
        try:
            yield
        finally:
            self._fused = None

    @contextmanager
    def member(self):
        """One member's unit of work within the open :meth:`group`."""
        if self._fused is None or self._cursor is not None:
            yield
            return
        self._cursor = {}
        try:
            yield
        finally:
            self._cursor = None

    # -- the reduction primitive: pack -> fold -> unpack, one charge ------
    def _pack(self, groups) -> tuple[np.ndarray, list[tuple], float]:
        """Validate ``groups`` and pack them into one ``(ranks, W)``
        float64 buffer (no copy for a single fp64 stack).

        Returns the buffer, each group's result shape, and the wire
        payload: both transports move float64, so every element charges
        an 8-byte word whatever the contribution dtype.
        """
        parts, shapes, payload = [], [], 0.0
        for g, group in enumerate(groups):
            if isinstance(group, np.ndarray):
                if group.ndim == 0 or group.shape[0] != self.size:
                    raise CommunicatorError(
                        f"group {g}: expected a ({self.size}, ...) "
                        f"contribution stack, got shape {group.shape}")
                shape = group.shape[1:]
                parts.append(group.reshape(self.size, -1))
            else:
                if len(group) != self.size:
                    raise CommunicatorError(
                        f"group {g}: expected {self.size} per-rank "
                        f"contributions, got {len(group)}")
                arrs = [np.asarray(a) for a in group]
                shape = arrs[0].shape
                for rank, arr in enumerate(arrs):
                    if arr.shape != shape:
                        raise CommunicatorError(
                            f"group {g}: rank {rank} contributes shape "
                            f"{arr.shape} but rank 0 shape {shape}")
                parts.append([arr.reshape(1, -1) for arr in arrs])
            shapes.append(shape)
            payload += _DOUBLE * math.prod(shape)
        if len(parts) == 1 and isinstance(parts[0], np.ndarray):
            return np.asarray(parts[0], dtype=np.float64), shapes, payload
        widths = [math.prod(shape) for shape in shapes]
        buf = np.empty((self.size, sum(widths)))
        offset = 0
        for part, width in zip(parts, widths):
            out = buf[:, offset:offset + width]
            if isinstance(part, np.ndarray):
                out[...] = part  # casts to float64
            else:
                np.concatenate(part, axis=0, out=out)
            offset += width
        return buf, shapes, payload

    @staticmethod
    def _fold(buf: np.ndarray, combine=np.add) -> np.ndarray:
        """Recursive-doubling fold of the rows of ``buf`` into one row.

        Each level folds the upper half onto the lower half with ONE
        elementwise ``combine``, pairing row ``i + half`` with row ``i``
        and carrying an odd leftover — the order a pairwise
        ``items[i] + items[i + half]`` list fold has.  Elementwise
        combines are independent per column, so folding a packed buffer
        is bit-identical to folding each group alone.  ``buf`` is never
        written.
        """
        work = buf
        while work.shape[0] > 1:
            m = work.shape[0]
            half = m // 2
            merged = combine(work[:half], work[half:2 * half])
            if m % 2:
                merged = np.concatenate([merged, work[2 * half:]], axis=0)
            work = merged
        return work[0].copy() if work is buf else work[0]

    @staticmethod
    def _unpack(row: np.ndarray, shapes: list[tuple]) -> list[np.ndarray]:
        """Slice one reduced row back into per-group result arrays."""
        results = []
        offset = 0
        for shape in shapes:
            width = math.prod(shape)
            results.append(row[offset:offset + width].reshape(shape))
            offset += width
        return results

    def _transport(self, buf: np.ndarray, dd: bool = False) -> np.ndarray:
        """Fold a packed buffer into the reduced row.

        This is the *transport*, the only part of a reduction a backend
        overrides.  The simulator folds at once, driver-side.
        """
        return self._fold(buf, _dd_combine if dd else np.add)

    def _reduce(self, groups, dd: bool = False) -> list[np.ndarray]:
        """The collective behind :meth:`allreduce` and
        :meth:`allreduce_dd`."""
        buf, shapes, payload = self._pack(groups)
        if not shapes:
            return []
        if dd and shapes[0] != shapes[1]:
            raise CommunicatorError(
                f"allreduce_dd: hi parts have shape {shapes[0]} but lo "
                f"parts shape {shapes[1]}")
        row = self._transport(buf, dd)
        self._charge("allreduce", self.cost.allreduce(payload, self.size),
                     payload_bytes=payload)
        return self._unpack(row, shapes)

    def allreduce(self, groups) -> list[np.ndarray]:
        """Sum several arrays over the ranks in ONE collective: one
        latency, summed payload; every rank receives the results.

        Each *group* is one array to reduce, given as a ``(ranks, ...)``
        stack or as a length-``ranks`` list of equal-shape per-rank
        contributions; both kinds may be mixed in one call.  BCGS-PIP's
        defining trick is fusing the inter-block projection and the Gram
        matrix into one all-reduce — that is two groups.  An empty
        ``groups`` returns ``[]`` and charges nothing.

        Ranks share the returned arrays read-only (users must copy
        before mutating — all library callers treat them as immutable,
        matching the redundant-storage convention of Sec. VII: "the
        resulting matrix R is stored redundantly on all the MPI
        processes").
        """
        return self._reduce(groups)

    def allreduce_dd(self, his: list[np.ndarray], los: list[np.ndarray]
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Fused double-double allreduce of per-rank ``(hi, lo)`` pairs.

        The pairs travel in ONE collective of twice the payload and are
        combined with :func:`repro.dd.core.dd_add` in the same
        recursive-doubling order as :meth:`allreduce` — the
        communication side of the mixed-precision CholQR's dd Gram
        accumulation.
        """
        hi, lo = self._reduce([his, los], dd=True)
        return hi, lo

    # ------------------------------------------------------------------
    def charge(self, kernel: str, charge: KernelCharge, count: int = 1,
               driver_side: bool = False) -> None:
        """Charge a concurrent local kernel by its cost-model record."""
        self._charge(kernel, charge.seconds, count, flops=charge.flops,
                     mem_bytes=charge.mem_bytes, driver_side=driver_side)

    def _halo_cost(self, recv_bytes_by_rank: list[dict[int, float]]
                   ) -> tuple[float, float]:
        """``(seconds, payload_bytes)`` of one neighbourhood exchange:
        elapsed = slowest rank, payload (a span annotation) = the largest
        total inbound bytes of any rank.

        Both depend only on the descriptors, the machine and the rank
        count, so :class:`HaloDescriptors` (what halo plans hand out)
        are evaluated once and remembered on the descriptors.
        """
        if len(recv_bytes_by_rank) != self.size:
            raise CommunicatorError(
                f"expected {self.size} halo descriptors, got "
                f"{len(recv_bytes_by_rank)}")
        memo = (recv_bytes_by_rank.costs
                if isinstance(recv_bytes_by_rank, HaloDescriptors) else {})
        key = (self.cost.machine, self.size)
        cost = memo.get(key)
        if cost is None:
            worst = max(
                self.cost.halo_exchange(recv, rank, self.size)
                for rank, recv in enumerate(recv_bytes_by_rank)
            )
            payload = max(float(sum(recv.values()))
                          for recv in recv_bytes_by_rank)
            cost = memo[key] = (worst, payload)
        return cost

    def charge_halo(self, recv_bytes_by_rank: list[dict[int, float]]) -> None:
        """Charge a neighbourhood exchange: elapsed = slowest rank."""
        seconds, payload = self._halo_cost(recv_bytes_by_rank)
        self._charge("halo", seconds, payload_bytes=payload)

    # ------------------------------------------------------------------
    def alloc(self, n: int, k: int) -> np.ndarray:
        """Allocate the zeroed, column-major float64 ``(n, k)`` array
        behind one multivector: every column contiguous, a column range
        one slab.

        The backend owns vector storage so executors can place it where
        their ranks can reach it (the mp backend hands back
        shared-memory-backed arrays); the simulator just uses the heap.
        """
        return np.zeros((int(n), int(k)), order="F")

    def exec_spmv(self, matrix, x, out) -> bool:
        """Offer the backend a distributed SpMV to execute itself.

        Returns False: the simulator has no ranks to run it on, so
        :meth:`DistSparseMatrix.matvec` computes driver-side and charges
        the modeled kernels as always.
        """
        return False

    # ------------------------------------------------------------------
    def mark(self) -> None:
        """Reset wall-clock attribution (no-op: nothing is measured here)."""

    def close(self) -> None:
        """Release backend resources (no-op for the simulator)."""

    def __enter__(self) -> "SimComm":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"SimComm(machine={self.machine.name!r}, size={self.size})"
