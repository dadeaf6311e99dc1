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

Nonblocking collectives (overlap windows)
-----------------------------------------
``post_allreduce`` / ``post_ihalo`` return a
:class:`CommRequest` instead of charging immediately.  The request
carries the collective's full modeled cost; every charge issued between
post and :meth:`SimComm.wait` *drains* in-flight requests front-to-back
(FIFO — the serialized-NIC picture of LogGP overlap), and the wait
charges only the exposed remainder, passing the hidden part to the
tracer as ``overlapped_seconds``.  A posted reduction runs the same
pack -> fold -> unpack core as the blocking call, so it is
**bit-identical** to its blocking counterpart — only the charge
choreography differs.  Collective *counts* are unchanged: the wait
charges exactly one collective (possibly of zero exposed seconds), never
the post.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from repro import config
from repro.dd.core import dd_add
from repro.exceptions import CommunicatorError
from repro.parallel.costmodel import CostModel, KernelCharge
from repro.parallel.machine import MachineSpec
from repro.parallel.tracing import Tracer


class CommRequest:
    """Handle for one posted (nonblocking) collective.

    Created by the ``post_*`` methods and settled by
    :meth:`SimComm.wait`, which returns the collective's result.  The
    modeled state is the LogGP overlap window: ``remaining`` counts down
    as compute charges drain it, ``hidden`` accumulates what was
    drained, and the wait charges ``remaining`` as the exposed part.
    Each request must be waited exactly once, on the communicator that
    created it.
    """

    def __init__(self, comm: "SimComm", kernel: str, seconds: float,
                 payload_bytes: float | None, result,
                 pending: tuple | None = None) -> None:
        self.comm = comm
        self.kernel = kernel
        #: Full modeled cost of the collective at post time.
        self.seconds = float(seconds)
        #: Modeled seconds still in flight (drained toward zero).
        self.remaining = float(seconds)
        #: Modeled seconds hidden behind compute so far.
        self.hidden = 0.0
        self.payload_bytes = payload_bytes
        #: Modeled clock at post time (for the overlap-window span).
        self.posted_at = 0.0
        self.result = result
        #: In-flight reduction ``(fold handle, result shapes)``; the wait
        #: finishes the fold and unpacks it into ``result``.
        self.pending = pending
        self.done = False
        # What an executor backend may park on a request (the simulator
        # measures nothing and leaves these at zero):
        #: Driver wall seconds the post itself took (scatter + dispatch),
        #: charged to the measured stream by the wait.
        self.measured_setup = 0.0
        #: ``perf_counter()`` stamp taken when the post returned: the
        #: start of the real overlap window.
        self.posted_wall = 0.0

    def __repr__(self) -> str:
        state = "done" if self.done else "in-flight"
        return (f"CommRequest({self.kernel!r}, seconds={self.seconds:.3e}, "
                f"hidden={self.hidden:.3e}, {state})")


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
        #: Posted-but-unwaited collectives, oldest first (FIFO drain).
        self._inflight: list[CommRequest] = []
        #: Fusion state (:meth:`group` / :meth:`member`): kernel ->
        #: occurrences a leader has charged in the open group, and kernel
        #: -> the current member's occurrence index; ``None`` outside.
        self._fused: dict[str, int] | None = None
        self._cursor: dict[str, int] | None = None

    def _charge(self, kernel: str, seconds: float, count: int = 1,
                payload_bytes: float | None = None, *,
                flops: float | None = None, mem_bytes: float | None = None,
                settles: CommRequest | None = None,
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

        While posted collectives are in flight, the charged seconds first
        drain them front-to-back.  ``settles`` is reserved for
        :meth:`wait`: it names the request whose exposed remainder this
        charge is.  Such a charge drains nothing — under the
        serialized-NIC FIFO model, time spent finishing the head request
        on the wire cannot progress the ones queued behind it — and it
        carries the request's hidden part as ``overlapped_seconds``.
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
        overlapped = None
        if settles is not None:
            overlapped = settles.hidden or None
        elif self._inflight and seconds > 0.0:
            self._drain_inflight(seconds)
        self.modeled.add(kernel, seconds, count, payload_bytes, overlapped,
                         driver_side, flops, mem_bytes)
        self._charge_measured(kernel, count, payload_bytes, settles,
                              driver_side)

    def _charge_measured(self, kernel: str, count: int,
                         payload_bytes: float | None,
                         settles: CommRequest | None,
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

    def _drain_inflight(self, seconds: float) -> None:
        """Let ``seconds`` of elapsing work hide in-flight comm (FIFO)."""
        budget = seconds
        for req in self._inflight:
            if budget <= 0.0:
                break
            take = min(req.remaining, budget)
            if take > 0.0:
                req.remaining -= take
                req.hidden += take
                budget -= take

    # -- the reduction primitive: pack -> fold -> unpack, one charge ------
    def _pack(self, groups) -> tuple[np.ndarray, list[tuple], float]:
        """Validate ``groups`` and pack them into one ``(ranks, W)``
        float64 buffer (no copy for a single fp64 stack).

        Returns the buffer, each group's result shape, and the wire
        payload: the fold always runs in float64, but what travels is
        the contribution dtype, so ``payload = sum(elements *
        contribution itemsize)``; fp64 contributions charge exactly the
        result's ``nbytes``.
        """
        parts, shapes, payload = [], [], 0.0
        for g, group in enumerate(groups):
            if isinstance(group, np.ndarray):
                if group.ndim == 0 or group.shape[0] != self.size:
                    raise CommunicatorError(
                        f"group {g}: expected a ({self.size}, ...) "
                        f"contribution stack, got shape {group.shape}")
                shape, itemsize = group.shape[1:], group.dtype.itemsize
                parts.append(group.reshape(self.size, -1))
            else:
                if len(group) != self.size:
                    raise CommunicatorError(
                        f"group {g}: expected {self.size} per-rank "
                        f"contributions, got {len(group)}")
                arrs = [np.asarray(a) for a in group]
                shape, itemsize = arrs[0].shape, arrs[0].dtype.itemsize
                for rank, arr in enumerate(arrs):
                    if arr.shape != shape:
                        raise CommunicatorError(
                            f"group {g}: rank {rank} contributes shape "
                            f"{arr.shape} but rank 0 shape {shape}")
                parts.append([arr.reshape(1, -1) for arr in arrs])
            shapes.append(shape)
            payload += float(math.prod(shape) * itemsize)
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

    def _fold_begin(self, buf: np.ndarray, dd: bool = False):
        """Start folding a packed buffer; :meth:`_fold_end` takes the
        returned handle and yields the reduced row.

        This pair is the *transport*, the only part of a reduction a
        backend overrides.  The simulator folds at once, driver-side.
        """
        return self._fold(buf, _dd_combine if dd else np.add)

    def _fold_end(self, handle) -> np.ndarray:
        return handle

    def _reduce(self, groups, dd: bool = False) -> list[np.ndarray]:
        """The blocking collective behind :meth:`allreduce` and
        :meth:`allreduce_dd`.

        Charges like any other kernel (draining open overlap windows);
        it is deliberately not ``wait(post_allreduce(...))``, whose
        charge drains nothing.
        """
        buf, shapes, payload = self._pack(groups)
        if not shapes:
            return []
        if dd and shapes[0] != shapes[1]:
            raise CommunicatorError(
                f"allreduce_dd: hi parts have shape {shapes[0]} but lo "
                f"parts shape {shapes[1]}")
        row = self._fold_end(self._fold_begin(buf, dd))
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

    # -- nonblocking collectives ----------------------------------------
    def _post(self, kernel: str, seconds: float,
              payload_bytes: float | None, result=None,
              pending: tuple | None = None) -> CommRequest:
        """Register a posted collective: no charge now, a request handle
        whose modeled cost subsequent compute charges drain."""
        req = CommRequest(self, kernel, seconds, payload_bytes, result,
                          pending)
        tr = self.modeled
        req.posted_at = tr.clock
        self._inflight.append(req)
        if tr.spans_enabled:
            # zero-duration marker: where the collective went on the wire
            tr.record_span(kernel, tr.clock, tr.clock, cat="post",
                           payload_bytes=payload_bytes)
        return req

    def post_allreduce(self, groups) -> CommRequest:
        """Nonblocking :meth:`allreduce` — post now, settle with
        :meth:`wait`, which returns the list of results.

        The fold starts at once (same order, bit-identical results);
        only the charge is deferred into the overlap window.  An empty
        ``groups`` posts a zero-cost request.
        """
        buf, shapes, payload = self._pack(groups)
        if not shapes:
            return self._post("allreduce", 0.0, 0.0, [])
        return self._post("allreduce",
                          self.cost.allreduce(payload, self.size), payload,
                          pending=(self._fold_begin(buf), shapes))

    def post_ihalo(self, recv_bytes_by_rank: list[dict[int, float]]
                   ) -> CommRequest:
        """Nonblocking :meth:`charge_halo` — the PA2 deep-ring exchange
        posts through here and hides behind the first local SpMVs."""
        seconds, payload = self._halo_cost(recv_bytes_by_rank)
        return self._post("halo", seconds, payload)

    def wait(self, request: CommRequest):
        """Settle a posted collective and return its result.

        Charges the *exposed* remainder (whatever compute did not drain),
        annotated with the hidden part as ``overlapped_seconds``; counts
        as exactly one collective either way.  Waiting before any compute
        charges the full modeled cost — identical to the blocking call.
        """
        if request.done:
            raise CommunicatorError(
                f"wait() called twice on {request!r}")
        if request.comm is not self:
            raise CommunicatorError(
                "wait() on a request posted by a different communicator")
        if request.pending is not None:
            handle, shapes = request.pending
            request.result = self._unpack(self._fold_end(handle), shapes)
            request.pending = None
        self._inflight.remove(request)
        request.done = True
        exposed = request.remaining
        request.remaining = 0.0
        tr = self.modeled
        if tr.spans_enabled and tr.clock > request.posted_at:
            # the overlap window: post to wait-start on the modeled clock
            tr.record_span(request.kernel, request.posted_at, tr.clock,
                           cat="comm_overlap",
                           payload_bytes=request.payload_bytes)
        self._charge(request.kernel, exposed,
                     payload_bytes=request.payload_bytes, settles=request)
        return request.result

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
