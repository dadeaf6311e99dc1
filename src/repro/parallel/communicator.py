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
``post_iallreduce_sum`` / ``post_ifused_allreduce_sum[_stacked]`` /
``post_ihalo`` / ``post_ibcast`` return a :class:`CommRequest` instead of
charging immediately.  The request carries the collective's full modeled
cost; every charge issued between post and :meth:`SimComm.wait` *drains*
in-flight requests front-to-back (FIFO — the serialized-NIC picture of
LogGP overlap), and the wait charges only the exposed remainder, passing
the hidden part to the tracer as ``overlapped_seconds``.  Values are
computed eagerly at post time in the same tree order as the blocking
calls, so a posted reduction is **bit-identical** to its blocking
counterpart — only the charge choreography differs.  Collective *counts*
are unchanged: the wait charges exactly one collective (possibly of zero
exposed seconds), never the post.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.dd.core import dd_add
from repro.exceptions import CommunicatorError
from repro.parallel.costmodel import CostModel
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
                 payload_bytes: float | None, result) -> None:
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
        self.done = False

    def __repr__(self) -> str:
        state = "done" if self.done else "in-flight"
        return (f"CommRequest({self.kernel!r}, seconds={self.seconds:.3e}, "
                f"hidden={self.hidden:.3e}, {state})")


class HaloDescriptors(list):
    """Per-rank ``{peer: bytes}`` descriptors of one neighbourhood exchange
    that remember what the exchange costs.

    A plain ``list[dict[int, float]]`` to every consumer.  A halo plan
    builds one per ``(word_bytes, n_vectors)`` and hands the same object
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
        Optional kernel-execution engine name (``"loop"`` / ``"batched"``)
        binding every costed BLAS call over this communicator; ``None``
        defers to :func:`repro.config.get_engine`.
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
        self.cost = CostModel(machine)
        self.engine = None if engine is None else config.validate_engine(engine)
        #: Posted-but-unwaited collectives, oldest first (FIFO drain).
        self._inflight: list[CommRequest] = []

    def _model_tracer(self) -> Tracer:
        """The tracer carrying *modeled* charges.

        ``self.tracer`` here; the mp backend overrides this to its
        modeled twin (its own ``tracer`` runs on the measured clock).
        """
        return self.tracer

    def _charge(self, kernel: str, seconds: float, count: int = 1,
                payload_bytes: float | None = None, *,
                overlapped_seconds: float | None = None,
                drain: bool = True, driver_side: bool = False) -> None:
        """Record one modeled charge.

        Every cost this class computes funnels through here so subclasses
        can redirect the *modeled* stream (the mp backend sends it to its
        modeled twin while ``self.tracer`` accumulates wall clock).
        ``payload_bytes`` annotates collective charges for the span
        stream; it never affects the charged seconds.  ``driver_side``
        tags kernels the mp backend runs on the driver process (span
        annotation only — see :class:`~repro.parallel.tracing.SpanEvent`).

        While posted collectives are in flight, the charged seconds first
        drain them front-to-back (``drain=False`` is reserved for the
        exposed-remainder charge of :meth:`wait` itself — under the
        serialized-NIC FIFO model, time spent finishing the head request
        on the wire cannot progress the ones queued behind it).
        """
        if drain and self._inflight and seconds > 0.0:
            self._drain_inflight(seconds)
        self.tracer.add(kernel, seconds, count=count,
                        payload_bytes=payload_bytes,
                        overlapped_seconds=overlapped_seconds,
                        driver_side=driver_side)

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

    # -- nonblocking collectives ----------------------------------------
    def _post(self, kernel: str, seconds: float,
              payload_bytes: float | None, result) -> CommRequest:
        """Register a posted collective: no charge now, a request handle
        whose modeled cost subsequent compute charges drain."""
        req = CommRequest(self, kernel, seconds, payload_bytes, result)
        tr = self._model_tracer()
        req.posted_at = tr.clock
        self._inflight.append(req)
        if tr.spans_enabled:
            # zero-duration marker: where the collective went on the wire
            tr.record_span(kernel, tr.clock, tr.clock, cat="post",
                           payload_bytes=payload_bytes)
        return req

    def post_iallreduce_sum(self, shards: list[np.ndarray]) -> CommRequest:
        """Nonblocking :meth:`allreduce_sum` — post now, settle with
        :meth:`wait`.

        The reduction itself runs eagerly (same tree order, bit-identical
        result); only the charge is deferred into the overlap window.
        """
        self._check_contributions(shards)
        result = self._tree_sum(shards)
        payload = self._payload_bytes(result, shards[0])
        return self._post("allreduce", self.cost.allreduce(payload, self.size),
                          payload, result)

    def post_ifused_allreduce_sum(self, shard_groups: list[list[np.ndarray]]
                                  ) -> CommRequest:
        """Nonblocking :meth:`fused_allreduce_sum` (one posted message).

        Empty groups post a zero-cost request (the blocking call charges
        nothing for them either)."""
        if not shard_groups:
            return self._post("allreduce", 0.0, 0.0, [])
        results = []
        payload = 0.0
        for shards in shard_groups:
            self._check_contributions(shards)
            red = self._tree_sum(shards)
            payload += self._payload_bytes(red, shards[0])
            results.append(red)
        return self._post("allreduce", self.cost.allreduce(payload, self.size),
                          payload, results)

    def post_ifused_allreduce_sum_stacked(self, stacks: list[np.ndarray]
                                          ) -> CommRequest:
        """Nonblocking :meth:`fused_allreduce_sum_stacked`."""
        if not stacks:
            return self._post("allreduce", 0.0, 0.0, [])
        results = []
        payload = 0.0
        for stack in stacks:
            self._check_stack(stack)
            red = self._tree_sum_stacked(stack)
            payload += self._payload_bytes(red, stack)
            results.append(red)
        return self._post("allreduce", self.cost.allreduce(payload, self.size),
                          payload, results)

    def post_ihalo(self, recv_bytes_by_rank: list[dict[int, float]]
                   ) -> CommRequest:
        """Nonblocking :meth:`charge_halo` — the PA2 deep-ring exchange
        posts through here and hides behind the first local SpMVs."""
        seconds, payload = self._halo_cost(recv_bytes_by_rank)
        return self._post("halo", seconds, payload, None)

    def post_ibcast(self, value, root: int = 0) -> CommRequest:
        """Nonblocking :meth:`bcast` of a replicated array from ``root``."""
        if not 0 <= root < self.size:
            raise CommunicatorError(
                f"bcast root {root} out of range for size {self.size}")
        payload = float(np.asarray(value).nbytes)
        return self._post("bcast", self.cost.bcast(payload, self.size),
                          payload, value)

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
        self._inflight.remove(request)
        request.done = True
        exposed = request.remaining
        request.remaining = 0.0
        tr = self._model_tracer()
        if tr.spans_enabled and tr.clock > request.posted_at:
            # the overlap window: post to wait-start on the modeled clock
            tr.record_span(request.kernel, request.posted_at, tr.clock,
                           cat="comm_overlap",
                           payload_bytes=request.payload_bytes)
        self._charge(request.kernel, exposed,
                     payload_bytes=request.payload_bytes,
                     overlapped_seconds=request.hidden or None,
                     drain=False)
        return request.result

    # ------------------------------------------------------------------
    def _check_contributions(self, shards: list[np.ndarray]) -> None:
        if len(shards) != self.size:
            raise CommunicatorError(
                f"expected {self.size} per-rank contributions, got {len(shards)}")

    @staticmethod
    def _tree_sum(shards: list[np.ndarray]) -> np.ndarray:
        """Pairwise (recursive-doubling order) sum of equal-shape arrays."""
        items = [np.array(s, dtype=np.float64, copy=True) for s in shards]
        while len(items) > 1:
            half = len(items) // 2
            merged = [items[i] + items[i + half] for i in range(half)]
            if len(items) % 2:
                merged.append(items[-1])
            items = merged
        return items[0]

    @staticmethod
    def _tree_sum_stacked(stack: np.ndarray) -> np.ndarray:
        """Pairwise tree sum over axis 0 of a ``(ranks, ...)`` stack.

        Vectorized twin of :meth:`_tree_sum`: each level folds the lower
        half onto the upper half with ONE elementwise add, pairing
        ``i + half`` with ``i`` exactly like the list version — so the
        floating-point result is bit-identical to the loop engine's.
        """
        work = np.asarray(stack, dtype=np.float64)
        if work.shape[0] == 1:
            return np.array(work[0], copy=True)
        while work.shape[0] > 1:
            m = work.shape[0]
            half = m // 2
            merged = work[:half] + work[half:2 * half]
            if m % 2:
                merged = np.concatenate([merged, work[2 * half:]], axis=0)
            work = merged
        return work[0]

    @staticmethod
    def _payload_bytes(result: np.ndarray, contribution) -> float:
        """Wire payload of a reduction whose per-rank contributions were
        ``contribution``-typed.

        The reduction *tree* always runs in float64, but what travels is
        the contribution dtype: a low-precision reduction
        (``accumulate="fp32"`` partials) moves 4-byte words.  fp64
        contributions charge exactly ``result.nbytes`` — bit-identical to
        the historical always-fp64 sizing.
        """
        return float(result.size * np.asarray(contribution).dtype.itemsize)

    # ------------------------------------------------------------------
    def allreduce_sum(self, shards: list[np.ndarray]) -> np.ndarray:
        """Sum per-rank contributions; every rank receives the result.

        ``shards`` holds one equal-shape float array per rank.  The return
        value is the single reduced array (ranks share it read-only; users
        must copy before mutating — all library callers treat it as
        immutable, matching the redundant-storage convention of Sec. VII:
        "the resulting matrix R is stored redundantly on all the MPI
        processes").
        """
        self._check_contributions(shards)
        result = self._tree_sum(shards)
        payload = self._payload_bytes(result, shards[0])
        self._charge("allreduce", self.cost.allreduce(payload, self.size),
                     payload_bytes=payload)
        return result

    def allreduce_scalar(self, values: list[float]) -> float:
        """Scalar allreduce (same cost floor as a tiny message)."""
        self._check_contributions([np.asarray(v) for v in values])
        result = self._tree_sum([np.asarray(float(v)) for v in values])
        self._charge("allreduce", self.cost.allreduce(8.0, self.size),
                     payload_bytes=8.0)
        return float(result)

    def fused_allreduce_sum(self, shard_groups: list[list[np.ndarray]]
                            ) -> list[np.ndarray]:
        """Reduce several arrays in one collective (single latency charge).

        BCGS-PIP's defining trick is fusing the inter-block projection and
        the Gram matrix into *one* all-reduce; this models the fused
        message: one latency, summed payload.

        ``shard_groups[g][r]`` is rank ``r``'s contribution to array ``g``.
        """
        if not shard_groups:
            return []
        results = []
        payload = 0.0
        for shards in shard_groups:
            self._check_contributions(shards)
            red = self._tree_sum(shards)
            payload += self._payload_bytes(red, shards[0])
            results.append(red)
        self._charge("allreduce", self.cost.allreduce(payload, self.size),
                     payload_bytes=payload)
        return results

    # -- stacked variants (batched engine) ------------------------------
    def _check_stack(self, stack: np.ndarray) -> None:
        if stack.shape[0] != self.size:
            raise CommunicatorError(
                f"expected a ({self.size}, ...) contribution stack, got "
                f"shape {stack.shape}")

    def allreduce_sum_stacked(self, stack: np.ndarray) -> np.ndarray:
        """:meth:`allreduce_sum` over a ``(ranks, ...)`` contribution stack.

        Identical reduction tree, identical charged cost — just one
        vectorized add per tree level instead of ``ranks`` Python calls.
        """
        self._check_stack(stack)
        result = self._tree_sum_stacked(stack)
        payload = self._payload_bytes(result, stack)
        self._charge("allreduce", self.cost.allreduce(payload, self.size),
                     payload_bytes=payload)
        return result

    def fused_allreduce_sum_stacked(self, stacks: list[np.ndarray]
                                    ) -> list[np.ndarray]:
        """:meth:`fused_allreduce_sum` over contribution stacks."""
        if not stacks:
            return []
        results = []
        payload = 0.0
        for stack in stacks:
            self._check_stack(stack)
            red = self._tree_sum_stacked(stack)
            payload += self._payload_bytes(red, stack)
            results.append(red)
        self._charge("allreduce", self.cost.allreduce(payload, self.size),
                     payload_bytes=payload)
        return results

    # ------------------------------------------------------------------
    def charge_local(self, kernel: str, per_rank_seconds: list[float],
                     count: int = 1, driver_side: bool = False) -> None:
        """Charge a concurrent local kernel: elapsed = max over ranks."""
        if len(per_rank_seconds) != self.size:
            raise CommunicatorError(
                f"expected {self.size} per-rank costs, got {len(per_rank_seconds)}")
        self._charge(kernel, max(per_rank_seconds), count=count,
                     driver_side=driver_side)

    def charge_uniform(self, kernel: str, seconds: float, count: int = 1,
                       driver_side: bool = False) -> None:
        """Charge a kernel whose cost is identical on every rank.

        The cost model was evaluated for ONE rank's shard; fan the
        queued metrics shapes out by the rank count so flop/byte
        counters stay the aggregate over all shards — identical to a
        per-rank :meth:`charge_local` evaluation under the loop engine
        (and a near-exact aggregate for the driver-side TSQR tree,
        whose ``ranks - 1`` node factorizations are charged from one
        per-node shape).
        """
        metrics = self.cost.metrics
        if metrics is not None:
            metrics.scale_pending(float(self.size))
        self._charge(kernel, seconds, count=count, driver_side=driver_side)

    @staticmethod
    def _halo_payload(recv_bytes_by_rank: list[dict[int, float]]) -> float:
        """Span annotation for a halo exchange: the slowest rank's total
        inbound bytes (the elapsed-time-defining payload)."""
        return max(
            (float(sum(recv.values())) for recv in recv_bytes_by_rank),
            default=0.0)

    def _halo_cost(self, recv_bytes_by_rank: list[dict[int, float]]
                   ) -> tuple[float, float]:
        """``(seconds, payload_bytes)`` of one neighbourhood exchange:
        elapsed = slowest rank, payload = :meth:`_halo_payload`.

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
            cost = memo[key] = (
                worst, self._halo_payload(recv_bytes_by_rank))
        return cost

    def charge_halo(self, recv_bytes_by_rank: list[dict[int, float]]) -> None:
        """Charge a neighbourhood exchange: elapsed = slowest rank."""
        seconds, payload = self._halo_cost(recv_bytes_by_rank)
        self._charge("halo", seconds, payload_bytes=payload)

    def bcast(self, value, root: int = 0):
        """Broadcast a replicated array from ``root`` (blocking).

        The simulator keeps small replicated data driver-side, so the
        value passes through unchanged; the charge is the one-way tree
        fan-out of :meth:`CostModel.bcast`.
        """
        if not 0 <= root < self.size:
            raise CommunicatorError(
                f"bcast root {root} out of range for size {self.size}")
        payload = float(np.asarray(value).nbytes)
        self._charge("bcast", self.cost.bcast(payload, self.size),
                     payload_bytes=payload)
        return value

    # ------------------------------------------------------------------
    def allreduce_dd(self, his: list[np.ndarray], los: list[np.ndarray]
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Fused double-double allreduce of per-rank ``(hi, lo)`` pairs.

        The pairs travel in ONE collective of twice the payload and are
        combined with :func:`repro.dd.core.dd_add` in the same recursive-
        doubling pair order as :meth:`_tree_sum` — the communication side
        of the mixed-precision CholQR's dd Gram accumulation.
        """
        self._check_contributions(his)
        self._check_contributions(los)
        items = list(zip(his, los))
        while len(items) > 1:
            half = len(items) // 2
            merged = [dd_add(items[i], items[i + half]) for i in range(half)]
            if len(items) % 2:
                merged.append(items[-1])
            items = merged
        hi, lo = items[0]
        payload = float(np.asarray(hi).nbytes + np.asarray(lo).nbytes)
        self._charge("allreduce", self.cost.allreduce(payload, self.size),
                     payload_bytes=payload)
        return hi, lo

    # ------------------------------------------------------------------
    def alloc_stack(self, ranks: int, rows: int, k: int,
                    dtype) -> np.ndarray:
        """Allocate a zeroed ``(ranks, rows, k)`` shard stack.

        The backend owns vector storage so executors can place shards
        where their ranks can reach them (the mp backend hands back
        shared-memory-backed arrays); the simulator just uses the heap.
        """
        return np.zeros((int(ranks), int(rows), int(k)), dtype=dtype)

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
