"""Fused charging for batched multi-solve (multi-RHS) passes.

Every :class:`~repro.parallel.costmodel.CostModel` formula is affine in
its operand shape: ``t = fixed + work(shape)``, where the fixed part —
kernel launch latency, device syncs, per-hop message latency — does not
grow with the operand (:meth:`CostModel.fixed_cost` names the split per
kernel kind).  When ``b`` compatible solves advance in lockstep, each
round's kernels share one launch and each round's collectives share one
message: a width-``b·s`` panel is ONE charged pass, not ``b`` passes.

:class:`BatchCharges` models exactly that without touching any
numerical code path.  It wraps the communicator's ``_charge`` funnel
(the single point every modeled charge flows through, on the simulated
and the real-process backend alike) and, inside a fusion ``group()``,
matches each ``member()``'s charges by *kernel-kind occurrence*: the
first member to reach occurrence ``i`` of kernel ``k`` is the leader —
it charges the full modeled seconds and the occurrence count — and
every later member at the same occurrence is a follower, charging only
its marginal work term ``max(0, seconds - fixed)`` with ``count=0``.
Collective *counts* per cycle therefore stay width-independent (the
point of the optimization) while payload *bytes* still accumulate per
member: the fused message carries every member's panel.

Occurrence matching is by kind, not position, so members desynchronized
by per-member control flow (an early convergence checkpoint, a truncated
panel) stay sound: a round's fused message simply carries whatever each
member needs.  At width 1 every charge is a leader charge, so a batch of
one is charge-identical to the unbatched solve.
"""

from __future__ import annotations

from contextlib import contextmanager


class BatchCharges:
    """Context manager fusing modeled charges across lockstep members.

    Usage::

        with BatchCharges(sim.comm) as batch:
            while active:
                with batch.group():            # one lockstep round
                    for m in active:
                        with batch.member():   # one member's unit of work
                            advance(m)

    Nested installation is inert: if the communicator's ``_charge`` is
    already wrapped (an outer batch is active), this instance installs
    nothing and its ``group()``/``member()`` scopes pass charges through
    to the outer batch as part of the enclosing member's stream.
    """

    def __init__(self, comm) -> None:
        self.comm = comm
        self._installed = False
        self._in_member = False
        #: kernel -> fused occurrences charged so far in the open group
        self._seen: dict[str, int] = {}
        #: kernel -> the current member's occurrence index
        self._cursor: dict[str, int] = {}

    # -- install / remove ----------------------------------------------
    def __enter__(self) -> "BatchCharges":
        comm = self.comm
        if not hasattr(comm, "_charge") or "_charge" in vars(comm):
            return self  # no charge funnel, or an outer batch owns it
        orig = comm._charge
        cost = comm.cost
        size = comm.size

        def fused_charge(kernel: str, seconds: float, count: int = 1,
                         payload_bytes: float | None = None, *,
                         settles=None,
                         driver_side: bool = False) -> None:
            if self._in_member:
                idx = self._cursor.get(kernel, 0)
                self._cursor[kernel] = idx + 1
                if idx < self._seen.get(kernel, 0):
                    # follower: the leader already paid this occurrence's
                    # fixed cost; charge the marginal work term only and
                    # keep the occurrence count width-independent
                    seconds = max(0.0, seconds - cost.fixed_cost(kernel,
                                                                 size))
                    count = 0
                else:
                    self._seen[kernel] = idx + 1
            orig(kernel, seconds, count, payload_bytes, settles=settles,
                 driver_side=driver_side)

        comm._charge = fused_charge
        self._installed = True
        return self

    def __exit__(self, *exc) -> bool:
        if self._installed:
            del self.comm.__dict__["_charge"]
            self._installed = False
        return False

    # -- lockstep scopes ------------------------------------------------
    @contextmanager
    def group(self):
        """One lockstep round: members inside share fused occurrences."""
        self._seen = {}
        try:
            yield self
        finally:
            self._seen = {}

    @contextmanager
    def member(self):
        """One member's unit of work within the current group."""
        self._cursor = {}
        self._in_member = True
        try:
            yield self
        finally:
            self._in_member = False
