"""The formal :class:`Communicator` protocol and the backend factory.

Everything the solvers, schemes, and distributed kernels ask of a
communicator is written down here as one explicit protocol: ONE
tree-ordered global reduction primitive (``allreduce`` over any number
of fused groups, and the double-double ``allreduce_dd``), neighbourhood
(halo) exchange accounting, concurrent-kernel charging (a cost-model
record), the fusion scopes of lockstep batches, shard storage
allocation, and an optional backend-executed SpMV hook.  Every
collective is blocking: it is charged in full when it is called.

Two backends implement it:

``"sim"`` — :class:`~repro.parallel.communicator.SimComm`, the *planner*.
    Executes reductions driver-side in recursive-doubling pair order and
    charges a LogGP-style :class:`~repro.parallel.costmodel.CostModel` to
    the tracer: every number it produces is **modeled** seconds.

``"mp"`` — :class:`~repro.parallel.mp_backend.MpComm`, the *executor*.
    Each rank is a real OS process (``multiprocessing`` + shared memory)
    owning its shard; it replaces only the reduction's *transport* — the
    packed buffer folds on the workers in the *same* pair order, so
    results are bit-identical to ``"sim"`` on the same problem.  Its
    tracer records **measured** wall-clock per phase, and a modeled twin
    (:attr:`MpComm.modeled`) receives the inherited SimComm charges so
    one run yields predicted *and* measured numbers.

Solver code never branches on the backend: construct via
:func:`make_comm` (or ``Simulation(..., backend=...)``) and the identical
solver/scheme/MPK code runs unchanged on either.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, ContextManager, Protocol,
                    runtime_checkable)

import numpy as np

from repro.exceptions import ConfigurationError
from repro.parallel.costmodel import CostModel, KernelCharge
from repro.parallel.machine import MachineSpec, summit
from repro.parallel.tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.distla.multivector import DistMultiVector
    from repro.distla.spmatrix import DistSparseMatrix

#: Backend names :func:`make_comm` accepts.
BACKENDS = ("sim", "mp")


@runtime_checkable
class Communicator(Protocol):
    """What a backend must provide to run the solvers unchanged.

    Reduction contract: per-rank contributions fold pairwise in
    recursive-doubling order (``items[i] + items[i + half]`` per level,
    odd leftover carried), accumulating in float64 — the order
    :meth:`SimComm._fold` defines.  Any conforming backend must
    reproduce that floating-point result bit-for-bit; the cross-backend
    equivalence suite enforces it.  A reduction *group* is one array to
    reduce, given as a ``(ranks, ...)`` stack or as a length-``ranks``
    list of equal-shape per-rank contributions; all groups of one call
    travel in one collective (one latency, summed payload).
    """

    machine: MachineSpec
    size: int
    tracer: Tracer
    #: The tracer carrying modeled charges (``tracer`` itself on "sim",
    #: the modeled twin on "mp").
    modeled: Tracer
    cost: CostModel
    #: Name of the kernel-execution engine bound at construction.
    engine: str
    #: Which :data:`BACKENDS` entry this communicator implements.
    backend: str

    # -- global reductions --------------------------------------------
    def allreduce(self, groups: list) -> list[np.ndarray]: ...

    def allreduce_dd(self, his: list[np.ndarray], los: list[np.ndarray]
                     ) -> tuple[np.ndarray, np.ndarray]: ...

    # -- local-kernel and neighbourhood accounting --------------------
    # Local work is charged by the cost model's record of the kernel:
    # seconds of the slowest rank, flops and bytes of all.
    def charge(self, kernel: str, charge: KernelCharge, count: int = 1,
               driver_side: bool = False) -> None: ...

    def charge_halo(self, recv_bytes_by_rank: list[dict[int, float]]
                    ) -> None: ...

    # -- storage and execution hooks ----------------------------------
    def alloc(self, n: int, k: int) -> np.ndarray: ...

    def exec_spmv(self, matrix: "DistSparseMatrix", x: "DistMultiVector",
                  out: "DistMultiVector") -> bool: ...

    # -- scopes and lifecycle -----------------------------------------
    # Declared as callable attributes, not ``def``s: the repo benchmark's
    # traced run takes every protocol *function* for a layer boundary of
    # a solve, and these do no work of their own.
    #: ``with comm.group():`` is one lockstep round of a batch, ``with
    #: comm.member():`` one member's unit of work inside it; a kernel
    #: occurrence several members of a round reach is charged as ONE
    #: fused pass (:meth:`SimComm._charge`).
    group: Callable[[], ContextManager]
    member: Callable[[], ContextManager]
    #: ``mark()`` resets wall-clock attribution; ``Simulation`` calls it
    #: once set-up is done (a no-op where nothing is measured).
    mark: Callable[[], None]

    def close(self) -> None: ...


def make_comm(backend: str = "sim", machine: MachineSpec | None = None,
              size: int = 4, *, tracer: Tracer | None = None,
              engine: str | None = None) -> "Communicator":
    """Construct a communicator for ``backend`` (``"sim"`` or ``"mp"``).

    Parameters mirror :class:`~repro.parallel.communicator.SimComm`:
    ``machine`` defaults to Summit, ``tracer`` to a fresh
    :class:`~repro.parallel.tracing.Tracer`.  For ``"mp"`` the returned
    communicator owns real worker processes — ``close()`` it (or use it
    as a context manager / let ``Simulation.close`` do it) when done.
    """
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown communicator backend {backend!r}; expected one of "
            f"{BACKENDS}")
    machine = machine if machine is not None else summit()
    if backend == "mp":
        from repro.parallel.mp_backend import MpComm
        return MpComm(machine, size, tracer, engine=engine)
    from repro.parallel.communicator import SimComm
    return SimComm(machine, size, tracer, engine=engine)
