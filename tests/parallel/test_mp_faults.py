"""MpComm faults: a dead worker or a worker-side error surfaces as a
typed error naming the rank, with no hang, an idempotent ``close()``
and no shared-memory segment left behind.  Every case runs under
``signal.alarm``."""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.exceptions import CommunicatorError
from repro.krylov.simulation import Simulation
from repro.matrices.stencil import laplace2d
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.mp_backend import _MIN_ARENA_ELEMS, MpComm
from repro.parallel.tracing import Tracer

SHM_DIR = "/dev/shm"
#: a worker's own barrier timeout; a dead rank must be reported well
#: before it, not after it
WORKER_TIMEOUT = 10.0
PROMPT = 5.0

#: (size, rank to kill)
DEAD = [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 3)]


@pytest.fixture(autouse=True)
def deadline():
    """A hang fails the test instead of stalling the suite."""
    def on_alarm(signum, frame):
        raise TimeoutError("MpComm hung on a fault")
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _comm(size: int) -> MpComm:
    return MpComm(generic_cpu(), size, Tracer(), timeout=WORKER_TIMEOUT)


def _kill(comm: MpComm, rank: int) -> None:
    proc = comm._procs[rank]
    proc.kill()
    proc.join(timeout=5.0)
    assert not proc.is_alive()


def _close_leaves_no_segment(comm: MpComm) -> None:
    names = [shm.name.lstrip("/") for shm in comm._shms]
    assert names, "the case allocated no segment to check"
    comm.close()
    comm.close()  # a second close is a no-op
    assert not any(p.is_alive() for p in comm._procs)
    if os.path.isdir(SHM_DIR):
        left = [n for n in names if os.path.exists(os.path.join(SHM_DIR, n))]
        assert not left
    with pytest.raises(CommunicatorError, match="closed"):
        comm.allreduce([np.ones((comm.size, 3))])


def _dd(comm, size):
    return comm.allreduce_dd([np.ones((2, 3))] * size,
                             [np.zeros((2, 3))] * size)


COLLECTIVES = {
    "allreduce": lambda comm, size: comm.allreduce([np.ones((size, 300))]),
    "fused": lambda comm, size: comm.allreduce(
        [np.ones((size, 4)), [np.ones((2, 2))] * size]),
    "allreduce_dd": _dd,
}


@pytest.mark.parametrize("op", list(COLLECTIVES))
@pytest.mark.parametrize("size, dead", DEAD, ids=[f"{s}ranks-kill{r}"
                                                  for s, r in DEAD])
def test_collective_after_a_worker_died(size, dead, op):
    """The dispatch to a dead rank fails on its pipe, or a survivor's
    wait fails on the dead rank's exit: either way the error names it."""
    comm = _comm(size)
    try:
        _kill(comm, dead)
        t0 = time.perf_counter()
        with pytest.raises(CommunicatorError,
                           match=f"rank {dead} is unreachable") as info:
            COLLECTIVES[op](comm, size)
        assert "'reduce'" in str(info.value)
        _close_leaves_no_segment(comm)
        assert time.perf_counter() - t0 < PROMPT
    finally:
        comm.close()


@pytest.mark.parametrize("size, dead", DEAD, ids=[f"{s}ranks-kill{r}"
                                                  for s, r in DEAD])
def test_worker_dies_inside_a_fold(size, dead):
    """The fold reaches the rank, which dies before it acknowledges; the
    survivors, held at the fold's barrier, are released at once."""
    comm = _comm(size)
    collect = comm._collect

    def die_then_collect(tok, opname):
        # the fold is dispatched and the acks not yet collected
        _kill(comm, dead)
        return collect(tok, opname)

    try:
        os.kill(comm._procs[dead].pid, signal.SIGSTOP)
        comm._collect = die_then_collect
        t0 = time.perf_counter()
        with pytest.raises(CommunicatorError,
                           match=f"rank {dead} is unreachable") as info:
            comm.allreduce([np.ones((size, 300))])
        assert "'reduce'" in str(info.value)
        _close_leaves_no_segment(comm)
        assert time.perf_counter() - t0 < PROMPT
    finally:
        comm.close()


@pytest.mark.parametrize("dead", [0, 1, 2])
def test_spmv_after_a_worker_died(dead):
    """A worker-executed SpMV uploads each rank's matrix block first;
    that upload fails the same way."""
    with Simulation(laplace2d(6), ranks=3, machine=generic_cpu(),
                    backend="mp") as sim:
        x = sim.vector_from(np.ones(sim.n))
        _kill(sim.comm, dead)
        with pytest.raises(CommunicatorError,
                           match=f"rank {dead} is unreachable") as info:
            sim.matrix.matvec(x)
        assert "'matrix'" in str(info.value)


@pytest.mark.parametrize("size", [1, 2, 4])
def test_worker_error_names_the_rank_and_keeps_the_comm(size):
    """An exception inside a worker's SpMV comes back as that rank's
    failure, traceback included; the workers live on and the barrier is
    reset, so the next collective is exact."""
    with _comm(size) as comm:
        with pytest.raises(CommunicatorError,
                           match="rank 0 failed 'spmv'") as info:
            comm._roundtrip({"op": "spmv", "mat": -1})
        assert "KeyError" in str(info.value)
        shards = [np.full(3, r + 1.0) for r in range(size)]
        (got,) = comm.allreduce([shards])
        ref = SimComm(generic_cpu(), size, Tracer()).allreduce([shards])[0]
        assert got.tobytes() == ref.tobytes()


def test_a_wider_fold_grows_the_one_slab():
    """A fold wider than the slab gets a larger one, later folds of any
    width reuse it, every result is the simulator's, and close unlinks
    both slabs."""
    size = 3
    rng = np.random.default_rng(0)
    narrow = rng.standard_normal((size, 100))
    wide = rng.standard_normal((size, _MIN_ARENA_ELEMS + 100))
    sim = SimComm(generic_cpu(), size, Tracer())
    comm = _comm(size)
    try:
        slabs = []
        for group in (narrow, wide, narrow, wide):
            (got,) = comm.allreduce([group.copy()])
            assert got.tobytes() == sim.allreduce([group.copy()])[0] \
                .tobytes()
            slabs.append(comm._slab[0])
        assert slabs[0] is not slabs[1]
        assert slabs[1:] == [slabs[1]] * 3
        assert slabs[1].size >= 8 * size * wide.shape[1]
        assert comm._shms == slabs[:2]
        _close_leaves_no_segment(comm)
    finally:
        comm.close()
