"""Every collective is blocking: charged in full, and counted once, at the
call.

There is no posted twin and no hidden-time column.  A collective's
charge is the cost-model price of its payload whatever was charged
before it, and the modeled clock of a run of charges is their sum in
call order.  A reduction's payload is ``8 * elements``: both transports
(the simulator's driver-side fold and the mp backend's shared slab) move
float64, whatever the contribution dtype.  The mp backend's modeled twin
must equal the simulator's charges, and its results the simulator's
bytes, on both sides of the slab's capacity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dd.core import dd_add
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu, summit
from repro.parallel.mp_backend import _MIN_ARENA_ELEMS, MpComm
from repro.parallel.tracing import Tracer

MACHINES = {"summit": summit, "generic_cpu": generic_cpu}
MP_SIZES = (2, 3)


@pytest.fixture(scope="module")
def mp_comms():
    comms = {size: MpComm(generic_cpu(), size, Tracer()) for size in MP_SIZES}
    yield comms
    for comm in comms.values():
        comm.close()


def pairwise_fold(items, add=lambda a, b: a + b):
    """Recursive doubling in list order: ``items[i] + items[i + half]``
    per level, odd leftover carried."""
    while len(items) > 1:
        half = len(items) // 2
        merged = [add(items[i], items[i + half]) for i in range(half)]
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


def spread(rng, size, shape):
    """Per-rank float64 contributions over twelve decades: the order of
    the additions shows in the last bits."""
    return [rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
            for _ in range(size)]


def ring(size, nbytes):
    """Halo descriptors of a periodic nearest-neighbour ring."""
    if size == 1:
        return [{}]
    return [{(r + 1) % size: nbytes, (r - 1) % size: 0.5 * nbytes}
            for r in range(size)]


def local_record(comm, rows):
    """A streaming local kernel's cost-model record over ``rows`` per
    rank."""
    return comm.cost.record(lambda c: [c.blas1(rows, n_streams=3, writes=1)
                                       for _ in range(comm.size)])


@pytest.mark.parametrize("kernel", ["allreduce", "allreduce_dd", "halo"])
@pytest.mark.parametrize("machine", MACHINES)
def test_compute_before_a_collective_discounts_nothing(machine, kernel):
    """A collective charged after a long local kernel costs what it
    costs alone: no earlier charge hides any of it."""
    size = 8
    alone, after = (SimComm(MACHINES[machine](), size, Tracer())
                    for _ in range(2))
    rng = np.random.default_rng(1)
    his = spread(rng, size, (4,))
    los = [h * 2.0 ** -60 for h in his]
    record = local_record(after, 10 ** 6)
    after.charge("axpy", record)

    def issue(comm):
        if kernel == "allreduce":
            comm.allreduce([his])
        elif kernel == "allreduce_dd":
            comm.allreduce_dd(his, los)
        else:
            comm.charge_halo(ring(size, 4096.0))

    for comm in (alone, after):
        issue(comm)
    name = "halo" if kernel == "halo" else "allreduce"
    seconds = alone.tracer.kernel_seconds("other", name)
    assert seconds > 0.0
    assert after.tracer.kernel_seconds("other", name) == seconds
    assert after.tracer.clock == record.seconds + seconds
    assert after.tracer.collective_counts() == alone.tracer.collective_counts()


@pytest.mark.parametrize("seed", range(10))
def test_clock_is_the_sum_of_the_charges_in_call_order(seed):
    """Local kernels, reductions and exchanges interleaved at random: the
    clock is the running float sum of each charge's own price."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 13))
    comm = SimComm(generic_cpu(), size, Tracer())
    clock = 0.0
    for _ in range(int(rng.integers(5, 30))):
        what = rng.integers(3)
        if what == 0:
            width = int(rng.integers(0, 40))
            comm.allreduce([np.ones((size, width))])
            clock += comm.cost.allreduce(8.0 * width, size)
        elif what == 1:
            recv = ring(size, float(rng.integers(1, 10 ** 5)))
            comm.charge_halo(recv)
            clock += max(comm.cost.halo_exchange(by_peer, r, size)
                         for r, by_peer in enumerate(recv))
        else:
            record = local_record(comm, int(rng.integers(1, 10 ** 5)))
            comm.charge("axpy", record)
            clock += record.seconds
        assert comm.tracer.clock == clock


@pytest.mark.parametrize("form", ["stack", "list"])
@pytest.mark.parametrize("dtype", ["float16", "float32", "float64", "int8",
                                   "int32", "int64", "bool"])
@pytest.mark.parametrize("backend", ["sim", "mp"])
def test_every_element_travels_as_an_fp64_word(mp_comms, backend, dtype,
                                               form):
    """The charge is ``8 * elements`` whatever the contribution dtype,
    and the result is the float64 fold of the cast contributions."""
    size = 3
    rng = np.random.default_rng(7)
    items = [(rng.standard_normal((2, 3)) * 50).astype(dtype)
             for _ in range(size)]
    comm = (mp_comms[size] if backend == "mp"
            else SimComm(generic_cpu(), size, Tracer()))
    comm.modeled.reset()
    (got,) = comm.allreduce([np.stack(items) if form == "stack" else items])
    want = pairwise_fold([a.astype(np.float64) for a in items])
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert comm.modeled.payload_bytes[("other", "allreduce")] == 6 * 8.0
    assert comm.modeled.clock == comm.cost.allreduce(6 * 8.0, size)


@pytest.mark.parametrize("n_groups", [1, 2, 3, 4])
def test_fused_groups_pay_one_latency(n_groups):
    """``n`` groups in one call are one collective of the summed payload,
    cheaper than ``n`` separate calls from two groups on."""
    size = 6
    rng = np.random.default_rng(n_groups)
    groups = [spread(rng, size, (g + 1,)) for g in range(n_groups)]
    fused, apart = (SimComm(summit(), size, Tracer()) for _ in range(2))
    together = fused.allreduce(groups)
    one_by_one = [apart.allreduce([g])[0] for g in groups]
    for a, b in zip(together, one_by_one):
        assert a.tobytes() == b.tobytes()
    payload = 8.0 * sum(g + 1 for g in range(n_groups))
    assert fused.tracer.clock == fused.cost.allreduce(payload, size)
    assert fused.tracer.sync_count() == 1
    assert apart.tracer.sync_count() == n_groups
    if n_groups > 1:
        assert fused.tracer.clock < apart.tracer.clock


@pytest.mark.parametrize("size", [2, 4, 7])
@pytest.mark.parametrize("machine", MACHINES)
def test_halo_charges_the_slowest_rank(machine, size):
    comm = SimComm(MACHINES[machine](), size, Tracer())
    rng = np.random.default_rng(size)
    recv = [{peer: float(rng.integers(1, 10 ** 6))
             for peer in range(size) if peer != r and rng.random() < 0.7}
            for r in range(size)]
    comm.charge_halo(recv)
    assert comm.tracer.clock == max(
        comm.cost.halo_exchange(by_peer, r, size)
        for r, by_peer in enumerate(recv))
    assert comm.tracer.collective_counts(payload_bytes=True)["halo"] == {
        "count": 1, "bytes": max(float(sum(d.values())) for d in recv)}


@pytest.mark.parametrize("width", [1, _MIN_ARENA_ELEMS - 1, _MIN_ARENA_ELEMS,
                                   _MIN_ARENA_ELEMS + 1, 10_000])
@pytest.mark.parametrize("size", MP_SIZES)
def test_mp_fold_matches_the_simulator_across_the_slab(mp_comms, size,
                                                      width):
    """Folds narrower than, as wide as and wider than the slab: the
    result is the simulator's, the twin its charges, and the slab is at
    least as wide as the widest fold so far."""
    comm = mp_comms[size]
    sim = SimComm(generic_cpu(), size, Tracer())
    comm.tracer.reset()
    comm.modeled.reset()
    items = spread(np.random.default_rng(width), size, (width,))
    (got,) = comm.allreduce([np.stack(items)])
    (want,) = sim.allreduce([np.stack(items)])
    assert got.tobytes() == want.tobytes()
    assert comm.modeled.snapshot() == sim.tracer.snapshot()
    # the measured stream records the same collective on wall clock
    assert comm.tracer.counts == sim.tracer.counts
    assert comm._slab[1].shape[1] >= width


@pytest.mark.parametrize("width", [_MIN_ARENA_ELEMS // 2,
                                   _MIN_ARENA_ELEMS // 2 + 1, 5000])
@pytest.mark.parametrize("size", MP_SIZES)
def test_mp_dd_fold_matches_the_pairwise_dd_fold(mp_comms, size, width):
    """A double-double fold packs ``hi | lo``, twice the width: straddling
    the slab it still equals the list-order ``dd_add`` fold."""
    rng = np.random.default_rng(width)
    his = spread(rng, size, (width,))
    los = [h * 2.0 ** -54 * rng.uniform(-1.0, 1.0, width) for h in his]
    want_hi, want_lo = pairwise_fold(list(zip(his, los)), dd_add)
    hi, lo = mp_comms[size].allreduce_dd(his, los)
    assert hi.tobytes() == np.asarray(want_hi).tobytes()
    assert lo.tobytes() == np.asarray(want_lo).tobytes()
