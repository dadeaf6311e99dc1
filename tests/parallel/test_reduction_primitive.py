"""The one reduction primitive: ``allreduce(groups)``.

Every global reduction is pack -> fold -> unpack over one ``(ranks, W)``
buffer.  Its definition is the per-group pairwise list fold kept below as
the oracle — ``items[i] + items[i + half]`` per level, odd leftover
carried, in float64 — and the properties hold the production core (on
both backends) to it byte for byte, and the charge to ``payload = 8 *
elements``: both transports move float64 whatever the contribution
dtype.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dd.core import dd_add
from repro.exceptions import CommunicatorError
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu, summit
from repro.parallel.mp_backend import MpComm
from repro.parallel.tracing import Tracer

SHAPES = ((), (0,), (1,), (3,), (2, 3), (0, 2), (4, 1), (2, 2, 2))


def pairwise_fold(items, add=lambda a, b: a + b):
    """The oracle: list-order recursive doubling of one group."""
    while len(items) > 1:
        half = len(items) // 2
        merged = [add(items[i], items[i + half]) for i in range(half)]
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


def contributions(rng, ranks, shape, dtype):
    """Per-rank arrays spread over twelve decades, so that the order of
    the additions shows in the last bits."""
    return [(rng.standard_normal(shape)
             * 10.0 ** rng.uniform(-6.0, 6.0, shape)).astype(dtype)
            for _ in range(ranks)]


group_specs = st.lists(
    st.tuples(st.sampled_from(SHAPES),
              st.sampled_from((np.float64, np.float32)),
              st.booleans()),  # handed over as a (ranks, ...) stack?
    min_size=1, max_size=4)


def build(rng, ranks, specs):
    """``(groups as handed to the communicator, per-rank lists, payload)``."""
    per_rank = [contributions(rng, ranks, shape, dtype)
                for shape, dtype, _ in specs]
    groups = [np.stack(items) if stacked else items
              for items, (_, _, stacked) in zip(per_rank, specs)]
    payload = float(sum(int(np.prod(shape)) * 8 for shape, _, _ in specs))
    return groups, per_rank, payload


def assert_matches_oracle(results, per_rank, specs):
    assert len(results) == len(specs)
    for got, items, (shape, _, _) in zip(results, per_rank, specs):
        want = pairwise_fold([np.array(x, dtype=np.float64) for x in items])
        assert got.dtype == np.float64
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(ranks=st.integers(1, 33), specs=group_specs,
       seed=st.integers(0, 2**32 - 1))
def test_allreduce_equals_per_group_pairwise_fold(ranks, specs, seed):
    groups, per_rank, payload = build(np.random.default_rng(seed), ranks,
                                      specs)
    comm = SimComm(summit(), ranks, Tracer())
    before = [np.array(g, copy=True) for g in groups]

    assert_matches_oracle(comm.allreduce(groups), per_rank, specs)
    # one collective of the summed payload
    assert comm.tracer.clock == comm.cost.allreduce(payload, ranks)
    assert comm.tracer.collective_counts(payload_bytes=True)[
        "allreduce"] == {"count": 1, "bytes": payload}
    # the caller's contributions are never written
    for g, b in zip(groups, before):
        assert np.array(g).tobytes() == b.tobytes()


MP_SIZES = (2, 3, 5)


@pytest.fixture(scope="module")
def mp_comms():
    comms = {size: MpComm(generic_cpu(), size, Tracer())
             for size in MP_SIZES}
    yield comms
    for comm in comms.values():
        comm.close()


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from(MP_SIZES), specs=group_specs,
       seed=st.integers(0, 2**32 - 1))
def test_mp_allreduce_equals_per_group_pairwise_fold(mp_comms, size, specs,
                                                     seed):
    groups, per_rank, payload = build(np.random.default_rng(seed), size,
                                      specs)
    comm = mp_comms[size]
    sim = SimComm(generic_cpu(), size, Tracer())
    comm.tracer.reset()
    comm.modeled.reset()
    # twice: the second fold reuses the slab the first one left
    for c in (sim, comm):
        for _ in range(2):
            assert_matches_oracle(c.allreduce(groups), per_rank, specs)
    # the modeled twin is the simulator's charge stream ...
    assert comm.modeled.snapshot() == sim.tracer.snapshot()
    # ... and the measured stream records the same events on wall clock
    assert comm.tracer.counts == sim.tracer.counts
    assert comm.tracer.payload_bytes == sim.tracer.payload_bytes
    assert comm.tracer.collective_counts(payload_bytes=True)[
        "allreduce"] == {"count": 2, "bytes": 2 * payload}


@settings(max_examples=25, deadline=None)
@given(size=st.sampled_from((1,) + MP_SIZES),
       shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1))
def test_allreduce_dd_equals_pairwise_dd_fold(mp_comms, size, shape, seed):
    rng = np.random.default_rng(seed)
    his = contributions(rng, size, shape, np.float64)
    # a genuine dd pair: |lo| below half an ulp of hi
    los = [h * 2.0 ** -54 * rng.uniform(-1.0, 1.0, shape) for h in his]
    want_hi, want_lo = pairwise_fold(list(zip(his, los)), dd_add)
    comms = [SimComm(generic_cpu(), size, Tracer())]
    if size in mp_comms:
        comms.append(mp_comms[size])
    for comm in comms:
        hi, lo = comm.allreduce_dd(his, los)
        assert hi.shape == lo.shape == shape
        assert hi.tobytes() == np.asarray(want_hi).tobytes()
        assert lo.tobytes() == np.asarray(want_lo).tobytes()
    sim = comms[0]
    # one collective of twice the payload
    assert sim.tracer.clock == sim.cost.allreduce(
        2 * 8.0 * int(np.prod(shape)), size)
    assert sim.tracer.sync_count() == 1


class TestPackRejectsRaggedGroups:
    """A group whose per-rank shapes differ used to broadcast into a
    plausible result and charge a collective; the shared pack step now
    refuses it on both backends before anything is charged or sent."""

    @pytest.fixture(params=["sim", "mp"])
    def comm2(self, request, mp_comms):
        if request.param == "mp":
            return mp_comms[2]
        return SimComm(generic_cpu(), 2, Tracer())

    @staticmethod
    def untouched(comm):
        """A probe whose ``assert_same`` fails if anything was charged
        (either clock) or any command was sent to a worker."""
        state = (comm.tracer.snapshot(), getattr(comm, "_tok", None))
        modeled = getattr(comm, "modeled", comm.tracer)
        modeled_clock = modeled.clock

        def assert_same():
            assert comm.tracer.since(state[0]).clock == 0.0
            assert modeled.clock == modeled_clock
            assert getattr(comm, "_tok", None) == state[1]
        return assert_same

    def test_mismatched_shapes_in_one_group(self, comm2):
        check = self.untouched(comm2)
        with pytest.raises(CommunicatorError,
                           match=r"group 0.*\(1, 2\).*\(2, 2\)"):
            comm2.allreduce([[np.ones((2, 2)), np.ones((1, 2))]])
        check()

    def test_names_the_offending_group(self, comm2):
        check = self.untouched(comm2)
        with pytest.raises(CommunicatorError,
                           match=r"group 1.*\(1,\).*\(3,\)"):
            comm2.allreduce([np.ones((2, 4)), [np.ones(3), np.ones(1)]])
        check()

    def test_stack_of_wrong_rank_count(self, comm2):
        check = self.untouched(comm2)
        with pytest.raises(CommunicatorError, match=r"group 0.*\(3, 2\)"):
            comm2.allreduce([np.ones((3, 2))])
        with pytest.raises(CommunicatorError, match="group 0"):
            comm2.allreduce([np.array(1.0)])
        check()

    def test_dd_parts_must_agree(self, comm2):
        check = self.untouched(comm2)
        with pytest.raises(CommunicatorError, match="allreduce_dd"):
            comm2.allreduce_dd([np.ones(3)] * 2, [np.ones(2)] * 2)
        check()


class TestEmptyGroups:
    def test_blocking_charges_nothing(self, mp_comms):
        for comm in (SimComm(generic_cpu(), 3, Tracer()), mp_comms[3]):
            before = comm.tracer.snapshot()
            assert comm.allreduce([]) == []
            totals = comm.tracer.since(before)
            assert totals.clock == 0.0 and not any(totals.counts.values())
