"""Cost model: roofline behaviour, collective scaling, halo costs."""

from __future__ import annotations

from inspect import signature

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.costmodel import LOCAL_OPS, CostModel
from repro.parallel.machine import PRESETS, generic_cpu, summit, vortex

SAT = int(summit().gemm_width_sat)
#: column widths: empty, a GEMV, the split-k trough, around the wide
#: plateau's edge, far past it, and anything in between
WIDTHS = st.sampled_from([0, 1, 2, SAT - 1, SAT, SAT + 1, 10_000]) | \
    st.integers(0, 300)
#: the presets, and one whose GEMMs all run at the wide efficiency
MACHINES = [summit(), vortex(), summit().with_overrides(gemm_width_sat=2.0)]


@pytest.fixture
def cm() -> CostModel:
    return CostModel(summit())


class TestLocalKernels:
    def test_gemm_positive_and_has_latency_floor(self, cm):
        assert cm.gemm(0, 0, 0) == pytest.approx(cm.machine.kernel_latency)
        assert cm.gemm(1_000_000, 5, 5) > cm.machine.kernel_latency

    def test_tall_skinny_gemm_is_bandwidth_bound(self, cm):
        # widths (30, 5) on 1M rows: arithmetic intensity ~ 1 flop/byte,
        # far below the V100 ridge -> time tracks bytes, not flops
        n = 1_000_000
        t = cm.gemm(n, 30, 5)
        bytes_moved = 8.0 * (n * 30 + 30 * 5 + n * 5)
        t_bytes = bytes_moved / (cm.machine.mem_bandwidth
                                 * cm.gemm_efficiency(5))
        assert t == pytest.approx(cm.machine.kernel_latency + t_bytes)

    def test_gemm_efficiency_width_profile(self, cm):
        # GEMV streams well; 5-wide split-k GEMM is the trough; wide
        # blocks climb back to the plateau (the data-reuse mechanism)
        assert cm.gemm_efficiency(1) == cm.machine.gemv_efficiency
        assert cm.gemm_efficiency(5) < cm.gemm_efficiency(1)
        assert (cm.gemm_efficiency(5) < cm.gemm_efficiency(20)
                < cm.gemm_efficiency(60))
        assert cm.gemm_efficiency(60) == cm.machine.gemm_bw_efficiency

    def test_wide_block_cheaper_per_column_than_narrow(self, cm):
        # total bytes for projecting 60 columns against a 60-wide prefix:
        # one wide GEMM beats 12 narrow ones (two-stage's stage-2 win)
        n = 500_000
        wide = cm.gemm(n, 60, 60)
        narrow = sum(cm.gemm(n, 60, 5) for _ in range(12))
        assert wide < narrow

    def test_spmv_fixed_overhead_floor(self, cm):
        tiny = cm.spmv(10, 10, 10)
        assert tiny >= cm.machine.spmv_fixed_overhead

    def test_gemm_monotone_in_each_dim(self, cm):
        base = cm.gemm(10000, 10, 10)
        assert cm.gemm(20000, 10, 10) > base
        assert cm.gemm(10000, 20, 10) > base
        assert cm.gemm(10000, 10, 20) > base

    def test_update_costs_more_than_dot_same_shape(self, cm):
        # V -= Q R writes V as well as reading it
        assert cm.gemm_tall_update(100000, 10, 5) > cm.gemm(100000, 10, 5)

    def test_blas1_scales_with_streams(self, cm):
        assert cm.blas1(100000, n_streams=3) > cm.blas1(100000, n_streams=1)

    def test_spmv_bandwidth_dominated(self, cm):
        # large enough that the fixed per-call overhead is amortized
        t1 = cm.spmv(1e8, 1e7, 1e7)
        t2 = cm.spmv(2e8, 1e7, 1e7)
        assert t2 > 1.5 * t1

    def test_host_dense(self, cm):
        assert cm.host_dense(1e8) == pytest.approx(1e8 / cm.machine.host_flops)

    def test_syrk_cheaper_than_general_gemm(self, cm):
        # syrk writes only k x k, gemm k x k too but reads both operands:
        # syrk reads V once vs gemm reading A and B
        assert cm.syrk(100000, 8) < cm.gemm(100000, 8, 8)


class TestCollectives:
    def test_single_rank_free(self, cm):
        assert cm.allreduce(1024, 1) == 0.0

    def test_latency_grows_with_ranks(self, cm):
        t6 = cm.allreduce(256, 6)       # one node
        t12 = cm.allreduce(256, 12)     # two nodes
        t192 = cm.allreduce(256, 192)   # 32 nodes
        assert t6 < t12 < t192

    def test_small_message_latency_dominated(self, cm):
        # doubling a tiny payload should barely change the time
        t1 = cm.allreduce(64, 192)
        t2 = cm.allreduce(128, 192)
        assert t2 < 1.05 * t1 + 1e-12

    @given(st.integers(min_value=1, max_value=4096),
           st.integers(min_value=1, max_value=512))
    def test_monotone_in_bytes_and_ranks(self, payload, ranks):
        cm = CostModel(summit())
        assert cm.allreduce(payload, ranks) <= cm.allreduce(payload * 2, ranks)
        assert cm.allreduce(payload, ranks) <= cm.allreduce(payload, ranks * 2)

    def test_intra_node_cheaper_than_inter(self, cm):
        same = cm.point_to_point(8192, same_node=True)
        cross = cm.point_to_point(8192, same_node=False)
        assert same < cross

    def test_halo_exchange_empty(self, cm):
        assert cm.halo_exchange({}, rank=0, ranks=6) == 0.0

    def test_halo_exchange_inter_node_pricier(self, cm):
        intra = cm.halo_exchange({1: 8192.0}, rank=0, ranks=12)
        inter = cm.halo_exchange({7: 8192.0}, rank=0, ranks=12)
        assert inter > intra


class TestMachines:
    def test_presets_distinct(self):
        assert summit().ranks_per_node == 6
        assert vortex().ranks_per_node == 4
        assert generic_cpu().ranks_per_node == 16

    def test_nodes_for(self):
        m = summit()
        assert m.nodes_for(1) == 1
        assert m.nodes_for(6) == 1
        assert m.nodes_for(7) == 2
        assert m.nodes_for(192) == 32

    def test_with_overrides(self):
        m = summit().with_overrides(kernel_latency=1e-9)
        assert m.kernel_latency == 1e-9
        assert m.name == "summit"
        assert summit().kernel_latency != 1e-9  # original untouched


class TestArrayFormulas:
    """A local formula evaluated on NumPy columns is its scalar evaluation
    element by element, bit for bit: what prices a sweep's cells."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), op=st.sampled_from(sorted(LOCAL_OPS)),
           machine=st.sampled_from(MACHINES))
    def test_columns_price_like_scalars(self, data, op, machine):
        formula, cost = LOCAL_OPS[op][1], CostModel(machine)
        k = data.draw(st.integers(1, 5))
        rows = data.draw(st.lists(st.integers(0, 10**7), min_size=1,
                                  max_size=4))
        args = [data.draw(st.lists(WIDTHS, min_size=k, max_size=k))
                for _ in list(signature(formula).parameters)[2:]]
        block = formula(cost, np.array(rows)[:, None],
                        *(np.array(column) for column in args))
        assert block.shape == (len(rows), k)
        assert [[x.hex() for x in row] for row in block.tolist()] == [
            [float(formula(cost, r, *each)).hex() for each in zip(*args)]
            for r in rows]

    @pytest.mark.parametrize("machine", [
        *(preset() for preset in PRESETS.values()), MACHINES[-1],
        summit().with_overrides(ranks_per_node=7)],
        ids=[*PRESETS, "wide-gemm", "7-per-node"])
    def test_allreduce_prices_a_ranks_column_like_scalars(self, machine):
        """Ranks -1 .. 1024 (every power of two, every node boundary and
        everything between) against a payload row: each pair is the
        scalar's bits, and one rank or none costs exactly ``0.0``."""
        payloads = [0.0, 8.0, 8.0 * 61 * 61, 8.0e6, 12345.6789]
        ranks = np.arange(-1, 1025)
        block = CostModel(machine).allreduce(np.array(payloads),
                                             ranks[:, None])
        assert block.shape == (len(ranks), len(payloads))
        scalar = CostModel(machine)
        assert [[x.hex() for x in row] for row in block.tolist()] == [
            [float(scalar.allreduce(p, r)).hex() for p in payloads]
            for r in ranks.tolist()]
        assert {x.hex() for x in block[ranks <= 1].ravel().tolist()} == {
            (0.0).hex()}
        assert (block[ranks > 1] > 0).all()

    def test_allreduce_column_in_any_order_and_shape(self, cm):
        """Repeated and unordered rank counts, a row of them or a scalar
        array: the memoised hops never leak between entries."""
        ranks = np.array([[192, 1, 7, 6, 192], [2, 0, 1024, 12, 7]])
        block = cm.allreduce(64.0, ranks)
        assert block.shape == ranks.shape
        assert [x.hex() for x in block.ravel().tolist()] == [
            float(CostModel(cm.machine).allreduce(64.0, r)).hex()
            for r in ranks.ravel().tolist()]
        assert (float(cm.allreduce(64.0, np.array(7))).hex()
                == cm.allreduce(64.0, 7).hex())

    @pytest.mark.parametrize("op", sorted(LOCAL_OPS))
    def test_a_record_holds_python_floats(self, cm, op):
        formula = LOCAL_OPS[op][1]
        args = (3,) * (len(signature(formula).parameters) - 2)
        for charge in (cm.record(lambda c: formula(c, 1000, *args)),
                       cm.record(lambda c: [formula(c, r, *args)
                                            for r in (10, 1000)])):
            assert [type(v) for v in charge] == [float] * 3


def _roofline(machine, flops, nbytes, efficiency):
    return machine.kernel_latency + max(
        flops / machine.peak_flops,
        nbytes / (machine.mem_bandwidth * efficiency))


#: per local kernel: its shapes, and ``(machine, cost, *shape)`` -> the
#: charge worked out by hand from the flops and the bytes it streams,
#: every vector entry an 8-byte float64 and every CSR index 4 bytes
FP64_CHARGES = {
    "gemm": ([(100_000, 6, 3), (50_000, 1, 1), (3_000, 3_000, 3_000)],
             lambda m, c, r, k, n: _roofline(
                 m, 2.0 * r * k * n, 8 * (r * k + k * n + r * n),
                 c.gemm_efficiency(min(k, n)))),
    "gemm_tall_update": (
        [(100_000, 6, 3), (50_000, 1, 1), (3_000, 3_000, 3_000)],
        lambda m, c, r, k, n: _roofline(
            m, 2.0 * r * k * n, 8 * (r * k + k * n + 2 * r * n),
            c.gemm_efficiency(min(k, n)))),
    "syrk": ([(100_000, 3), (50_000, 1), (3_000, 3_000)],
             lambda m, c, r, n: _roofline(
                 m, r * n * (n + 1), 8 * (r * n + n * n),
                 c.gemm_efficiency(n))),
    "trsm": ([(100_000, 3), (50_000, 1), (3_000, 3_000)],
             lambda m, c, r, n: _roofline(
                 m, r * n * n, 8 * (2 * r * n + n * n / 2),
                 c.gemm_efficiency(n))),
    "blas1": ([(100_000, 2, 1), (50_000, 1, 0), (3_000, 5, 2)],
              lambda m, c, e, reads, writes: _roofline(
                  m, 2.0 * e, 8 * e * (reads + writes),
                  m.stream_efficiency)),
    "spmv": ([(500_000, 100_000, 101_000), (5, 1, 5), (0, 0, 0)],
             lambda m, c, nnz, rows, cols: m.spmv_fixed_overhead + _roofline(
                 m, 2.0 * nnz, (8 + 4) * nnz + 4 * (rows + 1)
                 + 8 * (rows + cols), m.spmv_efficiency)),
}


class TestEightByteWords:
    """Every vector is float64, so every local kernel prices 8-byte
    words: its charge is the roofline of its flops and float64 streams,
    the charge the fp64 runs of the paper's figures were priced at."""

    @pytest.mark.parametrize("kernel, args", [
        (kernel, args) for kernel, (shapes, _) in FP64_CHARGES.items()
        for args in shapes],
        ids=lambda v: v if isinstance(v, str) else "x".join(map(str, v)))
    @pytest.mark.parametrize("preset", PRESETS)
    def test_charge_is_the_fp64_roofline(self, preset, kernel, args):
        machine = PRESETS[preset]()
        cost = CostModel(machine)
        by_hand = FP64_CHARGES[kernel][1]
        assert getattr(cost, kernel)(*args) == by_hand(machine, cost, *args)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_narrow_panel_charges_its_bytes(self, preset):
        """At a bandwidth-bound shape the charge above the launch latency
        is exactly the float64 bytes over the effective bandwidth."""
        machine = PRESETS[preset]()
        cost = CostModel(machine)
        m, k, n = 100_000, 6, 3
        nbytes = 8.0 * (m * k + k * n + m * n)
        assert 2.0 * m * k * n / machine.peak_flops < nbytes / (
            machine.mem_bandwidth * cost.gemm_efficiency(3))
        assert cost.gemm(m, k, n) - machine.kernel_latency == pytest.approx(
            nbytes / (machine.mem_bandwidth * cost.gemm_efficiency(3)),
            rel=1e-12)
