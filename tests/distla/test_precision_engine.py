"""Low-precision storage through the costed BLAS layer.

The precision contract of :mod:`repro.distla.engine`: per storage dtype
the loop and batched engines are bit-identical and charge identical
modeled costs; reductions accumulate in fp64 over low-precision shards;
writes land on the storage grid; and charged bytes scale with the
storage word size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distla import blas
from repro.distla.multivector import DistMultiVector
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer

N_UNIFORM = 96
N_RAGGED = 101
RANKS = 8
KQ, KV = 6, 3

STORAGES = ("fp64", "fp32", "bf16")


def make_comm(engine=None):
    return SimComm(generic_cpu(), RANKS, Tracer(), engine=engine)


def apply_ops(engine: str, n: int, storage: str, accumulate: str = "fp64"):
    """One of every costed BLAS op over ``storage`` operands."""
    part = Partition(n, RANKS)
    comm = make_comm(engine)
    rng = np.random.default_rng(7)
    q = DistMultiVector.from_global(rng.standard_normal((n, KQ)), part, comm,
                                    storage=storage, accumulate=accumulate)
    v = DistMultiVector.from_global(rng.standard_normal((n, KV)), part, comm,
                                    storage=storage, accumulate=accumulate)
    out = DistMultiVector.zeros(part, comm, KV, storage=storage)
    small = DistMultiVector.zeros(part, comm, 1)
    r_proj = rng.standard_normal((KQ, KV))
    r_tri = np.triu(rng.standard_normal((KV, KV))) + 3.0 * np.eye(KV)
    results = [
        blas.block_dot(q, v),
        *blas.block_dot_multi([(q, v), (v, v)]),
        blas.column_norms(q),
    ]
    blas.block_update(v, q, r_proj)
    blas.trsm_inplace(v, r_tri)
    blas.scale_columns(v, np.array([2.0, -1.0, 0.5]))
    blas.lincomb(out, [(2.0, v), (-1.0, v)])
    blas.copy_into(out, v)
    blas.matvec_small(v, rng.standard_normal((KV, 1)), small)
    results += [v.to_global(), out.to_global(), small.to_global()]
    return results, comm.tracer


@pytest.mark.parametrize("n", [N_UNIFORM, N_RAGGED],
                         ids=["uniform", "ragged"])
@pytest.mark.parametrize("storage", STORAGES)
class TestEngineEquivalencePerStorage:
    def test_results_bit_identical(self, n, storage):
        loop, _ = apply_ops("loop", n, storage)
        batched, _ = apply_ops("batched", n, storage)
        for got, want in zip(batched, loop):
            np.testing.assert_array_equal(got, want)

    def test_charged_costs_identical(self, n, storage):
        _, t_loop = apply_ops("loop", n, storage)
        _, t_batched = apply_ops("batched", n, storage)
        assert t_batched.clock == t_loop.clock
        assert dict(t_batched.by_kernel) == dict(t_loop.by_kernel)
        assert dict(t_batched.counts) == dict(t_loop.counts)


@pytest.mark.parametrize("engine", ["loop", "batched"])
class TestPrecisionSemantics:
    def test_reductions_are_fp64(self, engine):
        """Partial Gram results come back float64 whatever the storage."""
        results, _ = apply_ops(engine, N_UNIFORM, "fp32")
        for arr in results[:4]:
            assert arr.dtype == np.float64

    def test_fp64_accumulate_over_fp32_storage(self, engine):
        """The fp64-accumulate dot of fp32 shards equals the fp64 dot of
        the quantized data — not an fp32-accumulated one."""
        part = Partition(N_UNIFORM, RANKS)
        comm = make_comm(engine)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((N_UNIFORM, KQ))
        b = rng.standard_normal((N_UNIFORM, KV))
        q32 = DistMultiVector.from_global(a, part, comm, storage="fp32")
        v32 = DistMultiVector.from_global(b, part, comm, storage="fp32")
        q_ref = DistMultiVector.from_global(
            a.astype(np.float32).astype(np.float64), part, comm)
        v_ref = DistMultiVector.from_global(
            b.astype(np.float32).astype(np.float64), part, comm)
        got = blas.block_dot(q32, v32)
        want = blas.block_dot(q_ref, v_ref)
        np.testing.assert_array_equal(got, want)

    def test_native_fp32_accumulation_opt_in(self, engine):
        """accumulate="fp32" skips the upcast: partials differ from the
        fp64-accumulated result (and stay deterministic per engine)."""
        loop_native, _ = apply_ops("loop", N_UNIFORM, "fp32",
                                   accumulate="fp32")
        batched_native, _ = apply_ops("batched", N_UNIFORM, "fp32",
                                      accumulate="fp32")
        np.testing.assert_array_equal(loop_native[0], batched_native[0])
        fp64_acc, _ = apply_ops(engine, N_UNIFORM, "fp32")
        assert not np.array_equal(loop_native[0], fp64_acc[0])

    def test_writes_land_on_bf16_grid(self, engine):
        results, _ = apply_ops(engine, N_UNIFORM, "bf16")
        v_out = results[4]
        assert v_out.dtype == np.float32
        bits = np.ascontiguousarray(v_out).view(np.uint32)
        assert np.all(bits & np.uint32(0xFFFF) == 0)

    def test_cross_precision_copy_quantizes(self, engine):
        part = Partition(N_UNIFORM, RANKS)
        comm = make_comm(engine)
        src = DistMultiVector.from_global(
            np.full((N_UNIFORM, 2), 1.0 + 2.0 ** -20), part, comm)
        dst = DistMultiVector.zeros(part, comm, 2, storage="fp32")
        blas.copy_into(dst, src)
        np.testing.assert_array_equal(dst.to_global(),
                                      np.float32(1.0 + 2.0 ** -20))


class TestChargedBytesScaleWithStorage:
    """The acceptance claim: fp32 panels charged at half the fp64 bytes."""

    N_BIG = 80_000  # bandwidth-bound local shards (10k rows per rank)

    def _ortho_pass_cost(self, storage):
        part = Partition(self.N_BIG, RANKS)
        comm = make_comm()
        rng = np.random.default_rng(5)
        q = DistMultiVector.from_global(
            rng.standard_normal((self.N_BIG, KQ)), part, comm,
            storage=storage)
        v = DistMultiVector.from_global(
            rng.standard_normal((self.N_BIG, KV)), part, comm,
            storage=storage)
        p = blas.block_dot(q, v)
        blas.block_update(v, q, p)
        return comm.tracer.clock

    def test_fp32_half_fp64(self):
        t64 = self._ortho_pass_cost("fp64")
        t32 = self._ortho_pass_cost("fp32")
        # local kernels halve; the (fp64) allreduce payload does not —
        # the ratio lands between 0.5 and ~0.65 in this regime
        assert t32 < 0.65 * t64
        assert t32 > 0.4 * t64

    def test_bf16_quarter_fp64(self):
        t64 = self._ortho_pass_cost("fp64")
        t16 = self._ortho_pass_cost("bf16")
        assert t16 < 0.45 * t64

    def test_word_size_in_cost_model(self):
        from repro.parallel.costmodel import CostModel
        cost = CostModel(generic_cpu())
        # pure bytes-term scaling at a shape that stays bandwidth-bound
        # at BOTH word sizes (narrow panel: low arithmetic intensity)
        m, k, n = 100_000, 6, 3
        lat = generic_cpu().kernel_latency
        t64 = cost.gemm(m, k, n) - lat
        t32 = cost.gemm(m, k, n, word_bytes=4.0) - lat
        assert t32 == pytest.approx(0.5 * t64, rel=1e-12)

    def test_fp64_default_matches_legacy_formula(self):
        """word_bytes defaulting keeps historical fp64 charges exact."""
        from repro.parallel.costmodel import CostModel
        machine = generic_cpu()
        cost = CostModel(machine)
        m, k, n = 12_345, 7, 4
        flops = 2.0 * m * k * n
        bytes_moved = 8 * (m * k + k * n + m * n)
        eff = cost.gemm_efficiency(min(k, n))
        expected = machine.kernel_latency + max(
            flops / machine.peak_flops,
            bytes_moved / (machine.mem_bandwidth * eff))
        assert cost.gemm(m, k, n) == expected
