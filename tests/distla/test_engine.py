"""Loop-vs-batched engine equivalence: results, costs, fallbacks.

The batched engine must be a pure execution-strategy change: on every
partition shape (uniform and ragged) it has to produce results
bit-identical to the loop engine's and charge *identical* modeled costs
and metrics, so that paper artifacts regenerated under either engine are
the same numbers.  ``test_engine_property.py`` holds the same contract
over arbitrary partitions, precisions and column views.
"""

from __future__ import annotations

import inspect
from dataclasses import replace

import numpy as np
import pytest

from repro import config
from repro.distla import blas
from repro.distla import engine as engine_module
from repro.distla.engine import BatchedEngine, LoopEngine, get_engine, resolve
from repro.distla.multivector import DistMultiVector
from repro.obs.metrics import MetricsRegistry
from repro.ortho.backend import DistBackend
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer
from repro.sketch import SparseSignSketch

N_UNIFORM = 96   # divisible by 8 -> uniform partition: one run, a stack
N_RAGGED = 101   # prime -> ragged partition: two runs of ranks, no stack
RANKS = 8
KQ, KV = 6, 3


def make_comm():
    return SimComm(generic_cpu(), RANKS, Tracer())


def apply_ops(engine, n: int):
    """Run one of every costed BLAS op under ``engine`` (a name or an
    instance); return (results, tracer, metrics totals)."""
    part = Partition(n, RANKS)
    comm = make_comm()
    registry = MetricsRegistry(comm.machine, RANKS)
    comm.tracer.attach_metrics(registry)
    comm.cost = replace(comm.cost, metrics=registry)
    rng = np.random.default_rng(7)
    q = DistMultiVector.from_global(rng.standard_normal((n, KQ)), part, comm)
    v = DistMultiVector.from_global(rng.standard_normal((n, KV)), part, comm)
    out = DistMultiVector.zeros(part, comm, KV)
    small = DistMultiVector.zeros(part, comm, 1)
    r_proj = rng.standard_normal((KQ, KV))
    r_tri = np.triu(rng.standard_normal((KV, KV))) + 3.0 * np.eye(KV)
    coeffs = rng.standard_normal((KV, 1))
    results = [
        blas.block_dot(q, v, engine=engine),
        *blas.block_dot_multi([(q, v), (v, v)], engine=engine),
        blas.column_norms(q, engine=engine),
    ]
    blas.block_update(v, q, r_proj, engine=engine)
    blas.trsm_inplace(v, r_tri, engine=engine)
    blas.scale_columns(v, np.array([2.0, -1.0, 0.5]), engine=engine)
    blas.lincomb(out, [(2.0, v), (-1.0, v)], engine=engine)
    blas.copy_into(out, v, engine=engine)
    blas.matvec_small(v, coeffs, small, engine=engine)
    results += [v.to_global(), out.to_global(), small.to_global()]
    return results, comm.tracer, registry.snapshot().to_dict()


@pytest.mark.parametrize("n", [N_UNIFORM, N_RAGGED],
                         ids=["uniform", "ragged"])
class TestEngineEquivalence:
    def test_results_match(self, n):
        loop, _, _ = apply_ops("loop", n)
        batched, _, _ = apply_ops("batched", n)
        for got, want in zip(batched, loop):
            np.testing.assert_array_equal(got, want)

    def test_charged_costs_identical(self, n):
        _, t_loop, m_loop = apply_ops("loop", n)
        _, t_batched, m_batched = apply_ops("batched", n)
        assert t_batched.clock == t_loop.clock
        assert dict(t_batched.by_kernel) == dict(t_loop.by_kernel)
        assert dict(t_batched.counts) == dict(t_loop.counts)
        assert m_batched == m_loop
        assert m_batched["totals"]["flops"] > 0.0

    def test_reduction_tree_bitwise(self, n):
        """Tree-sum folds identically whether vectorized or per-rank."""
        part = Partition(n, RANKS)
        comm = make_comm()
        rng = np.random.default_rng(11)
        x = DistMultiVector.from_global(rng.standard_normal((n, KQ)),
                                        part, comm)
        with config.engine_scope("loop"):
            ref = blas.block_dot(x, x)
        with config.engine_scope("batched"):
            got = blas.block_dot(x, x)
        np.testing.assert_array_equal(got, ref)


#: The per-rank kernel bodies: what `BatchedEngine` overrides.  A ragged
#: sketch is the one documented exception (the operators' batched
#: kernels assume rank ``r`` starts at row ``r * rows``).
LOOP_KERNEL_BODIES = [
    name for name, fn in vars(LoopEngine).items()
    if inspect.isfunction(fn) and name in vars(BatchedEngine)
    and name != "_sketch_partials"]


def loop_body_probe():
    """A batched engine whose ``super()`` calls land in counting
    wrappers of the loop kernels; returns ``(engine, entered)``."""
    entered: list[str] = []

    def counting(name):
        def body(self, *args, **kwargs):
            entered.append(name)
            return getattr(LoopEngine, name)(self, *args, **kwargs)
        return body

    counting_loop = type("CountingLoop", (LoopEngine,),
                         {name: counting(name) for name in LOOP_KERNEL_BODIES})
    probe = type("Probe", (BatchedEngine, counting_loop), {})
    return probe(), entered


class TestStackedStorage:
    def test_uniform_constructors_stack(self):
        part = Partition(N_UNIFORM, RANKS)
        comm = make_comm()
        mv = DistMultiVector.zeros(part, comm, KV)
        assert mv.stack is not None
        assert mv.stack.shape == (RANKS, N_UNIFORM // RANKS, KV)

    def test_ragged_has_no_stack(self):
        """No ``(ranks, rows, k)`` view of a ragged vector — and no need
        of one: the batched kernels run on its flat array and never
        enter a loop kernel body."""
        part = Partition(N_RAGGED, RANKS)
        comm = make_comm()
        mv = DistMultiVector.zeros(part, comm, KV)
        assert mv.stack is None
        assert mv.flat.shape == (N_RAGGED, KV)
        assert len(LOOP_KERNEL_BODIES) == 8
        engine, entered = loop_body_probe()
        apply_ops(engine, N_RAGGED)
        assert entered == []

    def test_shards_are_lazy_views_of_flat(self):
        part = Partition(N_RAGGED, RANKS)
        mv = DistMultiVector.zeros(part, make_comm(), KV)
        view = mv.view_cols(slice(1, 3))
        assert view._shards is None  # a column view builds no shard list
        assert view.flat.base is not None and view.flat.shape[1] == 2
        view.shards[2][0, 0] = 7.0
        assert mv.flat[part.offsets[2], 1] == 7.0
        assert [s.shape[0] for s in mv.shards] == part.counts.tolist()

    def test_shards_alias_stack(self):
        part = Partition(N_UNIFORM, RANKS)
        comm = make_comm()
        mv = DistMultiVector.zeros(part, comm, KV)
        mv.shards[3][0, 1] = 42.0
        assert mv.stack[3, 0, 1] == 42.0
        mv.stack[5, 1, 2] = -1.0
        assert mv.shards[5][1, 2] == -1.0

    def test_column_views_keep_stack(self):
        part = Partition(N_UNIFORM, RANKS)
        comm = make_comm()
        mv = DistMultiVector.zeros(part, comm, KV)
        view = mv.view_cols(slice(1, 3))
        assert view.stack is not None
        view.stack[...] = 3.0
        assert float(mv.shards[0][0, 1]) == 3.0
        assert float(mv.shards[0][0, 0]) == 0.0

    def test_caller_supplied_shards_fall_back(self):
        part = Partition(N_UNIFORM, RANKS)
        comm = make_comm()
        shards = [np.zeros((part.local_count(r), KV)) for r in range(RANKS)]
        mv = DistMultiVector(part, comm, shards)
        assert mv.stack is None and mv.flat is None
        # the batched engine must still work, through the loop kernel
        engine, entered = loop_body_probe()
        blas.scale_columns(mv, np.ones(KV), engine=engine)
        assert entered == ["scale_columns"]
        assert comm.tracer.clock > 0

    def test_mixed_stacked_unstacked_operands(self):
        part = Partition(N_UNIFORM, RANKS)
        comm = make_comm()
        rng = np.random.default_rng(3)
        arr = rng.standard_normal((N_UNIFORM, KV))
        stacked = DistMultiVector.from_global(arr, part, comm)
        unstacked = DistMultiVector(
            part, comm, [np.array(arr[part.local_slice(r)], copy=True)
                         for r in range(RANKS)])
        with config.engine_scope("batched"):
            got = blas.block_dot(stacked, unstacked)
        np.testing.assert_allclose(got, arr.T @ arr, rtol=1e-13)


@pytest.mark.parametrize("ranks", [3, 8])
@pytest.mark.parametrize("n", [N_UNIFORM, N_RAGGED],
                         ids=["uniform", "ragged"])
class TestSketchDotEngineEquivalence:
    """DistBackend.sketch is an execution-strategy-free operation:
    loop and batched engines must produce bit-identical sketches and
    charge identical modeled costs on every partition shape."""

    M_ROWS = 24

    def run_sketch(self, engine, n, ranks):
        part = Partition(n, ranks)
        comm = SimComm(generic_cpu(), ranks, Tracer())
        rng = np.random.default_rng(23)
        v = DistMultiVector.from_global(rng.standard_normal((n, KV)),
                                        part, comm)
        out = DistBackend(comm, engine=engine).sketch(
            v, SparseSignSketch(n, self.M_ROWS, seed=42))
        return out, comm.tracer

    def test_bit_identical(self, n, ranks):
        loop, _ = self.run_sketch("loop", n, ranks)
        batched, _ = self.run_sketch("batched", n, ranks)
        np.testing.assert_array_equal(batched, loop)

    def test_charged_costs_identical(self, n, ranks):
        _, t_loop = self.run_sketch("loop", n, ranks)
        _, t_batched = self.run_sketch("batched", n, ranks)
        assert t_batched.clock == t_loop.clock
        assert dict(t_batched.by_kernel) == dict(t_loop.by_kernel)
        assert dict(t_batched.counts) == dict(t_loop.counts)

    def test_one_synchronization(self, n, ranks):
        _, tracer = self.run_sketch("batched", n, ranks)
        assert tracer.sync_count() == 1


class TestEngineSelection:
    def test_config_roundtrip(self):
        prev = config.set_engine("loop")
        try:
            assert config.get_engine() == "loop"
            assert isinstance(resolve(None, None), LoopEngine)
        finally:
            config.set_engine(prev)

    def test_set_engine_returns_raw_pin(self, monkeypatch):
        """set_engine round-trips the *pin*, not the resolved default, so
        restore does not freeze the process against REPRO_ENGINE."""
        monkeypatch.setattr(config, "_active_engine", None)
        prev = config.set_engine("loop")
        assert prev is None
        config.set_engine(prev)  # restore -> unpinned again
        monkeypatch.setenv("REPRO_ENGINE", "loop")
        assert config.get_engine() == "loop"

    def test_engine_scope_restores(self):
        before = config.get_engine()
        with config.engine_scope("loop"):
            assert config.get_engine() == "loop"
        assert config.get_engine() == before

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            config.set_engine("warp-drive")
        with pytest.raises(ValueError):
            get_engine("warp-drive")

    def test_binding_typo_fails_at_construction(self):
        with pytest.raises(ValueError, match="bacthed"):
            SimComm(generic_cpu(), RANKS, Tracer(), engine="bacthed")
        with pytest.raises(ValueError, match="bacthed"):
            DistBackend(make_comm(), engine="bacthed")

    def test_env_var_reread_when_unpinned(self, monkeypatch):
        monkeypatch.setattr(config, "_active_engine", None)
        monkeypatch.setenv("REPRO_ENGINE", "loop")
        assert config.get_engine() == "loop"
        monkeypatch.setenv("REPRO_ENGINE", "batched")
        assert config.get_engine() == "batched"

    def test_comm_binding_wins_over_config(self):
        comm = SimComm(generic_cpu(), RANKS, Tracer(), engine="loop")
        with config.engine_scope("batched"):
            assert isinstance(resolve(None, comm), LoopEngine)

    def test_explicit_argument_wins_over_comm(self):
        comm = SimComm(generic_cpu(), RANKS, Tracer(), engine="loop")
        assert isinstance(resolve("batched", comm), BatchedEngine)

    def test_dist_backend_threads_engine(self):
        part = Partition(N_UNIFORM, RANKS)
        comm = make_comm()
        rng = np.random.default_rng(5)
        x = DistMultiVector.from_global(
            rng.standard_normal((N_UNIFORM, KQ)), part, comm)
        ref = x.to_global().T @ x.to_global()
        for engine in ("loop", "batched"):
            backend = DistBackend(comm, engine=engine)
            np.testing.assert_allclose(backend.dot(x, x), ref, rtol=1e-13)

    def test_tile_size_preserves_results(self, monkeypatch):
        """Row-local kernels run tile by tile; neither values nor charges
        may depend on where the tile boundaries fall."""
        for n in (N_UNIFORM, N_RAGGED):
            want, t_want, m_want = apply_ops("batched", n)
            for tile_elems in (1, 40, 700):
                monkeypatch.setattr(engine_module, "_TILE_ELEMS", tile_elems)
                got, t_got, m_got = apply_ops("batched", n)
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)
                assert t_got.clock == t_want.clock and m_got == m_want
            monkeypatch.undo()
