"""Loop-vs-batched engine equivalence: results, costs, the one door.

The batched engine must be a pure execution-strategy change: on every
partition shape (uniform and ragged) it has to produce results
bit-identical to the loop engine's and charge *identical* modeled costs
and metrics, so that paper artifacts regenerated under either engine are
the same numbers.  ``test_engine_property.py`` holds the same contract
over arbitrary partitions and column views.
"""

from __future__ import annotations

import inspect
from pathlib import Path

import numpy as np
import pytest

from repro import config
from repro.distla import blas
from repro.distla import engine as engine_module
from repro.distla.engine import BatchedEngine, LoopEngine, get_engine, resolve
from repro.distla.multivector import DistMultiVector
from repro.krylov.simulation import Simulation
from repro.matrices.stencil import laplace2d
from repro.obs.metrics import MetricsSnapshot
from repro.ortho.backend import DistBackend
from repro.parallel.api import make_comm as make_backend_comm
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer
from repro.sketch import sketch_multivector
from repro.sketch.operators import SparseSignSketch

N_UNIFORM = 96   # divisible by 8 -> uniform partition: one run, a stack
N_RAGGED = 101   # prime -> ragged partition: two runs of ranks, no stack
RANKS = 8
KQ, KV = 6, 3


def make_comm(engine=None):
    return SimComm(generic_cpu(), RANKS, Tracer(), engine=engine)


def apply_ops(engine, n: int):
    """Run one of every costed BLAS op on a communicator bound to
    ``engine`` (None: the default); return (results, tracer, metrics
    totals)."""
    part = Partition(n, RANKS)
    comm = make_comm(engine)
    comm.tracer.enable_spans()
    rng = np.random.default_rng(7)
    q = DistMultiVector.from_global(rng.standard_normal((n, KQ)), part, comm)
    v = DistMultiVector.from_global(rng.standard_normal((n, KV)), part, comm)
    out = DistMultiVector.zeros(part, comm, KV)
    small = DistMultiVector.zeros(part, comm, 1)
    r_proj = rng.standard_normal((KQ, KV))
    r_tri = np.triu(rng.standard_normal((KV, KV))) + 3.0 * np.eye(KV)
    coeffs = rng.standard_normal((KV, 1))
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
    blas.matvec_small(v, coeffs, small)
    results += [v.to_global(), out.to_global(), small.to_global()]
    return results, comm.tracer, MetricsSnapshot.of(
        comm.tracer, comm.tracer.spans, comm.machine, RANKS).to_dict()


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
        arr = np.random.default_rng(11).standard_normal((n, KQ))

        def gram(engine):
            x = DistMultiVector.from_global(arr, part, make_comm(engine))
            return blas.block_dot(x, x)

        np.testing.assert_array_equal(gram("batched"), gram("loop"))


class TestStackedStorage:
    def test_uniform_constructors_stack(self):
        part = Partition(N_UNIFORM, RANKS)
        comm = make_comm()
        mv = DistMultiVector.zeros(part, comm, KV)
        assert mv.stack is not None
        assert mv.stack.shape == (RANKS, N_UNIFORM // RANKS, KV)

    def test_ragged_has_no_stack(self, loop_body_probe):
        """No ``(ranks, rows, k)`` view of a ragged vector — and no need
        of one: the batched kernels run on its flat array and never
        enter a loop kernel body."""
        part = Partition(N_RAGGED, RANKS)
        comm = make_comm()
        mv = DistMultiVector.zeros(part, comm, KV)
        assert mv.stack is None
        assert mv.flat.shape == (N_RAGGED, KV)
        # the eight BLAS bodies and `_sketch_partials`
        assert len(loop_body_probe.bodies) == 9
        entered = loop_body_probe("batched")
        apply_ops(None, N_RAGGED)
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
        comm = SimComm(generic_cpu(), ranks, Tracer(), engine=engine)
        rng = np.random.default_rng(23)
        v = DistMultiVector.from_global(rng.standard_normal((n, KV)),
                                        part, comm)
        out = DistBackend(comm).sketch(
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
    """One door: the communicator names the engine, at construction."""

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            get_engine("warp-drive")
        with pytest.raises(ValueError, match="warp-drive"):
            Simulation(laplace2d(4), ranks=2, engine="warp-drive")

    def test_binding_typo_fails_at_construction(self):
        with pytest.raises(ValueError, match="bacthed.*loop.*batched"):
            SimComm(generic_cpu(), RANKS, Tracer(), engine="bacthed")
        with pytest.raises(ValueError, match="bacthed"):
            make_backend_comm("sim", engine="bacthed")

    def test_comm_binding_wins_over_config(self):
        """The default is what a communicator binds when none is named,
        nothing more: a named engine is the one that runs."""
        assert config.get_engine() == config.DEFAULT_ENGINE == "batched"
        assert make_comm().engine == "batched"
        assert make_backend_comm("sim").engine == "batched"
        assert type(resolve(make_comm())) is BatchedEngine
        sim = Simulation(laplace2d(4), ranks=2, engine="loop")
        assert sim.comm.engine == "loop"
        assert type(resolve(sim.comm)) is LoopEngine

    def test_dist_backend_threads_engine(self, loop_body_probe):
        """``DistBackend(comm)`` runs on its communicator's engine."""
        part = Partition(N_UNIFORM, RANKS)
        arr = np.random.default_rng(5).standard_normal((N_UNIFORM, KQ))
        entered = loop_body_probe("loop")
        for engine, bodies in (("batched", []), ("loop", ["_dot_partials"])):
            comm = make_comm(engine)
            x = DistMultiVector.from_global(arr, part, comm)
            np.testing.assert_allclose(DistBackend(comm).dot(x, x),
                                       arr.T @ arr, rtol=1e-13)
            assert entered == bodies

    def test_no_other_door(self):
        """Nothing but the communicator's constructor selects an engine:
        no per-call or per-backend parameter, no process-wide switch, no
        environment variable."""
        public = [fn for name, fn in vars(blas).items()
                  if inspect.isfunction(fn) and fn.__module__ == blas.__name__
                  and not name.startswith("_")]
        assert len(public) >= 10  # the introspection finds them
        for fn in (*public, sketch_multivector, DistBackend.__init__):
            assert "engine" not in inspect.signature(fn).parameters, fn
        assert list(inspect.signature(DistBackend).parameters) == ["comm"]
        assert list(inspect.signature(resolve).parameters) == ["comm"]
        for gone in ("set_engine", "engine_scope", "_active_engine",
                     "validate_engine"):
            assert not hasattr(config, gone), gone
        source = Path(config.__file__).read_text()
        assert "environ" not in source and "getenv" not in source

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
