"""SolveQueue: grouping, max-width/max-wait dispatch, result plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.krylov.options import MPK_SOLVER_MODES, SOLVE_MODES, SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.ortho.bcgs_pip import BCGSPIP2Scheme
from repro.parallel.machine import generic_cpu
from repro.service import SolveQueue
from repro.service.queue import _solver_key

S, RESTART = 4, 12


def fresh_sim(nx=12, ranks=4):
    return Simulation(laplace2d(nx), ranks=ranks, machine=generic_cpu())


def make_queue(sim, **kw):
    kw.setdefault("s", S)
    kw.setdefault("restart", RESTART)
    return SolveQueue(sim, **kw)


def rhs(n, count, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) for _ in range(count)]


class TestDispatchPolicy:
    def test_full_group_dispatches_on_pump(self):
        sim = fresh_sim()
        q = make_queue(sim, max_width=4, max_wait=100.0)
        for b in rhs(sim.n, 4):
            q.submit(b, now=0.0)
        assert q.pending == 4
        assert q.pump(now=0.0) == 4
        assert q.pending == 0
        assert q.dispatched_widths == [4]

    def test_partial_group_waits_out_max_wait(self):
        sim = fresh_sim()
        q = make_queue(sim, max_width=4, max_wait=10.0)
        for b in rhs(sim.n, 2):
            q.submit(b, now=0.0)
        # young partial group: held back
        assert q.pump(now=5.0) == 0
        assert q.pending == 2
        # oldest member crosses the wait bound: dispatched at width 2
        assert q.pump(now=10.0) == 2
        assert q.dispatched_widths == [2]

    def test_backlog_drains_as_full_slices_plus_remainder(self):
        sim = fresh_sim()
        q = make_queue(sim, max_width=4, max_wait=0.0)
        for b in rhs(sim.n, 10):
            q.submit(b, now=0.0)
        assert q.pump(now=0.0) == 10
        assert q.dispatched_widths == [4, 4, 2]

    def test_flush_ignores_wait_policy(self):
        sim = fresh_sim()
        q = make_queue(sim, max_width=8, max_wait=1e9)
        for b in rhs(sim.n, 3):
            q.submit(b, now=0.0)
        assert q.flush() == 3
        assert q.dispatched_widths == [3]

    def test_default_now_is_the_modeled_clock(self):
        sim = fresh_sim()
        q = make_queue(sim, max_width=8, max_wait=1e9)
        rid = q.submit(rhs(sim.n, 1)[0])
        # tracer clock has not advanced past the submit stamp, so the
        # wait policy holds the request back ...
        assert q.pump() == 0
        # ... until flush forces it
        q.flush()
        assert q.done(rid)


class TestCompatibilityGrouping:
    def test_incompatible_requests_never_share_a_batch(self):
        sim = fresh_sim()
        q = make_queue(sim, max_width=8, max_wait=0.0)
        bs = rhs(sim.n, 4)
        q.submit(bs[0], now=0.0)
        q.submit(bs[1], now=0.0)
        q.submit(bs[2], now=0.0, s=2)          # different s -> own batch
        q.submit(bs[3], now=0.0, restart=8)    # different restart -> own
        q.pump(now=0.0)
        assert sorted(q.dispatched_widths) == [1, 1, 2]

    def test_tol_and_maxiter_do_not_fragment_batches(self):
        sim = fresh_sim()
        q = make_queue(sim, max_width=8, max_wait=0.0)
        for i, b in enumerate(rhs(sim.n, 3)):
            q.submit(b, tol=10.0 ** -(4 + i), maxiter=100 * (i + 1),
                     now=0.0)
        q.pump(now=0.0)
        assert q.dispatched_widths == [3]

    def test_scheme_factory_groups_by_identity(self):
        sim = fresh_sim()
        q = make_queue(sim, max_width=8, max_wait=0.0)
        bs = rhs(sim.n, 3)
        q.submit(bs[0], now=0.0, scheme_factory=BCGSPIP2Scheme)
        q.submit(bs[1], now=0.0, scheme_factory=BCGSPIP2Scheme)
        q.submit(bs[2], now=0.0)  # default scheme -> separate batch
        q.pump(now=0.0)
        assert sorted(q.dispatched_widths) == [1, 2]

    def test_options_that_hash_alike_do_not_share_a_batch(self):
        """Batches group by ``_solver_key``, which holds the options
        object itself and so compares it by value: two unequal options
        that hash alike get two keys, equal ones share one."""
        class Opts:
            def __init__(self, tag):
                self.tag = tag

            def __hash__(self):
                return 0

            def __eq__(self, other):
                return isinstance(other, Opts) and other.tag == self.tag

        def key(opts):
            return _solver_key(S, RESTART, "monomial", None, None, opts)

        a, b = Opts("a"), Opts("b")
        assert hash(key(a)) == hash(key(b))
        assert key(a) != key(b)
        assert key(a) == key(Opts("a"))
        assert len({key(a), key(b), key(Opts("a"))}) == 2

    @pytest.mark.parametrize("mpk_mode", MPK_SOLVER_MODES)
    @pytest.mark.parametrize("solve_mode", SOLVE_MODES)
    def test_solver_options_key_by_value(self, solve_mode, mpk_mode):
        """Two equal ``SolverOptions`` built apart share one key; every
        other combination of the two knobs keys apart."""
        def key(opts):
            return _solver_key(S, RESTART, "monomial", None, None, opts)

        opts = SolverOptions(solve_mode=solve_mode, mpk_mode=mpk_mode)
        twin = SolverOptions(solve_mode=solve_mode, mpk_mode=mpk_mode)
        assert opts is not twin and key(opts) == key(twin)
        others = {key(SolverOptions(solve_mode=sm, mpk_mode=mm))
                  for sm in SOLVE_MODES for mm in MPK_SOLVER_MODES
                  if (sm, mm) != (solve_mode, mpk_mode)}
        assert key(opts) not in others
        assert len(others) == len(SOLVE_MODES) * len(MPK_SOLVER_MODES) - 1


class TestConfigLifetime:
    """A key's solver arguments live as long as a request waits under it."""

    def test_configs_are_dropped_with_the_last_pending_request(self):
        sim = fresh_sim(nx=6, ranks=2)
        q = make_queue(sim, max_width=8, max_wait=0.0)
        b = rhs(sim.n, 1)[0]
        made = []

        def factory_number(i):
            def factory():
                made.append(i)
                return BCGSPIP2Scheme()
            return factory

        for i in range(500):
            q.submit(b, maxiter=S, now=0.0, scheme_factory=factory_number(i))
            if i % 50 == 49:        # the factories are distinct keys
                assert len(q._configs) == 50
                (q.flush if i % 100 == 99 else q.pump)()
                assert not q._configs and not q._pending
        assert sorted(made) == list(range(500))
        assert q.dispatched_widths == [1] * 500

    def test_partial_dispatch_keeps_the_config_of_waiting_requests(self):
        sim = fresh_sim()
        q = make_queue(sim, max_width=2, max_wait=100.0)
        for b in rhs(sim.n, 3):
            q.submit(b, maxiter=S, now=0.0)
        assert q.pump(now=0.0) == 2      # one full slice, one left waiting
        assert len(q._configs) == 1 and q.pending == 1
        q.flush()
        assert not q._configs

    def test_recurring_key_takes_the_new_submission(self, monkeypatch):
        """Once evicted, a key no longer pins its objects, so the same
        key may come back naming different ones (an ``id()`` reused
        after collection): the new submission's must be used."""
        from repro.service import queue as queue_module

        monkeypatch.setattr(queue_module, "_solver_key",
                            lambda *args: ("one key",))
        sim = fresh_sim()
        q = make_queue(sim, max_width=8, max_wait=0.0)
        b = rhs(sim.n, 1)[0]
        first = q.submit(b, tol=1e-8, now=0.0, s=2)
        q.flush()
        second = q.submit(b, tol=1e-8, now=0.0, s=S)
        assert q._configs[("one key",)]["s"] == S
        q.flush()
        for rid, step in ((first, 2), (second, S)):
            ref = sstep_gmres(fresh_sim(), b, s=step, restart=RESTART,
                              tol=1e-8)
            assert q.result(rid).x.tobytes() == ref.x.tobytes()


class TestResults:
    def test_results_match_independent_solves(self):
        sim = fresh_sim()
        q = make_queue(sim, max_width=4, max_wait=0.0)
        bs = rhs(sim.n, 4)
        rids = [q.submit(b, tol=1e-8, now=0.0) for b in bs]
        q.pump(now=0.0)
        for rid, b in zip(rids, bs):
            res = q.result(rid)
            ref = sstep_gmres(fresh_sim(), b, s=S, restart=RESTART,
                              tol=1e-8)
            np.testing.assert_array_equal(res.x, ref.x)
            assert res.iterations == ref.iterations
            assert res.history.residuals == ref.history.residuals
            assert res.diagnostics["request_id"] == rid

    def test_pending_result_raises(self):
        sim = fresh_sim()
        q = make_queue(sim, max_wait=1e9)
        rid = q.submit(rhs(sim.n, 1)[0], now=0.0)
        assert not q.done(rid)
        with pytest.raises(KeyError, match="pending"):
            q.result(rid)


class TestValidation:
    def test_bad_rhs_shape_rejected(self):
        with pytest.raises(ShapeError):
            make_queue(fresh_sim()).submit(np.ones(5))

    def test_bad_x0_shape_rejected(self):
        sim = fresh_sim()
        with pytest.raises(ShapeError, match="x0"):
            make_queue(sim).submit(np.ones(sim.n), np.ones(3))

    def test_unknown_override_rejected(self):
        sim = fresh_sim()
        with pytest.raises(ConfigurationError, match="override"):
            make_queue(sim).submit(np.ones(sim.n), tolerance=1e-8)

    def test_bad_policy_knobs_rejected(self):
        sim = fresh_sim()
        with pytest.raises(ConfigurationError):
            SolveQueue(sim, max_width=0)
        with pytest.raises(ConfigurationError):
            SolveQueue(sim, max_wait=-1.0)
