"""What every registered scheme is after a Cholesky breakdown.

``sstep_gmres`` treats a :class:`CholeskyBreakdownError` from
``panel_arrived`` or ``finish_cycle`` as "the Krylov space has closed":
it stops feeding panels, flushes (``finish_cycle``, peeling pending
panels off with ``drop_trailing_panel`` while it keeps raising) and
updates the iterate from the last checkpoint.  That protocol needs every
scheme to leave a usable state behind, and this file pins it per scheme:
the k-th Cholesky factorization of a cycle is forced to raise, for every
k the cycle reaches, and ``pushed_cols`` / ``final_cols`` /
``finish_cycle()`` / ``drop_trailing_panel()`` afterwards are checked
against the table below, together with what must hold for all of them —
``R[:final_cols, :final_cols]`` is still the factor of the untouched
prefix.

One-stage schemes (``finality == "panel"``) never push a panel they
could not finish: ``pushed_cols == final_cols == lo`` and
``finish_cycle()`` is a free no-op.  That includes BCGS-PIP2 when its
*second* pass breaks down, although it is the two-stage scheme at
``big_step = 1`` and the two-stage scheme proper keeps such a panel
pending for the flush to retry.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import repro.ortho.bcgs_pip as bcgs_pip
import repro.ortho.cholqr as cholqr
import repro.ortho.randomized as randomized
import repro.precision.kernels as kernels
from repro.exceptions import CholeskyBreakdownError
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import _panel_bounds, sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.ortho.backend import NumpyBackend
from repro.ortho.registry import get_scheme, list_schemes
from repro.parallel.machine import generic_cpu

S, M = 5, 15
BOUNDS = _panel_bounds(S, M + 1)          # [(0, 6), (6, 11), (11, 16)]
#: every module-level name a registered scheme factors a Gram through
CHOLESKY_SITES = ((bcgs_pip, "cholesky_factor"), (cholqr, "cholesky_factor"),
                  (kernels, "cholesky_dd"))
KWARGS = {"two_stage": {"big_step": 10},
          "mixed_two_stage": {"big_step": 10},
          "sketched_two_stage": {"big_step": 10, "breakdown": "raise"},
          "rbcgs": {"breakdown": "raise"}}

#: the panel whose ``panel_arrived`` raises at the k-th Cholesky (``None``:
#: the flush does), per one-stage scheme: 2 (first panel) / 3 Cholesky
#: factorizations per panel for BCGS2+CholQR2, 1 for BCGS-PIP, 2 for
#: BCGS-PIP2 and RBCGS.
ONE_STAGE = {"bcgs2": [0, 0, 6, 6, 6, 11, 11, 11],
             "bcgs_pip": [0, 6, 11],
             "bcgs_pip2": [0, 0, 6, 6, 11, 11],
             "rbcgs": [0, 0, 6, 6, 11, 11]}
#: the two-stage family at ``big_step = 10``: per k, the raising panel,
#: ``(pushed_cols, final_cols)`` at the raise, what the follow-up
#: ``finish_cycle()`` returns (``"raises"``: the flush itself broke down,
#: then ``drop_trailing_panel()`` and a second ``finish_cycle()`` are both
#: False) and the columns final at the end.
TWO_STAGE = [
    (0, (0, 0), False, 0),        # stage 1 of the first panel
    (6, (6, 0), True, 6),         # stage 1 of the second: [0, 6) flushes
    (6, (11, 0), True, 11),       # stage 2 over [0, 11): retried by the flush
    (11, (11, 11), False, 11),    # stage 1 of the third, nothing pending
    (None, (16, 11), "raises", 11),  # the flush of [11, 16)
]
#: the sketched pass projects and whitens the big panel before its
#: Cholesky, so a failed stage 2 drops the pending big panel: nothing is
#: left for the flush to retry on modified columns
SKETCHED = {3: (6, (0, 0), False, 0)}


class CountingBackend(NumpyBackend):
    """Counts the synchronizing primitives (every pass starts with one)."""

    syncs = 0

    def _synced(name):
        def primitive(self, *args):
            self.syncs += 1
            return getattr(NumpyBackend, name)(self, *args)
        return primitive

    dot = _synced("dot")
    fused_dots = _synced("fused_dots")
    dot_dd = _synced("dot_dd")
    sketch = _synced("sketch")
    fused_dots_sketch = _synced("fused_dots_sketch")


def break_cholesky(monkeypatch, should_raise):
    """Make the cycle's i-th Cholesky raise when ``should_raise(i)``."""
    calls = itertools.count(1)
    for module, name in CHOLESKY_SITES:
        def factor(*args, _real=getattr(module, name), **kwargs):
            if should_raise(next(calls)):
                raise CholeskyBreakdownError("forced", panel_index=0)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, factor)


def cases():
    for name in list_schemes():
        ks = ONE_STAGE.get(name, TWO_STAGE)
        for k in range(1, len(ks) + 1):
            yield pytest.param(name, k, id=f"{name}-{k}")


def test_every_registered_scheme_is_covered():
    two_stage = {"two_stage", "mixed_two_stage", "sketched_two_stage"}
    assert set(list_schemes()) == set(ONE_STAGE) | two_stage
    for name in list_schemes():
        finality = get_scheme(name).finality
        assert finality == ("big_panel" if name in two_stage else "panel")


@pytest.mark.parametrize("name, k", cases())
def test_state_after_the_kth_cholesky_raises(monkeypatch, rng, name, k):
    break_cholesky(monkeypatch, lambda i: i == k)
    v = rng.standard_normal((120, M + 1))
    basis, r = v.copy(), np.zeros((M + 1, M + 1))
    backend = CountingBackend()
    scheme = get_scheme(name)(**KWARGS.get(name, {}))
    scheme.begin_cycle(backend, basis, r, w=np.zeros_like(r))

    def prefix_is_sound():
        f = scheme.final_cols
        q = basis[:, :f]
        np.testing.assert_allclose(q.T @ q, np.eye(f), atol=1e-12)
        np.testing.assert_allclose(q @ r[:f, :f], v[:, :f], atol=1e-11)

    raised_at = None
    for lo, hi in BOUNDS:
        try:
            scheme.panel_arrived(lo, hi)
        except CholeskyBreakdownError:
            raised_at = lo
            break
    prefix_is_sound()

    if name in ONE_STAGE:
        lo = ONE_STAGE[name][k - 1]
        assert raised_at == lo
        assert (scheme.pushed_cols, scheme.final_cols) == (lo, lo)
        syncs = backend.syncs
        assert scheme.finish_cycle() is False
        assert backend.syncs == syncs          # nothing further is charged
        assert scheme.drop_trailing_panel() is False
        assert (scheme.pushed_cols, scheme.final_cols) == (lo, lo)
        return

    sketched = name == "sketched_two_stage"
    lo, state, finish, final = (SKETCHED if sketched else {}).get(
        k, TWO_STAGE[k - 1])
    assert raised_at == lo
    assert (scheme.pushed_cols, scheme.final_cols) == state
    if finish == "raises":
        with pytest.raises(CholeskyBreakdownError):
            scheme.finish_cycle()
        assert (scheme.pushed_cols, scheme.final_cols) == (
            (final, final) if sketched else state)
        assert scheme.drop_trailing_panel() is False
        assert scheme.finish_cycle() is False
    else:
        assert scheme.finish_cycle() is finish
    assert scheme.final_cols == final
    prefix_is_sound()


def test_sketched_stage_two_failing_once_is_not_retried(monkeypatch):
    """A one-shot failure of the sketched big-panel pass: the flush must
    not re-run stage 2 on the columns the failed pass had already projected
    and whitened (it used to return True with a wrong ``R``)."""
    calls = itertools.count(1)
    real = randomized._pythagorean_factor

    def factor(*args, **kwargs):
        if next(calls) == 3:                  # stage 2 over [0, 11)
            raise CholeskyBreakdownError("forced", panel_index=0)
        return real(*args, **kwargs)
    monkeypatch.setattr(randomized, "_pythagorean_factor", factor)
    n, m = 400, 20
    v = np.random.default_rng(7).standard_normal((n, m + 1))
    basis, r = v.copy(), np.zeros((m + 1, m + 1))
    scheme = get_scheme("sketched_two_stage")(big_step=10, breakdown="raise")
    scheme.begin_cycle(NumpyBackend(), basis, r)
    bounds = iter(_panel_bounds(S, m + 1))
    assert scheme.panel_arrived(*next(bounds)) is False
    with pytest.raises(CholeskyBreakdownError):
        scheme.panel_arrived(*next(bounds))
    assert scheme.finish_cycle() is False
    assert (scheme.pushed_cols, scheme.final_cols) == (0, 0)


@pytest.mark.parametrize("name, k", cases())
def test_sstep_gmres_keeps_its_last_sound_checkpoint(monkeypatch, name, k):
    """A dependent column stays dependent: from the k-th Cholesky of the
    solve on, every factorization breaks down.  The iterate must be the
    one of the last checkpoint whose factorizations all succeeded — the
    unbroken solve stopped there — and the solver must stall, not loop."""
    def solve(maxiter):
        sim = Simulation(laplace2d(12), ranks=3, machine=generic_cpu())
        return sstep_gmres(
            sim, sim.ones_solution_rhs(), s=S, restart=M, tol=1e-30,
            maxiter=maxiter,
            scheme=get_scheme(name)(**KWARGS.get(name, {})))

    if name in ONE_STAGE:
        sound = ONE_STAGE[name][k - 1]
    else:
        # under a persisting breakdown no flush ever succeeds either
        sound = {1: 0, 2: 0, 3: 0, 4: 11, 5: 11}[k]
    reference = solve(sound - 1).x if sound else np.zeros(144)
    break_cholesky(monkeypatch, lambda i: i >= k)
    broken = solve(3 * M)
    assert broken.stalled and not broken.converged
    assert "breakdown" in broken.telemetry[0].events
    np.testing.assert_array_equal(broken.x, reference)
