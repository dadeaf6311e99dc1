"""The sweep's memo of priced cells: a cell is priced once per process,
under a key of everything its price depends on, and every call still
checks every point and returns a fresh frame."""

from __future__ import annotations

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.experiments import estimator as est_mod
from repro.experiments import sweep as sweep_mod
from repro.experiments.estimator import PrecondShape, ProblemShape
from repro.experiments.sweep import PAPER_CONFIGS, Point, strong_scaling, sweep
from repro.ortho.bcgs_pip import BCGSPIPScheme
from repro.parallel.machine import generic_cpu, summit

#: two machines equal under ``==`` that price apart: a zero GEMV
#: efficiency divides to ``inf``, a negative zero to ``-inf``, which the
#: roofline's ``max`` drops
ZERO_GEMV = generic_cpu().with_overrides(gemv_efficiency=0.0)
NEG_ZERO_GEMV = generic_cpu().with_overrides(gemv_efficiency=-0.0)
SHAPE = ProblemShape.stencil2d(300, 9)


def hexed(frame) -> list:
    return [(*r[:4], float(r.seconds).hex(), r.count) for r in frame]


@pytest.fixture
def priced(monkeypatch):
    """Per call of the pricer, how many cells it is handed."""
    calls = []

    def recording(ests, plans, _inner=est_mod.price_cells):
        calls.append(sum(len(rows) for _, rows in plans))
        return _inner(ests, plans)
    monkeypatch.setattr(est_mod, "price_cells", recording)
    return calls


def grid(ranks=(6, 12), configs=PAPER_CONFIGS, machine=None) -> list:
    machine = machine or summit()
    return [Point(r, machine, r, SHAPE, None, 12, 2, configs) for r in ranks]


# ----------------------------------------------------------------------
# the memo's one property: a repeat prices nothing and changes nothing
# ----------------------------------------------------------------------

#: one point of a mixed grid: machines equal under ``==`` but not bit
#: for bit, shapes whose halo is a signed zero, every paper config and a
#: two-stage big step of its own
POINTS = st.tuples(
    st.sampled_from([summit(), ZERO_GEMV, NEG_ZERO_GEMV]),
    st.sampled_from([1, 4, 12, 192]),
    st.sampled_from([SHAPE, ProblemShape(90_000, 810_000.0, 0.0),
                     ProblemShape(90_000, 810_000.0, -0.0)]),
    st.sampled_from([None, PrecondShape(sweeps=2, colors=3)]),
    st.sampled_from([(12, 2), (20, 5)]),
    st.lists(st.sampled_from([*PAPER_CONFIGS, ("ts-4", "two_stage", 4)]),
             min_size=1, max_size=5, unique=True))


@settings(max_examples=30, deadline=None)
@given(drawn=st.lists(POINTS, min_size=1, max_size=6),
       repeat=st.integers(0, 5))
def test_a_repeated_sweep_is_the_first_and_prices_nothing(drawn, repeat):
    """A mixed sweep run twice, and again on an empty memo, gives the same
    rows (seconds as ``float.hex``, counts, key order); the repeat makes
    no pricing call; every point's rows are the ones it prices alone."""
    points = [Point(key, *fields[:4], *fields[4], tuple(fields[5]))
              for key, fields in enumerate(drawn)]
    points.append(points[repeat % len(points)]._replace(key="again"))
    sweep_mod._memo.clear()
    with np.errstate(divide="ignore", invalid="ignore"):
        cold = hexed(sweep(points))
        with mock.patch.object(est_mod, "price_cells",
                               wraps=est_mod.price_cells) as pricer:
            warm = hexed(sweep(points))
        assert pricer.call_count == 0
        sweep_mod._memo.clear()
        assert warm == cold == hexed(sweep(points))
        alone = []
        for p in points:
            sweep_mod._memo.clear()
            alone += hexed(sweep([p]))
    assert alone == cold


def test_equal_machines_that_price_apart_are_different_cells(priced):
    """``ZERO_GEMV == NEG_ZERO_GEMV``, yet neither is grouped with the
    other in one sweep or handed the other's cells by a later one."""
    assert ZERO_GEMV == NEG_ZERO_GEMV
    with np.errstate(divide="ignore", invalid="ignore"):
        both = sweep([*grid(machine=ZERO_GEMV), *grid(machine=NEG_ZERO_GEMV)])
        assert priced == [8, 8]
        zero, neg_zero = (sweep(grid(machine=m))
                          for m in (ZERO_GEMV, NEG_ZERO_GEMV))
        assert priced == [8, 8]
        sweep_mod._memo.clear()
        neg_zero_alone = sweep(grid(machine=NEG_ZERO_GEMV))
    assert hexed(zero) != hexed(neg_zero) == hexed(neg_zero_alone)
    assert hexed(both) == hexed(zero) + hexed(neg_zero)


@pytest.mark.parametrize("value, other", [
    (0.0, -0.0), (1, 1.0), (1, True), (np.float64(2.0), 2.0),
    (np.float32(0.5), 0.5), (None, 0)])
def test_the_key_tells_apart_values_that_compare_equal(value, other):
    assert sweep_mod._exact(value) != sweep_mod._exact(other)
    assert sweep_mod._exact(value) == sweep_mod._exact(value)


def test_the_key_of_a_shape_is_field_by_field():
    zero, neg_zero = (ProblemShape(100, 500.0, halo) for halo in (0.0, -0.0))
    assert zero == neg_zero
    assert sweep_mod._exact(zero) != sweep_mod._exact(neg_zero)
    assert sweep_mod._exact(zero) == sweep_mod._exact(
        ProblemShape(100, 500.0, 0.0))


# ----------------------------------------------------------------------
# what a hit still does, and what is never kept
# ----------------------------------------------------------------------

def test_a_hit_prices_only_the_missing_cells(priced):
    sweep(grid(configs=PAPER_CONFIGS[:2]))
    frame = sweep(grid())
    assert priced == [4, 4]
    sweep_mod._memo.clear()
    assert hexed(frame) == hexed(sweep(grid()))


@pytest.mark.parametrize("bad, named", [
    (dict(ranks=True), "ranks must be an int, got bool"),
    (dict(ranks=6.0), "ranks must be an int, got float"),
    (dict(m=12.0), "m must be an int, got float"),
    (dict(s=True), "s must be an int, got bool"),
    (dict(configs=(("ts", "two_stage", True),)), "got True"),
    (dict(configs=(("ts", "two_stage", 4.0),)), "got 4.0"),
    (dict(configs=(("x", "nope", None),)), "'nope'"),
])
def test_every_point_is_checked_on_a_hit(priced, bad, named):
    """``ranks=True`` is refused after ``ranks=1`` was priced, ``m=12.0``
    after ``m=12``, ``bs=True`` after ``bs=1``."""
    good = Point(1, summit(), 1, SHAPE, None, 12, 2,
                 (*PAPER_CONFIGS, ("ts", "two_stage", 1),
                  ("ts", "two_stage", 4)))
    sweep([good, good._replace(ranks=6)])
    priced.clear()
    with pytest.raises(ConfigurationError, match=named):
        sweep([good._replace(**bad)])
    assert priced == []


def test_a_scheme_factory_is_priced_every_time(priced):
    factory = (("pip", BCGSPIPScheme, None),
               ("pip-shift", functools.partial(BCGSPIPScheme,
                                               breakdown="shift"), None))
    first = sweep(grid(configs=(*PAPER_CONFIGS[:1], *factory)))
    again = sweep(grid(configs=(*PAPER_CONFIGS[:1], *factory)))
    assert priced == [2 + 4, 4]
    assert hexed(first) == hexed(again)
    assert all(set(cells) == {("gmres", None)}
               for cells in sweep_mod._memo.values())


def test_a_sweep_that_raises_keeps_nothing(monkeypatch):
    """A bad point after good ones, or a pricing failure on the second
    machine after the first was priced: nothing is stored."""
    with pytest.raises(ConfigurationError):
        sweep([*grid(), Point(0, summit(), 0, SHAPE, None, 12, 2,
                              PAPER_CONFIGS)])
    assert not sweep_mod._memo
    calls = []

    def second_fails(ests, plans, _inner=est_mod.price_cells):
        calls.append(len(ests))
        if len(calls) == 2:
            raise RuntimeError("pricing failed")
        return _inner(ests, plans)
    monkeypatch.setattr(est_mod, "price_cells", second_fails)
    with pytest.raises(RuntimeError, match="pricing failed"):
        sweep([*grid(), *grid(machine=generic_cpu())])
    assert calls == [2, 2] and not sweep_mod._memo


def test_the_memo_keeps_the_most_recently_used_points(priced):
    bound = sweep_mod._MEMO_POINTS
    assert bound >= 256
    configs = PAPER_CONFIGS[:1]
    sweep(grid(range(1, bound + 1), configs))
    sweep(grid([1], configs))                    # a hit: now the newest
    sweep(grid(range(bound + 1, bound + 11), configs))
    assert len(sweep_mod._memo) == bound
    assert [r for (_, r, *_) in sweep_mod._memo][:2] == [12, 13]
    priced.clear()
    sweep(grid([1, *range(12, bound + 11)], configs))
    assert priced == []
    sweep(grid([2], configs))
    assert priced == [1]


def test_mutating_a_frame_leaves_the_memo_as_it_was():
    frame = sweep(grid())
    rows = hexed(frame)
    frame[0] = frame[0]._replace(seconds=-1.0)
    frame.append(frame[1])
    del frame[2:5]
    assert hexed(sweep(grid())) == rows
    again = sweep(grid())
    again.clear()
    assert hexed(sweep(grid())) == rows


def test_every_paper_view_runs_on_the_kept_cells():
    """Figs. 10-12 re-show 18 of Table III's cells and price none; the
    cells kept are the distinct ones the tables showed."""
    from repro.experiments import fig10_12, table3

    table3.run()
    kept = sum(map(len, sweep_mod._memo.values()))
    with mock.patch.object(est_mod, "price_cells",
                           wraps=est_mod.price_cells) as pricer:
        fig10_12.run_all()
    assert pricer.call_count == 0
    assert kept == sum(map(len, sweep_mod._memo.values())) == 24
    assert len(strong_scaling(None, PAPER_CONFIGS)) == len(sweep_mod._memo)
