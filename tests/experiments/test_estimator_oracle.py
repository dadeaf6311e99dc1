"""The plan-priced estimator against the per-charge oracle
(``estimator_oracle.py``): clock, phase seconds, row seconds and counts
equal bit for bit, key order included."""

from __future__ import annotations

import functools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import estimator_oracle as oracle
from repro.experiments.estimator import (
    CONFIGS,
    CycleCostEstimator,
    PrecondShape,
    ProblemShape,
    price_cells,
)
from repro.experiments.sweep import PAPER_CONFIGS, Point, sweep
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.costmodel import LOCAL_OPS, CostModel
from repro.parallel.machine import summit

#: a two-stage big step that divides none of the restart lengths
ODD_BS = 7

#: ``(id, how to price it)``: every ``CONFIGS`` entry through ``cycle``,
#: two-stage also at ``ODD_BS``, and a scheme factory
CASES = {
    **{config: (config, None) for config in CONFIGS},
    "two_stage-odd-bs": ("two_stage", ODD_BS),
    "factory": (functools.partial(TwoStageScheme, big_step=ODD_BS), None),
}


#: a machine whose off-node hops are slower: a second machine in one grid
SLOW_NET = summit().with_overrides(net_latency_inter=2.0e-5)


def rows(t) -> tuple:
    return (t.clock.hex(), [(k, v.hex()) for k, v in t.by_phase.items()],
            [(k, v.hex()) for k, v in t.by_kernel.items()],
            list(t.counts.items()))


def priced_and_oracle(est, case):
    scheme, bs = CASES[case]
    if callable(scheme):
        return est.sstep_cycle(scheme), oracle.cycle(est, scheme)
    if scheme == "gmres":
        return est.cycle(scheme), oracle.cycle(est)
    bs = est.m if scheme == "two_stage" and bs is None else bs
    return est.cycle(scheme, bs), oracle.cycle(est, scheme, bs)


@pytest.mark.parametrize("s", [1, 2, 5])
@pytest.mark.parametrize("m", [5, 12, 60])
@pytest.mark.parametrize("precond", [None, PrecondShape(sweeps=2, colors=3)],
                         ids=["plain", "precond"])
@pytest.mark.parametrize("ranks", [1, 4, 12])
@pytest.mark.parametrize("case", sorted(CASES))
def test_plan_equals_per_charge_oracle(case, ranks, precond, m, s):
    est = CycleCostEstimator(summit(), ranks, ProblemShape.stencil2d(300, 9),
                             m=m, s=s, precond=precond)
    priced, expected = priced_and_oracle(est, case)
    assert rows(priced) == rows(expected)


def test_a_group_prices_each_op_kind_once(monkeypatch):
    """Six points of one machine, every paper config and a two-stage
    block of another width, plans with and without a preconditioner:
    every local op kind, the host flops, the SpMV, the block-Jacobi apply
    and the collective are one formula call each over the union of the
    plans; a halo exchange is priced once per estimator, not per cell."""
    calls = Counter()

    def counted(name, formula):
        def count(*args, **kwargs):
            calls[name] += 1
            return formula(*args, **kwargs)
        return count

    for name, (kernel, formula) in LOCAL_OPS.items():
        monkeypatch.setitem(LOCAL_OPS, name, (kernel, counted(name, formula)))
    for name in ("allreduce", "halo_exchange", "host_dense", "spmv"):
        monkeypatch.setattr(CostModel, name,
                            counted(name, getattr(CostModel, name)))
    ests = [CycleCostEstimator(summit(), ranks, ProblemShape.stencil2d(300, 9),
                               m=12, s=2, precond=precond)
            for ranks, precond in ((6, None), (12, PrecondShape(2, 3)),
                                   (24, None), (48, None),
                                   (96, PrecondShape()), (192, None))]
    plans = [(est.plan(config, bs), [row])
             for config, bs in (*((c, None) for c in CONFIGS),
                                ("two_stage", 4))
             for row, est in enumerate(ests)]
    blocks = price_cells(ests, plans)
    kinds = {op[0] for plan, _ in plans for op in plan.ops}
    assert {"dot", "update", "host", "allreduce", "halo", "precond"} <= kinds
    # the one ``gs_sweep`` call prices its block's pass through ``spmv``
    assert calls == {**dict.fromkeys(kinds & set(LOCAL_OPS), 1),
                     "host_dense": 1, "spmv": 2, "allreduce": 1,
                     "gs_sweep": 1, "halo_exchange": len(ests)}
    assert [block.shape for block in blocks] == [
        (1, len(plan.rows)) for plan, _ in plans]


def union_configs(m: int, s: int) -> tuple:
    """Every paper config, two-stage at ``bs`` in ``{s, ODD_BS, m}`` and a
    scheme factory: plans that share some ops and not others."""
    return (*PAPER_CONFIGS, ("ts-s", "two_stage", s),
            ("ts-odd", "two_stage", ODD_BS), ("ts-m", "two_stage", m),
            ("factory", functools.partial(TwoStageScheme, big_step=ODD_BS),
             None))


#: one point of a union grid: ranks 1 / 4 / 12 / 192 are no halo, an
#: on-node one and two off-node ones on both machines
POINTS = st.tuples(
    st.sampled_from([summit(), SLOW_NET]), st.sampled_from([1, 4, 12, 192]),
    st.sampled_from([ProblemShape.stencil2d(300, 9),
                     ProblemShape.stencil2d(64, 5)]),
    st.sampled_from([None, PrecondShape(sweeps=2, colors=3)]),
    st.sampled_from([(12, 2), (20, 5), (9, 3)]),
    st.lists(st.integers(0, len(union_configs(9, 3)) - 1), min_size=1,
             max_size=4, unique=True))


@settings(max_examples=40, deadline=None)
@given(grid=st.lists(POINTS, min_size=1, max_size=6))
def test_a_union_sweep_is_every_cells_own_cycle(grid):
    """One sweep prices the union of its plans' ops per machine; every
    row of the frame is that cell's own ``cycle``: kernel and phase rows,
    seconds as ``float.hex``, counts, key order."""
    points = [Point(key, machine, ranks, shape, precond, m, s,
                    tuple(union_configs(m, s)[i] for i in chosen))
              for key, (machine, ranks, shape, precond, (m, s), chosen)
              in enumerate(grid)]
    cells: dict = {}
    for r in sweep(points):
        cells.setdefault((r.key, r.label), []).append(
            (r.phase, r.kernel, float(r.seconds).hex(), r.count))
    assert len(cells) == sum(len(p.configs) for p in points)
    for p in points:
        est = CycleCostEstimator(p.machine, p.ranks, p.shape, m=p.m, s=p.s,
                                 precond=p.precond)
        for label, config, bs in p.configs:
            cycle = est.cycle(config, bs)
            counts = Counter()
            for (phase, _), count in cycle.counts.items():
                counts[phase] += count
                counts["total"] += count
            assert cells[(p.key, label)] == [
                *((*row, seconds.hex(), cycle.counts[row])
                  for row, seconds in cycle.by_kernel.items()),
                *((phase, None, float(seconds).hex(), counts[phase])
                  for phase, seconds in est.phase_seconds(cycle).items())]
