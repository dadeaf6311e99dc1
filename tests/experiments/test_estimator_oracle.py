"""The plan-priced estimator against the per-charge oracle
(``estimator_oracle.py``): clock, phase seconds, row seconds and counts
equal bit for bit, key order included."""

from __future__ import annotations

import functools
from collections import Counter

import pytest

import estimator_oracle as oracle
from repro.experiments.estimator import (
    CONFIGS,
    CycleCostEstimator,
    PrecondShape,
    ProblemShape,
    price_cells,
)
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
    """Six points of one plan: every local op kind, the host flops and the
    SpMV are one formula call each; a collective and a halo exchange are
    priced per cell."""
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
                               m=12, s=2) for ranks in (6, 12, 24, 48, 96, 192)]
    plan = ests[0].plan("two_stage")
    prices = price_cells(plan, ests)
    kinds = {kind.name for kind in plan.kinds}
    assert {"dot", "update", "host", "allreduce", "halo"} <= kinds
    assert calls == {**dict.fromkeys(kinds & set(LOCAL_OPS), 1),
                     "host_dense": 1, "spmv": 1, "allreduce": len(ests),
                     "halo_exchange": len(ests)}
    assert prices.shape == (len(ests), len(plan.rows))
