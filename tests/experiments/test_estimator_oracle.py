"""The plan-priced estimator against the per-charge oracle
(``estimator_oracle.py``): clock, phase seconds, row seconds and counts
equal bit for bit, key order included."""

from __future__ import annotations

import functools

import pytest

import estimator_oracle as oracle
from repro.experiments.estimator import (
    CONFIGS,
    CycleCostEstimator,
    PrecondShape,
    ProblemShape,
)
from repro.ortho.two_stage import TwoStageScheme
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


def test_an_estimator_prices_each_op_once():
    """Four cycles on one estimator share their common ops' prices."""
    est = CycleCostEstimator(summit(), 12, ProblemShape.stencil2d(300, 9),
                             m=12, s=2)
    calls = []
    price = est._price
    est._price = lambda op: calls.append(op) or price(op)
    for config in CONFIGS:
        est.cycle(config)
    assert len(calls) == len(set(calls)) > 0
    for config in CONFIGS:
        est.cycle(config)
    assert len(calls) == len(set(calls))
