"""Paper-scale sweep benchmarks -> ``BENCH_sweep.json``.

Two legs of one run, both on the analytic sweep behind Tables III/IV and
Figs. 10-13 (``experiments.sweep.sweep``):

* **cold** — the 13 sweeps of the five paper-fidelity errors (Table
  III's six node counts, Table IV's seven matrices) on a fresh
  ``summit().with_overrides(...)``, a machine no earlier sweep priced:
  the traffic of a fit that re-evaluates the errors at new machine
  constants, where every cell is priced;
* **warm** — a full table pass (Tables III/IV, Fig. 13, Figs. 10-12)
  whose cells an earlier pass in this process already priced.

The gate is a within-run ratio, so it holds on any machine: a warm pass
costs the host at most ``WARM_OVER_COLD_GATE`` cold evaluations, min of
interleaved rounds.
"""

from __future__ import annotations

import itertools
import time

from repro.experiments import fig10_12, fig13, table3, table4
from repro.experiments.paper_data import TABLE3, TABLE4
from repro.parallel.machine import summit

WARM_OVER_COLD_GATE = 0.5
ROUNDS = 7

#: a distinct inter-node latency per cold evaluation, so no two share a
#: machine
_FRESH = itertools.count(1)


def fresh_machine():
    return summit().with_overrides(
        net_latency_inter=summit().net_latency_inter * (1 + next(_FRESH) / 4096))


def cold_fidelity() -> None:
    machine = fresh_machine()
    for nodes in TABLE3:
        table3.modeled_config_times(nodes, machine=machine)
    for name in TABLE4:
        table4.per_iteration_times(name, machine=machine)


def table_pass() -> list:
    return [table3.run(), table4.run(), fig13.run(), *fig10_12.run_all()]


def _best_host_seconds(legs: dict, rounds: int = ROUNDS) -> dict:
    """Min-of-rounds wall clock per leg, the legs interleaved."""
    best = dict.fromkeys(legs, float("inf"))
    for _ in range(rounds):
        for name, leg in legs.items():
            t0 = time.perf_counter()
            leg()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def test_cold_fidelity_evaluation(benchmark):
    benchmark.extra_info["sweeps"] = len(TABLE3) + len(TABLE4)
    benchmark(cold_fidelity)


def test_warm_table_pass(benchmark, check):
    table_pass()
    host = _best_host_seconds({"cold": cold_fidelity, "warm": table_pass})
    ratio = host["warm"] / host["cold"]
    check(ratio <= WARM_OVER_COLD_GATE,
          f"a warm table pass costs the host {ratio:.2f} cold 13-sweep "
          f"evaluations (gate {WARM_OVER_COLD_GATE})")
    benchmark.extra_info.update(
        cold_s=host["cold"], warm_s=host["warm"], warm_over_cold=ratio)
    benchmark(table_pass)
