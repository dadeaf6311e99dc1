"""Self-test of the benchmark under ``perf/``.

Run with ``python -m pytest perf/tests -q`` from the repository root (it is
outside tier-1's ``testpaths``).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parent
sys.path[:0] = [str(PERF), str(ROOT / "src")]

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans as sp  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_keeps_the_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_quick_run_prints_every_declared_metric_with_its_unit():
    done = subprocess.run([sys.executable, str(PERF / "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    # one report section per workload and trace mode, "== name (seed 0, ..."
    sections = {}
    for block in done.stdout.split("\n== ")[:-1]:
        head, *body = block.removeprefix("== ").splitlines()
        name, mode = re.match(r"(\S+) \(seed 0, (\w+)", head).groups()
        sections[name, mode] = {
            line.split()[0]: line.split()[2] for line in body
            if len(line.split()) >= 3}
    for w in SPEC["workloads"]:
        for mode, key in (("untraced", "end_to_end"), ("traced", "per_layer")):
            printed = sections[w["name"], mode]
            for m in SPEC[key]:
                assert printed.get(m["name"]) == m["unit"], (w["name"], m)


def test_host_seconds_are_brought_to_the_nominal_machine_speed():
    class Workload:
        """Set-up and solve take no time; the outcome counts the passes."""

        def __init__(self):
            self.passes = 0

        def setup(self, seed):
            self.passes += 1
            return self.passes

        def solve(self, state):
            pass

        def outcome(self, state):
            return state

    class Calibration:
        """The machine halves its speed after the first reading."""

        readings = iter([1.0, 2.0, 2.0, 2.0])

        def seconds(self):
            return next(self.readings) * calibrate.NOMINAL_S

    timed, factors = run.timed_passes(Workload(), 0, 0.0, 3, Calibration())
    assert [p.outcome for p in timed] == [1, 2, 3]
    # a pass ran at the mean of the readings on either side of it
    assert factors == pytest.approx([1 / 1.5, 0.5, 0.5])
    value, line = run._timing_line("solve_s", [3.0, 4.0, 8.0], factors)
    assert value == pytest.approx(2.0) and line.split()[:3] == [
        "solve_s", "2", "s"]


def _span(name, layer, parent, start, end):
    return sp.Span(name, layer, parent, 0, start, end)


def test_self_times_clip_children_and_sum_to_the_root():
    tree = [
        _span("root", "krylov", -1, 0.0, 10.0),
        _span("a", "ortho", 0, 1.0, 4.0),
        _span("a1", "distla.blas", 1, 2.0, 3.0),
        _span("b", "distla.blas", 0, 3.5, 6.0),     # overlaps a: counted once
        _span("late", "precond", 0, 9.0, 12.0),     # clipped to the root
        _span("outside", "precond", 0, 20.0, 21.0),  # covers none of it
        _span("big", "distla.blas", 4, 8.0, 30.0),  # covers all of "late"
    ]
    own = sp.self_times(tree)
    assert own[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own[1] == pytest.approx(2.0)
    assert own[4] == 0.0
    assert min(own) >= 0.0
    nested = tree[:3]
    assert sum(sp.self_times(nested)) == pytest.approx(nested[0].duration)


def test_busy_time_counts_a_nested_call_once():
    tree = [
        _span("matvec_batched", "distla.spmatrix", -1, 0.0, 5.0),
        _span("matvec", "distla.spmatrix", 0, 1.0, 2.0),
        _span("charge_halo", "parallel.communicator", 1, 1.0, 1.5),
        _span("matvec", "distla.spmatrix", -1, 6.0, 7.0),
    ]
    assert layers.busy(tree, "distla.spmatrix") == (pytest.approx(6.0), 2)
    assert layers.busy(tree, "parallel.communicator") == (
        pytest.approx(0.5), 1)


def test_traced_run_restores_the_identical_functions():
    import workloads as wl

    boundaries = layers.boundaries()
    assert len({(id(o), a) for o, a, _ in boundaries}) == len(boundaries)
    before = [vars(owner)[attr] for owner, attr, _ in boundaries]
    workload = wl.workloads(quick=True)[0]
    recorder = sp.Recorder()
    with recorder.install(boundaries):
        assert all(vars(o)[a] is not f
                   for (o, a, _), f in zip(boundaries, before))
        state = workload.setup(0)
        workload.solve(state)
    assert all(vars(o)[a] is f for (o, a, _), f in zip(boundaries, before))
    assert not workload.outcome(state).tally.failures
    roots = [s for s in recorder.spans if s.parent < 0]
    assert {s.name for s in roots} == {"laplace2d", "sstep_gmres"}
    assert sum(sp.self_times(recorder.spans)) == pytest.approx(
        sum(s.duration for s in roots))


def test_restores_even_when_the_traced_code_raises():
    boundaries = layers.boundaries()
    before = [vars(owner)[attr] for owner, attr, _ in boundaries]
    with pytest.raises(RuntimeError):
        with sp.Recorder().install(boundaries):
            raise RuntimeError("solve blew up")
    assert all(vars(o)[a] is f for (o, a, _), f in zip(boundaries, before))
