#!/usr/bin/env python3
"""The repo benchmark: five workloads, two clocks, every layer traced.

    python3 perf/run.py [--seed S] [--quick]      all workloads, untraced
                                                  then traced, one report
    python3 perf/run.py --repeat-check            two untraced sets compared
    python3 perf/run.py --workload W --seed S --seconds T --trace 0|1
                                                  one run, one JSON line

The first two forms start the third once per workload and trace mode, so
every measurement runs in a fresh single interpreter.  With ``--trace 0``
nothing is wrapped and the end-to-end metrics are measured; with
``--trace 1`` the per-layer metrics are.  Names, units and bounds come from
``BENCHMARK.json``; see ``perf/README.md`` for what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: One BLAS thread: the simulator's kernels are small, and a second thread
#: would have the measurement time the scheduler of a two-core machine.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
MIN_REPEATS = 5
#: untraced passes the traced run compares its traced pass against
REFERENCE_PASSES = 3
CHILD_TIMEOUT_S = 175
#: The extra passes of the traced run, which a workload picks by name: the
#: set-up options, the ratio reported (host solve time over the untraced
#: reference's), and whether the modeled metrics must come out bit-identical.
#: The solutions must in every one.
EXTRA_PASSES = {
    "loop_engine": ({"engine": "loop"},
                    "distla.engine.loop_over_batched", True),
    "obs": ({"spans": True, "metrics": True},
            "obs.spans_metrics_ratio", True),
    "width1": ({"max_width": 1}, "service.width1_over_width8", False),
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _pin_environment() -> None:
    """Must run before NumPy is imported."""
    os.environ.update(PINNED)
    os.environ.pop("REPRO_ENGINE", None)


# ---------------------------------------------------------------------------
# one workload in this interpreter
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    setup_s: float
    solve_s: float
    outcome: object


def one_pass(workload, seed: int, **options) -> Pass:
    """Set up from the seed and solve once, on a fresh simulation."""
    t0 = time.perf_counter()
    state = workload.setup(seed, **options)
    t1 = time.perf_counter()
    workload.solve(state)
    t2 = time.perf_counter()
    return Pass(t1 - t0, t2 - t1, workload.outcome(state))


def timed_passes(workload, seed: int, seconds: float, min_repeats: int,
                 calibration) -> tuple[list[Pass], list[float]]:
    """Passes until ``seconds`` have gone by (at least ``min_repeats``), and
    for each the factor that brings its host seconds to the nominal machine
    speed: the mean of the calibration readings on either side of its solve.

    A reading is taken between set-up and solve.  Taken right before a
    set-up, it left the machine in a state that made that set-up 15 % faster
    on `ranks192_bcgs2`, but only from a pass on that differed from run to
    run, so the medians of ten runs fell into two groups."""
    import calibrate

    timed: list[Pass] = []
    readings: list[float] = []
    start = time.perf_counter()
    while (len(timed) < min_repeats
           or time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        state = workload.setup(seed)
        t1 = time.perf_counter()
        readings.append(calibration.seconds())
        t2 = time.perf_counter()
        workload.solve(state)
        t3 = time.perf_counter()
        timed.append(Pass(t1 - t0, t3 - t2, workload.outcome(state)))
    readings.append(calibration.seconds())
    return timed, [calibrate.NOMINAL_S / ((before + after) / 2.0)
                   for before, after in zip(readings, readings[1:])]


def _environment() -> str:
    import numpy
    import scipy

    from repro.config import get_engine
    try:
        build = numpy.show_config(mode="dicts")
    except TypeError:  # NumPy before 1.25 only prints
        build = {}
    blas = build.get("Build Dependencies", {}).get("blas", {})
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, {blas.get('name', 'blas')} "
            f"{blas.get('version', 'unknown')}, nproc {os.cpu_count()}, "
            f"BLAS threads pinned to {PINNED['OPENBLAS_NUM_THREADS']}, "
            f"engine {get_engine()}")


def _timing_line(name: str, raw: list[float],
                 factors: list[float]) -> tuple[float, str]:
    """The median of the normalized samples, and the report line for it."""
    value = statistics.median(r * f for r, f in zip(raw, factors))
    return value, (
        f"   {name:<38} {value:.6g} s   median of {len(raw)} passes at "
        f"nominal machine speed (as timed: median "
        f"{statistics.median(raw):.6g}, min {min(raw):.6g}, max "
        f"{max(raw):.6g}; too few samples for a tail percentile)")


def measure_end_to_end(workload, wl, seed: int, seconds: float,
                       min_repeats: int, tally) -> dict[str, float]:
    import calibrate

    warm = one_pass(workload, seed)  # its timings are discarded
    # What one pass in a fresh interpreter needs.  Read here, because every
    # further pass lets the heap creep a little (so a faster solve, which
    # fits more passes into the run, would read as more memory), and
    # before the paper-fidelity errors load the experiment modules.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed, factors = timed_passes(workload, seed, seconds, min_repeats,
                                  calibrate.Calibration())
    for p in (warm, *timed):
        tally.merge(p.outcome.tally)
    tally.check(all(p.outcome.exact == warm.outcome.exact for p in timed),
                f"{workload.name}: modeled metrics differ between repeats")
    fidelity = wl.paper_fidelity()
    tally.check(all(0.0 < v < float("inf") for v in fidelity.values()),
                f"{workload.name}: a paper-fidelity error is not finite")
    setup_s, setup_line = _timing_line(
        "setup_s", [p.setup_s for p in timed], factors)
    solve_s, solve_line = _timing_line(
        "solve_s", [p.solve_s for p in timed], factors)
    print(setup_line)
    print(solve_line)
    print(f"   the machine ran at {statistics.median(factors):.3f} of its "
          f"nominal speed")
    return {"setup_s": setup_s, "solve_s": solve_s,
            "peak_rss_mb": peak_rss_mb, **warm.outcome.exact, **fidelity}


def measure_layers(workload, seed: int, reference_passes: int,
                   tally) -> dict[str, float]:
    """The traced pass and the extra passes, against an untraced reference
    measured in this same interpreter."""
    import numpy as np

    import layers
    import spans as sp

    reference = one_pass(workload, seed).outcome  # also the warm-up
    tally.merge(reference.tally)
    untraced_s = statistics.median(
        one_pass(workload, seed).solve_s for _ in range(reference_passes))

    boundaries = layers.boundaries()
    in_setup, in_solve = sp.Recorder(), sp.Recorder()
    with in_setup.install(boundaries):
        state = workload.setup(seed)
    with in_solve.install(boundaries):
        t0 = time.perf_counter()
        workload.solve(state)
        traced_s = time.perf_counter() - t0
    traced = workload.outcome(state)
    tally.merge(traced.tally)
    tally.check(traced.exact == reference.exact,
                f"{workload.name}: tracing changed the modeled metrics")
    roots = sum(s.duration for s in in_solve.spans if s.parent < 0)
    selfs = sum(sp.self_times(in_solve.spans))
    tally.check(abs(selfs - roots) <= 0.01 * roots,
                f"{workload.name}: self times sum to {selfs:.6f} s, the "
                f"root spans to {roots:.6f} s")

    metrics = {
        **layers.host_metrics(in_solve.spans, in_setup.spans, traced_s),
        **traced.layers,
        "krylov.true_relres": traced.true_relres,
        "trace.overhead_ratio": traced_s / untraced_s,
    }

    for name in workload.extras:
        options, ratio, same_modeled = EXTRA_PASSES[name]
        extra = one_pass(workload, seed, **options)
        tally.merge(extra.outcome.tally)
        tally.check(
            all(np.array_equal(a, b) for a, b in zip(
                extra.outcome.solutions, reference.solutions)),
            f"{workload.name}: the {name} pass changed the solutions")
        if same_modeled:
            tally.check(extra.outcome.exact == reference.exact,
                        f"{workload.name}: the {name} pass changed the "
                        f"modeled metrics")
        metrics[ratio] = extra.solve_s / untraced_s
        # what only this pass can read (the metrics registry's totals)
        metrics.update((k, v) for k, v in extra.outcome.layers.items()
                       if k not in metrics)
    print(f"   {len(in_solve.spans)} solve spans and {len(in_setup.spans)} "
          f"set-up spans kept in memory; untraced solve {untraced_s:.4f} s, "
          f"traced {traced_s:.4f} s")
    return metrics


def run_workload(args) -> int:
    """The contract form: one workload, one trace mode, one JSON line."""
    if not (ROOT / "src" / "repro").is_dir():
        print("perf/run.py: no src/repro beside perf/, nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    spec = _spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    by_name = {w.name: w for w in wl.workloads(quick=args.quick)}
    if args.workload not in by_name or args.workload not in why:
        print(f"perf/run.py: unknown workload {args.workload!r}; expected "
              f"one of {sorted(by_name)}", file=sys.stderr)
        return 2
    workload = by_name[args.workload]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(f"== {workload.name} (seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}"
          f"{', quick' if args.quick else ''}): {why[workload.name]}")
    print(f"   {_environment()}")
    tally = wl.Tally()
    if args.trace:
        measured = measure_layers(
            workload, args.seed, 1 if args.quick else REFERENCE_PASSES, tally)
    else:
        measured = measure_end_to_end(
            workload, wl, args.seed, 0.0 if args.quick else args.seconds,
            1 if args.quick else MIN_REPEATS, tally)
    undeclared = sorted(set(measured) - {m["name"] for m in declared})
    tally.check(not undeclared,
                f"metrics missing from BENCHMARK.json: {undeclared}")

    metrics = {}
    for m in declared:
        # a layer the workload never enters did no work: count and time 0;
        # an end-to-end metric is never missing
        value = float(measured.get(m["name"], 0.0) if args.trace
                      else measured[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if m["name"] not in ("setup_s", "solve_s"):
            print(f"   {m['name']:<38} {value:.12g} {m['unit']}")
    for failure in tally.failures:
        print(f"   FAILED: {failure}")
    print(f"   checks and operations: {tally.attempted} attempted, "
          f"{len(tally.failures)} failed")
    print(json.dumps({"correct": not tally.failures,
                      "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 1 if tally.failures else 0


# ---------------------------------------------------------------------------
# all workloads, each in a fresh interpreter
# ---------------------------------------------------------------------------

def _child(name: str, trace: int, args) -> dict | None:
    """Run one workload in a fresh interpreter, pass its report through,
    and return the JSON object of its last line (None if it failed)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)] + (["--quick"] if args.quick else [])
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"== {name}: no result within {CHILD_TIMEOUT_S} s")
        return None
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1]))
    sys.stderr.write(done.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"== {name}: exit code {done.returncode}, no result line")
        return None
    return result if done.returncode == 0 and result["correct"] else None


def run_all(args, spec: dict) -> int:
    bad = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            if _child(w["name"], trace, args) is None:
                bad.append(f"{w['name']} --trace {trace}")
    print(f"== {len(spec['workloads'])} workloads, untraced and traced: "
          + (f"FAILED in {', '.join(bad)}" if bad else "all checks passed"))
    return 1 if bad else 0


def repeat_check(args, spec: dict) -> int:
    """Two untraced sets back to back: do the medians agree within the
    bounds, and are the deterministic metrics identical?"""
    sets = [{w["name"]: _child(w["name"], 0, args)
             for w in spec["workloads"]} for _ in range(2)]
    exact = {m["name"] for m in spec["end_to_end"]
             if m["unit"] not in ("s", "MiB")}
    bad = 0
    print(f"== repeat check: {'workload':<22} {'metric':<24} "
          f"{'first':>14} {'second':>14} {'rel.diff':>9} {'bound':>7}")
    for w in spec["workloads"]:
        first, second = (s[w["name"]] for s in sets)
        if first is None or second is None:
            print(f"   {w['name']}: a run failed")
            bad += 1
            continue
        for m in spec["end_to_end"]:
            a, b = (r["metrics"][m["name"]]["value"] for r in (first, second))
            diff = abs(b - a) / abs(a)
            ok = diff == 0.0 if m["name"] in exact else diff <= m["bound"]
            bad += not ok
            print(f"   {'' if ok else 'DISAGREE '}{w['name']:<22} "
                  f"{m['name']:<24} {a:>14.8g} {b:>14.8g} {diff:>9.2%} "
                  f"{m['bound']:>7g}")
    print(f"== repeat check: {bad} of "
          f"{len(spec['workloads']) * len(spec['end_to_end'])} pairs "
          f"disagree")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run only this workload and end with "
                   "one JSON line (the form the driver calls)")
    p.add_argument("--seed", type=int, default=0,
                   help="0 is the paper's all-ones solution (default)")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="how long one untraced run keeps repeating")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="small sizes, one repeat: a self-test, not a "
                   "measurement")
    p.add_argument("--repeat-check", action="store_true",
                   help="run two untraced sets and compare their medians")
    args = p.parse_args(argv)
    _pin_environment()
    if args.workload:
        return run_workload(args)
    if args.repeat_check:
        return repeat_check(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
