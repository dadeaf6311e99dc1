"""Benchmark-harness fixtures and machine-readable artifact emission.

What is left here is what only a timed run can assert: ratios of two
legs of one run (``bench_kernels.py``'s loop-vs-batched pairs,
``bench_mpk.py``'s ``HOST_RATIO_GATE``, ``bench_sweep.py``'s
``WARM_OVER_COLD_GATE``).  Host time itself is measured
by ``perf/run.py`` and the paper's claims are tier-1 tests
(``tests/experiments/test_paper_claims.py``).

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

At session end every module that ran benchmarks is serialized to
``BENCH_<name>.json`` (``bench_kernels.py`` -> ``BENCH_kernels.json``)
in ``$REPRO_BENCH_DIR`` (default: current directory) via
:mod:`repro.bench.artifacts` — the documents CI uploads and
``scripts/compare_bench.py --check-speedup`` reads its ratios from.
"""

from __future__ import annotations

import os
from collections import defaultdict
from pathlib import Path

import pytest


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ with the ``bench`` marker."""
    this_dir = Path(__file__).parent
    for item in items:
        try:
            in_benchmarks = Path(item.fspath).parent == this_dir
        except Exception:
            in_benchmarks = False
        if in_benchmarks:
            item.add_marker(pytest.mark.bench)


@pytest.fixture
def check():
    """Assertion helper that reports the failing claim clearly."""
    def _check(condition: bool, claim: str) -> None:
        assert condition, f"paper claim not reproduced: {claim}"
    return _check


def _artifact_name(fullname: str) -> str:
    """``benchmarks/bench_kernels.py::test_x[a]`` -> ``kernels``."""
    return Path(fullname.split("::", 1)[0]).stem.removeprefix("bench_")


def pytest_sessionfinish(session, exitstatus):
    """Write one ``BENCH_<name>.json`` per benchmark module that ran."""
    bs = getattr(session.config, "_benchmarksession", None)
    if bs is None or not bs.benchmarks:
        return
    from repro.bench.artifacts import from_pytest_benchmarks

    by_module = defaultdict(list)
    for bench in bs.benchmarks:
        by_module[_artifact_name(bench.fullname)].append(bench)
    out_dir = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    tw = session.config.get_terminal_writer()
    for name, benches in sorted(by_module.items()):
        artifact = from_pytest_benchmarks(name, benches)
        path = artifact.write(out_dir / f"BENCH_{name}.json")
        tw.line(f"bench artifact written: {path}")
