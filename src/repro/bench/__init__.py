"""Machine-readable benchmark artifacts (``BENCH_<name>.json``).

:mod:`repro.bench.artifacts` turns pytest-benchmark sessions into small
JSON documents that CI uploads and reads in-run ratio gates from — see
``scripts/compare_bench.py`` and ``.github/workflows/ci.yml``.
"""

from repro.bench.artifacts import (
    BenchArtifact,
    BenchRecord,
    from_pytest_benchmarks,
    load_artifact,
)

__all__ = [
    "BenchArtifact",
    "BenchRecord",
    "from_pytest_benchmarks",
    "load_artifact",
]
