"""Machine-readable benchmark artifacts.

A :class:`BenchArtifact` is the JSON document a benchmark session leaves
behind (``BENCH_<name>.json``): per-benchmark wall-clock statistics from
pytest-benchmark, any extra info the benchmark attached (for this library
typically the *modeled* seconds charged by the cost model, so modeled vs.
wall time can be tracked together), and enough environment metadata to
interpret it.  ``benchmarks/conftest.py`` emits one artifact per
benchmark module at session end (the experiments that write a
``BENCH_*.json`` build theirs with :meth:`BenchArtifact.fresh`);
``scripts/compare_bench.py``
gates CI on the ratio of two records of one artifact
(:meth:`BenchArtifact.speedup`).  Artifacts of different runs are never
compared: host time across commits is ``perf/run.py``'s measurement.

The schema is deliberately flat and versioned (:data:`SCHEMA`); loaders
reject documents from a different major schema so CI fails loudly instead
of comparing apples to oranges.
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

#: Current artifact schema identifier (bump the trailing int on breaking
#: layout changes).
SCHEMA = "repro-bench-artifact/1"


@dataclass
class BenchRecord:
    """Wall-clock statistics of one benchmark, plus attached extras."""

    name: str
    group: str | None
    mean: float
    min: float
    median: float
    stddev: float
    rounds: int
    iterations: int
    extra: dict = field(default_factory=dict)


@dataclass
class BenchArtifact:
    """One benchmark module's results: records + environment metadata."""

    name: str
    created_utc: str
    environment: dict
    benchmarks: list[BenchRecord]
    schema: str = SCHEMA

    @classmethod
    def fresh(cls, name: str, records: list[BenchRecord]) -> BenchArtifact:
        """A new artifact of ``records``, stamped now with this
        environment (:func:`collect_environment`)."""
        return cls(name,
                   datetime.now(timezone.utc).isoformat(timespec="seconds"),
                   collect_environment(), records)

    # ------------------------------------------------------------------
    def record(self, name: str) -> BenchRecord:
        """Record with exactly this benchmark name (KeyError if absent)."""
        for rec in self.benchmarks:
            if rec.name == name:
                return rec
        raise KeyError(f"benchmark {name!r} not in artifact {self.name!r}")

    def names(self) -> list[str]:
        return [rec.name for rec in self.benchmarks]

    def speedup(self, slow_name: str, fast_name: str) -> float:
        """Wall-time ratio ``slow / fast`` (min-of-rounds; robust to
        scheduler noise, which inflates means but rarely deflates mins)."""
        return self.record(slow_name).min / self.record(fast_name).min

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=False) + "\n"

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path


def load_artifact(path: str | Path) -> BenchArtifact:
    """Load and schema-check a ``BENCH_*.json`` document."""
    doc = json.loads(Path(path).read_text())
    schema = doc.get("schema", "<missing>")
    if schema != SCHEMA:
        raise ValueError(
            f"{path}: schema {schema!r} does not match expected {SCHEMA!r}")
    records = [BenchRecord(**rec) for rec in doc["benchmarks"]]
    return BenchArtifact(name=doc["name"], created_utc=doc["created_utc"],
                         environment=doc["environment"], benchmarks=records)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def collect_environment() -> dict:
    """Interpreter/library/platform metadata stamped into every artifact."""
    import numpy
    import scipy

    from repro import config
    from repro._version import __version__

    return {
        "repro": __version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "default_engine": config.get_engine(),
        "argv": " ".join(sys.argv[:4]),
    }


def from_pytest_benchmarks(name: str, benchmarks) -> BenchArtifact:
    """Build an artifact from pytest-benchmark's session benchmark list.

    ``benchmarks`` holds the fixture's ``BenchmarkStats`` objects (the
    ``config._benchmarksession.benchmarks`` list); only their public
    ``name``/``group``/``stats``/``extra_info`` attributes are read.
    """
    records = []
    for bench in benchmarks:
        stats = bench.stats
        records.append(BenchRecord(
            name=bench.name,
            group=bench.group,
            mean=float(stats.mean),
            min=float(stats.min),
            median=float(stats.median),
            stddev=float(stats.stddev),
            rounds=int(stats.rounds),
            iterations=int(getattr(bench, "iterations", 1) or 1),
            extra=dict(bench.extra_info or {}),
        ))
    return BenchArtifact.fresh(name, records)
