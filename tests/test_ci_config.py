"""Sanity checks of the CI pipeline configuration itself.

Equivalent-of-actionlint guard: the workflow must stay parseable, every
job must have steps, and the commands CI runs must reference files that
exist — so a rename cannot silently turn CI green-by-vacuity.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"
#: how CI invokes an experiment: ``{RUNNER} <registry name> ...``
RUNNER = "repro.experiments.runner"


class TestWorkflow:
    def test_workflow_exists(self):
        assert WORKFLOW.is_file()

    def test_workflow_structure(self):
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        jobs = doc["jobs"]
        assert {"lint", "tier1", "bench-smoke", "nightly"} <= set(jobs)
        for name, spec in jobs.items():
            assert spec.get("steps"), f"job {name} has no steps"
            for step in spec["steps"]:
                assert "uses" in step or "run" in step, (name, step)
        # tier-1 command matches ROADMAP.md's verify line
        runs = "\n".join(step.get("run", "")
                         for step in jobs["tier1"]["steps"])
        assert "PYTHONPATH=src python -m pytest -x -q" in runs

    def test_tier1_engine_matrix(self):
        """The tier-1 matrix has no engine axis — one leg per Python —
        and no step anywhere selects an engine through the environment:
        the communicator is the only door, and the tests that hold a
        kernel to the loop oracle bind it themselves."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        tier1 = doc["jobs"]["tier1"]
        matrix = tier1["strategy"]["matrix"]
        assert set(matrix) == {"python-version"}
        assert len(matrix["python-version"]) >= 3
        assert "REPRO_ENGINE" not in WORKFLOW.read_text()
        assert "matrix.engine" not in WORKFLOW.read_text()
        runs = "\n".join(step.get("run", "") for step in tier1["steps"])
        # exactly one invocation of the suite (the benchmark's self-test
        # is another suite, pinned by test_tier1_repo_benchmark_step)
        suite = [line for line in runs.splitlines()
                 if "python -m pytest" in line and "perf/tests" not in line]
        assert len(suite) == 1

    def test_tier1_mp_smoke_step(self):
        """The real-process backend smoke is a separate non-pytest step
        under a hard timeout, so a deadlocked worker kills the step
        instead of hanging the whole test job."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        tier1 = doc["jobs"]["tier1"]
        smoke = [step for step in tier1["steps"]
                 if "mp_smoke" in step.get("run", "")]
        assert smoke, "tier-1 has no MpComm smoke step"
        run = smoke[0]["run"]
        assert "timeout" in run
        assert "pytest" not in run
        assert "scripts/mp_smoke.py" in run

    def test_tier1_docs_lint_step(self):
        """The docs linter runs as a standalone non-pytest tier-1 step
        (a leg keeps a single pytest invocation; dead-link checking needs
        no test session anyway)."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        tier1 = doc["jobs"]["tier1"]
        lint = [step for step in tier1["steps"]
                if "docs_lint" in step.get("run", "")]
        assert lint, "tier-1 has no docs lint step"
        run = lint[0]["run"]
        assert "pytest" not in run
        assert "scripts/docs_lint.py" in run

    def test_tier1_strong_scaling_example_step(self):
        """The strong-scaling example prices cycles through the estimator
        the way a reader would; tier-1 runs it, outside pytest, on every
        leg."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        tier1 = doc["jobs"]["tier1"]
        steps = [step for step in tier1["steps"]
                 if "laplace_strong_scaling" in step.get("run", "")]
        assert len(steps) == 1, "tier-1 must run the strong-scaling example"
        run = steps[0]["run"]
        assert run == ("PYTHONPATH=src python "
                       "examples/laplace_strong_scaling.py --skip-live")
        assert "if" not in steps[0]
        assert (REPO / "examples" / "laplace_strong_scaling.py").is_file()

    def test_tier1_repo_benchmark_step(self):
        """The repo benchmark (BENCHMARK.json's command, at --quick
        sizes) and its own tests run in tier-1, unconditionally, on every
        leg (one per Python version)."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        tier1 = doc["jobs"]["tier1"]
        perf = [step for step in tier1["steps"]
                if "perf/run.py" in step.get("run", "")]
        assert len(perf) == 1, "tier-1 must run the repo benchmark once"
        run = perf[0]["run"]
        assert "python3 perf/run.py --quick" in run
        assert "python -m pytest perf/tests -q" in run
        assert "if" not in perf[0]
        # what the step runs is what BENCHMARK.json declares
        spec = json.loads((REPO / "BENCHMARK.json").read_text())
        assert " ".join(spec["command"]) in run

    def test_tier1_runs_the_paper_properties(self):
        """Tier-1 CI deselects ``slow``; the live-vs-estimated sync
        algebra and the two-stage O(eps) checks of
        ``test_paper_properties.py`` carry no such mark (module-wide or
        per test), while the paper-size Fig. 8 claim keeps its own."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        runs = "\n".join(step.get("run", "")
                         for step in doc["jobs"]["tier1"]["steps"])
        assert '-m "not slow"' in runs
        properties = (REPO / "tests" / "integration"
                      / "test_paper_properties.py").read_text()
        for name in ("test_sync_closed_forms_hold_live_and_estimated",
                     "test_two_stage_O_eps_on_random_glued"):
            assert f"def {name}(" in properties, name
        assert "pytestmark" not in properties
        assert "mark.slow" not in properties
        claims = (REPO / "tests" / "experiments"
                  / "test_paper_claims.py").read_text()
        assert ('@claims("fig8 at n=20000"' in claims
                and claims.count("marks=pytest.mark.slow") == 1)

    def test_setup_python_uses_pip_cache(self):
        """Every setup-python step caches pip to keep matrix wall-clock
        flat."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        seen = 0
        for name, spec in doc["jobs"].items():
            for step in spec["steps"]:
                if "setup-python" in str(step.get("uses", "")):
                    seen += 1
                    assert step["with"].get("cache") == "pip", (
                        f"job {name}: setup-python step without pip cache")
        assert seen >= 4

    def test_nightly_job(self):
        """The scheduled nightly runs the full suite including slow
        tests plus the experiment smokes, and uploads their artifacts."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        # a schedule trigger exists (yaml parses the 'on' key as True)
        triggers = doc.get("on") or doc.get(True)
        assert "schedule" in triggers
        assert triggers["schedule"][0]["cron"].split()[:2] != ["0", "0"]
        nightly = doc["jobs"]["nightly"]
        assert "schedule" in nightly["if"]
        assert "strategy" not in nightly  # one leg: no engine axis
        runs = "\n".join(step.get("run", "") for step in nightly["steps"])
        assert "slow" in runs
        for name in ("sketch", "rgs", "precision", "ca_mpk"):
            assert f"{RUNNER} {name} --quick" in runs, name
        # the overlap-window trade-off smoke drops BENCH_overlap.json
        # and trace_overlap.json into the uploaded dir
        overlap_step = next((s.get("run", "") for s in nightly["steps"]
                             if f"{RUNNER} overlap" in s.get("run", "")),
                            "")
        assert overlap_step, "nightly has no overlap smoke"
        assert "--quick" in overlap_step
        assert "--out experiment-out" in overlap_step
        # the service-throughput smoke re-asserts the batching claims
        # nightly and drops BENCH_service.json into the uploaded dir
        assert f"{RUNNER} service --quick" in runs, (
            "nightly has no service smoke")
        assert "tee experiment-out/service_throughput.txt" in runs
        # predicted-vs-measured validation runs nightly under a hard
        # timeout and drops BENCH_measured.json into the uploaded dir
        assert f"timeout 600 python -m {RUNNER} backend" in runs
        assert "--out experiment-out" in runs
        uploads = [step for step in nightly["steps"]
                   if "upload-artifact" in str(step.get("uses", ""))]
        assert uploads and uploads[0]["with"]["path"] == "experiment-out/"
        # nightly-only jobs must not run the PR matrix twice
        assert doc["jobs"]["tier1"]["if"] == "github.event_name != 'schedule'"

    def test_nightly_trace_summarize_smoke(self):
        """The Chrome traces backend_validation writes into the uploaded
        artifact dir must stay loadable by the repro-trace CLI."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        steps = doc["jobs"]["nightly"]["steps"]
        smoke = [s for s in steps if "repro.obs.cli" in s.get("run", "")]
        assert smoke, "nightly has no repro-trace summarize smoke step"
        run = smoke[0]["run"]
        assert "summarize" in run and "diff" in run
        assert "experiment-out/trace_" in run
        # trace smoke runs after the step that produces the traces
        runs = [s.get("run", "") for s in steps]
        assert (runs.index(run)
                > runs.index(next(r for r in runs
                                  if f"{RUNNER} backend" in r)))

    def test_nightly_calibration_step(self):
        """The LogGP calibration experiment runs nightly under a hard
        timeout and drops BENCH_calibration.json plus the Prometheus
        metrics snapshot into the uploaded experiment-out/ directory."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        steps = doc["jobs"]["nightly"]["steps"]
        cal = [s for s in steps
               if f"{RUNNER} calibrate" in s.get("run", "")]
        assert cal, "nightly has no calibration step"
        run = cal[0]["run"]
        assert "--quick" in run
        assert "--out experiment-out" in run
        assert "timeout" in run
        # runs after the backend validation it mirrors, before upload
        runs = [s.get("run", "") for s in steps]
        assert (runs.index(run)
                > runs.index(next(r for r in runs
                                  if f"{RUNNER} backend" in r)))
        uploads = [i for i, s in enumerate(steps)
                   if "upload-artifact" in str(s.get("uses", ""))]
        assert steps.index(cal[0]) < uploads[0]

    def test_bench_smoke_span_overhead_gate(self):
        """bench-smoke asserts the disabled span path stays free and
        charge-identical."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        runs = "\n".join(step.get("run", "")
                         for step in doc["jobs"]["bench-smoke"]["steps"])
        assert "scripts/span_overhead_check.py" in runs

    def test_bench_smoke_gates_only_in_run_ratios(self):
        """No step compares against a committed artifact or an absolute
        wall-clock bound: compare_bench.py reads one artifact written by
        this run and takes only ratio flags, and every gated name is a
        loop / batched pair bench_kernels.py still runs."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        assert "benchmarks/BENCH_" not in WORKFLOW.read_text()
        gates = [step["run"] for step in doc["jobs"]["bench-smoke"]["steps"]
                 if "compare_bench.py" in step.get("run", "")]
        assert len(gates) == 1
        words = gates[0].replace("\\\n", " ").split()
        assert [w for w in words if w.endswith(".json")] \
            == ["bench-out/BENCH_kernels.json"]
        assert {w for w in words if w.startswith("--")} \
            == {"--check-speedup", "--min-speedup"}
        specs = [words[i + 1] for i, w in enumerate(words)
                 if w == "--check-speedup"]
        assert specs == ["test_block_dot", "test_block_axpy",
                         "test_block_dot_ragged:1.5",
                         "test_block_update_ragged:1.2",
                         "test_trsm_ragged:1.5", "test_trsm_basis_view:1.5"]
        assert words[words.index("--min-speedup") + 1] == "1.5"
        benches = (REPO / "benchmarks" / "bench_kernels.py").read_text()
        for spec in specs:
            assert ('@pytest.mark.parametrize("engine", ["loop", "batched"])'
                    f"\ndef {spec.partition(':')[0]}(") in benches, spec

    def test_referenced_files_exist(self):
        text = WORKFLOW.read_text()
        for ref in ("scripts/compare_bench.py",
                    "scripts/mp_smoke.py",
                    "scripts/span_overhead_check.py",
                    "scripts/docs_lint.py",
                    "perf/run.py",
                    "perf/tests",
                    "benchmarks/bench_kernels.py",
                    "benchmarks/bench_mpk.py"):
            assert ref in text, f"{ref} not exercised by CI"
            assert (REPO / ref).exists(), f"{ref} missing from repo"
        for name in ("sketch", "rgs", "precision", "ca_mpk", "overlap",
                     "service", "backend", "calibrate"):
            assert f"{RUNNER} {name} " in text, f"{name} not exercised by CI"

    def test_every_runner_name_is_registered(self):
        """A ``repro.experiments.runner <name>`` step names an entry of
        the runner's registry (a renamed entry cannot leave CI running
        an argparse error)."""
        from repro.experiments.runner import REGISTRY
        names = re.findall(rf"{re.escape(RUNNER)} (\S+)",
                           WORKFLOW.read_text())
        assert len(names) == 8
        assert set(names) <= set(REGISTRY), sorted(set(names) - set(REGISTRY))


class TestPyproject:
    def test_markers_registered(self):
        tomllib = pytest.importorskip("tomllib")
        doc = tomllib.loads((REPO / "pyproject.toml").read_text())
        markers = doc["tool"]["pytest"]["ini_options"]["markers"]
        names = {m.split(":")[0] for m in markers}
        assert {"slow", "bench"} <= names

    def test_ruff_configured(self):
        tomllib = pytest.importorskip("tomllib")
        doc = tomllib.loads((REPO / "pyproject.toml").read_text())
        assert "ruff" in doc["tool"]
