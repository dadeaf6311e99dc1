"""Round-trip and in-run ratio gating of bench artifacts."""

from __future__ import annotations

import pytest

from repro.bench.artifacts import (
    SCHEMA,
    BenchArtifact,
    BenchRecord,
    collect_environment,
    load_artifact,
)


def rec(name, min_s, extra=None):
    return BenchRecord(name=name, group=None, mean=min_s * 1.1, min=min_s,
                       median=min_s * 1.05, stddev=min_s * 0.01, rounds=100,
                       iterations=1, extra=extra or {})


def artifact(records):
    return BenchArtifact(name="kernels", created_utc="2026-07-30T00:00:00+00:00",
                         environment={"python": "3.11"}, benchmarks=records)


class TestRoundTrip:
    def test_write_load(self, tmp_path):
        art = artifact([rec("test_a[loop]", 2e-4, {"engine": "loop"}),
                        rec("test_a[batched]", 1e-4, {"engine": "batched"})])
        path = art.write(tmp_path / "BENCH_kernels.json")
        loaded = load_artifact(path)
        assert loaded.schema == SCHEMA
        assert loaded.names() == art.names()
        assert loaded.record("test_a[loop]").extra == {"engine": "loop"}
        assert loaded.record("test_a[batched]").min == pytest.approx(1e-4)

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text('{"schema": "other/9", "name": "x", '
                        '"created_utc": "", "environment": {}, '
                        '"benchmarks": []}')
        with pytest.raises(ValueError, match="schema"):
            load_artifact(path)

    def test_missing_record_raises(self):
        with pytest.raises(KeyError):
            artifact([]).record("nope")


class TestComparison:
    def test_speedup(self):
        art = artifact([rec("test_a[loop]", 3e-4), rec("test_a[batched]", 1e-4)])
        assert art.speedup("test_a[loop]", "test_a[batched]") == pytest.approx(3.0)


class TestEnvironment:
    def test_collect_environment_keys(self):
        env = collect_environment()
        for key in ("repro", "python", "numpy", "scipy", "default_engine"):
            assert key in env


class TestCompareBenchCli:
    """scripts/compare_bench.py gating semantics through its main()."""

    @pytest.fixture
    def cli(self):
        import importlib.util
        from pathlib import Path
        script = (Path(__file__).resolve().parents[2]
                  / "scripts" / "compare_bench.py")
        spec = importlib.util.spec_from_file_location("compare_bench", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def test_speedup_gate(self, cli, tmp_path):
        art = artifact([rec("test_a[loop]", 3e-4),
                        rec("test_a[batched]", 1e-4)])
        p = str(art.write(tmp_path / "a.json"))
        assert cli.main([p, "--check-speedup", "test_a"]) == 0
        assert cli.main([p, "--check-speedup", "test_a",
                         "--min-speedup", "5.0"]) == 1
        with pytest.raises(SystemExit):  # no gate named: nothing to answer
            cli.main([p])

    def test_speedup_gate_with_its_own_ratio(self, cli, tmp_path, capsys):
        """``NAME:RATIO`` gates one benchmark at its own ratio; the others
        keep ``--min-speedup``.  Both legs come from the same artifact."""
        art = artifact([rec("test_a[loop]", 3e-4),
                        rec("test_a[batched]", 1e-4),
                        rec("test_a_ragged[loop]", 2e-4),
                        rec("test_a_ragged[batched]", 1e-4)])
        p = str(art.write(tmp_path / "a.json"))
        both = ["--check-speedup", "test_a", "--check-speedup"]
        assert cli.main([p, *both, "test_a_ragged:1.8"]) == 0
        assert "test_a_ragged batched is 2.00x vs loop (required 1.80x)" \
            in capsys.readouterr().out
        assert cli.main([p, *both, "test_a_ragged:2.5"]) == 1
        assert cli.main([p, *both, "test_a_ragged"]) == 0  # default 1.5
        assert cli.main([p, *both, "test_a_ragged",
                         "--min-speedup", "2.5"]) == 1
        assert cli.main([p, "--check-speedup", "test_gone:1.2"]) == 2
        with pytest.raises(SystemExit):
            cli.main([p, "--check-speedup", "test_a:fast"])

    def test_missing_speedup_entries_hard_error(self, cli, tmp_path,
                                                capsys):
        """A candidate missing entries referenced by --check-speedup is a
        configuration error (exit 2, every missing entry named), never a
        silent pass."""
        art = artifact([rec("test_a[loop]", 3e-4),
                        rec("test_a[batched]", 1e-4)])
        p = str(art.write(tmp_path / "a.json"))
        assert cli.main([p, "--check-speedup", "test_missing"]) == 2
        out = capsys.readouterr().out
        assert "ERROR" in out and p in out
        assert "test_missing[loop]" in out
        assert "test_missing[batched]" in out
        # one present engine leg is not enough — both are required
        half = artifact([rec("test_a[loop]", 3e-4)])
        ph = str(half.write(tmp_path / "half.json"))
        assert cli.main([ph, "--check-speedup", "test_a"]) == 2
        out = capsys.readouterr().out
        assert "test_a[batched]" in out and "test_a[loop]" not in \
            out.split("required by --check-speedup:")[1]
