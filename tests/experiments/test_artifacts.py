"""Experiment modules: structure and qualitative claims at tiny scale."""

from __future__ import annotations

import functools
import hashlib

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import fig6, fig7, fig8, fig9, fig10_12, fig13
from repro.experiments import runner, sketch_stability
from repro.experiments import table2, table3, table4, ablations
from repro.experiments.common import ExperimentTable, fmt, resolve_machine, speedup
from repro.experiments import estimator as est_mod
from repro.experiments.estimator import (
    CycleCostEstimator,
    PrecondShape,
    ProblemShape,
)
from repro.experiments.paper_data import TABLE3, TABLE3_ITERS, TABLE4
from repro.experiments.sweep import PAPER_CONFIGS, Point, strong_scaling, sweep
from repro.parallel.machine import summit, vortex


class TestCommon:
    def test_table_render_and_access(self):
        t = ExperimentTable("x", "title", headers=["a", "b"])
        t.add_row(1, 2)
        t.add_row(3, 4)
        t.add_note("hello")
        out = t.render()
        assert "[x] title" in out and "hello" in out
        assert t.cell(0, 1) == 2
        assert t.column(0) == [1, 3]

    def test_resolve_machine(self):
        assert resolve_machine("summit").ranks_per_node == 6
        m = resolve_machine("vortex")
        assert resolve_machine(m) is m
        with pytest.raises(ConfigurationError):
            resolve_machine("cray-1")

    def test_fmt_and_speedup(self):
        assert fmt(0) == "0"
        assert fmt(123456) == "1.235e+05"
        assert fmt(1.5) == "1.5"
        assert speedup(10.0, 5.0) == "2.0x"
        assert speedup(10.0, 0.0) == "-"


class TestNumericsFigures:
    def test_fig6_quick(self):
        t = fig6.run(n=2000, seeds=2, kappas=[1e2, 1e4])
        assert len(t.rows) == 2
        assert float(t.rows[0][2]) < float(t.rows[1][2])

    def test_fig7_quick(self):
        t = fig7.run(n=2000, seeds=2, kappas=[1e2, 1e4])
        assert float(t.rows[0][3]) < 1e-13  # err2 O(eps)

    def test_fig8_quick(self):
        t = fig8.run(n=3000, m=30, bs=15, s=5)
        assert len(t.rows) == 6  # one per panel
        assert "O(eps)" in t.notes[0] or "final" in t.notes[0]

    def test_fig9_quick(self):
        t = fig9.run(run_n=1500, m=20, s=5, bs=20,
                     matrices=["offshore", "Ga41As41H72"])
        rows = {r[0]: r for r in t.rows}
        assert rows["offshore"][1] == "moderate"
        assert rows["Ga41As41H72"][1] == "hard"


class TestSketchStability:
    def test_quick_sweep_shows_the_cliff(self):
        """Smoke-size variant of the acceptance claim: at kappa = 1e15
        the classical two-stage scheme breaks down or stagnates while
        the sketched variant converges to O(eps) orthogonality."""
        t = sketch_stability.run(n=800, k=20, kappas=[1e4, 1e15])
        rows = {r[0]: r for r in t.rows}
        benign, extreme = rows["1.000e+04"], rows["1.000e+15"]
        # both fine in the classical regime
        assert benign[2] == "ok" and benign[4] == "ok"
        # the cliff: classical fails, sketched converges
        assert extreme[2] in ("breakdown", "stagnated")
        assert extreme[4] == "ok"
        assert float(extreme[3]) < 1e-8

    def test_runner_dispatch(self, capsys):
        assert runner.main(["sketch", "--quick"]) == 0
        assert "sketched" in capsys.readouterr().out


class TestPerformanceTables:
    def test_table2_structure(self):
        t = table2.run()
        assert [r[0] for r in t.rows] == [label for label, _, _ in table2.SWEEP]
        ortho = [float(r[3]) for r in t.rows]
        assert ortho == sorted(ortho, reverse=True)

    def test_table2_measured_iterations_tiny(self):
        iters = table2.measured_iterations(nx=32, m=30, s=5, tol=1e-4,
                                           maxiter=4000)
        assert iters["two_stage_bs5"] % 5 == 0

    def test_table3_speedup_cells(self):
        t = table3.run(node_counts=[1, 4])
        assert len(t.rows) == 8
        gm = [r for r in t.rows if r[1] == "gmres"][0]
        assert gm[6] == "1.0x"

    def test_fig10_12_fractions_sum(self):
        t = fig10_12.run("fig11", node_counts=[1, 32])
        for row in t.rows:
            dot, upd, other, total = (float(row[i]) for i in (1, 2, 3, 4))
            # cells are 3-significant-digit strings; compare accordingly
            assert dot + upd + other == pytest.approx(total, rel=1e-2)

    def test_table4_all_matrices(self):
        t = table4.run(matrices=["ecology2", "ML_Geer"])
        assert len(t.rows) == 8

    def test_fig13_ordering(self):
        t = fig13.run(node_counts=[8])
        ortho = {r[1]: float(r[3]) for r in t.rows}
        assert (ortho["gmres"] > ortho["bcgs2"] > ortho["pip2"]
                > ortho["two_stage"])


class TestAblations:
    def test_a1(self):
        t = ablations.run_sync_vs_reuse(nodes=4)
        assert len(t.rows) == 2

    def test_a3_quick(self):
        t = ablations.run_basis_conditioning(nx=12, s_values=[2, 4])
        assert len(t.rows) == 2
        assert float(t.rows[0][1]) < float(t.rows[1][1])

    def test_a4_quick(self):
        t = ablations.run_step_size_cliff(n=2000, m=30)
        assert any(r[0] == 5 for r in t.rows)


class TestRunner:
    """``repro-experiments``: one parser for every entry; a bad command
    line exits 2 naming the offending input and the valid set."""

    NAMES = [*runner.REGISTRY, "all"]

    @staticmethod
    def _exit_2(argv, capsys) -> str:
        with pytest.raises(SystemExit) as exc:
            runner.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro-experiments ")
        return err

    def test_dispatch_help(self, capsys):
        """A bare command prints usage listing all 19 names."""
        err = self._exit_2([], capsys)
        assert len(self.NAMES) == 19
        assert all(name in err for name in self.NAMES)

    def test_dispatch_unknown(self, capsys):
        err = self._exit_2(["bogus"], capsys)
        assert "'bogus'" in err
        assert all(name in err for name in self.NAMES)

    def test_dispatch_deleted_flag(self, capsys):
        err = self._exit_2(["table3", "--nodes", "1"], capsys)
        assert "unrecognized arguments: --nodes 1" in err
        assert "[--quick] [--out DIR]" in err

    @pytest.mark.parametrize("name", NAMES)
    def test_every_entry_takes_quick_and_out(self, name, tmp_path):
        args = runner.build_parser().parse_args(
            [name, "--quick", "--out", str(tmp_path)])
        assert (args.name, args.quick, args.out) == (name, True, str(tmp_path))

    DEFAULT_SIZE = {"table3": table3.run, "table4": table4.run,
                    "fig13": fig13.run,
                    **{fig: functools.partial(fig10_12.run, fig)
                       for fig in fig10_12.SCHEMES}}

    @pytest.mark.parametrize("name", DEFAULT_SIZE)
    def test_quick_without_quick_size_prints_the_default(self, name, capsys):
        """An entry with no ``QUICK`` size prints its default-size table
        under ``--quick``."""
        assert runner.main([name, "--quick"]) == 0
        expected = self.DEFAULT_SIZE[name]().render()
        assert capsys.readouterr().out == expected + "\n\n"


#: sha256 of ``render()`` of every estimator-backed artifact, recorded
#: before its pricing loop became a view of one sweep; a view may change
#: how it reaches a number, never the printed text
RENDER_DIGESTS = {
    "table2": (
        lambda: table2.run(),
        "3ff3a62b457683c4d1e759d2fec9e80983bbf3f618b376ca0817b1bc2de2cc6e"),
    "table2 quick": (
        lambda: table2.run(**table2.QUICK),
        "245826d3c39e6285e401264961e8d067945b382f492a2c51c7b4cd0866283b33"),
    "table3": (
        lambda: table3.run(),
        "9077471fab11961d0f1ac75769388e7aa441ed6ec626547b1cc1db2ef1d2fe9e"),
    "table3 nodes 1 4": (
        lambda: table3.run(node_counts=[1, 4]),
        "4448f8c464b83809592fb41082db83bf42df17d3df82fc1f687a54b2c0b1508d"),
    "fig10": (
        lambda: fig10_12.run("fig10"),
        "ca3b269b5bd37c245702db24570efe1bc3c07eb06c5e01f3766d9aa9ba2996a6"),
    "fig11": (
        lambda: fig10_12.run("fig11"),
        "e591d69ffeefc2dd96a4eb51088224348afaef09ae4e8cbb36a4bb5a7d8d4e37"),
    "fig12": (
        lambda: fig10_12.run("fig12"),
        "4e0c0065c3d95b883d52a4e1803645f3d31a8ef9d1c21208dc6315186f2fa653"),
    "table4": (
        lambda: table4.run(),
        "bfa409bda44445549d90a00cab03bcdfce29aef7bec34cc42a25c8b1f8c8c507"),
    "fig13": (
        lambda: fig13.run(),
        "1a0df5c9aea565cce89ae325700a0fe3457635d73d5e5d10bf80862b0da02631"),
    "ablation A1": (
        lambda: ablations.run_sync_vs_reuse(),
        "34eb2a68975205c11058dd8a3e2065b4684e9f5bf33707ead866bd0a7194e71a"),
    "ablation A1 quick": (
        lambda: ablations.RUNS["A1"](**ablations.QUICK.get("A1", {})),
        "34eb2a68975205c11058dd8a3e2065b4684e9f5bf33707ead866bd0a7194e71a"),
    "ablation A1 4 nodes": (
        lambda: ablations.run_sync_vs_reuse(nodes=4),
        "6250056019b1363fa083dfa08fb5a1cb6b5a2d21f0073caaf2a755a54419a529"),
    "ablation A2": (
        lambda: ablations.run_bs_grid(),
        "111166295172bfad52cfb14f978ab34b9f8971226969e12c0ba8ed5fada0f307"),
    "ablation A2 quick": (
        lambda: ablations.RUNS["A2"](**ablations.QUICK.get("A2", {})),
        "111166295172bfad52cfb14f978ab34b9f8971226969e12c0ba8ed5fada0f307"),
    "ablation A2 claims grid": (
        lambda: ablations.run_bs_grid(node_counts=[1, 4, 16, 32]),
        "111166295172bfad52cfb14f978ab34b9f8971226969e12c0ba8ed5fada0f307"),
}


@pytest.mark.parametrize("name", RENDER_DIGESTS)
def test_printed_text_is_pinned(name):
    run, digest = RENDER_DIGESTS[name]
    assert hashlib.sha256(run().render().encode()).hexdigest() == digest


#: sha256 over every ``Row`` of the frames behind Tables II-IV, Fig. 13
#: and ablations A1 / A2, in frame order, seconds as ``float.hex``:
#: recorded before the estimator folded cycles in one batch; what the
#: printed digests round away must not move either
FRAME_DIGEST = "77570f1aed90351270b6b15574063b169cfb467b433484a36a457020a6f88f43"


#: the same over the frames behind ``fig10_12.run_all()``,
#: ``table3.modeled_config_times`` at every Table III node count and
#: ``table4.per_iteration_times`` of every Table IV matrix (what
#: ``paper_fidelity`` reads): recorded before a sweep priced its cells in
#: groups
FIDELITY_FRAME_DIGEST = (
    "89121c6e4c47dcf42ae3cf6ad4ee0172c375352d71ada736b52612cec0ac3fd7")


def _frame_digest(monkeypatch, modules):
    """A sha256 that every frame ``sweep`` returns in ``modules`` updates."""
    digest = hashlib.sha256()

    def recording(points, _sweep=sweep):
        frame = _sweep(points)
        for r in frame:
            digest.update(f"{r.key}|{r.label}|{r.phase}|{r.kernel}|"
                          f"{float(r.seconds).hex()}|{r.count}\n".encode())
        return frame

    for module in modules:
        monkeypatch.setattr(module, "sweep", recording)
    return digest


def test_sweep_frames_are_pinned_below_the_printed_digits(monkeypatch):
    digest = _frame_digest(monkeypatch,
                           (table2, table3, table4, fig13, ablations))
    for run in (table2.run, table3.run, table4.run, fig13.run,
                ablations.run_sync_vs_reuse, ablations.run_bs_grid):
        run()
    assert digest.hexdigest() == FRAME_DIGEST


def test_fidelity_frames_are_pinned(monkeypatch):
    digest = _frame_digest(monkeypatch, (fig10_12, table3, table4))
    fig10_12.run_all()
    for nodes in TABLE3:
        table3.modeled_config_times(nodes)
    for name in TABLE4:
        table4.per_iteration_times(name)
    assert digest.hexdigest() == FIDELITY_FRAME_DIGEST


class TestGridErrors:
    """A bad grid input is a ConfigurationError naming it and the valid
    set, raised before any cycle is priced."""

    @pytest.fixture
    def priced(self, monkeypatch):
        """Per call of the pricer, every sweep's and every single cycle's,
        the estimator of each cell it is handed."""
        calls = []

        def recording(ests, plans, _inner=est_mod.price_cells):
            calls.append([ests[row] for _, rows in plans for row in rows])
            return _inner(ests, plans)
        monkeypatch.setattr(est_mod, "price_cells", recording)
        return calls

    def test_a_valid_grid_is_priced_through_the_fixture(self, priced):
        """What keeps ``priced == []`` below from passing vacuously."""
        sweep(strong_scaling([1, 2], PAPER_CONFIGS))
        assert [len(cells) for cells in priced] == [2 * len(PAPER_CONFIGS)]
        assert sorted(est.ranks for est in priced[0]) == (
            [6] * len(PAPER_CONFIGS) + [12] * len(PAPER_CONFIGS))
        CycleCostEstimator(resolve_machine("summit"), 6,
                           ProblemShape.stencil2d(100), m=10, s=5).cycle("pip2")
        assert [len(cells) for cells in priced] == [2 * len(PAPER_CONFIGS), 1]

    @pytest.mark.parametrize("run, named", [
        (lambda: table4.run(matrices=["ecology2", "nope"]), ["nope", "ML_Geer"]),
        (lambda: fig10_12.run("fig14"), ["fig14", "fig10"]),
        (lambda: table3.run(node_counts=[1, 0]), ["0", ">= 1"]),
        (lambda: fig13.run(node_counts=[2, -1]), ["-1", ">= 1"]),
        (lambda: table3.run(node_counts=[True]), ["[True]", "integers"]),
        (lambda: sweep(strong_scaling([2, False], PAPER_CONFIGS)),
         ["False", ">= 1"]),
        (lambda: table3.run(node_counts=[]), ["got []", ">= 1"]),
        (lambda: table4.run(matrices=[]), ["got []", "ML_Geer"]),
        (lambda: ablations.run_bs_grid(node_counts=[]), ["got []", ">= 1"]),
        (lambda: fig13.run(node_counts=()), ["got []", ">= 1"]),
    ], ids=["table4 matrix", "fig10_12 figure", "table3 nodes",
            "fig13 nodes", "table3 bool nodes", "bool nodes",
            "table3 no nodes", "table4 no matrices", "A2 no nodes",
            "fig13 no nodes"])
    def test_bad_input(self, priced, run, named):
        with pytest.raises(ConfigurationError) as err:
            run()
        assert all(word in str(err.value) for word in named)
        assert priced == []

    @pytest.mark.parametrize("s", [0, -3])
    def test_sweep_rejects_a_non_positive_step(self, priced, s):
        with pytest.raises(ConfigurationError, match="^s must be positive"):
            sweep(strong_scaling([1, 2], PAPER_CONFIGS, s=s))
        assert priced == []

    def test_estimator_rejects_no_ranks(self):
        with pytest.raises(ConfigurationError, match="ranks"):
            CycleCostEstimator(resolve_machine("summit"), 0,
                               ProblemShape.stencil2d(100), m=10, s=5)


class TestOneFrame:
    """Artifacts are views of one frame, so they agree with each other."""

    def test_fig10_12_total_is_table3_ortho(self):
        table = sweep(strong_scaling(TABLE3, PAPER_CONFIGS)).per_run(
            TABLE3_ITERS, 60)
        schemes = tuple((s, s, None) for s in fig10_12.SCHEMES.values())
        frame = sweep(strong_scaling(TABLE3, schemes))
        for nodes, per_scheme in fig10_12.breakdowns(frame).items():
            for scheme, b in per_scheme.items():
                assert b["total"] == pytest.approx(
                    table[nodes][scheme]["ortho"], rel=1e-12, abs=0), scheme
        assert len(frame.pivot("ortho")) == len(TABLE3)

    @pytest.mark.parametrize("grid", [
        lambda: strong_scaling([1, 32], PAPER_CONFIGS),
        lambda: fig13.grid([4]),
        lambda: table4.grid(["ecology2", "Laplace3D"]),
    ], ids=["table3", "fig13", "table4"])
    def test_kernel_rows_sum_to_their_phase_row(self, grid):
        frame = sweep(grid())
        sums, phases = {}, {}
        for r in frame:
            if r.kernel is None:
                phases[(r.key, r.label, r.phase)] = r
            else:
                for phase in (r.phase, "total"):
                    key = (r.key, r.label, phase)
                    seconds, count = sums.get(key, (0.0, 0))
                    sums[key] = (seconds + r.seconds, count + r.count)
        assert set(sums) <= set(phases)
        for key, row in phases.items():
            seconds, count = sums.get(key, (0.0, 0))
            assert seconds == pytest.approx(row.seconds, rel=1e-12, abs=0), key
            assert count == row.count, key


class TestGroupedSweep:
    """Cells that share a plan and a machine are priced and folded as one
    block; the frame is the one every cell would give alone."""

    @staticmethod
    def grid() -> list:
        shape = ProblemShape.stencil2d(300, 9)
        configs = (*PAPER_CONFIGS, ("ts-10", "two_stage", 10),
                   ("ts-20", "two_stage", 20))
        slow_net = summit().with_overrides(net_latency_inter=2.0e-5)
        return [Point(key, machine, ranks, point_shape, precond, 60, 5,
                      configs)
                for key, (machine, ranks, point_shape, precond) in enumerate([
                    (summit(), 1, shape, None),
                    (summit(), 12, shape, None),
                    (summit(), 24, shape, PrecondShape(2, 3)),
                    (vortex(), 24, shape, None),
                    (slow_net, 24, shape, None),
                    (summit(), 96, table4.problem_shape("ecology2", 96),
                     None),
                    (summit(), 96, table4.problem_shape("thermal2", 96),
                     PrecondShape()),
                    (summit(), 48, shape, PrecondShape(2, 3)),
                ])]

    @staticmethod
    def hexed(frame) -> list:
        return [(*r[:4], float(r.seconds).hex(), r.count) for r in frame]

    def test_one_sweep_is_the_per_point_sweeps(self, monkeypatch):
        calls = []

        def counted(ests, plans, _inner=est_mod.price_cells):
            calls.append((len(ests), [len(rows) for _, rows in plans]))
            return _inner(ests, plans)
        monkeypatch.setattr(est_mod, "price_cells", counted)
        points = self.grid()
        whole = sweep(points)
        groups = [cells for _, per_plan in calls for cells in per_plan]
        assert max(groups) > 1 and sum(groups) == 6 * len(points)
        # one call per machine (summit, vortex, the slow network), handed
        # each point's estimator once
        assert len(calls) == len({p.machine for p in points}) == 3
        assert sum(ests for ests, _ in calls) == len(points)
        parts = [r for p in points for r in sweep([p])]
        assert self.hexed(whole) == self.hexed(parts)

    def test_every_cell_is_its_single_cycle(self):
        frame = sweep(self.grid())
        for p in self.grid():
            est = CycleCostEstimator(p.machine, p.ranks, p.shape, m=p.m,
                                     s=p.s, precond=p.precond)
            for label, config, bs in p.configs:
                cycle = est.cycle(config, bs)
                assert [(r.phase, r.kernel, r.seconds.hex(), r.count)
                        for r in frame if (r.key, r.label) == (p.key, label)
                        and r.kernel is not None] == [
                    (*row, seconds.hex(), cycle.counts[row])
                    for row, seconds in cycle.by_kernel.items()]
