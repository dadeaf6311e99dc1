"""The estimator prices the live scheme classes: every ``(phase, kernel)``
row of a priced cycle is one live solver cycle's, count for count."""

from __future__ import annotations

import ast
from inspect import signature
from pathlib import Path

import pytest

import repro.experiments
from repro.distla.engine import charge_rows
from repro.exceptions import ConfigurationError
from repro.experiments import estimator as est_mod
from repro.experiments import fig10_12, fig13, table2, table3, table4
from repro.experiments import sweep as sweep_mod
from repro.experiments.common import resolve_machine
from repro.experiments.estimator import (
    CONFIGS,
    CycleCostEstimator,
    PrecondShape,
    ProblemShape,
)
from repro.experiments.paper_data import TABLE4_SHAPES
from repro.experiments.sweep import PAPER_CONFIGS, Point, strong_scaling
from repro.krylov.gmres import gmres
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.ortho.bcgs import BCGS2Scheme
from repro.ortho.bcgs_pip import BCGSPIP2Scheme, BCGSPIPScheme
from repro.ortho.cholqr import CholQR
from repro.ortho.hhqr import HouseholderQR
from repro.ortho.randomized import RBCGSScheme
from repro.ortho.registry import list_schemes
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import summit
from repro.precision.kernels import MixedPrecisionTwoStageScheme

NX = 24
M = 20
S = 5

#: every row but one agrees to rounding
ROW_REL = 1e-12
#: ``spmv/spmv_local`` is shape-priced with ``nl + halo_cols`` operand
#: entries where the live plan knows each rank's ghost count: 2.3e-6 on
#: this fixture.  This ceiling may only be lowered.
SPMV_LOCAL_SHAPE_CEILING = 1e-5


def live_cycle(scheme=None):
    """Exactly one live restart cycle (standard GMRES when ``scheme`` is
    ``None``): the tracer totals it charged."""
    sim = Simulation(laplace2d(NX), ranks=6, machine=summit())
    b = sim.ones_solution_rhs()
    snap = sim.tracer.snapshot()
    if scheme is None:
        res = gmres(sim, b, restart=M, tol=1e-30, maxiter=M)
    else:
        res = sstep_gmres(sim, b, s=S, restart=M, tol=1e-30, maxiter=M,
                          scheme=scheme)
    assert res.iterations == M
    return sim.tracer.since(snap)


def estimator(**kw):
    return CycleCostEstimator(summit(), ranks=6,
                              shape=ProblemShape.stencil2d(NX, stencil=5),
                              m=M, s=S, **kw)


def assert_rows_equal(priced, live):
    assert set(priced.by_kernel) == set(live.by_kernel)
    for row, seconds in live.by_kernel.items():
        rel = (SPMV_LOCAL_SHAPE_CEILING if row == ("spmv", "spmv_local")
               else ROW_REL)
        assert priced.by_kernel[row] == pytest.approx(seconds, rel=rel), row
        assert priced.counts[row] == live.counts[row], row
    assert priced.sync_count() == sum(
        n for (_, kernel), n in live.counts.items() if kernel == "allreduce")


class TestEstimatorMatchesLiveRun:
    def test_standard_gmres(self):
        assert_rows_equal(estimator().standard_gmres_cycle(), live_cycle())

    def test_bcgs2(self):
        assert_rows_equal(estimator().sstep_cycle("bcgs2"),
                          live_cycle(BCGS2Scheme()))

    def test_pip2(self):
        assert_rows_equal(estimator().sstep_cycle("pip2"),
                          live_cycle(BCGSPIP2Scheme()))

    @pytest.mark.parametrize("bs", [5, 10, 20])
    def test_two_stage(self, bs):
        assert_rows_equal(estimator().sstep_cycle("two_stage", bs=bs),
                          live_cycle(TwoStageScheme(big_step=bs)))

    @pytest.mark.parametrize("factory", [
        BCGSPIPScheme, lambda: BCGS2Scheme(intra_first=CholQR())],
        ids=["bcgs-pip", "bcgs2+cholqr"])
    def test_a_scheme_the_estimator_has_no_code_for(self, factory):
        assert_rows_equal(estimator().sstep_cycle(factory),
                          live_cycle(factory()))

    @pytest.mark.parametrize("bs", [5, 10, 20])
    def test_mixed_two_stage(self, bs):
        """``dot_dd`` is a table op: the dd Gram's charge and its
        double-payload collective, priced with no estimator code."""
        def factory():
            return MixedPrecisionTwoStageScheme(big_step=bs)
        assert_rows_equal(estimator().sstep_cycle(factory),
                          live_cycle(factory()))

    def test_pip2_is_two_stage_at_bs_equal_s(self):
        one = estimator().sstep_cycle("pip2")
        two = estimator().sstep_cycle("two_stage", bs=S)
        assert one.clock == two.clock
        assert one.by_kernel == two.by_kernel and one.counts == two.counts


class TestRecordedStream:
    @pytest.mark.parametrize("factory, primitive", [
        (lambda: BCGS2Scheme(intra_first=HouseholderQR()), "householder_qr"),
        (RBCGSScheme, "sketch")], ids=["bcgs2+hhqr", "rbcgs"])
    def test_unpriced_primitive_is_named(self, factory, primitive):
        with pytest.raises(ConfigurationError, match=repr(primitive)):
            estimator().sstep_cycle(factory)

    @pytest.mark.parametrize("s", [2, 5, 15, 30])
    def test_recording_never_breaks_down(self, s):
        """The live monomial basis breaks down long before ``s = 30``; a
        width-only stream must not."""
        est = CycleCostEstimator(summit(), 6, ProblemShape.stencil2d(2000),
                                 m=60, s=s)
        for config in CONFIGS:
            assert est.cycle(config).clock > 0
        assert est.sstep_cycle("two_stage", bs=s).clock > 0

    def test_streams_are_recorded_once_per_key(self):
        """The plan over a recorded stream is kept per structure key."""
        estimator().sstep_cycle("two_stage", bs=10)
        before = est_mod._plan.cache_info()
        estimator().sstep_cycle("two_stage", bs=10)
        after = est_mod._plan.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 1)


class TestEstimatorStructure:
    def test_ortho_ordering_at_scale(self):
        """At 32 Summit nodes the paper's ordering must hold:
        CGS2 > BCGS2 > PIP2 > two-stage(bs=m)."""
        est = CycleCostEstimator(summit(), ranks=192,
                                 shape=ProblemShape.stencil2d(2000, 9),
                                 m=60, s=5)
        cgs2, bcgs2, pip2, two = (
            est.phase_seconds(est.cycle(config))["ortho"]
            for config in CONFIGS)
        assert cgs2 > bcgs2 > pip2 > two

    def test_two_stage_bs_monotone(self):
        est = CycleCostEstimator(summit(), ranks=4,
                                 shape=ProblemShape.stencil2d(2000, 5),
                                 m=60, s=5)
        times = [est.phase_seconds(est.sstep_cycle("two_stage", bs=bs))["ortho"]
                 for bs in (5, 20, 40, 60)]
        assert all(b < a for a, b in zip(times, times[1:]))

    def test_sync_counts_per_cycle(self):
        est = estimator()
        m_over_s = M // S
        # standard GMRES: 3 reduces/iter + residual norm
        t = est.standard_gmres_cycle()
        assert t.sync_count() == 3 * M + 1
        # pip2: 2 per panel + residual norm
        t = est.sstep_cycle("pip2")
        assert t.sync_count() == 2 * m_over_s + 1
        # bcgs2: 5 per panel after the first (CholQR2 only = 2 for
        # panel 1) + norm
        t = est.sstep_cycle("bcgs2")
        assert t.sync_count() == 5 * (m_over_s - 1) + 2 + 1
        # two-stage bs=m: 1 per panel + 1 big + norm
        t = est.sstep_cycle("two_stage", bs=M)
        assert t.sync_count() == m_over_s + 1 + 1

    def test_precond_adds_phase(self):
        out = estimator(precond=PrecondShape())
        assert out.phase_seconds(out.sstep_cycle("pip2"))["precond"] > 0

    def test_errors(self):
        est = estimator()
        with pytest.raises(ConfigurationError):
            est.sstep_cycle("two_stage")
        with pytest.raises(ConfigurationError):
            est.sstep_cycle("nope")
        with pytest.raises(ConfigurationError):
            CycleCostEstimator(summit(), 2, ProblemShape.stencil2d(10), 3, 5)

    @pytest.mark.parametrize("m, s, named", [
        (60, 0, "s"), (60, -3, "s"), (0, 0, "s"), (0, 5, "m"), (-1, 1, "m"),
        (60, 2.5, "s"), (60.0, 5, "m")])
    def test_step_and_restart_must_be_positive_ints(self, m, s, named):
        """``s <= 0`` used to make the recording's panel loop spin forever."""
        with pytest.raises(ConfigurationError, match=rf"^{named} must be"):
            CycleCostEstimator(summit(), 6, ProblemShape.stencil2d(200),
                               m=m, s=s)

    @pytest.mark.parametrize("build, message", [
        (lambda: ProblemShape.stencil2d(200, stencil=7),
         r"^stencil must be one of \(5, 9\), got 7$"),
        (lambda: ProblemShape(n=400, nnz=2000.0, halo_cols=40.0,
                              halo_neighbors=0),
         r"^halo_neighbors must be positive, got 0$"),
        (lambda: CycleCostEstimator(summit(), 2.5,
                                    ProblemShape.stencil2d(200), m=60, s=5),
         r"^ranks must be an int, got float$"),
        (lambda: CycleCostEstimator(summit(), 0,
                                    ProblemShape.stencil2d(200), m=60, s=5),
         r"^ranks must be positive, got 0$")],
        ids=["stencil-7", "no-halo-neighbors", "fractional-ranks",
             "no-ranks"])
    def test_shape_and_ranks_are_checked_at_the_door(self, build, message):
        """A bare ``KeyError``, a ``ZeroDivisionError`` in the first
        multi-rank cycle and silently priced 2 ranks, before."""
        with pytest.raises(ConfigurationError, match=message):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: PrecondShape(sweeps=0), r"^sweeps must be positive, got 0$"),
        (lambda: PrecondShape(sweeps=1.5), r"^sweeps must be an int, got float$"),
        (lambda: PrecondShape(colors=-1000),
         r"^colors must be positive, got -1000$"),
        (lambda: ProblemShape(n=0, nnz=5.0, halo_cols=1.0),
         r"^n must be positive, got 0$"),
        (lambda: ProblemShape(n=100.0, nnz=5.0, halo_cols=1.0),
         r"^n must be an int, got float$"),
        (lambda: ProblemShape(n=100, nnz=-5.0, halo_cols=1.0),
         r"^nnz must be a finite number > 0, got -5.0$"),
        (lambda: ProblemShape(n=100, nnz=float("inf"), halo_cols=1.0),
         r"^nnz must be a finite number > 0, got inf$"),
        (lambda: ProblemShape(n=100, nnz=500.0, halo_cols=-1.0),
         r"^halo_cols must be a finite number >= 0, got -1.0$"),
        (lambda: ProblemShape(n=100, nnz=500.0, halo_cols=float("nan")),
         r"^halo_cols must be a finite number >= 0, got nan$")],
        ids=["sweeps-zero", "sweeps-fractional", "colors-negative", "n-zero",
             "n-float", "nnz-negative", "nnz-infinite", "halo_cols-negative",
             "halo_cols-nan"])
    def test_shape_fields_are_checked_at_construction(self, build, message):
        """Each used to be priced: a free preconditioner, a fractional
        sweep, a late "negative cost for kernel 'spmv_local'" in the fold,
        a bcgs2 cycle of a matrix with negative nonzeros."""
        with pytest.raises(ConfigurationError, match=message):
            build()

    def test_precond_shape_is_frozen_and_hashable(self):
        assert hash(PrecondShape(2, 3)) == hash(PrecondShape(2, 3))
        with pytest.raises(AttributeError):
            PrecondShape().sweeps = 0

    @pytest.mark.parametrize("ranks", [1, 6, 96, 192])
    def test_table4_shapes_still_build(self, ranks):
        for name in TABLE4_SHAPES:
            shape = table4.problem_shape(name, ranks)
            est = CycleCostEstimator(summit(), ranks, shape, m=60, s=5)
            assert est.cycle("pip2").clock > 0, name

    def test_irregular_shape_halo_capped(self):
        sh = ProblemShape.irregular(1000, 50.0, ranks=2)
        assert sh.halo_cols <= 500


class TestOneConfigDoor:
    def test_cycle_is_the_dispatch_the_tables_shared(self):
        est = estimator()
        for config, same in (
                ("gmres", est.standard_gmres_cycle()),
                ("bcgs2", est.sstep_cycle("bcgs2")),
                ("pip2", est.sstep_cycle("pip2")),
                ("two_stage", est.sstep_cycle("two_stage", bs=M))):
            assert est.cycle(config).by_kernel == same.by_kernel
        assert (est.cycle("two_stage", bs=10).clock
                == est.sstep_cycle("two_stage", bs=10).clock)

    def test_configs_is_defined_once(self):
        """The estimator's ``CONFIGS`` is the one list; the sweep's paper
        grid and Table II's rows are spelled from it."""
        assert [label for label, _, _ in PAPER_CONFIGS] == list(CONFIGS)
        assert all(config in CONFIGS for _, config, _ in table2.SWEEP)
        assert not any(hasattr(mod, "CONFIGS")
                       for mod in (table2, table3, table4, fig13, fig10_12))

    def test_each_table_prices_only_what_it_prints(self, monkeypatch):
        """24 + 28 + 24 + 18 (+ 6 for Table II) cells, one pricing call
        per sweep (each grid is on one machine), and the ops it prices are
        the union of the plans of the cells it prints: Fig. 10-12 price
        one scheme per node count, not four.  Each table starts from an
        empty memo of priced cells."""
        calls = []

        def counted(ests, plans, _inner=est_mod.price_cells):
            calls.append((sum(len(rows) for _, rows in plans),
                          {op for plan, _ in plans for op in plan.ops}))
            return _inner(ests, plans)
        monkeypatch.setattr(est_mod, "price_cells", counted)

        def printed(points) -> set:
            return {op for p in points for _, config, bs in p.configs
                    for op in CycleCostEstimator(
                        p.machine, p.ranks, p.shape, m=p.m, s=p.s,
                        precond=p.precond).plan(config, bs).ops}
        figures = [strong_scaling(None, ((scheme, scheme, None),))
                   for scheme in fig10_12.SCHEMES.values()]
        table2_grid = [Point(4, resolve_machine("vortex"), 4,
                             ProblemShape.stencil2d(2000, 5), None, 60, 5,
                             table2.SWEEP)]
        for run, grids, cycles in (
                (table3.run, [strong_scaling(None, PAPER_CONFIGS)], 24),
                (table4.run, [table4.grid()], 28),
                (fig13.run, [fig13.grid()], 24),
                (fig10_12.run_all, figures, 18),
                (table2.run, [table2_grid], 6)):
            sweep_mod._memo.clear()
            calls.clear()
            run()
            assert sum(cells for cells, _ in calls) == cycles, run.__module__
            assert [ops for _, ops in calls] == [printed(g) for g in grids], \
                run.__module__


# ----------------------------------------------------------------------
EXPERIMENTS = Path(repro.experiments.__file__).resolve().parent
SRC = EXPERIMENTS.parent
FORMULAS = {"gemm", "gemm_tall_update", "trsm", "blas1"}
#: the modules that charge or price a local op: through the table only
TABLE_READERS = [SRC / "distla" / "engine.py", SRC / "distla" / "blas.py",
                 SRC / "ortho" / "backend.py", SRC / "sketch" / "operators.py",
                 SRC / "krylov" / "mpk.py",
                 *sorted((SRC / "precond").glob("*.py")),
                 *sorted(EXPERIMENTS.glob("*.py"))]


def _functions(tree: ast.AST):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _is_formula_call(node: ast.AST) -> bool:
    """``<cost model>.gemm(...)`` and friends; ``super().trsm(...)`` is the
    recorder delegating a backend primitive, not a formula."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in FORMULAS
            and not isinstance(node.func.value, ast.Call))


def _formula_callers(path: Path) -> set:
    return {(path.name, fn.name) for fn in _functions(ast.parse(path.read_text()))
            for node in ast.walk(fn) if _is_formula_call(node)}


def test_dense_formulas_are_called_from_the_table_only():
    """``LOCAL_OPS`` in ``parallel/costmodel.py`` is the one table from a
    local op to its formula: neither engine, ``distla/blas.py``,
    ``ortho/backend.py``, the sketch operators, the CA-MPK, the
    preconditioners nor ``experiments/`` calls a dense formula, and no
    other module defines the table."""
    assert len(TABLE_READERS) > 3 and all(p.is_file() for p in TABLE_READERS)
    assert [c for path in TABLE_READERS for c in _formula_callers(path)] == []
    # the guard sees a formula call where there is one
    assert _formula_callers(SRC / "parallel" / "costmodel.py")
    tables = {path.relative_to(SRC).as_posix()
              for path in SRC.rglob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "LOCAL_OPS"
                      for t in node.targets)}
    assert tables == {"parallel/costmodel.py"}


def test_charge_rows_takes_an_op_and_its_args():
    assert list(signature(charge_rows).parameters) == ["mv", "op", "args"]


def test_no_estimator_function_is_named_after_a_scheme():
    words = {w for name in list_schemes() for w in name.split("_")}
    words |= {"pip", "pip2", "cgs", "cgs2", "cholqr", "cholqr2"}
    words -= {"two", "stage"}
    tree = ast.parse((EXPERIMENTS / "estimator.py").read_text())
    named = {fn.name for fn in _functions(tree)
             if words & set(fn.name.strip("_").split("_"))}
    assert named == set()
    assert not any("two_stage" in fn.name for fn in _functions(tree))
