"""The five benchmark workloads: generated inputs, set-up, solve, checks.

Every workload offers the same three steps, which `run` times separately:
``setup(seed, **sim_options)`` builds everything a solve needs from the seed
(the program under test never sees the seed or a workload name),
``solve(state)`` is the timed phase, and ``outcome(state)`` reads the
results back and checks them.  All solves share the paper's configuration:
Summit machine model, ``s=5``, ``restart=60``, ``tol=1e-8``, simulated
communicator, default kernel engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import import_module

import numpy as np

from repro.krylov.options import SolverOptions
from repro.krylov.simulation import Simulation
from repro.matrices import stencil
from repro.ortho import BCGS2Scheme, TwoStageScheme
from repro.parallel.machine import summit
from repro.precond import BlockJacobiPreconditioner
from repro.service import queue as service_queue

# looked up through their modules at call time, so that the traced run's
# wrappers (installed on the module attributes) are the ones called
solver = import_module("repro.krylov.sstep_gmres")

STEP, RESTART, TOL = 5, 60, 1.0e-8
#: the backlog of `service_batch8` and the widest batch its queue dispatches
REQUESTS, MAX_WIDTH = 8, 8


@dataclass
class Tally:
    """Operations and output checks attempted, and the ones that failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failures.extend(other.failures)


@dataclass
class Outcome:
    """What one pass produced.  ``exact`` are the deterministic end-to-end
    metrics; ``layers`` the deterministic per-layer ones."""

    exact: dict[str, float]
    layers: dict[str, float]
    true_relres: float
    solutions: list[np.ndarray]
    tally: Tally


def _two_stage() -> TwoStageScheme:
    return TwoStageScheme(big_step=RESTART)


def _solution(n: int, seed: int) -> np.ndarray:
    """Seed 0 is the paper's "solution is all ones"."""
    if seed == 0:
        return np.ones(n)
    return 1.0 + 0.5 * np.random.default_rng(seed).uniform(-1.0, 1.0, n)


def _relres(a, x: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(b - a @ x) / np.linalg.norm(b))


@dataclass
class _Live:
    """State of one live pass: a fresh simulation and what was solved."""

    a: object
    sim: Simulation
    rhs: list[np.ndarray]
    precond: object = None
    queue: object = None
    results: list = field(default_factory=list)

    def __post_init__(self) -> None:
        tracer = self.sim.tracer
        self.snap = tracer.snapshot()
        self.collectives = tracer.collective_counts(payload_bytes=True)


def _live_outcome(st: _Live, tally: Tally) -> Outcome:
    """Modeled numbers of a live pass, from the simulation's tracer and
    metrics registry; seconds are *simulated* seconds."""
    tracer = st.sim.tracer
    totals = tracer.since(st.snap)
    after = tracer.collective_counts(payload_bytes=True)

    def moved(kind: str, what: str) -> float:
        return after[kind][what] - st.collectives[kind][what]

    phase, kernel = totals.by_phase.get, totals.by_kernel.get
    iterations = sum(r.iterations for r in st.results)
    syncs = moved("allreduce", "count")
    exact = {
        "modeled_total_s": totals.clock,
        "modeled_ortho_s": phase("ortho", 0.0),
        "sync_count": syncs,
        "iterations": iterations,
    }
    layers = {
        "modeled.spmv_local_s": kernel(("spmv", "spmv_local"), 0.0),
        "modeled.halo_s": kernel(("spmv", "halo"), 0.0),
        "modeled.precond_s": phase("precond", 0.0),
        **{f"modeled.ortho.{k}_s": kernel(("ortho", k), 0.0)
           for k in ("dot", "update", "trsm", "allreduce", "host")},
        "modeled.other_s": (totals.clock - phase("spmv", 0.0)
                            - phase("precond", 0.0) - phase("ortho", 0.0)),
        "modeled.syncs_per_iter": syncs / max(iterations, 1),
        "parallel.communicator.allreduces": syncs,
        "parallel.communicator.allreduce_bytes": moved("allreduce", "bytes"),
        "parallel.communicator.halos": moved("halo", "count"),
        "parallel.communicator.halo_bytes": moved("halo", "bytes"),
    }
    # computed from shapes by the metrics registry, where a pass enabled it
    registry = st.sim.metrics_doc().get("totals")
    if registry:
        layers["modeled.flops"] = registry["flops"]
        layers["modeled.mem_bytes"] = registry["mem_bytes"]
    # read only now: a plan missing from the cache would charge its analysis
    if st.results[0].diagnostics.get("mpk_mode") in ("ca", "ca_overlap"):
        ghosts = st.sim.matrix.ghost_plan(
            STEP, st.precond.ghost_compat if st.precond else "pointwise"
        ).ghost_counts()
    else:
        ghosts = st.sim.matrix.halo.halo_counts
    layers["distla.halo.ghost_rows"] = int(ghosts.sum())
    solutions = [r.x for r in st.results]
    relres = max(_relres(st.a, x, b) for x, b in zip(solutions, st.rhs))
    return Outcome(exact, layers, relres, solutions, tally)


@dataclass(frozen=True)
class ScalarSolve:
    """One `sstep_gmres` call on a 9-point 2-D Laplacian."""

    name: str
    nx: int
    ranks: int
    two_stage: bool
    #: iteration budget; None solves to the tolerance
    maxiter: int | None = None
    preconditioned: bool = False
    mpk_mode: str = "standard"
    #: largest true residual a budgeted solve may end with
    relres_cap: float = 1.0
    #: the extra passes of the traced run (see `run.EXTRA_PASSES`)
    extras: tuple[str, ...] = ("obs",)

    def setup(self, seed: int, **sim_options) -> _Live:
        a = stencil.laplace2d(self.nx, stencil=9)
        sim = Simulation(a, ranks=self.ranks, machine=summit(), **sim_options)
        precond = (BlockJacobiPreconditioner().setup(sim.matrix)
                   if self.preconditioned else None)
        b = a @ _solution(a.shape[0], seed)
        return _Live(a, sim, [b], precond=precond)

    def solve(self, st: _Live) -> None:
        st.results = [solver.sstep_gmres(
            st.sim, st.rhs[0], s=STEP, restart=RESTART, tol=TOL,
            maxiter=100_000 if self.maxiter is None else self.maxiter,
            scheme=_two_stage() if self.two_stage else BCGS2Scheme(),
            precond=st.precond,
            options=SolverOptions(mpk_mode=self.mpk_mode))]

    def outcome(self, st: _Live) -> Outcome:
        out = _live_outcome(st, Tally())
        res, true = st.results[0], out.true_relres
        if self.maxiter is None:
            out.tally.check(res.converged, f"{self.name}: did not converge")
            out.tally.check(true <= 10 * TOL,
                            f"{self.name}: true residual {true:.3e} > 10 tol")
        else:
            out.tally.check(res.iterations == self.maxiter,
                            f"{self.name}: stopped at {res.iterations} of "
                            f"{self.maxiter} iterations")
            out.tally.check(true <= self.relres_cap,
                            f"{self.name}: true residual {true:.3e} > "
                            f"{self.relres_cap:.0e}")
            out.tally.check(
                abs(true - res.relative_residual)
                <= 1e-6 * res.relative_residual,
                f"{self.name}: true residual {true:.6e} differs from the "
                f"solver's {res.relative_residual:.6e}")
        return out


@dataclass(frozen=True)
class ServiceBatch:
    """A backlog of random right-hand sides through `SolveQueue`."""

    name: str
    nx: int
    ranks: int
    extras = ("obs", "width1")

    def setup(self, seed: int, max_width: int = MAX_WIDTH,
              **sim_options) -> _Live:
        a = stencil.laplace2d(self.nx, stencil=9)
        sim = Simulation(a, ranks=self.ranks, machine=summit(), **sim_options)
        # right-hand sides of random solutions, as the scalar workloads
        # draw them: white-noise right-hand sides weight the few slowest
        # modes at random, and one request in a hundred then needs a
        # restart cycle fewer than the rest
        cols = a @ (1.0 + 0.5 * np.random.default_rng(seed).uniform(
            -1.0, 1.0, (a.shape[0], REQUESTS)))
        cols /= np.linalg.norm(cols, axis=0)
        queue = service_queue.SolveQueue(
            sim, max_width=max_width, s=STEP, restart=RESTART,
            scheme_factory=_two_stage)
        return _Live(a, sim, list(cols.T), queue=queue)

    def solve(self, st: _Live) -> None:
        ids = [st.queue.submit(b, tol=TOL) for b in st.rhs]
        st.queue.flush()
        st.results = [st.queue.result(i) for i in ids]

    def outcome(self, st: _Live) -> Outcome:
        tally = Tally()
        for j, res in enumerate(st.results):
            tally.check(res.converged,
                        f"{self.name}: request {j} did not converge")
        out = _live_outcome(st, tally)
        tally.check(out.true_relres <= 10 * TOL,
                    f"{self.name}: true residual {out.true_relres:.3e} "
                    f"> 10 tol")
        widths = st.queue.dispatched_widths
        out.layers["service.batches"] = len(widths)
        out.layers["service.mean_width"] = sum(widths) / len(widths)
        return out


@dataclass(frozen=True)
class PaperTables:
    """The analytic paper-scale sweep: estimator and cost model only.

    Set-up regenerates every table once (the pass that would fill any
    cache the sweep kept); the timed phase regenerates them ``sweeps``
    more times.
    """

    name: str
    sweeps: int
    extras = ()

    @staticmethod
    def _sweep() -> list:
        from repro.experiments import fig10_12, fig13, table3, table4
        return [table3.run(), table4.run(), fig13.run(), *fig10_12.run_all()]

    def setup(self, seed: int, **sim_options) -> dict:
        return {"tables": self._sweep()}

    def solve(self, st: dict) -> None:
        for _ in range(self.sweeps):
            st["tables"] = self._sweep()

    def outcome(self, st: dict) -> Outcome:
        from repro.experiments import table3
        from repro.experiments.paper_data import TABLE3, TABLE3_ITERS

        tally = Tally()
        t3, t4 = st["tables"][0], st["tables"][1]
        for table, rows in ((t3, 24), (t4, 28)):
            tally.check(len(table.rows) == rows,
                        f"{self.name}: {table.experiment_id} has "
                        f"{len(table.rows)} rows, not {rows}")
        # Table III: columns 3-5 are seconds; Table IV: columns 2-4 are ms
        cells = ([c for row in t3.rows for c in row[3:6]]
                 + [c for row in t4.rows for c in row[2:5]])
        tally.check(all(math.isfinite(float(c)) for c in cells),
                    f"{self.name}: a table cell is not finite")
        # the Table III two-stage column, summed over the node counts
        column = [table3.modeled_config_times(nodes)["two_stage"]
                  for nodes in TABLE3]
        cycles = TABLE3_ITERS["two_stage"] / RESTART
        exact = {
            "modeled_total_s": sum(c["total"] for c in column),
            "modeled_ortho_s": sum(c["ortho"] for c in column),
            "sync_count": len(TABLE3) * cycles * _two_stage_cycle_syncs(),
            "iterations": len(TABLE3) * TABLE3_ITERS["two_stage"],
        }
        return Outcome(exact, {}, 0.0, [], tally)


def _two_stage_cycle_syncs() -> int:
    """Allreduces the estimator charges per two-stage restart cycle (the
    count does not depend on the rank count)."""
    from repro.experiments.estimator import CycleCostEstimator, ProblemShape

    est = CycleCostEstimator(summit(), 6, ProblemShape.stencil2d(2000, 9),
                             m=RESTART, s=STEP)
    return est.sstep_cycle("two_stage", bs=RESTART).sync_count()


def paper_fidelity() -> dict[str, float]:
    """Largest relative error of our modeled speed-ups against the paper's.

    Every workload reports these: a modeled number means little without the
    model's error against the reference results printed beside it.  The
    experiment modules are imported here, not at the top, so that a live
    workload's peak memory can be read before they load.
    """
    from repro.experiments import table3, table4
    from repro.experiments.paper_data import TABLE3, TABLE4

    ours3 = {nodes: table3.modeled_config_times(nodes) for nodes in TABLE3}
    ours4 = {name: table4.per_iteration_times(name) for name in TABLE4}

    def err(ours: dict, what: str, paper: dict, column: int,
            base: str) -> float:
        """Over the rows of a table: our ``base`` / two-stage ratio of
        ``what`` against the same ratio of the paper's ``column``."""
        return max(
            abs(ours[k][base][what] / ours[k]["two_stage"][what]
                / (paper[k][base][column] / paper[k]["two_stage"][column])
                - 1.0)
            for k in paper)

    return {
        "t3_ortho_vs_bcgs2_err": err(ours3, "ortho", TABLE3, 1, "bcgs2"),
        "t3_ortho_vs_pip2_err": err(ours3, "ortho", TABLE3, 1, "pip2"),
        "t3_total_vs_bcgs2_err": err(ours3, "total", TABLE3, 2, "bcgs2"),
        "t3_total_vs_pip2_err": err(ours3, "total", TABLE3, 2, "pip2"),
        "t4_total_vs_bcgs2_err": err(ours4, "total", TABLE4, 3, "bcgs2"),
    }


def workloads(quick: bool = False) -> list:
    """The five workloads, full-size or shrunk for the self-test.  Why each
    one exists is written once, in ``BENCHMARK.json``."""
    q = quick
    return [
        ScalarSolve("laplace2d_two_stage", nx=64 if q else 200, ranks=24,
                    two_stage=True, maxiter=60 if q else 180,
                    relres_cap=1.0 if q else 1.0e-3,
                    extras=("loop_engine", "obs")),
        ScalarSolve("ranks192_bcgs2", nx=48 if q else 144, ranks=192,
                    two_stage=False, maxiter=60 if q else 180,
                    relres_cap=1.0 if q else 1.0e-3,
                    extras=("loop_engine", "obs")),
        ScalarSolve("precond_ca_converge", nx=36 if q else 90, ranks=12,
                    two_stage=True, preconditioned=True, mpk_mode="auto"),
        ServiceBatch("service_batch8", nx=24 if q else 63, ranks=24),
        PaperTables("paper_tables", sweeps=1 if q else 10),
    ]
