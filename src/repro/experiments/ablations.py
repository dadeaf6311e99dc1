"""Ablation studies of the reproduction's design choices (A1-A6).

A1  sync-vs-reuse: how much of the two-stage win is fewer reductions
    (latency) vs. wider local GEMMs (data reuse)?  Answered by re-running
    the cost model on a zero-latency machine.
A2  bs grid: Table II's sweep extended to a dense bs grid x node counts.
A3  basis choice: monomial vs Newton vs Chebyshev panel conditioning.
A4  step size s: where does one-stage BCGS-PIP2 break down vs two-stage?
A5  intra-block kernel shootout: HHQR / TSQR / CholQR2 / shifted / dd /
    sketched on one ill-conditioned panel (stability + modeled time).
"""

from __future__ import annotations

import numpy as np

from repro.distla.multivector import DistMultiVector
from repro.exceptions import CholeskyBreakdownError, ConfigurationError, NumericalError
from repro.experiments.common import ExperimentTable, fmt, resolve_machine
from repro.experiments.sweep import PAPER_CONFIGS, strong_scaling, sweep
from repro.krylov.basis import ChebyshevBasis, MonomialBasis, NewtonBasis
from repro.krylov.mpk import MatrixPowersKernel, PreconditionedOperator
from repro.krylov.simulation import Simulation
from repro.matrices.stencil import laplace2d
from repro.matrices.synthetic import glued_matrix, logscaled_matrix
from repro.ortho.analysis import condition_number, orthogonality_error
from repro.ortho.backend import DistBackend
from repro.ortho.base import BlockDriver
from repro.ortho.bcgs_pip import BCGSPIP2Scheme
from repro.ortho.cholqr import CholQR2, MixedPrecisionCholQR, ShiftedCholQR
from repro.ortho.hhqr import HouseholderQR
from repro.ortho.sketched import SketchedCholQR
from repro.ortho.tsqr import TSQRFactor
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.communicator import SimComm
from repro.parallel.tracing import Tracer
from repro.utils.rng import default_rng


# ---------------------------------------------------------------------------
# A1 — latency vs data reuse decomposition of the two-stage win
# ---------------------------------------------------------------------------

def run_sync_vs_reuse(nodes: int = 32, nx: int = 2000, m: int = 60,
                      s: int = 5) -> ExperimentTable:
    mach = resolve_machine("summit")
    zero_lat = mach.with_overrides(net_latency_intra=0.0,
                                   net_latency_inter=0.0,
                                   device_sync_latency=0.0,
                                   kernel_latency=0.0)
    table = ExperimentTable(
        "ablation-A1",
        "Two-stage win split: latency savings vs data-reuse savings "
        f"({nodes} nodes)",
        headers=["machine", "pip2 ortho/cycle", "two-stage ortho/cycle",
                 "speedup"])
    machines = {"summit (full latency)": mach,
                "zero-latency variant": zero_lat}
    grid = [point._replace(key=label) for label, machine in machines.items()
            for point in strong_scaling([nodes], PAPER_CONFIGS[2:], nx, m,
                                        s, machine)]
    for label, ph in sweep(grid).pivot().items():
        pip2, two = ph["pip2"]["ortho"], ph["two_stage"]["ortho"]
        table.add_row(label, fmt(pip2), fmt(two), f"{pip2 / two:.2f}x")
    table.add_note("residual speedup on the zero-latency machine = pure "
                   "data-reuse (wider GEMM) effect; the rest is avoided "
                   "synchronization")
    return table


# ---------------------------------------------------------------------------
# A2 — dense bs grid across node counts
# ---------------------------------------------------------------------------

def run_bs_grid(node_counts: list | None = None, nx: int = 2000,
                m: int = 60, s: int = 5) -> ExperimentTable:
    node_counts = [1, 4, 16, 32] if node_counts is None else node_counts
    bs_values = [b for b in (5, 10, 15, 20, 30, 40, 50, 60) if b % s == 0]
    table = ExperimentTable(
        "ablation-A2", "Ortho seconds/cycle over the (bs, nodes) grid",
        headers=["bs"] + [f"{n} nodes" for n in node_counts])
    configs = tuple((str(bs), "two_stage", bs) for bs in bs_values)
    ortho = sweep(strong_scaling(node_counts, configs, nx, m, s)).pivot()
    for bs in bs_values:
        table.add_row(bs, *(fmt(ortho[n][str(bs)]["ortho"])
                            for n in node_counts))
    table.add_note("paper Table II: monotone improvement with bs, "
                   "best at bs = m")
    return table


# ---------------------------------------------------------------------------
# A3 — basis polynomial vs panel conditioning
# ---------------------------------------------------------------------------

def run_basis_conditioning(nx: int = 40, s_values: list | None = None,
                           seed: int = 3) -> ExperimentTable:
    s_values = s_values or [2, 4, 6, 8, 10, 12]
    sim = Simulation(laplace2d(nx), ranks=2, machine=generic_cpu())
    a = sim.matrix.to_scipy()
    # crude spectral interval for Chebyshev: Gershgorin
    lmax = float(abs(a).sum(axis=1).max())
    bases = {
        "monomial": lambda: MonomialBasis(),
        "newton": lambda: NewtonBasis(
            shifts=np.linspace(0.05 * lmax, 0.95 * lmax, 8)),
        "chebyshev": lambda: ChebyshevBasis(lmax / 100.0, lmax),
    }
    rng = default_rng(seed)
    v0 = rng.standard_normal(sim.n)
    v0 /= np.linalg.norm(v0)
    table = ExperimentTable(
        "ablation-A3",
        f"kappa(V_1) of one s-step panel by basis (2D Laplace {nx}x{nx})",
        headers=["s"] + list(bases))
    for s in s_values:
        row = [s]
        for factory in bases.values():
            basis = sim.zeros(s + 1)
            basis.view_cols(0).assign_from(sim.vector_from(v0))
            mpk = MatrixPowersKernel(PreconditionedOperator(sim.matrix),
                                     factory())
            mpk.extend(basis, 1, s + 1)
            row.append(fmt(condition_number(basis.to_global())))
        table.add_row(*row)
    table.add_note("paper Sec. VI: 'using more stable bases, like Newton "
                   "or Chebyshev bases, could reduce the condition number'")
    return table


# ---------------------------------------------------------------------------
# A4 — step-size stability cliff: one-stage vs two-stage
# ---------------------------------------------------------------------------

def run_step_size_cliff(n: int = 20_000, m: int = 60,
                        panel_cond: float = 1e7, growth: float = 2.0,
                        seed: int = 4) -> ExperimentTable:
    table = ExperimentTable(
        "ablation-A4",
        "Orthogonality error vs step size s (glued matrix, kappa growth "
        f"{growth}/panel)",
        headers=["s", "bcgs-pip2 err", "two-stage(bs=m) err"])
    rng0 = default_rng(seed)
    for s in [2, 5, 10, 15, 30]:
        if m % s:
            continue
        g = glued_matrix(n, s, m // s, panel_cond=panel_cond,
                         growth=growth, rng=default_rng(seed))
        cells = []
        for scheme in (BCGSPIP2Scheme(), TwoStageScheme(big_step=m)):
            try:
                out = BlockDriver(scheme, s).run(g.matrix)
                cells.append(fmt(orthogonality_error(out.q)))
            except CholeskyBreakdownError:
                cells.append("breakdown")
        table.add_row(s, *cells)
    table.add_note("two-stage tolerates the growing prefix conditioning "
                   "because stage 1 keeps the accumulated basis O(1)")
    return table


# ---------------------------------------------------------------------------
# A5 — intra-block kernel shootout
# ---------------------------------------------------------------------------

def run_intra_kernels(n: int = 100_000, k: int = 5,
                      kappas: list | None = None,
                      ranks: int = 24, seed: int = 5) -> ExperimentTable:
    kappas = kappas or [1e4, 1e9, 1e13]
    kernels = [HouseholderQR(), TSQRFactor(), CholQR2(), ShiftedCholQR(),
               MixedPrecisionCholQR(), SketchedCholQR()]
    mach = resolve_machine("summit")
    table = ExperimentTable(
        "ablation-A5",
        f"Intra-block kernels on a {n}x{k} panel ({ranks} ranks, Summit)",
        headers=["kernel"]
                + [f"err@k={fmt(kp)}" for kp in kappas]
                + ["modeled time", "syncs"])
    for kernel in kernels:
        errs = []
        modeled = None
        syncs = None
        for kappa in kappas:
            v = logscaled_matrix(n, k, kappa, default_rng(seed))
            comm = SimComm(mach, ranks, Tracer())
            part = Partition(n, ranks)
            dv = DistMultiVector.from_global(v, part, comm)
            backend = DistBackend(comm)
            try:
                kernel.factor(backend, dv)
                errs.append(fmt(orthogonality_error(dv.to_global())))
            except (CholeskyBreakdownError, NumericalError,
                    ConfigurationError):
                errs.append("breakdown")
            if modeled is None:
                modeled = comm.tracer.clock
                syncs = comm.tracer.sync_count()
        table.add_row(kernel.name, *errs, fmt(modeled), syncs)
    table.add_note("HHQR/TSQR: unconditionally stable but latency-heavy; "
                   "CholQR2 fast but cliffs at eps^-1/2; shifted/dd/sketched "
                   "push the cliff out at modest extra cost")
    return table


# ---------------------------------------------------------------------------
# A6 — step-size strategies: conservative+two-stage vs runtime adaptation
# ---------------------------------------------------------------------------

def run_step_strategies(nx: int = 40, tol: float = 1e-8,
                        maxiter: int = 12_000) -> ExperimentTable:
    """The paper's closing claim, quantified: a conservative s = 5 with
    the two-stage scheme vs an aggressive s recovered by runtime
    adaptation vs the aggressive s left alone."""
    from repro.krylov.adaptive import adaptive_sstep_gmres
    from repro.krylov.sstep_gmres import sstep_gmres

    a = laplace2d(nx)
    table = ExperimentTable(
        "ablation-A6",
        f"Step-size strategies on 2D Laplace {nx}x{nx} (live runs)",
        headers=["strategy", "iters", "converged", "ortho ms", "total ms",
                 "syncs"])
    runs = [
        ("fixed s=15 (untuned, one-stage)",
         lambda sim, b: sstep_gmres(sim, b, s=15, restart=30, tol=tol,
                                    maxiter=maxiter)),
        ("adaptive s (15 -> shrink on breakdown)",
         lambda sim, b: adaptive_sstep_gmres(sim, b, s_max=15, restart=30,
                                             tol=tol, maxiter=maxiter)),
        ("conservative s=5 + two-stage(bs=m)",
         lambda sim, b: sstep_gmres(sim, b, s=5, restart=30, tol=tol,
                                    maxiter=maxiter,
                                    scheme=TwoStageScheme(big_step=30))),
    ]
    for label, solve in runs:
        sim = Simulation(a, ranks=12)
        b = sim.ones_solution_rhs()
        res = solve(sim, b)
        table.add_row(label, res.iterations, "yes" if res.converged else "NO",
                      fmt(res.ortho_time * 1e3), fmt(res.total_time * 1e3),
                      res.sync_count)
    table.add_note("paper Sec. I: the two-stage approach 'alleviates the "
                   "need of fine-tuning the step size' — the conservative "
                   "row matches the adaptive row without any tuning logic")
    return table


RUNS = {"A1": run_sync_vs_reuse, "A2": run_bs_grid,
        "A3": run_basis_conditioning, "A4": run_step_size_cliff,
        "A5": run_intra_kernels, "A6": run_step_strategies}

QUICK = {"A3": {"nx": 20}, "A4": {"n": 5000}, "A5": {"n": 20_000},
         "A6": {"nx": 24}}
