"""CA-MPK vs standard MPK: the latency/bandwidth/redundancy trade-off.

The paper deliberately follows Trilinos in using the *standard* matrix
powers kernel — one halo exchange + local SpMV per basis column — because
the communication-avoiding alternative composes badly with general
preconditioners (Section III).  This experiment measures what that choice
costs: the ghost-zone CA-MPK (:class:`~repro.krylov.mpk
.MatrixPowersKernel` with ``mode="ca"``, after the classic s-step
formulation of Chronopoulos & Kim) pays ONE aggregated deep-halo
exchange per s-panel plus redundant flops on a shrinking ghost region,
where the standard kernel pays ``s`` latency-bound neighbourhood
synchronizations.

Sweep: basis generation for one restart cycle on a 2-D Laplacian, across
machine regimes from bandwidth-dominated to latency-dominated — the
stock presets (generic_cpu / vortex / summit) plus Summit variants with
the inter-node latency and device-sync cost scaled up (the regime of
fat-tree congestion / many-rank collectives where s-step methods are
aimed).  Both kernels produce bit-identical bases (asserted), so the
only difference is the communication profile; the table reports modeled
basis-generation seconds, halo-exchange counts, the redundant-flop
fraction, and the CA speedup.

Expected shape: CA loses (or ties) when bandwidth/compute dominates —
the redundant ghost work buys nothing — and wins increasingly as
per-message latency grows; with a block-Jacobi preconditioner the
block-rounded ghost closure inflates redundant work and pushes the
crossover further out, which is exactly the composition problem the
paper cites.  The ``auto`` column names the kernel ``mpk_mode="auto"``
runs on each row: the one whose cycle the cost model prices cheaper
(:func:`~repro.krylov.mpk.resolve_mpk_mode`).  The smoke-size variant
is asserted in ``tests/experiments/test_ca_mpk_tradeoff.py``.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentTable, fmt
from repro.krylov.basis import MonomialBasis
from repro.krylov.mpk import (MatrixPowersKernel, PreconditionedOperator,
                              resolve_mpk_mode)
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import _panel_bounds
from repro.matrices.stencil import laplace2d
from repro.parallel.machine import MachineSpec, generic_cpu, summit, vortex
from repro.precond.block_jacobi import BlockJacobiPreconditioner
from repro.precond.jacobi import JacobiPreconditioner

#: (label, machine factory) — ordered bandwidth-dominated to
#: latency-dominated.  The scaled variants model congested fat-tree /
#: large-collective regimes: per-hop inter-node latency and the device
#: synchronization both grow, per-link bandwidth stays fixed.
def _summit_lat(scale: float) -> MachineSpec:
    m = summit()
    return m.with_overrides(
        name=f"summit_lat{scale:g}x",
        net_latency_inter=m.net_latency_inter * scale,
        device_sync_latency=m.device_sync_latency * scale)


REGIMES = (
    ("generic_cpu", generic_cpu),
    ("vortex", vortex),
    ("summit", summit),
    ("summit_lat4x", lambda: _summit_lat(4.0)),
    ("summit_lat16x", lambda: _summit_lat(16.0)),
)

PRECONDS = {
    "none": lambda: None,
    "jacobi": JacobiPreconditioner,
    "block_jacobi": BlockJacobiPreconditioner,
}


def generate_basis(machine: MachineSpec, mode: str, *, nx: int, ranks: int,
                   s: int, restart: int, precond_name: str = "none",
                   seed: int = 0, engine: str | None = None) -> dict:
    """One full restart cycle of MPK panels; returns time/count stats
    and the ``mode`` that ran — ``"auto"`` resolves as the solver's does
    (``engine`` goes to the :class:`Simulation` built here)."""
    sim = Simulation(laplace2d(nx), ranks=ranks, machine=machine,
                     engine=engine)
    pc = PRECONDS[precond_name]()
    if pc is not None:
        pc.setup(sim.matrix)
    op = PreconditionedOperator(sim.matrix, pc)
    bounds = _panel_bounds(s, restart + 1)
    mode = resolve_mpk_mode(op, mode, MonomialBasis(), bounds)
    mpk = MatrixPowersKernel(op, MonomialBasis(), mode=mode)
    basis = sim.zeros(restart + 1)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(sim.n)
    v0 /= np.linalg.norm(v0)
    basis.view_cols(0).assign_from(sim.vector_from(v0))
    snap = sim.tracer.snapshot()
    for lo, hi in bounds:
        mpk.extend(basis, max(lo, 1), hi)
    # the machine-readable snapshot is the source of truth; the named
    # scalars below are views into it for the table renderer
    doc = sim.tracer.since(snap).to_dict()
    halo = sum(c for key, c in doc["counts"].items()
               if key.endswith("/halo"))
    halo_seconds = sum(v for key, v in doc["by_kernel"].items()
                       if key.endswith("/halo"))
    stats = {
        "mode": mode,
        "basis": basis.to_global(),
        "totals": doc,
        "seconds": doc["clock"],
        "halo_count": halo,
        "halo_seconds": halo_seconds,
        "spmv_seconds": doc["by_phase"].get("spmv", 0.0),
        "precond_seconds": doc["by_phase"].get("precond", 0.0),
    }
    if mode == "ca":
        plan = sim.matrix.ghost_plan(
            s, op.ghost_expand if pc is not None else "pointwise")
        owned = plan.partition.counts.astype(np.float64)
        redundant = plan.level_rows[:, :-1].sum(axis=1) - owned * s
        stats["redundant_frac"] = float(redundant.max()
                                        / max(owned.max() * s, 1.0))
    return stats


def run(nx: int = 48, ranks: int = 24, s: int = 5, restart: int = 30,
        precond_name: str = "none", regimes=REGIMES) -> ExperimentTable:
    """Sweep the machine regimes; one table row per regime."""
    table = ExperimentTable(
        "ca_mpk_tradeoff",
        f"standard vs communication-avoiding MPK, one restart cycle "
        f"(laplace2d({nx}), p={ranks}, s={s}, m={restart}, "
        f"precond={precond_name})",
        headers=["machine", "std s", "ca s", "ca speedup",
                 "halo std", "halo ca", "std halo s", "ca halo s",
                 "redundant", "auto"])
    for label, factory in regimes:
        # auto runs one of the two kernels; the other one runs named
        auto = generate_basis(factory(), "auto", nx=nx, ranks=ranks, s=s,
                              restart=restart, precond_name=precond_name)
        runs = {auto["mode"]: auto}
        for mode in ("standard", "ca"):
            if mode not in runs:
                runs[mode] = generate_basis(
                    factory(), mode, nx=nx, ranks=ranks, s=s,
                    restart=restart, precond_name=precond_name)
        std, ca = runs["standard"], runs["ca"]
        if not np.array_equal(std["basis"], ca["basis"]):
            raise AssertionError(
                f"CA basis diverged from standard on {label}")
        table.add_row(
            label, fmt(std["seconds"]), fmt(ca["seconds"]),
            f"{std['seconds'] / ca['seconds']:.2f}x",
            std["halo_count"], ca["halo_count"],
            fmt(std["halo_seconds"]), fmt(ca["halo_seconds"]),
            f"{ca.get('redundant_frac', 0.0):.1%}", auto["mode"])
    table.add_note("both kernels generate bit-identical bases (asserted "
                   "per row); the table isolates the communication/"
                   "redundancy trade-off")
    table.add_note("halo std/ca = neighbourhood exchanges per cycle: s per "
                   "panel (standard) vs 1 per panel (CA)")
    table.add_note("redundant = worst-rank ghost-ring rows recomputed, as "
                   "a fraction of owned-row work across the cycle")
    table.add_note("auto = the mode mpk_mode='auto' runs: the one whose "
                   "cycle the cost model prices cheaper, charging nothing "
                   "(the ca price, like ca s, holds the plans' one-time "
                   "analysis)")
    table.add_note("summit_latNx = Summit with inter-node hop latency and "
                   "device-sync cost scaled N times (congested-network / "
                   "large-collective regime)")
    return table


QUICK = {"nx": 24, "ranks": 8}
