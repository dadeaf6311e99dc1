#!/usr/bin/env python
"""CI smoke for the multiprocessing execution backend.

Runs one small s-step GMRES solve on ``backend="sim"`` and again on
``backend="mp"`` (every rank a real OS process over shared memory) and
asserts the executor's contract:

* the solutions are **bit-identical** — the mp reductions fold in the
  exact recursive-doubling pair order the planner models;
* MpComm's modeled twin tracer charged **exactly** the seconds the sim
  run predicts;
* the measured tracer actually recorded wall clock in every phase the
  solve touched;
* the one reduction transport runs all its modes — a fold that outgrows
  the slab, a later one that reuses it, a double-double reduction, and
  a fused call of several groups — each byte-identical to the
  simulator;
* the driver-side kernels — TSQR of one 6-column panel and one Gaussian
  sketch — give byte-identical R, Q and sketch on both backends, and
  their table-priced charges leave the modeled twin equal to the sim
  tracer;
* on a ragged partition (rank count not dividing ``n``) the flat storage
  of a multivector still comes back shared-memory backed, and the solve
  stays bit-identical with an exactly equal modeled twin;
* a block-Jacobi preconditioned solve through the CA matrix powers
  kernel (``mpk_mode="ca"``, so a ghost closure with ``expand="block"``)
  on that ragged partition is bit-identical too, with an equal modeled
  clock.

Deliberately NOT a pytest file: CI runs it as a separate step under a
hard ``timeout`` so a deadlocked worker (the characteristic failure
mode of barrier/pipe bugs) kills the step instead of hanging the whole
test job.

Usage: PYTHONPATH=src python scripts/mp_smoke.py
"""

from __future__ import annotations

import sys

import numpy as np


def transport_failures() -> list[str]:
    """Drive every mode of MpComm's fold against SimComm."""
    from repro.dd.linalg import matmul_dd
    from repro.parallel.api import make_comm

    rng = np.random.default_rng(0)
    wide = rng.standard_normal((3, 70, 70))  # outgrows a first slab
    small = [rng.standard_normal((2, 2)) for _ in range(3)]
    fused = [wide[:, :4, :4], small, [float(r) for r in range(3)]]
    pairs = [matmul_dd(rng.standard_normal((6, 2)),
                       rng.standard_normal((6, 2))) for _ in range(3)]
    his, los = [p[0] for p in pairs], [p[1] for p in pairs]

    def drive(comm):
        out = {"first fold": comm.allreduce([small]),
               "slab growth": comm.allreduce([wide]),
               "slab reuse": comm.allreduce([wide]),
               "allreduce_dd": comm.allreduce_dd(his, los),
               "fused": comm.allreduce(fused)}
        return {k: b"".join(a.tobytes() for a in v) for k, v in out.items()}

    with make_comm("sim", size=3) as sim, make_comm("mp", size=3) as mp:
        want, got = drive(sim), drive(mp)
        failures = [f"mp {name} is not bit-identical to sim"
                    for name in want if got[name] != want[name]]
        if mp.modeled.snapshot() != sim.tracer.snapshot():
            failures.append("mp modeled twin differs from the sim charges")
    return failures


def driver_side_failures() -> list[str]:
    """TSQR of one panel and one Gaussian sketch on both backends."""
    from repro.distla.multivector import DistMultiVector
    from repro.krylov.simulation import Simulation
    from repro.matrices.stencil import laplace2d
    from repro.sketch import make_operator, sketch_multivector

    a = laplace2d(12)
    panel = np.random.default_rng(1).standard_normal((a.shape[0], 6))

    def drive(backend):
        with Simulation(a, ranks=3, backend=backend) as sim:
            v = DistMultiVector.from_global(panel, sim.partition, sim.comm)
            r = sim.backend.tsqr(v)
            op = make_operator("gaussian", sim.n, 16, seed=3)
            out = {"R": r.tobytes(), "Q": v.to_global().tobytes(),
                   "sketch": sketch_multivector(v, op).tobytes()}
            return out, sim.comm.modeled.snapshot()

    (want, sim_charges), (got, mp_charges) = drive("sim"), drive("mp")
    failures = [f"mp driver-side {name} is not bit-identical to sim"
                for name in want if got[name] != want[name]]
    if mp_charges != sim_charges:
        failures.append("mp modeled twin differs from the sim charges of "
                        "TSQR and the sketch")
    return failures


def block_ca_failures() -> list[str]:
    """Block-Jacobi through the CA-MPK on 5 ragged ranks, both backends."""
    from repro.krylov.options import SolverOptions
    from repro.krylov.simulation import Simulation
    from repro.krylov.sstep_gmres import sstep_gmres
    from repro.matrices.stencil import laplace2d
    from repro.ortho.two_stage import TwoStageScheme
    from repro.precond import BlockJacobiPreconditioner

    a = laplace2d(24)

    def solve(backend):
        with Simulation(a, ranks=5, backend=backend) as sim:
            res = sstep_gmres(
                sim, np.ones(a.shape[0]), s=3, restart=12, tol=1e-8,
                scheme=TwoStageScheme(12),
                precond=BlockJacobiPreconditioner().setup(sim.matrix),
                options=SolverOptions(mpk_mode="ca"))
            clock = (sim.comm.modeled.clock if backend == "mp"
                     else sim.tracer.clock)
        return res, clock

    (want, want_clock), (got, got_clock) = solve("sim"), solve("mp")
    failures = []
    if not want.converged:
        failures.append("block-Jacobi CA-MPK sim solve did not converge")
    if want.diagnostics.get("mpk_mode") != "ca":
        failures.append("block-Jacobi solve did not run the CA-MPK")
    if got.x.tobytes() != want.x.tobytes():
        failures.append("block-Jacobi CA-MPK mp solution is not "
                        "bit-identical to sim")
    if got_clock != want_clock:
        failures.append(f"block-Jacobi CA-MPK mp modeled twin clock "
                        f"{got_clock!r} != sim clock {want_clock!r}")
    return failures


def main() -> int:
    from repro.krylov.options import SolverOptions
    from repro.krylov.simulation import Simulation
    from repro.krylov.sstep_gmres import sstep_gmres
    from repro.matrices.stencil import laplace2d
    from repro.ortho.two_stage import TwoStageScheme

    a = laplace2d(24)
    b = np.ones(a.shape[0])
    opts = SolverOptions(mpk_mode="auto")

    failures = (transport_failures() + driver_side_failures()
                + block_ca_failures())

    def solve(backend, ranks=4):
        with Simulation(a, ranks=ranks, backend=backend) as sim:
            if backend == "mp":
                from repro.distla.multivector import DistMultiVector
                probe = DistMultiVector.zeros(sim.partition, sim.comm, 2)
                if sim.comm._describe(probe.flat) is None:
                    failures.append(f"{ranks} ranks: flat multivector "
                                    "storage is not in shared memory")
            res = sstep_gmres(sim, b, s=3, restart=12, tol=1e-8,
                              scheme=TwoStageScheme(12), options=opts)
            if backend == "mp" and (not sim.comm.modeled.flops
                                    or sim.tracer.flops):
                failures.append(f"{ranks} ranks: flops / bytes belong on "
                                "the modeled twin and nowhere else")
            modeled = (sim.comm.modeled.clock if backend == "mp"
                       else sim.tracer.clock)
            measured_phases = (dict(sim.tracer.by_phase)
                               if backend == "mp" else {})
        return res, modeled, measured_phases

    res_sim, clock_sim, _ = solve("sim")
    res_mp, clock_mp, measured = solve("mp")
    # 576 rows on 5 ranks: ragged shards, no (ranks, rows, k) stack
    ragged_sim, ragged_clock_sim, _ = solve("sim", ranks=5)
    ragged_mp, ragged_clock_mp, _ = solve("mp", ranks=5)
    if ragged_mp.x.tobytes() != ragged_sim.x.tobytes():
        failures.append("ragged mp solution is not bit-identical to sim")
    if ragged_clock_mp != ragged_clock_sim:
        failures.append(f"ragged mp modeled twin clock {ragged_clock_mp!r} "
                        f"!= sim clock {ragged_clock_sim!r}")

    if not res_sim.converged:
        failures.append("sim solve did not converge")
    if res_mp.x.tobytes() != res_sim.x.tobytes():
        failures.append("mp solution is not bit-identical to sim")
    if clock_mp != clock_sim:
        failures.append(
            f"mp modeled twin clock {clock_mp!r} != sim clock {clock_sim!r}")
    for phase in ("spmv", "ortho"):
        if measured.get(phase, 0.0) <= 0.0:
            failures.append(f"no measured wall clock in phase {phase!r}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    wall = sum(measured.values())
    print(f"mp smoke OK: {res_mp.iterations} iterations bit-identical "
          f"across backends (and {ragged_mp.iterations} on a ragged "
          f"partition, block-Jacobi CA-MPK included); modeled "
          f"{clock_sim:.4g}s, "
          f"measured {wall:.4g}s wall")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
