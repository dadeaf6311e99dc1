"""What every solver entry point charges, pinned before the restart shell
moved into ``krylov/restart.py``.

One fixed-budget solve per entry point and cycle body (the tolerance is
unreachable and ``maxiter`` caps the work, so the
charge stream follows from shapes and not from last-bit numerics), on a
16 x 16 Laplacian over 4 ranks.  ``GOLDEN`` was recorded AT THE COMMIT
BEFORE the solvers were rewritten on the shared restart core and must
not move: the digest is the sha256 of the kernel-span stream
``(phase, kernel, t0.hex(), t1.hex(), count, payload_bytes)`` followed
by the tracer's per-kernel flop / byte totals; next to it, in readable
form, each result's ``(iterations, restarts, sync_count, len(history))``.
Charges are plain Python float arithmetic on fixed shapes, so neither
the machine, the BLAS nor the engine enters.  An intentional change to
a charge updates the numbers here in the same commit and says why.

The same solves hold the metrics contract: a run's ``metrics_doc()`` and
``repro-trace metrics`` over its export are one computation
(``MetricsSnapshot.of``), so they agree exactly wherever an export is
lossless.

``python tests/krylov/test_restart_golden.py`` prints the table.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from functools import partial

import numpy as np
import pytest

from repro.krylov.adaptive import adaptive_sstep_gmres
from repro.krylov.block import block_sstep_gmres
from repro.krylov.gmres import gmres
from repro.krylov.options import SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.obs.cli import main as trace_main
from repro.obs.export import export_chrome_trace, export_jsonl
from repro.ortho.bcgs import BCGS2Scheme
from repro.ortho.bcgs_pip import BCGSPIP2Scheme
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import generic_cpu
from repro.precision.kernels import MixedPrecisionTwoStageScheme
from repro.parallel.tracing import KERNELS, PHASES
from repro.precond.block_jacobi import BlockJacobiPreconditioner

ENGINES = ["loop", "batched"]
NX, RANKS = 16, 4
UNREACHABLE = 1e-30


def _sstep(scheme_cls=BCGSPIP2Scheme, precond_cls=None, **options):
    def run(sim, b):
        scheme = (TwoStageScheme(20) if scheme_cls is TwoStageScheme
                  else scheme_cls())
        return sstep_gmres(
            sim, b, s=5, restart=20, tol=UNREACHABLE, maxiter=40,
            scheme=scheme,
            precond=None if precond_cls is None else precond_cls(),
            options=SolverOptions(**options))
    return run


def _block(sim, b):
    cols = np.stack([b, np.linspace(1.0, 2.0, sim.n), np.cos(b)], axis=1)
    # the middle member converges at its own cycle and deflates out
    return block_sstep_gmres(sim, cols, s=5, restart=20,
                             tol=[UNREACHABLE, 1e-2, UNREACHABLE],
                             maxiter=40)


#: name -> solve(sim, b); every entry runs at least two restart cycles
CASES = {
    "gmres-cgs2": lambda sim, b: gmres(
        sim, b, restart=10, tol=UNREACHABLE, maxiter=25),
    "gmres-mgs": lambda sim, b: gmres(
        sim, b, restart=10, tol=UNREACHABLE, maxiter=25, variant="mgs"),
    "sstep-bcgs2": _sstep(BCGS2Scheme),
    "sstep-pip2": _sstep(BCGSPIP2Scheme),
    "sstep-two-stage": _sstep(TwoStageScheme),
    "sstep-sketched": _sstep(TwoStageScheme, solve_mode="sketched"),
    # the dd-Gram two-stage scheme, given as ``scheme=``
    "sstep-mixed-two-stage": _sstep(partial(
        MixedPrecisionTwoStageScheme, big_step=20, gram="dd",
        breakdown="shift")),
    "sstep-block-jacobi-auto": _sstep(
        TwoStageScheme, BlockJacobiPreconditioner, mpk_mode="auto"),
    "sstep-block-jacobi-ca": _sstep(
        TwoStageScheme, BlockJacobiPreconditioner, mpk_mode="ca"),
    # the two communication-avoiding matrix powers kernels, and the
    # sketched solve over a scheme that carries no sketch of its own (the
    # solve draws its embedding from the sstep_gmres constants)
    "sstep-ca": _sstep(TwoStageScheme, mpk_mode="ca"),
    "sstep-sketched-pip2": _sstep(BCGSPIP2Scheme, solve_mode="sketched"),
    "block-width3": _block,
    # s = 16 breaks the monomial basis down at once (two checkpoint-less
    # cycles = stalled); s = 8 then spends the budget
    "adaptive-shrinks-s": lambda sim, b: adaptive_sstep_gmres(
        sim, b, s_max=16, restart=16, tol=UNREACHABLE, maxiter=32),
}


def make_sim(engine: str) -> Simulation:
    return Simulation(laplace2d(NX), ranks=RANKS, machine=generic_cpu(),
                      engine=engine, spans=True, metrics=True)


def run_case(name: str, engine: str):
    sim = make_sim(engine)
    return sim, CASES[name](sim, sim.ones_solution_rhs())


def charge_stream(sim: Simulation) -> list[tuple]:
    return [(s.phase, s.name, s.t0.hex(), s.t1.hex(), s.count,
             s.payload_bytes)
            for s in sim.tracer.spans if s.cat == "kernel"]


def fingerprint(sim: Simulation, result) -> tuple[int, str, list[tuple]]:
    results = result if isinstance(result, list) else [result]
    lines = list(map(repr, charge_stream(sim)))
    events = len(lines)
    lines.append(repr(sorted(sim.tracer.flops.items())))
    lines.append(repr(sorted(sim.tracer.mem_bytes.items())))
    return (events, hashlib.sha256("\n".join(lines).encode()).hexdigest(),
            [(r.iterations, r.restarts, r.sync_count, len(r.history))
             for r in results])


# name -> (kernel events, digest, per-result bookkeeping)
GOLDEN: dict[str, tuple[int, str, list[tuple]]] = {
    "gmres-cgs2": (
        330,
        "5977d3cb1271885c6869f71b40ed86c7"
        "a2cb672eda5f1155d97518e556e68d7b",
        [(25, 3, 78, 26)]),
    "gmres-mgs": (
        555,
        "c0cf4f77457f28b3394990845b6fbc7f"
        "d23f363df0e9d68222cf580fb4b23476",
        [(25, 3, 153, 26)]),
    "sstep-bcgs2": (
        244,
        "15dc9d56da0685cadb033c6c67aabcd7"
        "7023c6b88b94152e4b5e2ddb6e693918",
        [(40, 2, 36, 9)]),
    "sstep-pip2": (
        216,
        "4d935fc3bf7c2b9cba4d4f2c4de45060"
        "7b892ab5ace8129e75b97cf27c9ff09c",
        [(40, 2, 18, 9)]),
    "sstep-two-stage": (
        156,
        "16ee2914834209f157715fe61e232e68"
        "094079b8559e9f6a5f2f798799adef7c",
        [(40, 2, 12, 3)]),
    "sstep-sketched": (
        162,
        "78303f9fb372c3e580e2ee12a3cfe843"
        "4d8312d8c416483840d92639d625efd0",
        [(40, 2, 14, 3)]),
    # recorded while ``SolverOptions.precision`` still existed: the same
    # stream as a ``precision="fp64_dd_gram"`` solve, which built this
    # scheme itself
    "sstep-mixed-two-stage": (
        168,
        "83c6f9d8229c8704e3a1acab440e0877"
        "dd7be718d5437dbf9b21e53b19946a54",
        [(40, 2, 18, 3)]),
    # ``auto`` decides by price since it was recorded: a standard cycle
    # prices below a CA one here (1.136e-4 vs 1.395e-4 modeled s for the
    # whole solve), so this is now the explicit ``"standard"`` stream; the
    # stream it had is pinned, unmoved, as the explicit ``"ca"`` case below
    "sstep-block-jacobi-auto": (
        198,
        "c3ee0291aa07464c5db2dec20abdbf9a"
        "cdf8ba8d841d09753ce07a54a53f1bae",
        [(40, 2, 12, 3)]),
    "sstep-block-jacobi-ca": (
        167,
        "c1dcdf143454492d49ecd0d6dbe0a2e8"
        "053bb97d59f488f7e69caa670b49aa64",
        [(40, 2, 12, 3)]),
    # these three were recorded when the sketch family, seed and redraw
    # threshold were still SolverOptions fields, at their defaults
    "sstep-ca": (
        125,
        "5c54a9f8a60c37a182fa1816e164850a"
        "47838d43b208d16ba0a9d1217f1253c4",
        [(40, 2, 12, 3)]),
    "sstep-sketched-pip2": (
        240,
        "6c9ec281e51913eed2d2cfc073a3a1ae"
        "c9865105e3cf2ef9ff697cc8b453fd80",
        [(40, 2, 26, 9)]),
    "block-width3": (
        545,
        "a7f57c0dfae9059413ad5bba52a2ed5f"
        "ce24d53d7493e920368bf0daf65173f7",
        [(40, 2, 18, 9), (20, 1, 10, 5), (40, 2, 18, 9)]),
    "adaptive-shrinks-s": (
        220,
        "7bec3b39a4aa6bf4a53b905cf43122cd"
        "1aa68e639acefa57cc4aacd7dedc7135",
        # sync_count was 10 at the parent, which counted the last attempt
        # alone; the stream above holds 14 allreduces and did not move
        [(32, 3, 14, 6)]),
}


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", list(CASES))
def test_charge_stream_unchanged(name, engine):
    sim, result = run_case(name, engine)
    assert fingerprint(sim, result) == GOLDEN[name]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", list(CASES))
def test_every_row_is_a_listed_phase_and_kernel(name, engine):
    """``tracing.PHASES`` and ``KERNELS`` name what the solvers charge."""
    sim, _ = run_case(name, engine)
    rows = set(sim.tracer.by_kernel)
    assert rows and rows <= set(itertools.product(PHASES, KERNELS))


@pytest.mark.parametrize("name", list(CASES))
def test_result_reads_the_tracer_since_the_call(name):
    """``times`` / ``sync_count`` cover the whole call and nothing else —
    every attempt of the adaptive driver included."""
    sim = make_sim("batched")
    gmres(sim, np.ones(sim.n), restart=4, maxiter=4)  # clock is not at 0
    snap = sim.tracer.snapshot()
    result = CASES[name](sim, sim.ones_solution_rhs())
    totals = sim.tracer.since(snap)
    results = result if isinstance(result, list) else [result]
    # in a block, the member that ran longest saw the whole timeline
    last = max(results, key=lambda r: r.times["total"])
    assert last.times["total"] == totals.clock
    assert last.sync_count == sum(
        count for (_, kernel), count in totals.counts.items()
        if kernel == "allreduce")
    for r in results:
        phases = sum(v for k, v in r.times.items() if k != "total")
        assert phases == pytest.approx(r.times["total"], rel=1e-12)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", list(CASES))
def test_exported_trace_reproduces_the_live_metrics(name, engine, tmp_path,
                                                    capsys):
    """Counted columns and histograms come back exactly from JSONL;
    seconds are span durations (``t1 - t0``; microseconds in the Chrome
    format), so seconds and the gauges built on them come back to
    rounding."""
    sim, _ = run_case(name, engine)
    live = sim.metrics_doc()
    for export, rel in ((export_jsonl, 1e-9), (export_chrome_trace, 1e-6)):
        path = export(tmp_path / f"trace-{export.__name__}", sim.tracer)
        assert trace_main(["metrics", str(path), "--machine", "generic_cpu",
                           "--ranks", str(RANKS)]) == 0
        got = json.loads(capsys.readouterr().out)
        assert (got["machine"], got["ranks"]) == (live["machine"], RANKS)
        assert got["net_bytes"] == live["net_bytes"]
        assert set(got["kernels"]) == set(live["kernels"])
        for key, row in live["kernels"].items():
            for field in ("calls", "flops", "mem_bytes"):
                assert got["kernels"][key][field] == row[field], (key, field)
            assert got["kernels"][key] == pytest.approx(row, rel=rel), key
        for field in ("flops", "mem_bytes", "net_bytes"):
            assert got["totals"][field] == live["totals"][field]
        assert got["totals"] == pytest.approx(live["totals"], rel=rel)
        if export is export_jsonl:
            assert got["histograms"] == live["histograms"]
        assert {k: h["count"] for k, h in got["histograms"].items()} == {
            k: h["count"] for k, h in live["histograms"].items()}
        for kern, hist in live["histograms"].items():
            assert got["histograms"][kern]["sum"] == pytest.approx(
                hist["sum"], rel=rel)


def test_adaptive_case_shrinks_the_step():
    _, result = run_case("adaptive-shrinks-s", "batched")
    assert "[s=16->" in result.scheme


def test_block_case_deflates_a_member():
    _, results = run_case("block-width3", "batched")
    assert results[1].converged and not results[0].converged
    assert results[1].restarts < results[0].restarts


if __name__ == "__main__":
    for case in CASES:
        got = {engine: fingerprint(*run_case(case, engine))
               for engine in ENGINES}
        assert got["loop"] == got["batched"], case
        events, digest, results = got["loop"]
        print(f'    "{case}": (\n        {events},\n'
              f'        "{digest[:32]}"\n        "{digest[32:]}",\n'
              f'        {results}),')
