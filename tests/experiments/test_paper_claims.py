"""The paper's claims, asserted on live code: one test id per claim.

Every table and figure of Yamazaki et al. (arXiv:2402.15033) that the
experiment harness regenerates, plus this reproduction's ablations, is
run once (at a size where the whole module costs tier-1 a few seconds)
and judged claim by claim; a failure's id and message are the claim.
The estimator-backed artifacts (Tables III/IV, Figs. 10-13) are judged
at every row the paper prints, on views of the frame their own grid
sweeps to (``repro.experiments.sweep``), and Tables III/IV also carry ceilings on
the five speed-up errors the repo benchmark reports (``t3_*`` /
``t4_*`` in ``BENCHMARK.json``) — a ceiling may only ever be lowered.
Fig. 8 alone also runs at its bench size (n = 20000, 36 panels) under
the ``slow`` marker, next to a twin of 3000 rows and 18 panels.
"""

from __future__ import annotations

import functools

import pytest

from repro.experiments import (
    ablations,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10_12,
    fig13,
    table2,
    table4,
)
from repro.experiments.estimator import CONFIGS
from repro.experiments.paper_data import TABLE3, TABLE3_ITERS, TABLE4
from repro.experiments.sweep import PAPER_CONFIGS, strong_scaling, sweep
from repro.krylov.options import SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.ortho.bcgs_pip import BCGSPIP2Scheme
from repro.ortho.randomized import SketchedTwoStageScheme
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import generic_cpu

NODES = tuple(TABLE3)  # 1 .. 32: Figs. 10-13 sweep Table III's node counts
M = 60                # the paper's restart length

CLAIMS: list = []


def claims(artifact: str, run, marks=()):
    """Register a generator of ``(claim, holds)`` pairs as one test per
    claim; ``holds(result)`` judges the result of ``run()``, which is
    computed once however many claims and artifacts share it."""
    def register(pairs):
        CLAIMS.extend(
            pytest.param(run, holds, marks=marks, id=f"{artifact}: {claim}")
            for claim, holds in pairs())
        return pairs
    return register


result_of = functools.cache(lambda run: run())


def ordered(times: dict, what: str) -> bool:
    """GMRES > BCGS2 > BCGS-PIP2 > two-stage in ``what``."""
    return all(times[a][what] > times[b][what]
               for a, b in zip(CONFIGS, CONFIGS[1:]))


def speedup(times: dict, base: str, what: str) -> float:
    return times[base][what] / times["two_stage"][what]


def speedup_error(ours: dict, paper: dict, base: str, what: str,
                  column: int) -> float:
    """Over the rows of a table: our ``base`` / two-stage ratio of
    ``what`` against the same ratio of the paper's ``column``, largest
    relative error — the repo benchmark's ``t3_*`` / ``t4_*`` metrics."""
    return max(abs(speedup(ours[k], base, what)
                   / (paper[k][base][column] / paper[k]["two_stage"][column])
                   - 1.0)
               for k in paper)


# ----------------------------------------------------------------------
# numerics figures
@claims("fig6", lambda: fig6.run(n=20_000, seeds=3,
                                 kappas=[1e2, 1e4, 1e6, 1e10]).rows)
def fig6_claims():
    yield ("CholQR first-pass error grows as kappa^2",
           lambda r: float(r[0][2]) < float(r[1][2]) < float(r[2][2]))
    # past the cliff CholQR either breaks down or the surviving
    # factorization has lost all orthogonality (err1 ~ 1)
    yield ("CholQR unusable past kappa ~ eps^-1/2",
           lambda r: not r[3][6].startswith("0/")
           or (r[3][1] != "-" and float(r[3][1]) > 1e-3))
    yield ("CholQR2 reaches O(eps) under condition (1)",
           lambda r: float(r[2][5]) < 1e-13)


@claims("fig7", lambda: fig7.run(n=2_000, seeds=3,
                                 kappas=[1e2, 1e5, 1e7]).rows)
def fig7_claims():
    for i, kappa in enumerate(("1e2", "1e5", "1e7")):
        yield (f"kappa(Qhat) = O(1) after first BCGS-PIP pass "
               f"(kappa {kappa})", lambda r, i=i: float(r[i][1]) < 10.0)
    yield ("BCGS-PIP2 reaches O(eps) (Theorem IV.2)",
           lambda r: float(r[2][3]) < 1e-13)
    yield ("single-pass error grows with kappa",
           lambda r: float(r[0][2]) < float(r[2][2]))


# paper parameters (n, m, bs, s) = (100000, 180, 60, 5), scaled down
@claims("fig8", lambda: fig8.run(n=3_000, m=90, bs=30, s=5))
@claims("fig8 at n=20000", lambda: fig8.run(n=20_000, m=180, bs=60, s=5),
        marks=pytest.mark.slow)
def fig8_claims():
    # raw prefix conditioning grows geometrically (2^{j-1} * 1e7) ...
    yield ("raw glued prefix conditioning blows up",
           lambda t: float(t.rows[-1][1]) > 1e9)
    # ... but stage 1 keeps the accumulated basis O(1)
    yield ("stage-1 pre-processing keeps kappa O(1) (Theorem V.1)",
           lambda t: max(float(r[2]) for r in t.rows) < 10.0)
    yield ("two-stage final error O(eps) (Fig. 8b)",
           lambda t: float(t.notes[0].split("=")[1].split("(")[0]) < 1e-12)


FIG9_MODERATE = ("offshore", "stomach")
FIG9_HARD = ("Ga41As41H72", "HTC_336_4438")  # the paper's (9) violators


@claims("fig9", lambda: {r[0]: r for r in fig9.run(
    run_n=4_000, m=30, s=5, bs=30,
    matrices=[*FIG9_MODERATE, *FIG9_HARD]).rows})
def fig9_claims():
    def moderate_max(r):
        return max(float(r[name][4]) for name in FIG9_MODERATE)

    for name in (*FIG9_MODERATE, *FIG9_HARD):
        yield (f"{name}: final ortho error O(eps) (Fig. 9c)",
               lambda r, name=name: float(r[name][5]) < 1e-10)
    yield ("moderate matrices satisfy condition (9) (Fig. 9b)",
           lambda r: moderate_max(r) < 1e4)
    for name in FIG9_HARD:
        yield (f"{name}: accumulated panel conditioning violates (9)",
               lambda r, name=name: float(r[name][4]) > 10 * moderate_max(r))
    yield ("raw MPK chains degenerate without pre-processing (Fig. 9a)",
           lambda r: min(float(row[3]) for row in r.values()) > 1e8)


# ----------------------------------------------------------------------
# performance tables and figures (cycle-cost estimator x paper iterations)
TABLE2_ORDER = ("gmres", "bcgs2", "two_stage_bs5", "two_stage_bs20",
                "two_stage_bs40", "two_stage_bs60")


@claims("table2", lambda: {r[0]: {"ortho": float(r[3]), "total": float(r[4])}
                           for r in table2.run().rows})
def table2_claims():
    for a, b in zip(TABLE2_ORDER, TABLE2_ORDER[1:]):
        for what in ("ortho", "total"):
            yield (f"{what}({a}) > {what}({b})",
                   lambda t, a=a, b=b, what=what: t[a][what] > t[b][what])
    # bs=60 cuts ortho vs bs=5 by ~1.7x in the paper
    yield ("bs=m vs bs=s ortho factor in paper ballpark",
           lambda t: 1.2 < (t["two_stage_bs5"]["ortho"]
                            / t["two_stage_bs60"]["ortho"]) < 3.5)


@claims("table2 measured", lambda: table2.measured_iterations(nx=48,
                                                               maxiter=20_000))
def table2_iteration_quantization_claims():
    yield ("two-stage(bs=60) converges on a big-panel boundary",
           lambda it: it["two_stage_bs60"] % 60 == 0)
    yield ("bs=5 converges on a panel boundary",
           lambda it: it["two_stage_bs5"] % 5 == 0)
    yield ("standard GMRES stops earliest (any iteration)",
           lambda it: it["gmres"] <= it["two_stage_bs60"])


def table3_times() -> dict:
    """``nodes -> config ->`` SpMV / Ortho / Total seconds of a run."""
    return sweep(strong_scaling(NODES, PAPER_CONFIGS)).per_run(TABLE3_ITERS, M)


@claims("table3", table3_times)
def table3_claims():
    for n in NODES:
        yield (f"ortho ordering at {n} nodes",
               lambda t, n=n: ordered(t[n], "ortho"))
        yield (f"two-stage beats BCGS2 and BCGS-PIP2 in both Ortho and "
               f"Total at {n} nodes, as in the paper's own rows",
               lambda t, n=n: all(
                   speedup(t[n], base, what) > 1.0
                   and TABLE3[n][base][col] > TABLE3[n]["two_stage"][col]
                   for what, col in (("ortho", 1), ("total", 2))
                   for base in ("bcgs2", "pip2")))
    # the advantage over BCGS-PIP2 holds as the latency share grows;
    # paper: 1.7x at 1 node -> ~1.4-1.7x at scale
    for n, unit in ((1, "node"), (32, "nodes")):
        yield (f"two-stage vs PIP2 factor at {n} {unit}",
               lambda t, n=n: 1.2 < speedup(t[n], "pip2", "ortho") < 3.0)
    yield ("two-stage total speedup grows with node count",
           lambda t: speedup(t[32], "gmres", "total")
           > speedup(t[1], "gmres", "total"))
    yield ("1-node total speedup near paper's 1.7x",
           lambda t: 1.4 < speedup(t[1], "gmres", "total") < 2.2)
    yield ("32-node total speedup near paper's 2.5x",
           lambda t: 2.0 < speedup(t[32], "gmres", "total") < 3.4)
    for base, what, col, ceiling in (("bcgs2", "ortho", 1, 0.40),
                                     ("pip2", "ortho", 1, 0.27),
                                     ("bcgs2", "total", 2, 0.11),
                                     ("pip2", "total", 2, 0.17)):
        yield (f"t3_{what}_vs_{base}_err <= {ceiling}",
               lambda t, base=base, what=what, col=col, ceiling=ceiling:
               speedup_error(t, TABLE3, base, what, col) <= ceiling)


def breakdowns() -> dict:
    """Figs. 10-12: ``nodes -> scheme ->`` ortho-time breakdown."""
    schemes = tuple((s, s, None) for s in fig10_12.SCHEMES.values())
    return fig10_12.breakdowns(sweep(strong_scaling(NODES, schemes)), M)


@claims("fig10", breakdowns)
def fig10_claims():
    def dot_share(b, n):
        return b[n]["bcgs2"]["dot"] / b[n]["bcgs2"]["total"]

    # paper Fig. 10b: the reduce-bearing share dominates at scale
    yield ("dot-product share grows with node count",
           lambda b: dot_share(b, 32) > dot_share(b, 1))
    yield ("dot-products dominate at 32 nodes",
           lambda b: dot_share(b, 32) > 0.5)


@claims("fig11", breakdowns)
def fig11_claims():
    # 5 syncs -> 2 per s steps + fewer Gram passes
    for n in NODES:
        for what, claim in (("dot", "dot time < BCGS2 dot time"),
                            ("total", "total ortho < BCGS2")):
            yield (f"PIP2 {claim} at {n} nodes",
                   lambda b, n=n, what=what:
                   b[n]["pip2"][what] < b[n]["bcgs2"][what])


@claims("fig12", breakdowns)
def fig12_claims():
    # paper: the two-stage approach "avoids these global reduces and
    # further reduced the orthogonalization time"
    for n in NODES:
        for what, claim in (("reduce_only", "reduce-only time"),
                            ("total", "total ortho")):
            yield (f"two-stage {claim} < PIP2 at {n} nodes",
                   lambda b, n=n, what=what:
                   b[n]["two_stage"][what] < b[n]["pip2"][what])


@claims("table4", lambda: sweep(table4.grid()).per_iteration(M))
def table4_claims():
    for mat in TABLE4:
        yield (f"{mat}: per-iteration ortho ordering (Table IV)",
               lambda t, mat=mat: ordered(t[mat], "ortho"))
        # paper: total speedups of the two-stage approach 2.2x-2.9x
        yield (f"{mat}: two-stage total speedup in the paper's band",
               lambda t, mat=mat:
               1.8 < speedup(t[mat], "gmres", "total") < 3.6)
    yield ("t4_total_vs_bcgs2_err <= 0.18",
           lambda t: speedup_error(t, TABLE4, "bcgs2", "total", 3) <= 0.18)


@claims("fig13", lambda: (sweep(fig13.grid(NODES)).per_iteration(M),
                          result_of(table3_times)[32]))
def fig13_claims():
    """``(preconditioned times per node count, Table III at 32 nodes)``."""
    for n in NODES:
        yield (f"preconditioned ortho ordering at {n} nodes",
               lambda r, n=n: ordered(r[0][n], "ortho"))
    # the preconditioner inflates the non-ortho share
    yield ("preconditioning shrinks the total-time speedup (paper Fig. 13)",
           lambda r: speedup(r[0][32], "gmres", "total")
           < speedup(r[1], "gmres", "total"))
    yield ("two-stage still wins overall with GS precond",
           lambda r: speedup(r[0][32], "gmres", "total") > 1.2)


# ----------------------------------------------------------------------
# ablations
@claims("ablation A1", lambda: [float(r[3].rstrip("x")) for r in
                                ablations.run_sync_vs_reuse().rows])
def sync_vs_reuse_claims():
    """Two-stage / PIP2 speed-up on ``(summit, its zero-latency twin)``:
    what survives without latency is the wider-GEMM data reuse."""
    yield ("data-reuse alone still favors two-stage", lambda s: s[1] > 1.05)
    yield ("synchronization avoidance adds on top", lambda s: s[0] > s[1])


GRID_NODES = (1, 4, 16, 32)


@claims("ablation A2",
        lambda: ablations.run_bs_grid(node_counts=list(GRID_NODES)).rows)
def bs_grid_claims():
    # Monotonicity holds over bs values that divide m; ragged last big
    # panels (bs = 40, 50 with m = 60) pay an extra partial second stage —
    # a real effect the paper's divisor-only sweep never exposes.
    def monotone(rows, col):
        series = [float(r[col]) for r in rows if 60 % int(r[0]) == 0]
        return all(b <= a * 1.0001 for a, b in zip(series, series[1:]))

    for col, n in enumerate(GRID_NODES, start=1):
        yield (f"ortho time monotone in divisor bs ({n} nodes)",
               lambda rows, col=col: monotone(rows, col))
        yield (f"bs = m is the global optimum ({n} nodes)",
               lambda rows, col=col:
               min(float(r[col]) for r in rows) == float(rows[-1][col]))


@claims("ablation A3", lambda: ablations.run_basis_conditioning(
    nx=24, s_values=[4, 8, 12]).rows)
def basis_claims():
    yield ("Chebyshev basis conditions far better than monomial at s=12",
           lambda r: float(r[-1][3]) < float(r[-1][1]) / 10.0)
    yield ("monomial kappa grows with step size",
           lambda r: float(r[0][1]) < float(r[-1][1]))


@claims("ablation A4", lambda: {r[0]: r[1:] for r in
                                ablations.run_step_size_cliff(n=1_000).rows})
def step_size_claims():
    """``s -> (BCGS-PIP2 error, two-stage error)``."""
    yield ("s=5 stable for one-stage and two-stage",
           lambda r: all(cell != "breakdown" and float(cell) < 1e-12
                         for cell in r[5]))
    for s in (2, 5, 10, 15, 30):
        yield (f"two-stage never broke where one-stage survived (s={s})",
               lambda r, s=s: r[s][0] == "breakdown" or r[s][1] != "breakdown")


@claims("ablation A5", lambda: {r[0]: r for r in ablations.run_intra_kernels(
    n=20_000, kappas=[1e4, 1e13]).rows})
def intra_kernel_claims():
    def survives(cell, bound):
        return cell != "breakdown" and float(cell) < bound

    for name in ("hhqr", "tsqr"):
        yield (f"{name} stable at kappa 1e13",
               lambda r, name=name: survives(r[name][2], 1e-11))
    # far past the eps^{-1/2} cliff
    yield ("CholQR2 breaks down at kappa 1e13",
           lambda r: r["cholqr2"][2] == "breakdown")
    for name in ("shifted_cholqr3", "mixed_precision_cholqr",
                 "sketched_cholqr"):
        yield (f"{name} survives kappa 1e13",
               lambda r, name=name: survives(r[name][2], 1e-9))
    # HHQR is latency-bound, CholQR2 the fastest
    yield ("HHQR modeled time > CholQR2 (paper Sec. IV-A)",
           lambda r: float(r["hhqr"][3]) > float(r["cholqr2"][3]))
    yield ("HHQR synchronizes far more than CholQR2",
           lambda r: int(r["hhqr"][4]) > int(r["cholqr2"][4]))


@claims("ablation A6", lambda: {r[0].split(" ")[0]: r for r in
                                ablations.run_step_strategies(
                                    nx=32, maxiter=8_000).rows})
def step_strategy_claims():
    yield ("untuned s=15 breaks down (the tuning problem is real)",
           lambda r: r["fixed"][2] == "NO")
    yield ("adaptive step size recovers",
           lambda r: r["adaptive"][2] == "yes")
    yield ("conservative s + two-stage converges without tuning",
           lambda r: r["conservative"][2] == "yes")
    yield ("two-stage needs no more syncs than runtime adaptation",
           lambda r: int(r["conservative"][5]) <= int(r["adaptive"][5]))


# ----------------------------------------------------------------------
# live solves: the classical pipeline and the randomized solve path
def _solves() -> dict:
    def solve(scheme, options=None):
        sim = Simulation(laplace2d(24), ranks=8, machine=generic_cpu())
        return sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=30,
                           tol=1e-8, maxiter=6_000, scheme=scheme,
                           options=options)

    return {"two_stage": solve(TwoStageScheme(big_step=30)),
            "pip2": solve(BCGSPIP2Scheme()),
            "sketched": solve(SketchedTwoStageScheme(big_step=30, fused=True),
                              SolverOptions(solve_mode="sketched"))}


@claims("sstep_gmres", _solves)
def solver_claims():
    def syncs_per_iteration(res):
        return res.sync_count / max(res.iterations, 1)

    yield ("two-stage s-step GMRES converges on the Laplacian",
           lambda r: r["two_stage"].converged)
    yield ("BCGS-PIP2 s-step GMRES converges", lambda r: r["pip2"].converged)
    yield ("two-stage charges fewer synchronizations per iteration than "
           "one-stage BCGS-PIP2 (the paper's core claim)",
           lambda r: syncs_per_iteration(r["two_stage"])
           < syncs_per_iteration(r["pip2"]))
    yield ("randomized GMRES converges on the Laplacian",
           lambda r: r["sketched"].converged)
    yield ("sketched solve path emits diagnostics",
           lambda r: r["sketched"].diagnostics.get("solve_mode") == "sketched")
    yield ("fused single-collective stage passes keep the sketched solve "
           "in the same synchronization regime as the classical two-stage",
           lambda r: syncs_per_iteration(r["sketched"])
           <= 1.5 * syncs_per_iteration(r["two_stage"]))


@pytest.mark.parametrize("run, holds", CLAIMS)
def test_paper_claim(run, holds, request):
    assert holds(result_of(run)), (
        f"paper claim not reproduced: {request.node.callspec.id}")
