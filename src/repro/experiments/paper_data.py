"""The paper's reported numbers (for side-by-side comparison).

Transcribed from Yamazaki et al., IPDPS 2024 (arXiv:2402.15033).  The
experiment harness prints these next to our modeled values, paper vs
measured for every artifact; the iteration counts also feed the
paper-scale time projections (modeled seconds/iteration x paper
iterations).
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Table II — 2D Laplace n = 2000^2 on 4 V100 (Vortex), s = 5, m = 60
# columns: iters, SpMV s, Ortho s, Total s
# ---------------------------------------------------------------------------
TABLE2 = {
    "gmres": dict(iters=60251, spmv=100.1, ortho=150.4, total=249.7),
    "bcgs2": dict(iters=60255, spmv=103.6, ortho=128.6, total=232.3),
    "two_stage_bs5": dict(iters=60255, spmv=103.4, ortho=102.8, total=206.4),
    "two_stage_bs20": dict(iters=60260, spmv=103.7, ortho=96.9, total=201.3),
    "two_stage_bs40": dict(iters=60280, spmv=104.3, ortho=75.2, total=180.2),
    "two_stage_bs60": dict(iters=60300, spmv=103.8, ortho=61.1, total=165.7),
}

# ---------------------------------------------------------------------------
# Table III — strong scaling, 9-pt 2D Laplace n = 2000^2, 6 GPUs/node
# per node count: {config: (iters, spmv, ortho, total)}
# ---------------------------------------------------------------------------
TABLE3_ITERS = {"gmres": 60251, "bcgs2": 60255, "pip2": 60255,
                "two_stage": 60300}

TABLE3 = {
    1: {"gmres": (63.5, 100.2, 164.3), "bcgs2": (64.2, 71.9, 134.1),
        "pip2": (66.2, 54.5, 117.8), "two_stage": (66.6, 32.0, 99.2)},
    2: {"gmres": (38.2, 72.9, 108.5), "bcgs2": (35.2, 43.9, 78.9),
        "pip2": (35.0, 30.1, 65.2), "two_stage": (35.7, 18.8, 54.7)},
    4: {"gmres": (27.7, 59.8, 85.6), "bcgs2": (25.3, 30.8, 57.1),
        "pip2": (25.2, 19.9, 45.4), "two_stage": (27.1, 12.6, 40.2)},
    8: {"gmres": (20.0, 51.9, 70.8), "bcgs2": (20.0, 27.2, 47.0),
        "pip2": (20.1, 16.4, 36.3), "two_stage": (19.5, 10.8, 30.6)},
    16: {"gmres": (17.1, 48.0, 64.3), "bcgs2": (16.7, 22.8, 40.2),
         "pip2": (17.1, 14.1, 30.9), "two_stage": (16.8, 9.3, 26.1)},
    32: {"gmres": (16.0, 46.9, 61.9), "bcgs2": (15.6, 22.3, 38.2),
         "pip2": (15.6, 12.6, 28.1), "two_stage": (16.0, 8.7, 24.5)},
}

# ---------------------------------------------------------------------------
# Table IV — time/iteration (ms) on 16 Summit nodes (96 GPUs)
# per matrix: {config: (iters, spmv_ms, ortho_ms, total_ms)}
# ---------------------------------------------------------------------------
TABLE4 = {
    "Laplace3D": {
        "gmres": (454, 0.36, 0.87, 1.15), "bcgs2": (455, 0.38, 0.43, 0.76),
        "pip2": (455, 0.37, 0.24, 0.60), "two_stage": (480, 0.37, 0.16, 0.52)},
    "Elasticity3D": {
        "gmres": (36, 0.37, 0.80, 1.17), "bcgs2": (40, 0.39, 0.45, 0.88),
        "pip2": (40, 0.37, 0.23, 0.65), "two_stage": (60, 0.33, 0.14, 0.51)},
    "atmosmodl": {
        "gmres": (213, 0.31, 0.79, 1.06), "bcgs2": (215, 0.37, 0.38, 0.79),
        "pip2": (215, 0.31, 0.19, 0.50), "two_stage": (240, 0.35, 0.14, 0.47)},
    "dielFilterV2real": {
        "gmres": (491856, 0.36, 0.99, 1.22),
        "bcgs2": (493145, 0.33, 0.36, 0.66),
        "pip2": (491865, 0.30, 0.19, 0.48),
        "two_stage": (491880, 0.31, 0.11, 0.42)},
    "ecology2": {
        "gmres": (3471536, 0.25, 0.80, 1.04),
        "bcgs2": (3471540, 0.24, 0.34, 0.58),
        "pip2": (3471535, 0.24, 0.18, 0.42),
        "two_stage": (3471540, 0.25, 0.10, 0.36)},
    "ML_Geer": {
        "gmres": (1596564, 0.28, 0.74, 1.00),
        "bcgs2": (1664400, 0.29, 0.37, 0.65),
        "pip2": (1613060, 0.28, 0.20, 0.47),
        "two_stage": (1517460, 0.28, 0.11, 0.39)},
    "thermal2": {
        "gmres": (139188, 0.26, 0.81, 1.06),
        "bcgs2": (139190, 0.26, 0.36, 0.61),
        "pip2": (139190, 0.25, 0.20, 0.44),
        "two_stage": (139200, 0.27, 0.13, 0.39)},
}

#: Table IV structural metadata: (paper_n, nnz_per_row, generator kind)
TABLE4_SHAPES = {
    "Laplace3D": (100 ** 3, 6.9, "stencil3d"),
    "Elasticity3D": (3 * 100 ** 3, 5.7, "elasticity"),
    "atmosmodl": (1_489_752, 6.9, "irregular"),
    "dielFilterV2real": (1_157_456, 41.9, "irregular"),
    "ecology2": (999_999, 5.0, "irregular"),
    "ML_Geer": (1_504_002, 73.7, "irregular"),
    "thermal2": (1_228_045, 7.0, "irregular"),
}

#: Headline claims (abstract): two-stage vs original s-step on 192 GPUs.
HEADLINE = dict(
    ortho_speedup_two_stage_vs_bcgs2=2.6,
    total_speedup_two_stage_vs_bcgs2=1.6,
    ortho_speedup_bcgs2_vs_gmres=2.1,
    total_speedup_bcgs2_vs_gmres=1.8,
)
