"""Sketch-stability sweep — two-stage vs sketched-two-stage conditioning.

A condition-number sweep in the spirit of the paper's Fig. 9: feed
synthetic blocks ``V = X Sigma Y.T`` with prescribed ``kappa(V)``
(Section VI's Logscaled construction) panel-by-panel through

* the paper's :class:`~repro.ortho.two_stage.TwoStageScheme` with
  shifted-Cholesky recovery (its most forgiving configuration), and
* the randomized :class:`~repro.ortho.randomized.SketchedTwoStageScheme`
  whose stage passes are sketch-preconditioned via :mod:`repro.sketch`,

and report the final orthogonality / representation error of each.

Expected shape (the Section IX motivation made quantitative): the
classical scheme is O(eps) up to the BCGS-PIP condition cliff
(kappa ~ eps^{-1/2} ~ 1e8), then the stage-1 Pythagorean Cholesky breaks
down outright — even shift escalation gives up.  The sketched scheme
whitens every panel with a sketch-QR factor before any Cholesky sees it
and stays at O(eps) error up to kappa ~ 1e15 ~ 1/eps, the limit of what
double precision can represent at all.  This is the "converges where the
classical scheme stagnates or breaks down" acceptance claim of the
sketching subsystem; the smoke-size variant runs in
``tests/experiments/test_artifacts.py``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CholeskyBreakdownError
from repro.experiments.common import ExperimentTable, fmt
from repro.ortho import BlockDriver, get_scheme
from repro.ortho.analysis import orthogonality_error
from repro.utils.rng import default_rng, random_with_condition

#: Condition numbers straddling the classical cliff (~1e8) up to the
#: double-precision rank boundary.
KAPPAS = (1e2, 1e6, 1e10, 1e15)


def run_one(scheme_name: str, v: np.ndarray, s: int,
            big_step: int) -> dict:
    """Drive one scheme over ``v``; returns error metrics and status."""
    scheme = get_scheme(scheme_name)(big_step=big_step, breakdown="shift")
    driver = BlockDriver(scheme, s)
    try:
        res = driver.run(v)
    except CholeskyBreakdownError:
        return {"error": float("inf"), "repr": float("inf"),
                "status": "breakdown"}
    err = orthogonality_error(res.q)
    rep = float(np.linalg.norm(res.q @ res.r - v)
                / np.linalg.norm(v))
    status = "ok" if err < 1e-8 else "stagnated"
    return {"error": err, "repr": rep, "status": status}


def run(n: int = 4000, k: int = 30, s: int = 5,
        kappas: "list | tuple" = KAPPAS, seed: int = 7) -> ExperimentTable:
    """Sweep ``kappa(V)``; one row per condition number."""
    rng = default_rng(seed)
    table = ExperimentTable(
        "sketch_stability",
        f"two-stage vs sketched-two-stage orthogonality over kappa(V) "
        f"(n={n}, k={k}, s={s}, bs={k})",
        headers=["kappa", "two-stage err", "status",
                 "sketched err", "status"])
    for kappa in kappas:
        v = random_with_condition(n, k, kappa, rng)
        plain = run_one("two-stage", v, s, big_step=k)
        sketched = run_one("sketched-two-stage", v, s, big_step=k)
        table.add_row(fmt(kappa), fmt(plain["error"]), plain["status"],
                      fmt(sketched["error"]), sketched["status"])
    table.add_note("classical two-stage runs with breakdown='shift' (its "
                   "most forgiving recovery); the stage-1 Pythagorean "
                   "Cholesky still breaks past kappa ~ 1e8")
    table.add_note("sketched-two-stage whitens every stage pass with a "
                   "sketch-QR preconditioner (repro.sketch): O(eps) error "
                   "up to kappa ~ 1/eps")
    return table


QUICK = {"n": 1500}
