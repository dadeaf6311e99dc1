"""Fig. 9 — conditioning of MPK-generated bases on SuiteSparse surrogates.

Paper setup: scaled "positive indefinite" matrices (n in 2e5..3e5) from
SuiteSparse; monomial MPK generates the basis, interleaved with the
two-stage pre-processing; track

  (a) kappa([Q, V_{l:j}]) for the *raw* generated vectors (no
      pre-processing of the current big panel — paper Fig. 9a),
  (b) kappa([Q, Qhat_{l:j-1}, v...]) *with* pre-processing (Fig. 9b),
  (c) the final orthogonality error per matrix (Fig. 9c).

Expected shape: without pre-processing the condition number grows
without bound; with pre-processing it stays moderate for all but the
"hard" matrices (HTC_336_4438, Ga41As41H72 — which the paper reports as
violating condition (9)); the final error is O(eps) for all matrices.

Substitution note (:mod:`repro.matrices.suitesparse`): the matrices are
offline *surrogates* matched in size/symmetry/spectrum class, and run at
reduced n by default.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CholeskyBreakdownError
from repro.experiments.common import ExperimentTable, fmt
from repro.matrices.suitesparse import build_surrogate, surrogate
from repro.ortho.analysis import condition_number, orthogonality_error
from repro.ortho.backend import NumpyBackend
from repro.ortho.two_stage import TwoStageScheme
from repro.utils.rng import default_rng

FIG9_MATRICES = ["HTC_336_4438", "Ga41As41H72", "offshore", "stomach",
                 "torso3", "Dubcova3", "ASIC_320ks"]


def _mpk_chain(a, v0: np.ndarray, count: int) -> np.ndarray:
    """Raw monomial chain [v0, A v0, ..., A^count v0]."""
    cols = [v0]
    for _ in range(count):
        cols.append(a @ cols[-1])
    return np.column_stack(cols)


def _normalize_operator(a, iters: int = 20,
                        rng: np.random.Generator | None = None):
    """Scale A to unit spectral norm (power iteration estimate).

    The paper's matrices come out of its column/row scaling well-sized
    for the monomial MPK; our random surrogates need this one extra
    normalization to sit in the same regime (otherwise unnormalized
    30-60-step monomial chains overflow regardless of conditioning —
    a scaling artifact, not the conditioning effect Fig. 9 studies).
    """
    rng = default_rng(rng)
    x = rng.standard_normal(a.shape[0])
    x /= np.linalg.norm(x)
    sigma = 1.0
    for _ in range(iters):
        y = a.T @ (a @ x)
        sigma = np.linalg.norm(y) ** 0.5
        norm_y = np.linalg.norm(y)
        if norm_y == 0.0:
            break
        x = y / norm_y
    return a * (1.0 / max(sigma, 1e-300))


def run_one(name: str, run_n: int = 20_000, m: int = 60, s: int = 5,
            bs: int = 60, seed: int = 9) -> dict:
    """Condition tracking for one matrix; returns summary metrics."""
    rng = default_rng(seed)
    a = build_surrogate(name, run_n=run_n, rng=rng)
    # Surrogate calibration (documented deviation): center the spectrum
    # (subtract the mean diagonal) and normalize to unit spectral radius
    # so the *moderate* surrogates sit in the regime the paper's matrices
    # occupy after its scaling — monomial chains that degrade steadily
    # rather than overflowing from pure magnitude growth.
    import scipy.sparse as sp
    mu = float(a.diagonal().mean())
    a = (a - mu * sp.identity(a.shape[0], format="csr")).tocsr()
    a = _normalize_operator(a, rng=rng)
    n = a.shape[0]
    v0 = rng.standard_normal(n)
    v0 /= np.linalg.norm(v0)

    # (a) raw MPK: condition of the full chain without pre-processing
    raw = _mpk_chain(a, v0, m)
    raw_conds = [condition_number(raw[:, : c + 1])
                 for c in range(s, m + 1, s)]

    # (b)+(c) MPK interleaved with two-stage pre-processing
    nb = NumpyBackend()
    basis = np.zeros((n, m + 1))
    basis[:, 0] = v0
    r = np.zeros((m + 1, m + 1))
    scheme = TwoStageScheme(big_step=bs, breakdown="shift")
    scheme.begin_cycle(nb, basis, r)
    pre_conds: list[float] = []
    lo, hi = 0, s + 1
    broke = False
    while lo < m + 1 and not broke:
        # MPK from current content of column max(lo,1)-1
        for col in range(max(lo, 1), hi):
            basis[:, col] = a @ basis[:, col - 1]
        # Fig. 9b quantity: kappa([Q_{1:l-1}, Qhat_{l:j-1}, v_{1:k}]) —
        # processed prefix plus the RAW just-generated panel
        pre_conds.append(condition_number(basis[:, :hi]))
        try:
            scheme.panel_arrived(lo, hi)
        except CholeskyBreakdownError:
            broke = True
            break
        lo, hi = hi, min(hi + s, m + 1)
    if not broke:
        scheme.finish_cycle()
    err = orthogonality_error(basis[:, : scheme.final_cols]) \
        if scheme.final_cols else float("inf")
    return {
        "name": name,
        "raw_cond_final": raw_conds[-1],
        "raw_cond_mid": raw_conds[len(raw_conds) // 2],
        "pre_cond_max": max(pre_conds) if pre_conds else float("inf"),
        "ortho_error": err,
        "breakdown": broke,
        "hard": surrogate(name).spectrum == "hard",
    }


def run(run_n: int = 20_000, m: int = 60, s: int = 5, bs: int = 60,
        matrices: list | None = None) -> ExperimentTable:
    matrices = matrices if matrices is not None else FIG9_MATRICES
    table = ExperimentTable(
        "fig9", f"MPK basis conditioning on SuiteSparse surrogates "
                f"(run n={run_n}, m={m}, s={s}, bs={bs})",
        headers=["matrix", "class", "kappa raw (m/2)", "kappa raw (m)",
                 "kappa [Q,Qhat,v] max", "final ortho err",
                 "stage-1 breakdown"])
    for name in matrices:
        res = run_one(name, run_n=run_n, m=m, s=s, bs=bs)
        table.add_row(
            name, "hard" if res["hard"] else "moderate",
            fmt(res["raw_cond_mid"]), fmt(res["raw_cond_final"]),
            fmt(res["pre_cond_max"]), fmt(res["ortho_error"]),
            "yes" if res["breakdown"] else "no")
    table.add_note("paper Fig. 9: raw chain conditioning explodes; "
                   "pre-processing keeps it bounded except for the two "
                   "hard matrices; final error O(eps) for all")
    table.add_note("surrogate matrices (offline substitution, see "
                   "repro.matrices.suitesparse)")
    return table


QUICK = {"run_n": 4000}
