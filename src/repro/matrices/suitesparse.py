"""SuiteSparse surrogate registry (offline substitution).

The paper evaluates on matrices from the SuiteSparse Matrix Collection
(Table IV and Fig. 9).  The collection is not available offline, so each
entry here is a *surrogate generator* matched to the real matrix in:

* dimension ``paper_n`` and average ``paper_nnz_per_row`` (these two drive
  every SpMV/orthogonalization cost in the performance model — they are
  reproduced exactly in the cost harness),
* symmetry class (SPD / symmetric indefinite / nonsymmetric),
* spectrum class: ``moderate`` surrogates keep Krylov panel conditioning
  within the paper's condition (9); ``hard`` surrogates (standing in for
  HTC_336_4438 and Ga41As41H72, which the paper reports as *violating*
  condition (9) in Fig. 9) have wide dynamic range + nonnormality so the
  monomial MPK basis degrades the same way.

The runnable matrix is generated at ``run_n`` rows (configurable) so the
numerics are exercised at laptop scale, while the experiment harness uses
``paper_n`` / ``paper_nnz_per_row`` for modeled timings.

The paper's preprocessing is reproduced by :func:`scale_columns_rows`:
"we scaled the columns and then rows of the matrices by the maximum
nonzero entries in the columns and rows (hence, all the resulting
matrices are non-symmetric)".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConfigurationError
from repro.utils.rng import default_rng


# ---------------------------------------------------------------------------
# generic banded surrogate builder
# ---------------------------------------------------------------------------

def banded_random(n: int, nnz_per_row: float, *, symmetric: bool,
                  definite: str = "spd", band_span: float = 0.02,
                  rng: np.random.Generator | None = None) -> sp.csr_matrix:
    """Random banded matrix with target average nnz/row.

    ``definite``: ``"spd"`` (diagonally dominant symmetric), ``"indef"``
    (symmetric, alternating-sign diagonal), or ``"nonsym"``.
    Bands sit at random offsets within ``band_span * n`` of the diagonal,
    giving the banded halo structure typical of reordered FEM/FVM
    matrices (small surface-to-volume communication, like the paper's
    ParMETIS-partitioned runs).
    """
    if definite not in ("spd", "indef", "nonsym"):
        raise ConfigurationError(f"unknown definiteness {definite!r}")
    rng = default_rng(rng)
    n_off = max(1, int(round(nnz_per_row)) - 1)
    if symmetric:
        n_half = max(1, n_off // 2)
        max_off = min(n - 1, max(int(band_span * n), 3 * n_half + 2))
        n_half = min(n_half, max_off - 1)
        offsets = rng.choice(np.arange(1, max_off), size=n_half, replace=False)
        offsets = np.concatenate([offsets, -offsets])
    else:
        max_off = min(n - 1, max(int(band_span * n), 3 * n_off + 2))
        n_off = min(n_off, max_off - 1)
        offsets = rng.choice(np.arange(1, max_off), size=n_off, replace=False)
        signs = rng.choice([-1, 1], size=n_off)
        offsets = offsets * signs
    diags = []
    for off in offsets:
        m = n - abs(int(off))
        vals = rng.uniform(0.1, 1.0, size=m)
        if definite == "nonsym":
            vals *= rng.choice([-1.0, 1.0], size=m)
        else:
            vals = -vals  # negative off-diagonals, Laplacian-like
        diags.append((vals, int(off)))
    a = sp.diags([d for d, _ in diags], [o for _, o in diags],
                 shape=(n, n), format="csr")
    if symmetric:
        a = ((a + a.T) * 0.5).tocsr()
    row_abs = np.abs(a).sum(axis=1).A1 if hasattr(np.abs(a).sum(axis=1), "A1") \
        else np.asarray(np.abs(a).sum(axis=1)).ravel()
    if definite == "spd":
        diag = row_abs + rng.uniform(0.05, 0.2, size=n)
    elif definite == "indef":
        sign = np.where(np.arange(n) % 7 == 0, -1.0, 1.0)
        diag = sign * (row_abs + rng.uniform(0.05, 0.2, size=n))
    else:  # "nonsym" (validated above)
        diag = row_abs + rng.uniform(0.05, 0.5, size=n)
    return (a + sp.diags(diag)).tocsr()


def _harden(a: sp.csr_matrix, dynamic_decades: float,
            rng: np.random.Generator) -> sp.csr_matrix:
    """Widen the dynamic range in an equilibration-proof way.

    Diagonal scaling would be undone by the paper's column/row max
    scaling, so hardness must be *intrinsic*: every off-diagonal entry is
    scaled by an independent log-uniform factor (edge-weight spread, like
    quantum-chemistry integrals or circuit conductances) and the diagonal
    is weakened below dominance.  kappa grows to ~10^(dynamic_decades+)
    and — as the paper observes for HTC_336_4438 and Ga41As41H72 — the
    monomial Krylov panels violate condition (9).
    """
    a = sp.csr_matrix(a, copy=True)
    n = a.shape[0]
    coo = a.tocoo()
    factors = 10.0 ** rng.uniform(-dynamic_decades, dynamic_decades,
                                  size=coo.nnz)
    off = coo.row != coo.col
    data = coo.data.copy()
    data[off] *= factors[off]
    hard = sp.coo_matrix((data, (coo.row, coo.col)), shape=a.shape).tocsr()
    # Sparse rank-one spike: a dominant, well-separated direction makes
    # monomial Krylov panels align within a handful of steps — the
    # condition-(9) violation mechanism.  Sparse u, v keep nnz/row intact.
    k_spike = max(4, n // 200)
    u = np.zeros(n)
    v = np.zeros(n)
    u[rng.choice(n, size=k_spike, replace=False)] = rng.choice(
        [-1.0, 1.0], size=k_spike)
    v[rng.choice(n, size=k_spike, replace=False)] = rng.choice(
        [-1.0, 1.0], size=k_spike)
    amplitude = 50.0 * float(np.abs(hard.data).max() if hard.nnz else 1.0)
    spike = amplitude * (sp.csr_matrix(u.reshape(-1, 1))
                         @ sp.csr_matrix(v.reshape(1, -1)))
    return (hard + spike).tocsr()


def scale_columns_rows(a: sp.spmatrix) -> sp.csr_matrix:
    """The paper's Fig. 9 preprocessing: scale columns then rows by the
    max-magnitude nonzero of each (results are nonsymmetric in general)."""
    a = sp.csr_matrix(a, copy=True)
    col_max = np.abs(a).max(axis=0).toarray().ravel()
    col_max[col_max == 0.0] = 1.0
    a = (a @ sp.diags(1.0 / col_max)).tocsr()
    row_max = np.abs(a).max(axis=1).toarray().ravel()
    row_max[row_max == 0.0] = 1.0
    a = (sp.diags(1.0 / row_max) @ a).tocsr()
    return a


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurrogateSpec:
    """Metadata tying a surrogate to the real SuiteSparse matrix."""

    name: str
    paper_n: int
    paper_nnz_per_row: float
    symmetry: str          # "spd" | "sym-indef" | "nonsym"
    kind: str              # the paper's one-line description
    spectrum: str          # "moderate" | "hard"
    default_run_n: int
    builder: Callable[[int, "SurrogateSpec", np.random.Generator], sp.csr_matrix]

    def build(self, run_n: int | None = None,
              rng: np.random.Generator | None = None) -> sp.csr_matrix:
        """Generate the runnable surrogate matrix (``run_n`` rows)."""
        rng = default_rng(rng)
        n = self.default_run_n if run_n is None else run_n
        return self.builder(n, self, rng)

    @property
    def paper_nnz(self) -> float:
        return self.paper_n * self.paper_nnz_per_row


def _build_plain(n: int, spec: SurrogateSpec,
                 rng: np.random.Generator) -> sp.csr_matrix:
    definite = {"spd": "spd", "sym-indef": "indef", "nonsym": "nonsym"}[spec.symmetry]
    a = banded_random(n, spec.paper_nnz_per_row,
                      symmetric=spec.symmetry != "nonsym",
                      definite=definite, rng=rng)
    if spec.spectrum == "hard":
        a = _harden(a, dynamic_decades=3.5, rng=rng)
    return a


_REGISTRY: dict[str, SurrogateSpec] = {}


def _register(name: str, paper_n: int, nnz_per_row: float, symmetry: str,
              kind: str, spectrum: str = "moderate",
              default_run_n: int = 50_000) -> None:
    _REGISTRY[name] = SurrogateSpec(
        name=name, paper_n=paper_n, paper_nnz_per_row=nnz_per_row,
        symmetry=symmetry, kind=kind, spectrum=spectrum,
        default_run_n=default_run_n, builder=_build_plain)


# --- Table IV matrices (paper-reported n and nnz/n) ------------------------
_register("atmosmodl", 1_489_752, 6.9, "nonsym",
          "CFD, numerically non-symmetric")
_register("dielFilterV2real", 1_157_456, 41.9, "sym-indef",
          "Electromagnetics, symmetric indefinite")
_register("ecology2", 999_999, 5.0, "spd", "Circuit/landscape, SPD")
_register("ML_Geer", 1_504_002, 73.7, "nonsym",
          "Structural, numerically non-symmetric")
_register("thermal2", 1_228_045, 7.0, "spd", "Unstructured thermal FEM, SPD")

# --- Fig. 9 matrices (dimension 200k..300k, scaled per the paper) ----------
# The paper names only the two that violate condition (9); the remaining
# five are representative members of the stated population ("various
# positive indefinite matrices of dimension between 200,000 and 300,000").
_register("HTC_336_4438", 226_340, 3.4, "nonsym",
          "Circuit simulation (paper: violates condition (9))",
          spectrum="hard", default_run_n=30_000)
_register("Ga41As41H72", 268_096, 68.6, "sym-indef",
          "Quantum chemistry (paper: violates condition (9))",
          spectrum="hard", default_run_n=30_000)
_register("offshore", 259_789, 16.3, "sym-indef",
          "FEM electromagnetics (representative Fig. 9 member)",
          default_run_n=30_000)
_register("stomach", 213_360, 14.2, "nonsym",
          "Bioengineering (representative Fig. 9 member)",
          default_run_n=30_000)
_register("torso3", 259_156, 17.1, "nonsym",
          "Bioengineering (representative Fig. 9 member)",
          default_run_n=30_000)
_register("Dubcova3", 146_689, 24.8, "spd",
          "PDE FEM (representative Fig. 9 member)", default_run_n=30_000)
_register("ASIC_320ks", 321_671, 4.1, "nonsym",
          "Circuit simulation (representative Fig. 9 member)",
          default_run_n=30_000)


def list_surrogates() -> list[str]:
    """Registered surrogate names (sorted)."""
    return sorted(_REGISTRY)


def surrogate(name: str) -> SurrogateSpec:
    """Look up a surrogate spec by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown surrogate {name!r}; known: {', '.join(list_surrogates())}"
        ) from None


def build_surrogate(name: str, run_n: int | None = None,
                    rng: np.random.Generator | None = None,
                    paper_scaling: bool = True) -> sp.csr_matrix:
    """Build a runnable surrogate; ``paper_scaling`` applies the Fig. 9
    column-then-row max scaling."""
    a = surrogate(name).build(run_n=run_n, rng=rng)
    if paper_scaling:
        a = scale_columns_rows(a)
    return a
