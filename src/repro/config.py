"""Global configuration knobs for :mod:`repro`.

Configuration is intentionally tiny: a default dtype, the default step
sizes the paper uses, reproducibility seeds, and the names of the
kernel-execution engines of the costed BLAS layer.  Everything
machine-performance-related lives in
:class:`repro.parallel.machine.MachineSpec` instances so that two
machine models can coexist in one process.
"""

from __future__ import annotations

import numpy as np

#: Working precision of the library (the paper works in IEEE double).
DEFAULT_DTYPE = np.float64

#: Machine epsilon of the working precision (paper notation: eps).
EPS = float(np.finfo(np.float64).eps)

#: The paper's default (conservative) first-stage step size, Section VIII:
#: "a conservative step size like s = 5 is used as the default step size".
DEFAULT_STEP_SIZE = 5

#: The paper's restart length, Section VIII: "we used the restart length of
#: 60 (i.e., m = 60)".
DEFAULT_RESTART = 60

#: Default relative-residual convergence tolerance, Section VIII:
#: "converged when the relative residual norm is reduced by six orders of
#: magnitude".
DEFAULT_TOL = 1.0e-6

#: Seed used by deterministic fixtures and examples.
DEFAULT_SEED = 1729

# ---------------------------------------------------------------------------
# kernel-execution engine of the costed BLAS layer (repro.distla)
# ---------------------------------------------------------------------------

#: Reference engine: one Python-level NumPy call per simulated rank.
ENGINE_LOOP = "loop"

#: Batched engine: kernels over the one flat ``(n, k)`` array behind every
#: multivector — batched GEMMs per run of equal-count ranks, streaming
#: kernels over row tiles — on uniform and ragged partitions alike.
ENGINE_BATCHED = "batched"

#: All selectable engines, in documentation order.
ENGINES = (ENGINE_LOOP, ENGINE_BATCHED)

#: Engine a communicator binds when its constructor names none.  Batched
#: is the default: it charges identical modeled costs and produces the
#: same MPI-faithful reduction order as the loop engine.
DEFAULT_ENGINE = ENGINE_BATCHED


def get_engine() -> str:
    """Name of the default kernel-execution engine.

    The communicator is the one place an engine is selected
    (``SimComm(..., engine=...)``, reached by users through
    ``Simulation(..., engine=...)``); this is what it binds when none is
    named.
    """
    return DEFAULT_ENGINE
