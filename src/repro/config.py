"""Global configuration knobs for :mod:`repro`.

Configuration is intentionally tiny: a default dtype, the default step
sizes the paper uses, reproducibility seeds, and the kernel-execution
engine of the costed BLAS layer.  Everything machine-performance-related
lives in :class:`repro.parallel.machine.MachineSpec` instances so that
two machine models can coexist in one process.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

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

#: Engine used when neither :func:`set_engine` nor ``REPRO_ENGINE`` says
#: otherwise.  Batched is the default: it charges identical modeled costs
#: and produces the same MPI-faithful reduction order as the loop engine.
DEFAULT_ENGINE = ENGINE_BATCHED

_active_engine: str | None = None


def validate_engine(name: str) -> str:
    """Return ``name`` if it names a known engine, else raise ValueError.

    Constructors that *bind* an engine (``SimComm``, ``DistBackend``,
    ``Simulation``) call this so a typo fails at the configuration site,
    not deep inside the first BLAS call.
    """
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {name!r}; expected one of {ENGINES}")
    return name


def get_engine() -> str:
    """Name of the active kernel-execution engine.

    Resolution order: :func:`set_engine` / :func:`engine_scope` override,
    then the ``REPRO_ENGINE`` environment variable (re-read on every call
    so test monkeypatching works), then :data:`DEFAULT_ENGINE`.
    """
    if _active_engine is not None:
        return _active_engine
    return validate_engine(os.environ.get("REPRO_ENGINE", DEFAULT_ENGINE))


def set_engine(name: str | None) -> str | None:
    """Pin the engine process-wide; returns the previous pin.

    The return value is the raw prior pin — ``None`` when the process was
    deferring to ``REPRO_ENGINE``/:data:`DEFAULT_ENGINE` — so
    ``set_engine(set_engine("loop"))`` restores the exact prior state
    instead of freezing the resolved default.  Passing ``None`` unpins.
    """
    global _active_engine
    previous = _active_engine
    _active_engine = None if name is None else validate_engine(name)
    return previous


@contextmanager
def engine_scope(name: str):
    """Temporarily select an engine (restores the previous state on exit,
    including deference to ``REPRO_ENGINE`` when nothing was pinned)."""
    previous = set_engine(name)
    try:
        yield name
    finally:
        set_engine(previous)
