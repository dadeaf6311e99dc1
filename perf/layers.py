"""Layer boundaries of ``repro`` and the per-layer metrics read at them.

A layer is a module path under ``repro``.  `boundaries` lists the public
functions the traced run wraps; `host_metrics` turns the spans of one
traced solve into each layer's host seconds and call counts.  The modeled
per-layer numbers do not come from spans: `workloads` reads them from the
public result objects.
"""

from __future__ import annotations

import inspect
from importlib import import_module

import spans as sp

#: Which `repro.distla.blas` function feeds which `distla.blas.*_s` metric,
#: following the module's own attribution (Gram products are "dot", the
#: tall ``V -= Q R`` is "update", triangular scaling is "trsm").
BLAS_GROUPS = {
    "block_dot": "dot", "block_dot_multi": "dot", "block_dot_batched": "dot",
    "post_block_dot_multi": "dot", "dot_dd_dist": "dot",
    "column_norms": "dot",
    "block_update": "update",
    "trsm_inplace": "trsm",
}

ROOT_LAYER = "krylov"


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(k for k in _subclasses(sub) if k not in out)
    return out


def _methods(cls, names, layer) -> list[tuple]:
    """``names`` on every class of the hierarchy that defines them itself
    (an override is a boundary of its own; an abstract stub is not)."""
    found = []
    for klass in _subclasses(cls):
        for name in names:
            fn = vars(klass).get(name)
            if inspect.isfunction(fn) and not getattr(
                    fn, "__isabstractmethod__", False):
                found.append((klass, name, layer))
    return found


def _public_functions(module, layer) -> list[tuple]:
    return [(module, name, layer) for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")]


def boundaries() -> list[tuple]:
    """Every ``(owner, attribute, layer)`` the traced run wraps."""
    import repro.ortho  # noqa: F401  (registers every scheme subclass)
    import repro.precond  # noqa: F401  (registers every preconditioner)
    from repro.distla import blas
    from repro.distla.spmatrix import DistSparseMatrix
    from repro.experiments.estimator import CycleCostEstimator
    from repro.krylov import block
    from repro.krylov.mpk import MatrixPowersKernel
    from repro.matrices import stencil
    from repro.ortho.base import BlockOrthoScheme
    from repro.parallel.api import Communicator
    from repro.parallel.communicator import SimComm
    from repro.precond.base import Preconditioner
    from repro.service import queue

    # the package re-exports the function under the submodule's name
    sstep_gmres = import_module("repro.krylov.sstep_gmres")
    protocol = [name for name, fn in vars(Communicator).items()
                if inspect.isfunction(fn) and not name.startswith("_")]
    return [
        (sstep_gmres, "sstep_gmres", ROOT_LAYER),
        (block, "block_sstep_gmres", ROOT_LAYER),
        # the queue bound the block solver by name at import time
        (queue, "block_sstep_gmres", ROOT_LAYER),
        (MatrixPowersKernel, "extend", "krylov.mpk"),
        (DistSparseMatrix, "matvec", "distla.spmatrix"),
        (DistSparseMatrix, "matvec_batched", "distla.spmatrix"),
        (DistSparseMatrix, "ghost_plan", "distla.halo"),
        *_methods(Preconditioner, ("setup", "apply", "apply_ghosted"),
                  "precond"),
        *_methods(BlockOrthoScheme,
                  ("begin_cycle", "panel_arrived", "finish_cycle"), "ortho"),
        *_public_functions(blas, "distla.blas"),
        *[(SimComm, name, "parallel.communicator") for name in protocol],
        (queue.SolveQueue, "submit", "service"),
        (queue.SolveQueue, "flush", "service"),
        (CycleCostEstimator, "sstep_cycle", "experiments.estimator"),
        (CycleCostEstimator, "standard_gmres_cycle", "experiments.estimator"),
        *_public_functions(stencil, "matrices"),
    ]


def busy(spans: list[sp.Span], layer: str, names=None) -> tuple[float, int]:
    """Seconds inside, and number of, the outermost calls into ``layer``
    (restricted to the functions ``names`` when given)."""
    hits = sp.outermost(
        spans, lambda s: s.layer == layer and (names is None
                                               or s.name in names))
    return sum(s.duration for s in hits), len(hits)


def host_metrics(solve: list[sp.Span], setup: list[sp.Span],
                 traced_solve_s: float) -> dict[str, float]:
    """Host-clock per-layer metrics of one traced pass.

    ``solve`` holds the spans of the solve phase and ``setup`` those of the
    set-up phase; ``traced_solve_s`` is the wall time of the solve phase
    with the wrappers in place.
    """
    selfs = sp.self_times(solve)
    self_by_layer: dict[str, float] = {}
    for span, own in zip(solve, selfs):
        self_by_layer[span.layer] = self_by_layer.get(span.layer, 0.0) + own

    blas_s = dict.fromkeys(("dot", "update", "trsm", "other"), 0.0)
    blas_calls = 0
    for span in sp.outermost(solve, lambda s: s.layer == "distla.blas"):
        blas_s[BLAS_GROUPS.get(span.name, "other")] += span.duration
        blas_calls += 1

    spmatrix_s, _ = busy(solve, "distla.spmatrix")
    matvecs = sum(1 for s in solve if s.name == "matvec")
    halo_s, _ = busy(solve + setup, "distla.halo")
    precond_s, applies = busy(solve, "precond", ("apply", "apply_ghosted"))
    precond_setup_s, _ = busy(solve + setup, "precond", ("setup",))
    comm_s, charges = busy(solve, "parallel.communicator")
    estimator_s, cycles = busy(solve, "experiments.estimator")
    build_s, _ = busy(setup, "matrices")
    _, extends = busy(solve, "krylov.mpk")
    _, panels = busy(solve, "ortho", ("panel_arrived",))

    kernel_s = sum(blas_s.values()) + spmatrix_s + precond_s
    return {
        "krylov.self_s": self_by_layer.get(ROOT_LAYER, 0.0),
        "krylov.mpk.self_s": self_by_layer.get("krylov.mpk", 0.0),
        "krylov.mpk.extends": extends,
        "distla.spmatrix.busy_s": spmatrix_s,
        "distla.spmatrix.matvecs": matvecs,
        "distla.halo.setup_s": halo_s,
        "distla.blas.dot_s": blas_s["dot"],
        "distla.blas.update_s": blas_s["update"],
        "distla.blas.trsm_s": blas_s["trsm"],
        "distla.blas.other_s": blas_s["other"],
        "distla.blas.calls": blas_calls,
        "ortho.self_s": self_by_layer.get("ortho", 0.0),
        "ortho.panels": panels,
        "precond.setup_s": precond_setup_s,
        "precond.busy_s": precond_s,
        "precond.applies": applies,
        "parallel.communicator.busy_s": comm_s,
        "parallel.communicator.charges": charges,
        "service.self_s": self_by_layer.get("service", 0.0),
        "experiments.estimator.busy_s": estimator_s,
        "experiments.estimator.cycles": cycles,
        "matrices.build_s": build_s,
        "host.kernel_s": kernel_s,
        # 0 stands for "no kernel ran" (paper_tables), not for a ratio of 0
        "host.overhead_factor": (traced_solve_s / kernel_s if kernel_s
                                 else 0.0),
        "host.unattributed_s": max(0.0, traced_solve_s - sum(selfs)),
    }
