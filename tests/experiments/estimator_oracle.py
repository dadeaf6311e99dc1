"""Per-charge reference for the estimator's cycle pricing (the oracle of
``test_estimator_oracle.py``).

The scheme's op stream is recorded per panel; a cycle is a flat list of
``((phase, kernel), seconds, count)`` charge tuples — the SpMV step, the
solver shell and every backend call of the stream priced as a block of
charges — folded into a fresh tracer by one ``Tracer.add`` per charge.
Slow and plain on purpose; the plan-priced :class:`CycleCostEstimator`
must agree with it bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.experiments import estimator as est_mod
from repro.krylov.sstep_gmres import _panel_bounds
from repro.ortho.cgs import cgs2_append
from repro.parallel.costmodel import LOCAL_OPS
from repro.parallel.tracing import Tracer

_D = 8.0  # bytes per float64

#: the solver shell's ops before the first panel: the residual
#: ``b - A x`` and its norm, ``r`` copied and scaled
_RESIDUAL = ((("axpy", 1, 2),), (("norm", 1), ("allreduce", 1)))
_FIRST_COLUMN = ((("axpy", 1, 1),), (("scale", 1, 1),))


def _record(scheme_factory, m: int, s: int) -> tuple:
    """The op stream of one restart cycle of ``m`` steps:
    ``(lo, hi, ops, final_cols)`` per arriving panel ``[lo, hi)``, then
    the ``finish_cycle`` flush; ``final_cols`` is ``None`` unless the
    scheme called the panel final.  ``None`` records standard GMRES: one
    never-final CGS2 column per step."""
    backend = est_mod._StreamRecorder()
    basis = np.random.default_rng(0).standard_normal((4 * (m + 1), m + 1))
    stream = []
    if scheme_factory is None:
        cgs2_append(backend, basis, 0)   # the prologue prices this one
        backend.take()
        for j in range(1, m + 1):
            cgs2_append(backend, basis, j)
            stream.append((j, j + 1, backend.take(), None))
        return tuple(stream)
    scheme = scheme_factory()
    scheme.begin_cycle(backend, basis, np.zeros((m + 1, m + 1)))
    for lo, hi in _panel_bounds(s, m + 1):
        final = scheme.panel_arrived(lo, hi)
        stream.append((lo, hi, backend.take(),
                       scheme.final_cols if final else None))
    flushed = scheme.finish_cycle()
    stream.append((m + 1, m + 1, backend.take(),
                   scheme.final_cols if flushed else None))
    return tuple(stream)


def _block(est, phase: str, call: tuple) -> tuple:
    """The charges of one backend call's ops in ``phase``."""
    cost, block = est.cost, []
    for op, *args in call:
        if op == "allreduce":
            kernel, seconds = op, cost.allreduce(_D * args[0], est.ranks)
        elif op == "host":
            kernel, seconds = op, cost.host_dense(args[0])
        else:
            kernel, formula = LOCAL_OPS[op]
            seconds = formula(cost, est.nl, *args)
        block.append(((phase, kernel), seconds, 1))
    return tuple(block)


def _price(est, charges: list, phase: str, ops: tuple) -> None:
    for call in ops:
        charges += _block(est, phase, call)


def _halo(est) -> tuple:
    """One halo exchange as the worst rank sees it (none on one rank)."""
    if est.ranks == 1:
        return ()
    shape, machine = est.shape, est.machine
    per_peer = _D * shape.halo_cols / shape.halo_neighbors
    rpn = machine.ranks_per_node
    if machine.nodes_for(est.ranks) > 1:
        rank = rpn - 1
        halo = {rank - 1 - p: per_peer
                for p in range(shape.halo_neighbors - 1)}
        halo[rank + 1] = per_peer
    else:
        rank = 0
        halo = {p + 1: per_peer for p in range(shape.halo_neighbors)}
    return ((("spmv", "halo"), est.cost.halo_exchange(halo, rank, est.ranks),
             1),)


def _shell(est) -> tuple[tuple, list, list]:
    """The SpMV step, the cycle prologue and the solution update."""
    precond = () if est.precond is None else _block(
        est, "precond", (("gs_sweep", est.nnz_l, est.precond.sweeps,
                          est.precond.colors),))
    spmv = (*_halo(est), (
        ("spmv", "spmv_local"),
        est.cost.spmv(est.nnz_l, est.nl, est.nl + est.shape.halo_cols), 1),
        *precond)
    prologue = list(spmv)
    _price(est, prologue, "other", _RESIDUAL)
    _price(est, prologue, "ortho", _FIRST_COLUMN)
    epilogue = []
    _price(est, epilogue, "other",
           ((("matvec", est.m, 1),), (("axpy", 1, 2),)))
    epilogue += precond
    return spmv, prologue, epilogue


def charges(est, scheme=None, bs: int | None = None) -> list:
    """The charge list of one cycle: standard GMRES when ``scheme`` is
    ``None``, else a ``CONFIGS`` s-step key (``bs`` for two-stage) or a
    zero-argument scheme factory."""
    spmv, out, epilogue = _shell(est)
    if scheme is None:
        for j, _, ops, _ in _record(None, est.m, 1):
            out += spmv
            _price(est, out, "ortho", ops)
            _price(est, out, "other", ((("host", 6.0 * j),),))
        _price(est, out, "other", ((("host", float(est.m) ** 2),),))
    else:
        if not callable(scheme):
            scheme = est_mod._SCHEMES[scheme]
            if bs is not None:
                scheme = functools.partial(scheme, big_step=bs)
        for lo, hi, ops, final_cols in _record(scheme, est.m, est.s):
            out += spmv * (hi - max(lo, 1))
            _price(est, out, "ortho", ops)
            if final_cols is not None:
                c = final_cols - 1
                out.append((("other", "host"),
                            est.cost.host_dense(4.0 * c ** 3), 2))
    return out + epilogue


def cycle(est, scheme=None, bs: int | None = None) -> Tracer:
    """:func:`charges` folded by one ``Tracer.add`` per charge."""
    tracer = Tracer()
    for (phase, kernel), seconds, count in charges(est, scheme, bs):
        with tracer.phase(phase):
            tracer.add(kernel, seconds, count=count)
    return tracer
