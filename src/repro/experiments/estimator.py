"""Per-cycle cost estimator: the live scheme classes, priced at paper scale.

The paper's performance experiments run at n = 2000^2 .. 1.5M on up to
192 GPUs — far beyond what the execution-driven simulator can hold in
NumPy.  But what a restart cycle *issues* depends on column widths
alone, so nothing about a scheme is restated here
(``docs/cost-model.md``, "Paper-scale pricing"):

* **recorded** — once per ``(scheme, m, s, bs)`` the real
  :class:`~repro.ortho.base.BlockOrthoScheme` (``cgs2_append`` for
  standard GMRES) factors a small well-conditioned random matrix through
  a logging ``NumpyBackend``; the log is, per ``OrthoBackend`` call, the
  ops ``DistBackend`` charges for it (local ops by column widths, the
  doubles of its one collective, host flops) and, per panel, the columns
  the scheme then called final.  A local op is priced by
  :data:`~repro.parallel.costmodel.LOCAL_OPS`, the table the live
  engines charge through; a primitive no such ops describe (``sketch``,
  ``householder_qr``, ``tsqr``) is a :class:`ConfigurationError`;
* **shape-priced** — SpMV and halo have no live counterpart at paper
  scale (``_spmv``); the block-Jacobi apply is the ``gs_sweep`` op of
  :class:`PrecondShape`, priced like a recorded one;
* **hand-written** — the ops of the solver shell around the scheme
  (explicit residual, cycle prologue, checkpoint host math, solution
  update), priced by the same loop as a recorded stream.

Every ``(phase, kernel)`` row equals the tracer diff of one live solver
cycle to rounding, count for count; ``spmv/spmv_local`` alone differs
(the ``nl + halo_cols`` operand shape) under the ceiling named in
``tests/experiments/test_estimator.py``.

Inside ``experiments/`` the one caller is :func:`repro.experiments.sweep.sweep`,
which prices every artifact's grid into one frame of rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.krylov.sstep_gmres import _panel_bounds
from repro.ortho.backend import NumpyBackend
from repro.ortho.base import BlockOrthoScheme
from repro.ortho.bcgs import BCGS2Scheme
from repro.ortho.bcgs_pip import BCGSPIP2Scheme
from repro.ortho.cgs import cgs2_append
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.costmodel import LOCAL_OPS, CostModel
from repro.parallel.machine import MachineSpec
from repro.parallel.tracing import Tracer
from repro.utils.validation import check_positive_int

_D = 8.0  # bytes per float64

#: The solver configurations of Tables III/IV and Fig. 13, in paper
#: order (what :meth:`CycleCostEstimator.cycle` takes), and the scheme
#: each s-step one names.
CONFIGS = ("gmres", "bcgs2", "pip2", "two_stage")
_SCHEMES = {"bcgs2": BCGS2Scheme, "pip2": BCGSPIP2Scheme,
            "two_stage": TwoStageScheme}


@dataclass(frozen=True)
class ProblemShape:
    """Shape parameters of a distributed sparse problem.

    ``halo_cols`` is the number of off-rank operand entries one rank
    gathers per SpMV (e.g. ``2 * nx`` for a 1-D row partition of an
    ``nx x nx`` grid, ``2 * nx * ny`` for 3-D stencils, or a
    surface-law estimate for irregular matrices).
    ``halo_neighbors`` is how many peer ranks contribute to it.
    """

    n: int
    nnz: float
    halo_cols: float
    halo_neighbors: int = 2

    def __post_init__(self) -> None:
        check_positive_int(self.halo_neighbors, "halo_neighbors")

    @classmethod
    def stencil2d(cls, nx: int, stencil: int = 9) -> "ProblemShape":
        if stencil not in (5, 9):
            raise ConfigurationError(
                f"stencil must be one of (5, 9), got {stencil!r}")
        return cls(n=nx * nx, nnz=float(stencil) * nx * nx,
                   halo_cols=2.0 * nx)

    @classmethod
    def stencil3d(cls, nx: int, dofs_per_node: int = 1,
                  nnz_per_row: float = 7.0) -> "ProblemShape":
        n = dofs_per_node * nx ** 3
        return cls(n=n, nnz=nnz_per_row * n,
                   halo_cols=2.0 * dofs_per_node * nx * nx)

    @classmethod
    def irregular(cls, n: int, nnz_per_row: float, ranks: int,
                  surface_exponent: float = 2.0 / 3.0) -> "ProblemShape":
        """Surface-law halo estimate for a well-partitioned (ParMETIS)
        irregular matrix: boundary rows ~ (n/P)^(2/3), each contributing
        ~nnz_per_row^(1/2)-ish external columns; we use the simpler and
        standard rows^(2/3) * nnz_per_row estimate, capped at n/P."""
        local = n / max(ranks, 1)
        halo = min(local, nnz_per_row * local ** surface_exponent)
        return cls(n=n, nnz=nnz_per_row * n, halo_cols=halo,
                   halo_neighbors=max(2, int(round(nnz_per_row / 3))))


@dataclass
class PrecondShape:
    """Shape of one block-Jacobi apply: ``sweeps`` multicolor
    Gauss-Seidel sweeps of ``colors`` colours over a rank's block,
    priced by the ``gs_sweep`` entry the live preconditioner charges."""

    sweeps: int = 1
    colors: int = 2


def _unpriced(name: str, reason: str = "its sketch size depends on n"):
    def refuse(self, *args, **kwargs):
        raise ConfigurationError(
            f"the estimator has no price for the OrthoBackend primitive "
            f"{name!r}: {reason}")
    return refuse


class _StreamRecorder(NumpyBackend):
    """Logs, per ``OrthoBackend`` call, the ops ``DistBackend`` charges
    for it — its local ops of :data:`LOCAL_OPS` by column widths, then
    the doubles of its one collective — and refuses the calls no such
    ops describe."""

    def __init__(self) -> None:
        self.ops: list[tuple] = []

    def take(self) -> tuple:
        ops, self.ops = tuple(self.ops), []
        return ops

    def _dots(self, op: str, pairs, words: int = 1) -> None:
        self.ops.append((*((op, x.shape[1], y.shape[1]) for x, y in pairs),
                         ("allreduce", words * sum(x.shape[1] * y.shape[1]
                                                   for x, y in pairs))))

    def dot(self, x, y):
        return self.fused_dots([(x, y)])[0]

    def fused_dots(self, pairs):
        self._dots("dot", pairs)
        return super().fused_dots(pairs)

    def dot_dd(self, x, y):
        self._dots("dot_dd", [(x, y)], words=2)   # (hi, lo) pairs
        return super().dot_dd(x, y)

    def norms(self, x):
        self.ops.append((("norm", x.shape[1]), ("allreduce", x.shape[1])))
        return super().norms(x)

    def update(self, v, q, r) -> None:
        self.ops.append((("update", q.shape[1], v.shape[1]),))
        super().update(v, q, r)

    def trsm(self, v, r) -> None:
        self.ops.append((("trsm", v.shape[1]),))
        super().trsm(v, r)

    def scale_cols(self, v, scales) -> None:
        self.ops.append((("scale", v.shape[1], 1),))
        super().scale_cols(v, scales)

    def host_flops(self, flops: float) -> None:
        self.ops.append((("host", flops),))

    sketch = _unpriced("sketch")
    fused_dots_sketch = _unpriced("fused_dots_sketch")
    householder_qr = _unpriced(
        "householder_qr", "NumPy runs it as one LAPACK call, not as the "
        "local ops DistBackend charges")
    tsqr = _unpriced("tsqr", "its reduction tree depends on the rank count")


#: The solver shell's ops before the first panel (``krylov/restart.py``):
#: the residual ``b - A x`` and its norm, ``r`` copied and scaled.
_RESIDUAL = ((("axpy", 1, 2),), (("norm", 1), ("allreduce", 1)))
_FIRST_COLUMN = ((("axpy", 1, 1),), (("scale", 1, 1),))


def _record(scheme_factory: Callable[[], BlockOrthoScheme] | None,
            m: int, s: int) -> tuple:
    """The op stream of one restart cycle of ``m`` steps:
    ``(lo, hi, ops, final_cols)`` per arriving panel ``[lo, hi)``, then
    the ``finish_cycle`` flush; ``final_cols`` is ``None`` unless the
    scheme called the panel final.  ``None`` records standard GMRES: one
    never-final CGS2 column per step."""
    backend = _StreamRecorder()
    # well conditioned, so no factorization can break down whatever s is
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


@functools.lru_cache(maxsize=128)
def _config_stream(config: str, m: int, s: int, bs: int | None) -> tuple:
    """:func:`_record` of a ``CONFIGS`` entry, kept for the process: the
    stream is immutable and ``(config, m, s, bs)`` is all it depends on."""
    scheme = _SCHEMES.get(config)            # None: standard GMRES
    if bs is not None:
        scheme = functools.partial(scheme, big_step=bs)
    return _record(scheme, m, s)


class CycleCostEstimator:
    """Modeled phase times for one restart cycle of each solver config.

    A cycle is a list of ``((phase, kernel), seconds, count)`` charges
    folded into a fresh :class:`Tracer` at once (:meth:`Tracer.fold`).
    Every block of it is priced once per estimator: the SpMV step and the
    solver shell here, each ``(phase, backend call)`` of a recorded
    stream on first use, kept in a dict that dies with the estimator.
    """

    def __init__(self, machine: MachineSpec, ranks: int, shape: ProblemShape,
                 m: int, s: int = 5,
                 precond: PrecondShape | None = None) -> None:
        self.s = check_positive_int(s, "s")
        self.m = check_positive_int(m, "m")
        if m < s:
            raise ConfigurationError(f"restart {m} must be >= step {s}")
        self.machine = machine
        self.ranks = check_positive_int(ranks, "ranks")
        self.shape = shape
        self.precond = precond
        self.cost = CostModel(machine)
        self.nl = math.ceil(shape.n / self.ranks)
        self.nnz_l = shape.nnz / self.ranks
        self._blocks: dict = {}
        # the shape-priced charges depend on nothing a cycle changes
        self._precond = () if precond is None else self._block(
            "precond", (("gs_sweep", self.nnz_l, precond.sweeps,
                         precond.colors),))
        #: one SpMV step: halo, local product, preconditioner apply
        self._spmv = (*self._halo(), (
            ("spmv", "spmv_local"),
            self.cost.spmv(self.nnz_l, self.nl, self.nl + shape.halo_cols),
            1), *self._precond)
        self._prologue = list(self._spmv)
        self._price(self._prologue, "other", _RESIDUAL)
        self._price(self._prologue, "ortho", _FIRST_COLUMN)
        #: the solution update ``x += V y``, then a preconditioner apply
        self._epilogue = []
        self._price(self._epilogue, "other",
                    ((("matvec", self.m, 1),), (("axpy", 1, 2),)))
        self._epilogue += self._precond

    def _block(self, phase: str, call: tuple) -> tuple:
        """The charges of one backend call's ops in ``phase``: a
        collective of ``n`` doubles, ``n`` host flops, or a local op of
        :data:`LOCAL_OPS` over the ``nl`` rows of one rank."""
        cost, block = self.cost, []
        for op, *args in call:
            if op == "allreduce":
                kernel, seconds = op, cost.allreduce(_D * args[0], self.ranks)
            elif op == "host":
                kernel, seconds = op, cost.host_dense(args[0])
            else:
                kernel, formula = LOCAL_OPS[op]
                seconds = formula(cost, self.nl, *args)
            block.append(((phase, kernel), seconds, 1))
        return tuple(block)

    def _price(self, charges: list, phase: str, ops: tuple) -> None:
        """Append the charges of ``ops`` — one tuple of ops per backend
        call — in ``phase``, each distinct call priced on its first use
        by this estimator."""
        blocks = self._blocks
        for call in ops:
            block = blocks.get((phase, call))
            if block is None:
                block = blocks[phase, call] = self._block(phase, call)
            charges += block

    # ------------------------------------------------------------------
    # shape-priced: no live counterpart at paper scale
    # ------------------------------------------------------------------
    def _halo(self) -> tuple:
        """One halo exchange as the worst rank sees it (none on one rank)."""
        if self.ranks == 1:
            return ()
        per_peer = _D * self.shape.halo_cols / self.shape.halo_neighbors
        rpn = self.machine.ranks_per_node
        if self.machine.nodes_for(self.ranks) > 1:
            # worst rank sits at a node boundary: one neighbour is
            # off-node (rank rpn-1 talking to rpn-2 and rpn)
            rank = rpn - 1
            halo = {rank - 1 - p: per_peer
                    for p in range(self.shape.halo_neighbors - 1)}
            halo[rank + 1] = per_peer
        else:
            rank = 0
            halo = {p + 1: per_peer for p in range(self.shape.halo_neighbors)}
        return ((("spmv", "halo"),
                 self.cost.halo_exchange(halo, rank, self.ranks), 1),)

    # ------------------------------------------------------------------
    # the solver shell (krylov/restart.py, the checkpoint of sstep_gmres)
    # ------------------------------------------------------------------
    def _checkpoint(self, c: int) -> tuple:
        # Hessenberg assembly + least squares, 2 c^3 host flops each
        return ("other", "host"), self.cost.host_dense(4.0 * c ** 3), 2

    # ------------------------------------------------------------------
    # public: one full cycle per solver configuration
    # ------------------------------------------------------------------
    def standard_gmres_cycle(self) -> Tracer:
        """GMRES(m) + CGS2 (paper baseline)."""
        charges = list(self._prologue)
        for j, _, ops, _ in _config_stream("gmres", self.m, 1, None):
            charges += self._spmv
            self._price(charges, "ortho", ops)
            self._price(charges, "other", ((("host", 6.0 * j),),))
        self._price(charges, "other", ((("host", float(self.m) ** 2),),))
        charges += self._epilogue
        return Tracer().fold(charges)

    def sstep_cycle(self, scheme: str | Callable[[], BlockOrthoScheme],
                    bs: int | None = None) -> Tracer:
        """s-step GMRES under 'bcgs2', 'pip2', 'two_stage' (needs ``bs``)
        or the zero-argument scheme factory ``block_sstep_gmres`` takes
        (recorded at every call)."""
        if callable(scheme):
            stream = _record(scheme, self.m, self.s)
        elif scheme not in _SCHEMES:
            raise ConfigurationError(f"unknown scheme {scheme!r}")
        elif scheme == "two_stage" and bs is None:
            raise ConfigurationError("two_stage needs bs")
        else:
            stream = _config_stream(
                scheme, self.m, self.s, bs if scheme == "two_stage" else None)
        charges = list(self._prologue)
        for lo, hi, ops, final_cols in stream:
            charges += self._spmv * (hi - max(lo, 1))
            self._price(charges, "ortho", ops)
            if final_cols is not None:
                charges.append(self._checkpoint(final_cols - 1))
        charges += self._epilogue
        return Tracer().fold(charges)

    def cycle(self, config: str, bs: int | None = None) -> Tracer:
        """One restart cycle of a ``CONFIGS`` entry; two-stage runs at
        the paper's best ``bs = m`` unless told otherwise."""
        if config == "gmres":
            return self.standard_gmres_cycle()
        if config == "two_stage" and bs is None:
            bs = self.m
        return self.sstep_cycle(config, bs=bs)

    # ------------------------------------------------------------------
    def phase_seconds(self, tracer: Tracer) -> dict:
        """Phase dict with the paper's column conventions."""
        out = dict(tracer.by_phase)
        out["total"] = tracer.clock
        out.setdefault("spmv", 0.0)
        out.setdefault("precond", 0.0)
        out.setdefault("ortho", 0.0)
        out.setdefault("other", 0.0)
        return out
