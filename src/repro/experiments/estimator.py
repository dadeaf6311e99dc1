"""Per-cycle cost estimator: the live scheme classes, priced at paper scale.

The paper's performance experiments run at n = 2000^2 .. 1.5M on up to
192 GPUs — far beyond what the execution-driven simulator can hold in
NumPy.  But what a restart cycle *issues* depends on column widths
alone, so nothing about a scheme is restated here
(``docs/cost-model.md``, "Paper-scale pricing"):

* **recorded** — once per ``(scheme, m, s, bs)`` the real
  :class:`~repro.ortho.base.BlockOrthoScheme` (``cgs2_append`` for
  standard GMRES) factors a small well-conditioned random matrix through
  a logging ``NumpyBackend``; the log is its ``OrthoBackend`` primitives
  with their widths and, per panel, the columns it then called final.
  ``CycleCostEstimator._PRICES`` is the ONE table from a primitive to a
  ``CostModel`` formula; one it lacks is a :class:`ConfigurationError`;
* **shape-priced** — SpMV, halo and preconditioner have no live
  counterpart at paper scale (``_spmv``, :class:`PrecondShape`);
* **hand-written** — the solver shell around the scheme (explicit
  residual, cycle prologue, checkpoint host math, solution update).

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
from repro.parallel.costmodel import CostModel
from repro.parallel.machine import MachineSpec
from repro.parallel.tracing import Tracer

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

    @classmethod
    def stencil2d(cls, nx: int, stencil: int = 9) -> "ProblemShape":
        nnz_per_row = {5: 5.0, 9: 9.0}[stencil]
        return cls(n=nx * nx, nnz=nnz_per_row * nx * nx, halo_cols=2.0 * nx)

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
    """Cost shape of one preconditioner application (local GS sweep)."""

    sweeps: int = 1
    colors: int = 2

    def apply_cost(self, cost: CostModel, nnz_local: float,
                   rows_local: float) -> float:
        per_sweep = (cost.spmv(nnz_local, rows_local, rows_local)
                     + (self.colors - 1) * cost.machine.kernel_latency)
        return self.sweeps * per_sweep


def _unpriced(name: str):
    def refuse(self, *args, **kwargs):
        raise ConfigurationError(
            f"the estimator has no price for the OrthoBackend primitive "
            f"{name!r}; it prices {', '.join(CycleCostEstimator._PRICES)}")
    return refuse


class _StreamRecorder(NumpyBackend):
    """Logs ``(primitive, column widths)`` of every call the estimator
    prices and refuses the rest."""

    def __init__(self) -> None:
        self.ops: list[tuple] = []

    def take(self) -> tuple:
        ops, self.ops = tuple(self.ops), []
        return ops

    def dot(self, x, y):
        self.ops.append(("dot", ((x.shape[1], y.shape[1]),)))
        return super().dot(x, y)

    def fused_dots(self, pairs):
        self.ops.append(("fused_dots",
                         tuple((x.shape[1], y.shape[1]) for x, y in pairs)))
        return super().fused_dots(pairs)

    def norms(self, x):
        self.ops.append(("norms", (x.shape[1],)))
        return super().norms(x)

    def update(self, v, q, r) -> None:
        self.ops.append(("update", (q.shape[1], v.shape[1])))
        super().update(v, q, r)

    def trsm(self, v, r) -> None:
        self.ops.append(("trsm", (v.shape[1],)))
        super().trsm(v, r)

    def scale_cols(self, v, scales) -> None:
        self.ops.append(("scale_cols", (v.shape[1],)))
        super().scale_cols(v, scales)

    def host_flops(self, flops: float) -> None:
        self.ops.append(("host_flops", (flops,)))

    # sketch sizes depend on n and the QR kernels charge through
    # DistBackend._local_qr_cost: neither is a width-only stream
    dot_dd = _unpriced("dot_dd")
    sketch = _unpriced("sketch")
    fused_dots_sketch = _unpriced("fused_dots_sketch")
    householder_qr = _unpriced("householder_qr")
    tsqr = _unpriced("tsqr")


def _record(scheme_factory: Callable[[], BlockOrthoScheme] | None,
            m: int, s: int) -> tuple:
    """The primitive stream of one restart cycle of ``m`` steps:
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
    """Modeled phase times for one restart cycle of each solver config."""

    def __init__(self, machine: MachineSpec, ranks: int, shape: ProblemShape,
                 m: int, s: int = 5,
                 precond: PrecondShape | None = None) -> None:
        if m < s:
            raise ConfigurationError(f"restart {m} must be >= step {s}")
        if ranks < 1:
            raise ConfigurationError(f"ranks must be >= 1, got {ranks}")
        self.machine = machine
        self.ranks = int(ranks)
        self.shape = shape
        self.m = int(m)
        self.s = int(s)
        self.precond = precond
        self.cost = CostModel(machine)
        self.nl = math.ceil(shape.n / self.ranks)
        self.nnz_l = shape.nnz / self.ranks
        # the shape-priced charges depend on nothing a cycle changes
        self._halo_s = self._halo_seconds()
        self._spmv_s = self.cost.spmv(self.nnz_l, self.nl,
                                      self.nl + shape.halo_cols)
        self._precond_s = (None if precond is None else precond.apply_cost(
            self.cost, self.nnz_l, self.nl))

    # ------------------------------------------------------------------
    # the one primitive -> formula table (mirrors distla/engine.py)
    # ------------------------------------------------------------------
    def _reduce(self, t: Tracer, doubles: float) -> None:
        t.add("allreduce", self.cost.allreduce(_D * doubles, self.ranks))

    def _dots(self, t: Tracer, *pairs: tuple) -> None:
        """``X.T @ Y`` per ``(x cols, y cols)`` pair, then ONE collective."""
        doubles = 0
        for j, c in pairs:
            t.add("dot", self.cost.gemm(self.nl, j, c))
            doubles += j * c
        self._reduce(t, doubles)

    def _norms(self, t: Tracer, cols: int) -> None:
        t.add("norm", self.cost.blas1(self.nl * cols, n_streams=1, writes=0))
        self._reduce(t, cols)

    def _update(self, t: Tracer, j: int, c: int) -> None:
        t.add("update", self.cost.gemm_tall_update(self.nl, j, c))

    def _trsm(self, t: Tracer, c: int) -> None:
        t.add("trsm", self.cost.trsm(self.nl, c))

    def _scale(self, t: Tracer, cols: int) -> None:
        t.add("scale", self.cost.blas1(self.nl * cols, n_streams=1, writes=1))

    def _host(self, t: Tracer, flops: float) -> None:
        t.add("host", self.cost.host_dense(flops))

    _PRICES = {"dot": _dots, "fused_dots": _dots, "norms": _norms,
               "update": _update, "trsm": _trsm, "scale_cols": _scale,
               "host_flops": _host}

    def _price(self, t: Tracer, ops: tuple) -> None:
        prices = self._PRICES
        for primitive, widths in ops:
            prices[primitive](self, t, *widths)

    # ------------------------------------------------------------------
    # shape-priced: no live counterpart at paper scale
    # ------------------------------------------------------------------
    def _halo_seconds(self) -> float | None:
        """One halo exchange as the worst rank sees it (none on one rank)."""
        if self.ranks == 1:
            return None
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
        return self.cost.halo_exchange(halo, rank, self.ranks)

    def _precond(self, t: Tracer) -> None:
        if self._precond_s is not None:
            with t.phase("precond"):
                t.add("spmv_local", self._precond_s)

    def _spmv(self, t: Tracer) -> None:
        with t.phase("spmv"):
            if self._halo_s is not None:
                t.add("halo", self._halo_s)
            t.add("spmv_local", self._spmv_s)
        self._precond(t)

    # ------------------------------------------------------------------
    # the solver shell (krylov/restart.py, the checkpoint of sstep_gmres)
    # ------------------------------------------------------------------
    def _axpy(self, t: Tracer, streams: int) -> None:
        t.add("axpy", self.cost.blas1(self.nl, n_streams=streams, writes=1))

    def _explicit_residual(self, t: Tracer) -> None:
        self._spmv(t)
        with t.phase("other"):
            self._axpy(t, streams=2)              # lincomb b - Ax
            self._norms(t, 1)

    def _cycle_prologue(self, t: Tracer) -> None:
        self._explicit_residual(t)
        with t.phase("ortho"):
            self._axpy(t, streams=1)              # copy r into basis
            self._scale(t, 1)

    def _solution_update(self, t: Tracer, c: int) -> None:
        with t.phase("other"):
            t.add("update", self.cost.gemm(self.nl, c, 1))  # matvec_small
            self._axpy(t, streams=2)
        self._precond(t)

    def _checkpoint(self, t: Tracer, c: int) -> None:
        with t.phase("other"):
            # Hessenberg assembly + least squares, 2 c^3 host flops each
            t.add("host", self.cost.host_dense(4.0 * c ** 3), count=2)

    # ------------------------------------------------------------------
    # public: one full cycle per solver configuration
    # ------------------------------------------------------------------
    def standard_gmres_cycle(self) -> Tracer:
        """GMRES(m) + CGS2 (paper baseline)."""
        t = Tracer()
        self._cycle_prologue(t)
        for j, _, ops, _ in _config_stream("gmres", self.m, 1, None):
            self._spmv(t)
            with t.phase("ortho"):
                self._price(t, ops)
            self._host(t, 6.0 * j)                  # Givens update
        self._host(t, float(self.m) ** 2)           # triangular solve
        self._solution_update(t, self.m)
        return t

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
        t = Tracer()
        self._cycle_prologue(t)
        for lo, hi, ops, final_cols in stream:
            for _ in range(max(lo, 1), hi):
                self._spmv(t)
            with t.phase("ortho"):
                self._price(t, ops)
            if final_cols is not None:
                self._checkpoint(t, final_cols - 1)
        self._solution_update(t, self.m)
        return t

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
