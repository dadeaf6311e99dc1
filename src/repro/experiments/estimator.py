"""Per-cycle cost estimator: the live scheme classes, priced at paper scale.

The paper's performance experiments run at n = 2000^2 .. 1.5M on up to
192 GPUs — far beyond what the execution-driven simulator can hold in
NumPy.  But what a restart cycle *issues* depends on column widths
alone, so nothing about a scheme is restated here
(``docs/cost-model.md``, "Paper-scale pricing"):

* **planned** — the real :class:`~repro.ortho.base.BlockOrthoScheme`
  (``cgs2_append`` for standard GMRES) factors a small well-conditioned
  random matrix through a logging ``NumpyBackend``, which records per
  ``OrthoBackend`` call the ops ``DistBackend`` charges for it (local ops
  of :data:`~repro.parallel.costmodel.LOCAL_OPS` by column widths, the
  doubles of its one collective, host flops); a primitive no such ops
  describe (``sketch``, ``householder_qr``, ``tsqr``) is a
  :class:`ConfigurationError`.  With the solver shell around it (SpMV
  steps, residual, checkpoint host math, solution update) that is a
  :class:`_Plan`: the distinct ops and, per charge, its op, row and
  count, kept per ``(config, m, s, bs, ranks > 1, precond)``;
* **priced** — :func:`price_cells`, for the groups of cells (a plan and
  the estimators it is priced at) of one machine: the union of their
  plans' ops (:func:`_union`), each op kind by one elementwise call over
  an ``(estimators x ops)`` block for the estimators whose plans have
  it — a local op by its ``LOCAL_OPS`` formula over the ``nl`` rows,
  SpMV and the block-Jacobi apply (:class:`PrecondShape`) by
  per-estimator shape columns, a collective over the rank column, a
  halo per estimator — then gathered per charge of each plan, which
  the caller folds in one :func:`~repro.parallel.tracing.fold_block`.
  A cycle of one estimator is the one-plan, one-cell case, folded by
  :meth:`Tracer.fold`.

Every ``(phase, kernel)`` row equals the tracer diff of one live solver
cycle to rounding, count for count; ``spmv/spmv_local`` alone differs
(the ``nl + halo_cols`` operand shape) under the ceiling named in
``tests/experiments/test_estimator.py``.  Inside ``experiments/`` the
one caller is :func:`repro.experiments.sweep.sweep`, which groups a
grid's cells and keeps what it priced (``docs/cost-model.md``).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.krylov.sstep_gmres import _panel_bounds
from repro.ortho.backend import NumpyBackend
from repro.ortho.base import BlockOrthoScheme
from repro.ortho.bcgs import BCGS2Scheme
from repro.ortho.bcgs_pip import BCGSPIP2Scheme
from repro.ortho.cgs import cgs2_append
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.costmodel import _DOUBLE, LOCAL_OPS, CostModel
from repro.parallel.machine import MachineSpec
from repro.parallel.tracing import TraceTotals, Tracer
from repro.utils.validation import check_positive_int

#: The solver configurations of Tables III/IV and Fig. 13, in paper
#: order (what :meth:`CycleCostEstimator.cycle` takes), and the scheme
#: each s-step one names.
CONFIGS = ("gmres", "bcgs2", "pip2", "two_stage")
_SCHEMES = {"bcgs2": BCGS2Scheme, "pip2": BCGSPIP2Scheme,
            "two_stage": TwoStageScheme}


def _check_real(value, name: str, positive: bool) -> None:
    """``value`` is a finite real number, > 0 if ``positive`` else >= 0."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not math.isfinite(value)
            or not (value > 0 if positive else value >= 0)):
        raise ConfigurationError(f"{name} must be a finite number "
                                 f"{'>' if positive else '>='} 0, got {value!r}")


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
        check_positive_int(self.n, "n")
        _check_real(self.nnz, "nnz", positive=True)
        _check_real(self.halo_cols, "halo_cols", positive=False)
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


@dataclass(frozen=True)
class PrecondShape:
    """Shape of one block-Jacobi apply: ``sweeps`` multicolor
    Gauss-Seidel sweeps of ``colors`` colours over a rank's block,
    priced by the ``gs_sweep`` entry the live preconditioner charges."""

    sweeps: int = 1
    colors: int = 2

    def __post_init__(self) -> None:
        check_positive_int(self.sweeps, "sweeps")
        check_positive_int(self.colors, "colors")


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


#: The shell's charges before the first panel (``krylov/restart.py``): the
#: residual ``b - A x`` and its norm, ``r`` copied and scaled.
_PROLOGUE = (("other", ("axpy", 1, 2), 1), ("other", ("norm", 1), 1),
             ("other", ("allreduce", 1), 1), ("ortho", ("axpy", 1, 1), 1),
             ("ortho", ("scale", 1, 1), 1))
#: The charged kernel of each op that is not a :data:`LOCAL_OPS` entry: a
#: collective, host flops, and the shape-priced halo, SpMV and precond.
_KERNELS = {"allreduce": "allreduce", "host": "host", "halo": "halo",
            "spmv": "spmv_local", "precond": LOCAL_OPS["gs_sweep"][0]}


class _Plan(NamedTuple):
    """What one restart cycle charges, whatever the estimator: per charge,
    the slot of its op among the distinct ``ops`` (first-use order), its
    row among the ``(phase, kernel)`` ``keys`` (first-seen) and its
    count."""

    ops: tuple
    keys: tuple
    slots: np.ndarray
    rows: np.ndarray
    counts: np.ndarray


class _Kind(NamedTuple):
    """The ops of one name among a union of plans: their ``slots`` among
    the union's distinct ops, one column per argument (what one
    elementwise formula call prices for every cell at once) and the
    ``plans`` that have such an op (whose cells the kind is priced for)."""

    name: str
    slots: np.ndarray
    args: tuple
    plans: tuple


class _Union(NamedTuple):
    """The distinct ops of several plans: how many, grouped into
    ``kinds``, and per plan the union slot of each of its ops."""

    size: int
    kinds: tuple
    maps: tuple


def _frozen(values, dtype=None) -> np.ndarray:
    column = np.array(values, dtype=dtype)
    column.setflags(write=False)
    return column


@functools.lru_cache(maxsize=64)
def _union(ops: tuple) -> _Union:
    """The :class:`_Union` of the plans whose distinct ops are ``ops``
    (one tuple per plan), union slots in first-use order, kept for the
    process: it depends on the ops alone.  Integer arguments stay
    integers (int64), as the scalar formulas see them."""
    slot: dict = {}
    maps = tuple(_frozen([slot.setdefault(op, len(slot)) for op in plan_ops],
                         np.intp) for plan_ops in ops)
    named: dict = {}
    for (name, *args), at in slot.items():
        named.setdefault(name, []).append((at, *args))
    kinds = []
    for name, entries in named.items():
        slots, *args = (_frozen(column) for column in zip(*entries))
        kinds.append(_Kind(name, slots, tuple(args), tuple(
            p for p, plan_ops in enumerate(ops)
            if any(op[0] == name for op in plan_ops))))
    return _Union(len(slot), tuple(kinds), maps)


def _build_plan(scheme_factory: Callable[[], BlockOrthoScheme] | None,
                m: int, s: int, halo: bool, precond: bool) -> _Plan:
    """The plan of one restart cycle of ``m`` steps inside the solver
    shell: per arriving panel its SpMV steps — a halo exchange (``halo``),
    the local product, a preconditioner apply (``precond``) — then the ops
    the scheme issued for it, then the host math of a checkpoint if the
    scheme called columns final.  ``None`` plans standard GMRES: one
    never-final CGS2 column per step."""
    backend = _StreamRecorder()
    # well conditioned, so no factorization can break down whatever s is
    basis = np.random.default_rng(0).standard_normal((4 * (m + 1), m + 1))
    apply = (("precond", ("precond",), 1),) * precond
    step = (("spmv", ("halo",), 1),) * halo + (("spmv", ("spmv",), 1),) + apply
    charges = [*step, *_PROLOGUE]

    def arrived(steps: int, final_cols: int | None = None) -> None:
        charges.extend(step * steps)
        charges.extend(("ortho", op, 1) for call in backend.take()
                       for op in call)
        if final_cols is not None:
            # Hessenberg assembly + least squares, 2 c^3 host flops each
            charges.append(("other", ("host", 4.0 * (final_cols - 1) ** 3), 2))

    if scheme_factory is None:
        cgs2_append(backend, basis, 0)   # the prologue charges this one
        backend.take()
        for j in range(1, m + 1):
            cgs2_append(backend, basis, j)
            arrived(1)
            charges.append(("other", ("host", 6.0 * j), 1))
        charges.append(("other", ("host", float(m) ** 2), 1))
    else:
        scheme = scheme_factory()
        scheme.begin_cycle(backend, basis, np.zeros((m + 1, m + 1)))
        for lo, hi in _panel_bounds(s, m + 1):
            final = scheme.panel_arrived(lo, hi)
            arrived(hi - max(lo, 1), scheme.final_cols if final else None)
        arrived(0, scheme.final_cols if scheme.finish_cycle() else None)
    # the solution update ``x += V y``, then a preconditioner apply
    charges += [("other", ("matvec", m, 1), 1), ("other", ("axpy", 1, 2), 1),
                *apply]
    ops, keys = {}, {}
    plan = np.array([(ops.setdefault(op, len(ops)), keys.setdefault(
        (phase, _KERNELS.get(op[0]) or LOCAL_OPS[op[0]][0]), len(keys)), count)
        for phase, op, count in charges], dtype=np.intp).T
    plan.setflags(write=False)   # shared by every estimator of the process
    return _Plan(tuple(ops), tuple(keys), *plan)


@functools.lru_cache(maxsize=256, typed=True)
def _plan(config: str, m: int, s: int, bs: int | None, halo: bool,
          precond: bool) -> _Plan:
    """:func:`_build_plan` of a ``CONFIGS`` entry, kept for the process:
    the structure key is all a plan depends on.  Typed, so that a
    ``bs`` the scheme refuses (``True``, ``10.0``) is refused again after
    an equal valid one (``1``, ``10``) was planned."""
    scheme = _SCHEMES.get(config)            # None: standard GMRES
    if bs is not None:
        scheme = functools.partial(scheme, big_step=bs)
    return _build_plan(scheme, m, s, halo, precond)


def price_cells(estimators: list, plans: list) -> list:
    """The ``(cells x charges)`` seconds of each ``(plan, rows)`` of
    ``plans`` at ``estimators[rows]``, all on one machine.

    The plans' distinct ops are priced once, as their :func:`_union`:
    each kind of op by one elementwise call over an ``(estimators x
    ops)`` block, for the estimators of the plans that have it.  A local
    op is its :data:`LOCAL_OPS` formula over the estimators' ``nl`` rows
    (a column) and the kind's argument columns; host flops depend on the
    machine alone; SpMV and the block-Jacobi apply (:class:`PrecondShape`)
    take per-estimator shape columns; a collective takes their rank
    column against the payload row; a halo exchange is priced per
    estimator.  Each plan then gathers its block through its union map,
    one column per charge."""
    union = _union(tuple(plan.ops for plan, _ in plans))
    cost = estimators[0].cost

    def column(values, dtype=float) -> np.ndarray:
        return np.array(values, dtype=dtype)[:, None]

    nl = column([c.nl for c in estimators], np.int64)
    nnz_l = column([c.nnz_l for c in estimators])
    prices = np.full((len(estimators), union.size), np.nan)
    for name, slots, args, has in union.kinds:
        at = sorted(set().union(*(plans[p][1] for p in has)))
        priced = [estimators[row] for row in at]
        if name == "allreduce":
            seconds = cost.allreduce(
                _DOUBLE * args[0], column([c.ranks for c in priced], np.int64))
        elif name == "halo":
            seconds = column([c._halo_seconds() for c in priced])
        elif name == "host":
            seconds = cost.host_dense(args[0])
        elif name == "spmv":
            seconds = cost.spmv(nnz_l[at], nl[at], nl[at] + column(
                [c.shape.halo_cols for c in priced]))
        elif name == "precond":
            seconds = LOCAL_OPS["gs_sweep"][1](
                cost, nl[at], nnz_l[at],
                column([c.precond.sweeps for c in priced], np.int64),
                column([c.precond.colors for c in priced], np.int64))
        else:
            seconds = LOCAL_OPS[name][1](cost, nl[at], *args)
        prices[column(at, np.intp), slots] = seconds
    return [prices[column(rows, np.intp), to_union[plan.slots]]
            for (plan, rows), to_union in zip(plans, union.maps)]


class CycleCostEstimator:
    """Modeled phase times for one restart cycle of each solver config.

    A cycle is a :class:`_Plan`, kept for the process; a cycle priced
    here is the one-cell case of the sweep's pricing: :func:`price_cells`
    over this estimator alone, folded into a fresh :class:`Tracer`
    (:meth:`Tracer.fold`).
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
        #: what a plan depends on besides the stream: a halo, a precond
        self._structure = (self.ranks > 1, precond is not None)

    def _halo_seconds(self) -> float:
        """The worst rank's halo exchange: at a node boundary, one
        neighbour is off-node (rank rpn-1 talking to rpn-2 and rpn)."""
        nb, rank = self.shape.halo_neighbors, self.machine.ranks_per_node - 1
        if self.machine.nodes_for(self.ranks) > 1:
            peers = [rank - 1 - p for p in range(nb - 1)] + [rank + 1]
        else:
            peers, rank = range(1, nb + 1), 0
        return self.cost.halo_exchange(dict.fromkeys(
            peers, _DOUBLE * self.shape.halo_cols / nb), rank, self.ranks)

    def plan(self, config: str, bs: int | None = None) -> _Plan:
        """The plan :meth:`cycle` prices."""
        if config == "gmres":
            return _plan("gmres", self.m, 1, None, *self._structure)
        if config == "two_stage" and bs is None:
            bs = self.m
        return self._sstep_plan(config, bs)

    def _sstep_plan(self, scheme: str | Callable[[], BlockOrthoScheme],
                    bs: int | None) -> _Plan:
        if callable(scheme):
            return _build_plan(scheme, self.m, self.s, *self._structure)
        if scheme not in _SCHEMES:
            raise ConfigurationError(f"unknown scheme {scheme!r}")
        if scheme == "two_stage" and bs is None:
            raise ConfigurationError("two_stage needs bs")
        return _plan(scheme, self.m, self.s,
                     bs if scheme == "two_stage" else None, *self._structure)

    def _priced(self, plan: _Plan) -> Tracer:
        return Tracer().fold(plan.keys, plan.rows,
                             price_cells([self], [(plan, [0])])[0][0],
                             plan.counts)

    # ------------------------------------------------------------------
    # public: one full cycle per solver configuration
    # ------------------------------------------------------------------
    def standard_gmres_cycle(self) -> Tracer:
        """GMRES(m) + CGS2 (paper baseline)."""
        return self._priced(self.plan("gmres"))

    def sstep_cycle(self, scheme: str | Callable[[], BlockOrthoScheme],
                    bs: int | None = None) -> Tracer:
        """s-step GMRES under 'bcgs2', 'pip2', 'two_stage' (needs ``bs``)
        or the zero-argument scheme factory ``block_sstep_gmres`` takes
        (recorded and planned at every call)."""
        return self._priced(self._sstep_plan(scheme, bs))

    def cycle(self, config: str, bs: int | None = None) -> Tracer:
        """One restart cycle of a ``CONFIGS`` entry; two-stage runs at
        the paper's best ``bs = m`` unless told otherwise."""
        return self._priced(self.plan(config, bs))

    # ------------------------------------------------------------------
    def phase_seconds(self, tracer: TraceTotals) -> dict:
        """Phase dict with the paper's column conventions (elementwise
        when the totals are a block fold's columns)."""
        out = {**tracer.by_phase, "total": tracer.clock}
        for phase in ("spmv", "precond", "ortho", "other"):
            out.setdefault(phase, 0.0)
        return out
