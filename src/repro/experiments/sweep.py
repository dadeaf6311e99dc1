"""One priced sweep, many views (``docs/experiments.md``).

Tables II-IV, Figs. 10-13 and ablations A1/A2 are per-cycle phase and
kernel seconds of solver configurations at a grid of ``(machine, ranks,
shape)`` points.  :func:`sweep` is the one loop in ``experiments/`` that
builds a :class:`CycleCostEstimator` and prices cycles: the cells (a point
and a config) that share a plan and a machine are priced as one block of
arrays and folded by one block fold, and a priced cell is kept for the
process under everything its price depends on.  Each artifact is ``grid
-> sweep -> view -> format`` over the :class:`Frame` it returns.
"""

from __future__ import annotations

import numbers
from collections import Counter, OrderedDict, namedtuple
from dataclasses import fields, is_dataclass
from functools import partial
from itertools import repeat
from typing import Iterable, Mapping

import numpy as np

from repro.exceptions import ConfigurationError
from repro.experiments import estimator
from repro.experiments.common import resolve_machine
from repro.experiments.estimator import CONFIGS, CycleCostEstimator, ProblemShape
from repro.parallel.tracing import TraceTotals, fold_block

#: ``(label, config, bs)`` of the paper's four configurations; two-stage
#: runs at ``bs = m``
PAPER_CONFIGS = tuple((config, config, None) for config in CONFIGS)


#: one estimator, named ``key`` in the frame (a node count, matrix name
#: or row label), and the ``(label, config, bs)`` triples it prices
Point = namedtuple("Point", "key machine ranks shape precond m s configs")

#: per-cycle tracer seconds and count of one ``(phase, kernel)``;
#: ``kernel=None`` is the phase's own total (``"total"``: the clock)
Row = namedtuple("Row", "key label phase kernel seconds count")
#: ``Row`` of one 6-tuple, without the generated ``__new__``'s frame
_row = partial(tuple.__new__, Row)


class Frame(list):
    """The rows of one :func:`sweep`, in grid, config and tracer order."""

    def pivot(self, phase: str | None = None) -> dict:
        """``{key: {label: {name: seconds}}}`` of the phase rows, or with
        ``phase`` given, of that phase's kernel rows."""
        out: dict = {}
        for r in self:
            if phase in (None, r.phase) and (r.kernel is None) == (phase is None):
                out.setdefault(r.key, {}).setdefault(r.label, {})[
                    r.kernel or r.phase] = r.seconds
        return out

    def per_run(self, iters: Mapping, m: int) -> dict:
        """SpMV (+ preconditioner), Ortho and Total seconds of a whole run
        of ``iters[label] / m`` cycles (Tables II, III)."""
        return {key: {label: {"spmv": iters[label] / m * (ph["spmv"] + ph["precond"]),
                              "ortho": iters[label] / m * ph["ortho"],
                              "total": iters[label] / m * ph["total"]}
                      for label, ph in per_label.items()}
                for key, per_label in self.pivot().items()}

    def per_iteration(self, m: int) -> dict:
        """The same columns per iteration (Table IV, Fig. 13)."""
        return {key: {label: {"spmv": ph["spmv"] / m + ph["precond"] / m,
                              "ortho": ph["ortho"] / m,
                              "total": ph["total"] / m}
                      for label, ph in per_label.items()}
                for key, per_label in self.pivot().items()}


#: how many points :func:`sweep` keeps the priced cells of, least
#: recently used out first (a run of every sweep artifact keeps 116
#: cells at 21 points)
_MEMO_POINTS = 256
#: ``{point key: {(config, bs): cell}}``: per point the laid-out rows of
#: each priced ``CONFIGS`` cell, ``(phases, kernels, seconds, counts)``
#: tuples shared by every frame that shows them
_memo: OrderedDict = OrderedDict()


#: the field names of each dataclass :func:`_exact` has met (``()`` for
#: any other type)
_FIELDS: dict = {}


def _exact(value):
    """``value`` as a key that tells apart what may price apart: its type
    and, for a NumPy scalar, its bytes, for a float its bits (``-0.0`` is
    not ``0.0``), for a dataclass the same field by field."""
    cls = type(value)
    if cls is float:
        return (cls, value.hex())
    names = _FIELDS.get(cls)
    if names is None:
        names = _FIELDS[cls] = tuple(
            f.name for f in fields(cls)) if is_dataclass(cls) else ()
    if names:
        return (cls, *[_exact(getattr(value, name)) for name in names])
    if isinstance(value, np.generic):
        return (cls, value.tobytes())
    if isinstance(value, float):
        return (cls, value.hex())
    return (cls, value)


def sweep(points: Iterable[Point]) -> Frame:
    """Price one restart cycle of every config at every point.

    A cell is a point and a config.  Every point and config is checked
    on every call.  A ``CONFIGS`` cell priced by an earlier call is
    taken from the process's memo, keyed by ``(machine, ranks, shape,
    precond, m, s)`` as the estimator checked them and ``(config, bs)``;
    a scheme factory is priced every time.  The other cells whose plans
    and machines are the same form a group.  Per machine, one
    :func:`price_cells` call prices the union of its groups' ops; one
    :func:`fold_block` folds each group and its rows are laid out once,
    and kept only once the whole sweep has succeeded; the frame comes out
    in grid, config and tracer order whatever the grouping."""
    cells, laid_out, machines, priced = [], [], {}, []
    machine = machine_key = None
    for p in points:
        est = CycleCostEstimator(p.machine, p.ranks, p.shape, m=p.m, s=p.s,
                                 precond=p.precond)
        if p.machine is not machine:   # a grid's points share one machine
            machine, machine_key = p.machine, _exact(p.machine)
        key = (machine_key, est.ranks, _exact(p.shape), _exact(p.precond),
               est.m, est.s)
        kept, fresh = _memo.get(key, {}), {}
        if kept:
            _memo.move_to_end(key)
        for label, config, bs in p.configs:
            plan = est.plan(config, bs)
            cell = kept.get((config, bs)) if isinstance(config, str) else None
            cells.append((p.key, label))
            laid_out.append(cell)
            if cell is not None:
                continue
            ests, groups = machines.setdefault(key[0], ([], {}))
            if not ests or ests[-1] is not est:
                ests.append(est)
            _, rows, members = groups.setdefault(id(plan), (plan, [], []))
            rows.append(len(ests) - 1)
            members.append(len(cells) - 1)
            if isinstance(config, str):
                fresh[config, bs] = len(cells) - 1
        if fresh:
            priced.append((key, fresh))
    for ests, groups in machines.values():
        groups = list(groups.values())
        blocks = estimator.price_cells(
            ests, [(plan, rows) for plan, rows, _ in groups])
        for (plan, _, members), seconds in zip(groups, blocks):
            block = fold_block(plan.keys, plan.rows, seconds, plan.counts)
            block.check()
            counts = Counter()
            for (phase, _), count in zip(block.keys, block.counts.tolist()):
                counts[phase] += count
                counts["total"] += count
            phases = ests[0].phase_seconds(TraceTotals(
                block.clocks[:, -1], dict(zip(block.phases, block.by_phase.T))))
            width = len(block.keys)
            names = (tuple([*(phase for phase, _ in block.keys), *phases]),
                     tuple([*(kernel for _, kernel in block.keys),
                            *(None for _ in phases)]))
            tallies = (*block.counts.tolist(), *(counts[p] for p in phases))
            seconds = np.empty((len(members), width + len(phases)))
            seconds[:, :width] = block.by_kernel
            for column, v in enumerate(phases.values(), width):
                seconds[:, column] = v
            for i, row in zip(members, seconds.tolist()):
                laid_out[i] = (*names, tuple(row), tallies)
    for key, fresh in priced:
        _memo.setdefault(key, {}).update(
            (config, laid_out[i]) for config, i in fresh.items())
        _memo.move_to_end(key)
    while len(_memo) > _MEMO_POINTS:
        _memo.popitem(last=False)
    frame = Frame()
    for (key, label), columns in zip(cells, laid_out):
        frame.extend(map(_row, zip(repeat(key), repeat(label), *columns)))
    return frame


def strong_scaling(node_counts: Iterable | None, configs: tuple,
                   nx: int = 2000, m: int = 60, s: int = 5,
                   machine="summit", precond=None) -> list[Point]:
    """Table III's grid, keyed by node count (1 .. 32 by default):
    9-point 2D Laplace ``n = nx^2``, ``ranks_per_node`` ranks per node."""
    node_counts = list((1, 2, 4, 8, 16, 32) if node_counts is None
                       else node_counts)
    bad = [n for n in node_counts if not isinstance(n, numbers.Integral)
           or isinstance(n, bool) or n < 1]
    if bad or not node_counts or len(set(node_counts)) < len(node_counts):
        raise ConfigurationError(f"node counts must be distinct integers "
                                 f">= 1, got {bad or node_counts}")
    mach = resolve_machine(machine)
    shape = ProblemShape.stencil2d(nx, 9)
    return [Point(nodes, mach, nodes * mach.ranks_per_node, shape, precond,
                  m, s, configs) for nodes in node_counts]
