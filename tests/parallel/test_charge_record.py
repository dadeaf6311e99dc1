"""One charge record through one funnel.

A modeled charge is one record — seconds, count, payload, flops, memory
bytes, the driver-side tag — handed to ``Tracer.add``
once; the metrics snapshot, the span stream and a replayed export are
views of it.  Held here:

* on *ragged* partitions the loop and batched engines leave bit-identical
  totals, every column of every ``(phase, kernel)`` row;
* a kept record charges what a fresh evaluation does (memo warm == memo
  cold): a second identical solve repeats the first's totals;
* no local charge is raw seconds: every kernel span but a collective's
  carries its flops and memory bytes (TSQR, the sketch applies and the
  block-Jacobi sweeps included);
* (an exported ``metrics=True`` solve gives, through ``repro-trace
  metrics``, the live ``metrics_doc()``: held over every golden case in
  ``tests/krylov/test_restart_golden.py``);
* structurally, ``Tracer.add`` is called from the two ``_charge``
  funnels (and the replay) only, the estimator folds whole cycles through
  ``Tracer.fold``, the one other row writer, and nobody assigns
  ``_charge``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.krylov.options import SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.ortho.bcgs import BCGS2Scheme
from repro.ortho.bcgs_pip import BCGSPIP2Scheme
from repro.ortho.randomized import RBCGSScheme
from repro.ortho.tsqr import TSQRFactor
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import _COLUMNS
from repro.precond.block_jacobi import BlockJacobiPreconditioner

NX = 20
#: default split of 400 rows over 7 ranks (two runs), and explicit
#: offsets (a run per rank)
RAGGED = {
    "two-runs": lambda: Partition(NX * NX, 7),
    "offsets": lambda: Partition(NX * NX, 5, offsets=np.array(
        [0, 50, 130, 230, 310, 400])),
}
SOLVES = {
    "bcgs2": dict(scheme=BCGS2Scheme),
    "pip2": dict(scheme=BCGSPIP2Scheme),
    "two-stage": dict(scheme=lambda: TwoStageScheme(20)),
    "block-jacobi-ca": dict(scheme=lambda: TwoStageScheme(20),
                            precond=BlockJacobiPreconditioner,
                            options=SolverOptions(mpk_mode="ca")),
}


def solve(sim: Simulation, scheme, precond=None, options=None):
    return sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=20,
                       tol=1e-30, maxiter=40, scheme=scheme(),
                       precond=None if precond is None else precond(),
                       options=options)


def ragged_sim(shape: str, **kw) -> Simulation:
    part = RAGGED[shape]()
    assert not part.is_uniform
    return Simulation(laplace2d(NX), ranks=part.ranks, partition=part,
                      machine=generic_cpu(), **kw)


@pytest.mark.parametrize("shape", sorted(RAGGED))
@pytest.mark.parametrize("name", sorted(SOLVES))
def test_engines_leave_identical_totals_on_ragged_partitions(name, shape):
    docs = {}
    for engine in ("loop", "batched"):
        sim = ragged_sim(shape, engine=engine)
        solve(sim, **SOLVES[name])
        docs[engine] = sim.tracer.to_dict()
    loop, batched = docs["loop"], docs["batched"]
    for column in ("by_kernel", "counts", "flops", "mem_bytes"):
        assert batched[column] == loop[column], column
    assert batched == loop
    assert sum(batched["flops"].values()) > 0.0
    assert sum(batched["mem_bytes"].values()) > 0.0


#: solves whose local kernels were once charged outside the price table
SHAPED = {
    "bcgs2-tsqr": dict(scheme=lambda: BCGS2Scheme(intra_first=TSQRFactor())),
    "rbcgs-sketched": dict(scheme=RBCGSScheme,
                           options=SolverOptions(solve_mode="sketched")),
    "block-jacobi-auto": dict(scheme=lambda: TwoStageScheme(20),
                              precond=BlockJacobiPreconditioner,
                              options=SolverOptions(mpk_mode="auto")),
}


@pytest.mark.parametrize("name", sorted(SHAPED))
def test_no_local_charge_is_raw_seconds(name):
    sim = Simulation(laplace2d(NX), ranks=4, machine=generic_cpu(),
                     spans=True)
    solve(sim, **SHAPED[name])
    local = [s for s in sim.tracer.spans
             if s.cat == "kernel" and s.name not in ("allreduce", "halo")]
    bare = {(s.phase, s.name, s.driver_side) for s in local
            if s.flops is None or s.mem_bytes is None}
    assert bare == set()
    # the driver-side charges (TSQR's panel, the sketch partials) are here
    assert name == "block-jacobi-auto" or any(s.driver_side for s in local)


@pytest.mark.parametrize("name", ["two-stage", "block-jacobi"])
@pytest.mark.parametrize("shape", ["uniform", *sorted(RAGGED)])
def test_second_identical_solve_repeats_the_first(shape, name):
    """The first solve fills every memo, the second only reads them."""
    sim = (Simulation(laplace2d(NX), ranks=4, machine=generic_cpu())
           if shape == "uniform" else ragged_sim(shape))
    kw = dict(SOLVES["two-stage"])
    if name == "block-jacobi":
        pc = BlockJacobiPreconditioner().setup(sim.matrix)
        kw["precond"] = lambda: pc
    solve(sim, **kw)
    cold = sim.tracer.to_dict()
    sim.tracer.reset()
    solve(sim, **kw)
    assert sim.tracer.to_dict() == cold
    # and on one running clock every total doubles: exactly where the
    # sums are exact (counts, whole bytes), to rounding elsewhere (a
    # host Cholesky retires c^3 / 3 flops)
    solve(sim, **kw)
    both = sim.tracer.to_dict()
    for column in ("counts", "payload_bytes", "mem_bytes"):
        assert both[column] == {k: 2 * v for k, v in cold[column].items()}
    assert both["clock"] == pytest.approx(2 * cold["clock"], rel=1e-12)
    for column in ("by_kernel", "flops"):
        assert both[column] == pytest.approx(
            {k: 2 * v for k, v in cold[column].items()}, rel=1e-12)


# ----------------------------------------------------------------------
SRC = Path(repro.__file__).resolve().parent


def _enclosing_functions(tree: ast.AST):
    """``(qualified name, node)`` of every call in ``tree``."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Call):
                yield ".".join(scope), child
            yield from walk(child, inner)
    yield from walk(tree, ())


def _is_tracer_add(call: ast.Call) -> bool:
    """``<tracer-ish>.add(<str kernel or name>, seconds, ...)``: a call of
    an ``add`` attribute with at least two arguments (``set.add`` takes
    one)."""
    return (isinstance(call.func, ast.Attribute) and call.func.attr == "add"
            and len(call.args) + len(call.keywords) >= 2)


def _writes_a_row(node: ast.AST, bare: bool) -> bool:
    """``<obj>.<column>[key] += ...`` or ``<obj>.<column>.update(...)``,
    or with ``bare`` also on a local alias ``<column>``."""
    if isinstance(node, ast.AugAssign) and isinstance(node.target,
                                                      ast.Subscript):
        column = node.target.value
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr == "update"):
        column = node.func.value
    else:
        return False
    name = (column.attr if isinstance(column, ast.Attribute)
            else column.id if bare and isinstance(column, ast.Name) else None)
    return name in ("by_phase", *_COLUMNS)


def test_tracer_add_is_called_from_the_funnels_and_fold_from_the_estimator():
    """One ``add`` per live charge; the paper-scale estimator hands a whole
    cycle to the batch fold instead, and the sweep a block of cycles to
    the block fold :meth:`Tracer.fold` is the one-row case of; ``add`` and
    ``fold`` are the only functions that write a row — both in
    ``tracing.py``."""
    callers, folds, blocks, writers = set(), set(), set(), set()
    for path in SRC.rglob("*.py"):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text())
        for scope, call in _enclosing_functions(tree):
            where = (rel, scope.split(".")[0], scope.split(".")[-1])
            if _is_tracer_add(call):
                callers.add(where)
            if isinstance(call.func, ast.Attribute) and call.func.attr == "fold":
                folds.add(where)
            if getattr(call.func, "id", None) == "fold_block":
                blocks.add(where)
        bare = rel == "parallel/tracing.py"
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                    _writes_a_row(node, bare) for node in ast.walk(fn)):
                writers.add((rel, fn.name))
    assert callers == {
        ("parallel/communicator.py", "SimComm", "_charge"),
        ("parallel/mp_backend.py", "MpComm", "_charge_measured"),
        # the replay of exported spans folds through the same function
        ("parallel/tracing.py", "Tracer", "replay"),
    }
    assert folds == {("experiments/estimator.py", "CycleCostEstimator",
                      "_priced")}
    assert blocks == {("experiments/sweep.py", "sweep", "sweep"),
                      ("parallel/tracing.py", "Tracer", "fold")}
    assert writers == {("parallel/tracing.py", "add"),
                       ("parallel/tracing.py", "fold")}


def test_nothing_assigns_the_charge_funnel():
    """``_charge`` is defined once, as ``SimComm``'s method: no instance
    patch (``comm._charge = ...``, ``setattr``, ``__dict__["_charge"]``)
    and no second definition."""
    defs, offenders = [], []
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef) and node.name == "_charge":
                defs.append(rel)
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr == "_charge"):
                    offenders.append((rel, node.lineno))
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and target.slice.value == "_charge"):
                    offenders.append((rel, node.lineno))
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", "") == "setattr"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value == "_charge"):
                offenders.append((rel, node.lineno))
    assert defs == ["parallel/communicator.py"]
    assert offenders == []
