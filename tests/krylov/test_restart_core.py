"""The restart core's two contracts that are not numbers: every entry
point refuses a solve that cannot run before charging anything, and the
shell exists once."""

from __future__ import annotations

import ast
import inspect
import signal
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import repro.krylov
from repro.exceptions import ConfigurationError, ShapeError
from repro.krylov.adaptive import adaptive_sstep_gmres
from repro.krylov.block import block_sstep_gmres
from repro.krylov.gmres import gmres
from repro.krylov.options import SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.parallel.machine import generic_cpu
from repro.service.queue import SolveQueue

N = 64


def _block(sim, b, x0=None, **kw):
    """The offending column rides second, behind a sound one."""
    if x0 is not None and x0.shape == (N,):
        x0 = np.stack([np.zeros(N), x0], axis=1)
    return block_sstep_gmres(sim, [np.ones(N), b], x0, **kw)


def _submit(sim, b, x0=None, **kw):
    queue = SolveQueue(sim)
    queue.submit(np.ones(N))
    try:
        queue.submit(b, x0, **kw)
    finally:
        assert queue.pending == 1  # the bad request never joined the batch


#: name -> (call, the structural parameters it takes)
ENTRY_POINTS = {
    "gmres": (gmres, {"restart", "maxiter", "tol"}),
    "sstep_gmres": (sstep_gmres, {"s", "restart", "maxiter", "tol"}),
    # the knobs that set up more before the first charge: the CA ghost
    # plan and the sketch draw must both wait behind the door
    "sstep_gmres[ca]": (
        partial(sstep_gmres, options=SolverOptions(mpk_mode="ca")),
        {"s", "restart", "maxiter", "tol"}),
    "sstep_gmres[sketched]": (
        partial(sstep_gmres, options=SolverOptions(solve_mode="sketched")),
        {"s", "restart", "maxiter", "tol"}),
    "block_sstep_gmres": (_block, {"s", "restart", "maxiter", "tol"}),
    "adaptive_sstep_gmres": (adaptive_sstep_gmres,
                             {"restart", "maxiter", "tol"}),
    "SolveQueue.submit": (_submit, {"s", "restart", "maxiter", "tol"}),
}


def _with(index: int, value: float) -> np.ndarray:
    arr = np.ones(N)
    arr[index] = value
    return arr


#: id -> (structural kwargs, b, x0, error, message)
BAD_INPUTS = {
    # these two never returned at the parent commit
    "s=0": (dict(s=0, restart=20), None, None,
            ConfigurationError, "s must be positive, got 0"),
    "restart=0": (dict(restart=0), None, None,
                  ConfigurationError, "restart must be positive, got 0"),
    "s=2.5": (dict(s=2.5), None, None,
              ConfigurationError, "s must be an int"),
    "restart<s": (dict(s=5, restart=3), None, None,
                  ConfigurationError, "restart 3 must be >= step 5"),
    "maxiter=-1": (dict(maxiter=-1), None, None,
                   ConfigurationError, "maxiter must be >= 0, got -1"),
    # no residual passes these: the solve runs to maxiter and reports failure
    "tol=nan": (dict(tol=float("nan")), None, None, ConfigurationError,
                "tol must be a non-negative number, got nan"),
    "tol=-1": (dict(tol=-1.0), None, None, ConfigurationError,
               "tol must be a non-negative number, got -1.0"),
    "b short": ({}, np.ones(N - 1), None, ShapeError, "must have 64 entries"),
    "b nan": ({}, _with(3, np.nan), None,
              ConfigurationError, "b contains non-finite entries"),
    "b inf": ({}, _with(N - 1, -np.inf), None,
              ConfigurationError, "b contains non-finite entries"),
    "x0 short": ({}, None, np.ones(N + 1),
                 ShapeError, "x0 must have 64 entries"),
    "x0 inf": ({}, None, _with(0, np.inf),
               ConfigurationError, "x0 contains non-finite entries"),
}

DOOR_CASES = [
    pytest.param(entry, bad, id=f"{entry}-{bad}")
    for entry, (_, takes) in ENTRY_POINTS.items()
    for bad, (kwargs, *_) in BAD_INPUTS.items()
    if set(kwargs) <= takes]


@pytest.fixture(scope="module", params=["sim", "mp"])
def sim(request):
    with Simulation(laplace2d(8), ranks=2, machine=generic_cpu(),
                    backend=request.param) as simulation:
        yield simulation


@pytest.fixture
def deadline():
    """A reintroduced hang fails the test instead of stalling tier-1."""
    def on_alarm(signum, frame):
        raise TimeoutError("the solver did not refuse its input in time")
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(20)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("entry, bad", DOOR_CASES)
def test_refused_at_the_door(sim, deadline, entry, bad):
    call, _ = ENTRY_POINTS[entry]
    kwargs, b, x0, error, message = BAD_INPUTS[bad]
    clocks = [sim.tracer, getattr(sim.comm, "modeled", sim.tracer)]
    before = [t.snapshot() for t in clocks]
    with pytest.raises(error, match=message) as caught:
        call(sim, np.ones(N) if b is None else b, x0, **kwargs)
    assert type(caught.value) is error
    assert [t.snapshot() for t in clocks] == before


#: the entry points that return results (the queue returns a request id)
SOLVING = [entry for entry in ENTRY_POINTS if entry != "SolveQueue.submit"]


@pytest.mark.parametrize("tol", [0.0, float("inf")], ids=["tol=0", "tol=inf"])
@pytest.mark.parametrize("entry", SOLVING)
def test_legal_tolerance_edges_run(sim, deadline, entry, tol):
    """``tol = 0`` runs to ``maxiter`` and reports failure; ``tol = inf``
    converges on the initial residual without a cycle."""
    call, takes = ENTRY_POINTS[entry]
    kwargs = dict(tol=tol, maxiter=10, restart=10)
    if "s" in takes:
        kwargs["s"] = 5
    out = call(sim, np.ones(N), None, **kwargs)
    results = out if isinstance(out, list) else [out]
    for res in results:
        if tol == 0.0:
            assert not res.converged and 0 < res.iterations <= 10
        else:
            assert res.converged and res.iterations == 0


def test_every_entry_point_meets_every_case_it_can():
    assert {c.values[0] for c in DOOR_CASES} == set(ENTRY_POINTS)
    assert {c.values[1] for c in DOOR_CASES} == set(BAD_INPUTS)


# ----------------------------------------------------------------------
# one owner: a second copy of the shell, or a new kwarg shim, fails here
KRYLOV = Path(repro.krylov.__file__).parent
SOLVERS = [getattr(repro.krylov, name) for name in repro.krylov.__all__
           if inspect.isfunction(getattr(repro.krylov, name))
           and "gmres" in name]


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text())
            for path in sorted(KRYLOV.glob("*.py"))}


def _call_names(tree: ast.Module) -> list[str]:
    """``f`` of every ``f(...)`` and ``attr`` of every ``x.attr(...)``."""
    return [node.func.id if isinstance(node.func, ast.Name)
            else node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))]


@pytest.mark.parametrize("shell_call", ["SolveResult", "since"])
def test_only_the_restart_core_builds_results(shell_call):
    owners = [name for name, tree in _trees().items()
              if shell_call in _call_names(tree)]
    assert owners == ["restart.py"]


def test_explicit_residual_is_defined_once():
    owners = [name for name, tree in _trees().items()
              for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and node.name == "_explicit_residual"]
    assert owners == ["restart.py"]


def test_no_solver_takes_open_keywords():
    assert len(SOLVERS) == 4
    for solver in SOLVERS:
        kinds = {p.kind for p in inspect.signature(solver).parameters.values()}
        assert inspect.Parameter.VAR_KEYWORD not in kinds, solver.__name__
