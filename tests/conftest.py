"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.distla import engine as engine_module
from repro.distla.engine import BatchedEngine, LoopEngine
from repro.experiments import sweep as sweep_module
from repro.krylov.simulation import Simulation
from repro.matrices.stencil import laplace2d
from repro.parallel.machine import generic_cpu, summit
from repro.parallel.communicator import SimComm
from repro.parallel.tracing import Tracer


@pytest.fixture(autouse=True)
def fresh_sweep_memo():
    """Every test starts with no priced cell kept by ``sweep``: a test
    that patches ``price_cells``, ``LOCAL_OPS`` or ``CostModel`` sees its
    own pricing, not a cell an earlier test priced."""
    sweep_module._memo.clear()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def comm4() -> SimComm:
    """A 4-rank communicator on the generic CPU machine."""
    return SimComm(generic_cpu(), 4, Tracer())


@pytest.fixture
def comm_summit() -> SimComm:
    return SimComm(summit(), 12, Tracer())


@pytest.fixture
def small_sim() -> Simulation:
    """20x20 Laplacian distributed over 4 ranks (400 unknowns)."""
    return Simulation(laplace2d(20), ranks=4, machine=generic_cpu())


#: The per-rank kernel bodies of ``LoopEngine``: what ``BatchedEngine``
#: overrides, every one of them.
LOOP_KERNEL_BODIES = [
    name for name, fn in vars(LoopEngine).items()
    if inspect.isfunction(fn) and name in vars(BatchedEngine)]


@pytest.fixture
def loop_body_probe(monkeypatch):
    """``probe(name) -> entered``: put in the engine registry, under
    ``name``, an engine whose loop kernel bodies append their name to
    ``entered``.  The registry is the one place a test substitutes a fake
    engine; communicators built afterwards and bound to ``name`` run it.

    Under ``"batched"`` the probe is a ``BatchedEngine`` in which every
    route to a ``LoopEngine`` body — a ``super()`` call, an override that
    went missing — ends in a wrapper that records and then raises.  Under
    ``"loop"`` it is the loop engine itself, recording and running."""
    def probe(name: str) -> list[str]:
        entered: list[str] = []

        def wrap(body: str):
            def kernel(self, *args, **kwargs):
                entered.append(body)
                if name != "loop":
                    raise AssertionError(
                        f"LoopEngine.{body} ran under engine {name!r}")
                return getattr(LoopEngine, body)(self, *args, **kwargs)
            return kernel

        recording = type("RecordingLoop", (LoopEngine,),
                         {body: wrap(body) for body in LOOP_KERNEL_BODIES})
        bases = (recording,) if name == "loop" else (BatchedEngine, recording)
        monkeypatch.setitem(engine_module._INSTANCES, name,
                            type("Probe", bases, {})())
        return entered
    probe.bodies = LOOP_KERNEL_BODIES
    return probe
