"""Communicator protocol conformance + the make_comm factory."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.parallel.api import BACKENDS, Communicator, make_comm
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu, summit
from repro.parallel.mp_backend import MpComm
from repro.parallel.tracing import Tracer

#: Every method the protocol promises, read off the protocol itself;
#: conformance is checked name by name so a backend silently dropping
#: one fails with a message naming the missing method rather than a
#: bare isinstance failure.
PROTOCOL_METHODS = tuple(
    name for name, fn in vars(Communicator).items()
    if inspect.isfunction(fn) and not name.startswith("_")
) + tuple(  # declared as callable attributes (``mark``, the scopes)
    name for name, annotation in Communicator.__annotations__.items()
    if annotation.startswith("Callable"))


@pytest.fixture
def mp2():
    comm = MpComm(generic_cpu(), 2, Tracer())
    yield comm
    comm.close()


class TestProtocolConformance:
    def test_backends_tuple(self):
        assert BACKENDS == ("sim", "mp")

    def test_protocol_surface(self):
        """Two reduction entry points, both blocking, and the lifecycle
        hooks ``Simulation`` calls are declared."""
        reductions = {n for n in PROTOCOL_METHODS if "allreduce" in n}
        assert reductions == {"allreduce", "allreduce_dd"}
        assert {"mark", "close"} <= set(PROTOCOL_METHODS)

    @pytest.mark.parametrize("cls", [SimComm, MpComm])
    def test_methods_present(self, cls):
        for name in PROTOCOL_METHODS:
            assert callable(getattr(cls, name, None)), (
                f"{cls.__name__} is missing Communicator.{name}")

    def test_mp_overrides_transport_only(self):
        """Reductions and charge formulas are inherited: the mp backend
        replaces how a packed buffer is folded, never what is charged."""
        for name in ("allreduce", "allreduce_dd",
                     "charge", "charge_halo", "_charge",
                     "group", "member"):
            assert name not in vars(MpComm), (
                f"MpComm re-implements {name}")

    def test_sim_is_communicator(self, comm4):
        assert isinstance(comm4, Communicator)

    def test_mp_is_communicator(self, mp2):
        assert isinstance(mp2, Communicator)

    def test_backend_attribute(self, comm4, mp2):
        assert comm4.backend == "sim"
        assert mp2.backend == "mp"

    def test_incomplete_object_is_not_communicator(self):
        class Half:
            machine = size = tracer = modeled = cost = engine = None
            backend = "half"

            def allreduce(self, groups):
                return [group[0] for group in groups]

        assert not isinstance(Half(), Communicator)


    def test_backend_without_mark_is_not_communicator(self):
        """``Simulation.__init__`` calls ``comm.mark()``, so the protocol
        must demand it."""
        members = {name: getattr(SimComm, name) for name in PROTOCOL_METHODS}
        members.update(dict.fromkeys(
            ("machine", "size", "tracer", "modeled", "cost", "engine",
             "backend")))
        assert isinstance(type("Full", (), members)(), Communicator)
        del members["mark"]
        assert not isinstance(type("NoMark", (), members)(), Communicator)


class TestSimCommDefaults:
    """SimComm's protocol additions: planner-side no-op/fallback hooks."""

    def test_alloc_column_major_zeros(self, comm4):
        flat = comm4.alloc(40, 3)
        assert flat.shape == (40, 3)
        assert flat.dtype == np.float64
        assert flat.flags.f_contiguous
        assert not flat.any()

    def test_exec_spmv_defers_to_driver(self, comm4):
        assert comm4.exec_spmv(None, None, None) is False

    def test_mark_and_close_are_noops(self, comm4):
        comm4.mark()
        comm4.close()
        comm4.allreduce([np.ones(4)])  # still usable after close

    def test_context_manager(self):
        with SimComm(generic_cpu(), 4) as comm:
            assert comm.allreduce([np.ones(4)])[0] == 4.0


class TestMakeComm:
    def test_default_backend_is_sim(self):
        comm = make_comm()
        assert isinstance(comm, SimComm) and not isinstance(comm, MpComm)
        assert comm.size == 4
        assert comm.machine.name == summit().name

    def test_sim_with_machine_and_size(self):
        comm = make_comm("sim", generic_cpu(), 8)
        assert comm.size == 8
        assert comm.machine.name == generic_cpu().name

    def test_mp_backend(self):
        with make_comm("mp", generic_cpu(), 2) as comm:
            assert isinstance(comm, MpComm)
            assert comm.allreduce([[1.0, 2.0]])[0] == 3.0

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="backend"):
            make_comm("mpi")

    def test_tracer_threaded_through(self):
        tracer = Tracer()
        comm = make_comm("sim", tracer=tracer)
        assert comm.tracer is tracer

    def test_engine_threaded_through(self):
        """The protocol attribute is always a name: the one given, else
        the default the communicator bound at construction."""
        assert make_comm("sim", engine="loop").engine == "loop"
        assert make_comm("sim").engine == "batched"
