"""Execution-driven simulator of a distributed GPU cluster.

The paper measures on Summit (IBM Power9 + 6 NVIDIA V100 per node,
Spectrum MPI) and Vortex (4 V100 per node).  We reproduce the performance
experiments on a *simulated* machine: algorithms execute for real (SPMD
over per-rank shards, tree-order reductions), while every local kernel and
every message is charged modeled time from a :class:`MachineSpec` through
a :class:`CostModel`, accumulated by a :class:`Tracer`.

The substitution preserves the paper's relevant behaviour because its
speedups are count-driven: synchronizations per s steps, kernel launches,
and bytes moved as a function of block width (docs/cost-model.md).

The communication surface is a formal protocol (:class:`Communicator`,
:mod:`repro.parallel.api`) with two backends: :class:`SimComm`, the
modeled *planner* described above, and :class:`MpComm`
(:mod:`repro.parallel.mp_backend`), a real ``multiprocessing`` +
shared-memory *executor* whose ranks are OS processes and whose tracer
records measured wall clock — bit-identical results, measured twin for
every modeled cost.  Construct either via :func:`make_comm`.
"""

from repro.parallel.machine import MachineSpec, summit, vortex, generic_cpu
from repro.parallel.costmodel import CostModel
from repro.parallel.tracing import SpanEvent, Tracer
from repro.parallel.partition import Partition
from repro.parallel.api import Communicator, make_comm
from repro.parallel.communicator import SimComm
from repro.parallel.mp_backend import MpComm

__all__ = [
    "MachineSpec",
    "summit",
    "vortex",
    "generic_cpu",
    "CostModel",
    "Tracer",
    "SpanEvent",
    "Partition",
    "Communicator",
    "make_comm",
    "SimComm",
    "MpComm",
]
