"""Solver-as-a-service front end.

:mod:`repro.service.queue` batches independent solve requests against a
shared operator into panelized multi-RHS dispatches of
:func:`repro.krylov.block.block_sstep_gmres` — the service-level
expression of the paper's thesis that amortizing collective latency,
not saving flops, is what buys throughput at scale.
"""

from repro.service.queue import SolveQueue

__all__ = ["SolveQueue"]
