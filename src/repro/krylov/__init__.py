"""Krylov solvers: standard GMRES(m) and s-step GMRES (paper Fig. 1).

The solvers run on a :class:`Simulation` — a bundle of the distributed
matrix, communicator, cost tracer and backend — so every run doubles as a
performance experiment on the simulated machine.
"""

from repro.krylov.simulation import Simulation
from repro.krylov.options import SolverOptions
from repro.krylov.result import ConvergenceHistory, SolveResult
from repro.krylov.basis import (
    ChebyshevBasis,
    KrylovBasis,
    MonomialBasis,
    NewtonBasis,
)
from repro.krylov.mpk import MatrixPowersKernel, PreconditionedOperator
from repro.krylov.hessenberg import least_squares_residual
from repro.krylov.gmres import gmres
from repro.krylov.sstep_gmres import sstep_gmres
from repro.krylov.block import block_sstep_gmres
from repro.krylov.adaptive import adaptive_sstep_gmres

__all__ = [
    "Simulation",
    "SolverOptions",
    "SolveResult",
    "ConvergenceHistory",
    "KrylovBasis",
    "MonomialBasis",
    "NewtonBasis",
    "ChebyshevBasis",
    "MatrixPowersKernel",
    "PreconditionedOperator",
    "least_squares_residual",
    "gmres",
    "sstep_gmres",
    "block_sstep_gmres",
    "adaptive_sstep_gmres",
]
