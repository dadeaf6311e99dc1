"""repro — two-stage block orthogonalization for s-step GMRES.

A from-scratch Python reproduction of

    I. Yamazaki, A. J. Higgins, E. G. Boman, D. B. Szyld,
    "Two-Stage Block Orthogonalization to Improve Performance of
    s-step GMRES", IPDPS 2024 (arXiv:2402.15033),

including the block-orthogonalization algorithms (BCGS2, BCGS-PIP,
BCGS-PIP2, the two-stage scheme), the s-step GMRES solver around them,
and an execution-driven simulator of the paper's GPU-cluster substrate
for the performance studies.

Quickstart (the curated top-level surface is all you need)::

    import numpy as np
    import repro

    a = repro.matrices.laplace2d(64)
    b = np.ones(a.shape[0])
    with repro.Simulation(a, ranks=4) as sim:   # backend="mp" for real processes
        result = repro.sstep_gmres(
            sim, b, s=5, restart=30,
            scheme=repro.get_scheme("two-stage", restart=30),
            options=repro.SolverOptions(mpk_mode="auto"))

See ``examples/quickstart.py`` and README.md.
"""

from repro._version import __version__
from repro import (config, dd, distla, matrices, obs, ortho, parallel,
                   precision, precond, sketch)
from repro.obs import drift_report
from repro.parallel import Communicator, make_comm
from repro.exceptions import (
    CholeskyBreakdownError,
    ConfigurationError,
    NumericalError,
)
from repro.ortho import (
    BCGS2Scheme,
    BCGSPIP2Scheme,
    BCGSPIPScheme,
    CholQR,
    CholQR2,
    HouseholderQR,
    MixedPrecisionCholQR,
    MixedPrecisionTwoStageScheme,
    RBCGSScheme,
    ShiftedCholQR,
    SketchedCholQR,
    SketchedTwoStageScheme,
    TSQRFactor,
    TwoStageScheme,
    get_scheme,
)
from repro.krylov import (Simulation, SolverOptions, adaptive_sstep_gmres,
                          block_sstep_gmres, gmres, sstep_gmres)
from repro import service

__all__ = [
    "__version__",
    "config",
    "dd",
    "distla",
    "matrices",
    "obs",
    "drift_report",
    "ortho",
    "parallel",
    "precision",
    "precond",
    "sketch",
    "ConfigurationError",
    "NumericalError",
    "CholeskyBreakdownError",
    "BCGS2Scheme",
    "BCGSPIPScheme",
    "BCGSPIP2Scheme",
    "TwoStageScheme",
    "RBCGSScheme",
    "SketchedTwoStageScheme",
    "MixedPrecisionTwoStageScheme",
    "get_scheme",
    "CholQR",
    "CholQR2",
    "ShiftedCholQR",
    "MixedPrecisionCholQR",
    "SketchedCholQR",
    "HouseholderQR",
    "TSQRFactor",
    "Communicator",
    "make_comm",
    "Simulation",
    "SolverOptions",
    "gmres",
    "sstep_gmres",
    "block_sstep_gmres",
    "adaptive_sstep_gmres",
    "service",
]
