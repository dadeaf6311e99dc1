"""Block orthogonalization kernels — the paper's core subject.

Intra-block factorizations (Section II / Fig. 3):
:class:`HouseholderQR`, :class:`TSQRFactor`, :class:`CholQR`,
:class:`CholQR2`, :class:`ShiftedCholQR`, :class:`MixedPrecisionCholQR`,
:class:`SketchedCholQR`.

Inter-block schemes (Sections IV and V):
:class:`BCGS2Scheme` (Fig. 2), :class:`BCGSPIPScheme` /
:class:`BCGSPIP2Scheme` (Fig. 4), and the paper's contribution
:class:`TwoStageScheme` (Fig. 5).

All schemes run against either a plain-NumPy backend (for the Section VI
numerics, MATLAB-equivalent) or the distributed simulated backend (for
the Section VIII performance studies) — one code path, two substrates.
"""

from repro.ortho.backend import DistBackend, NumpyBackend, OrthoBackend
from repro.ortho.base import (
    BlockDriver,
    BlockOrthoScheme,
    IntraBlockQR,
    OrthoObserver,
)
from repro.ortho.cholqr import (
    CholQR,
    CholQR2,
    MixedPrecisionCholQR,
    ShiftedCholQR,
    cholesky_factor,
)
from repro.ortho.hhqr import HouseholderQR
from repro.ortho.tsqr import TSQRFactor
from repro.ortho.sketched import SketchedCholQR
from repro.ortho.cgs import cgs2_append, mgs_append
from repro.ortho.bcgs import BCGS2Scheme
from repro.ortho.bcgs_pip import (
    BCGSPIP2Scheme,
    BCGSPIPScheme,
    bcgs_pip_panel,
)
from repro.ortho.two_stage import TwoStageScheme
from repro.ortho.randomized import RBCGSScheme, SketchedTwoStageScheme
from repro.precision.kernels import MixedPrecisionTwoStageScheme
from repro.ortho.registry import get_scheme, list_schemes
from repro.ortho.analysis import (
    condition_number,
    orthogonality_error,
    representation_error,
)

__all__ = [
    "OrthoBackend",
    "NumpyBackend",
    "DistBackend",
    "IntraBlockQR",
    "BlockOrthoScheme",
    "BlockDriver",
    "OrthoObserver",
    "CholQR",
    "CholQR2",
    "ShiftedCholQR",
    "MixedPrecisionCholQR",
    "SketchedCholQR",
    "cholesky_factor",
    "HouseholderQR",
    "TSQRFactor",
    "cgs2_append",
    "mgs_append",
    "BCGS2Scheme",
    "BCGSPIPScheme",
    "BCGSPIP2Scheme",
    "bcgs_pip_panel",
    "TwoStageScheme",
    "RBCGSScheme",
    "SketchedTwoStageScheme",
    "MixedPrecisionTwoStageScheme",
    "get_scheme",
    "list_schemes",
    "orthogonality_error",
    "condition_number",
    "representation_error",
]
