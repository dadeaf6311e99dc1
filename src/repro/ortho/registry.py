"""String -> class registries for orthogonalization kernels and schemes.

Experiments, benchmarks, and environment-driven configuration
(``REPRO_SCHEME=...``-style knobs) select algorithms by *name* instead
of hard-coded imports::

    intra = get_intra_qr("sketched_cholqr")()          # IntraBlockQR
    scheme = get_scheme("sketched-two-stage")(big_step=60)

Names are normalized (case-insensitive, ``-``/``_`` interchangeable)
and mirror each class's ``name`` attribute; constructor arguments stay
with the caller — a registry entry is a class, not a configured
instance, because several entries need shape parameters (``big_step``)
only the call site knows.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.ortho.base import BlockOrthoScheme, IntraBlockQR
from repro.ortho.bcgs import BCGS2Scheme
from repro.ortho.bcgs_pip import BCGSPIP2Scheme, BCGSPIPScheme
from repro.ortho.cholqr import (
    CholQR,
    CholQR2,
    MixedPrecisionCholQR,
    ShiftedCholQR,
)
from repro.ortho.hhqr import HouseholderQR
from repro.ortho.randomized import RBCGSScheme, SketchedTwoStageScheme
from repro.ortho.sketched import SketchedCholQR
from repro.ortho.tsqr import TSQRFactor
from repro.ortho.two_stage import TwoStageScheme
from repro.precision.kernels import MixedPrecisionTwoStageScheme

INTRA_QR: dict[str, type[IntraBlockQR]] = {
    "hhqr": HouseholderQR,
    "tsqr": TSQRFactor,
    "cholqr": CholQR,
    "cholqr2": CholQR2,
    "shifted_cholqr3": ShiftedCholQR,
    "mixed_precision_cholqr": MixedPrecisionCholQR,
    "sketched_cholqr": SketchedCholQR,
}

SCHEMES: dict[str, type[BlockOrthoScheme]] = {
    "bcgs2": BCGS2Scheme,
    "bcgs_pip": BCGSPIPScheme,
    "bcgs_pip2": BCGSPIP2Scheme,
    "two_stage": TwoStageScheme,
    "rbcgs": RBCGSScheme,
    "sketched_two_stage": SketchedTwoStageScheme,
    "mixed_two_stage": MixedPrecisionTwoStageScheme,
}


def _normalize(name: str) -> str:
    return str(name).strip().lower().replace("-", "_")


def _lookup(registry: dict, name: str, kind: str):
    key = _normalize(name)
    try:
        return registry[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown {kind} {name!r}; expected one of "
            f"{sorted(registry)}") from None


def get_intra_qr(name: str) -> type[IntraBlockQR]:
    """Intra-block QR class for ``name`` (e.g. ``"sketched_cholqr"``)."""
    return _lookup(INTRA_QR, name, "intra-block QR kernel")


def get_scheme(name: str) -> type[BlockOrthoScheme]:
    """Inter-block scheme class for ``name`` (e.g. ``"two-stage"``)."""
    return _lookup(SCHEMES, name, "block orthogonalization scheme")


def list_schemes() -> list[str]:
    """Registered inter-block scheme names, sorted."""
    return sorted(SCHEMES)
