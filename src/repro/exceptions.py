"""Exception hierarchy for :mod:`repro`.

All library-raised errors derive from :class:`ReproError` so callers can
``except ReproError`` at API boundaries.  Numerical breakdowns carry enough
context (condition-number estimates, offending panel index) for a solver
driver to react — e.g. retry with a shifted Cholesky factorization or a
smaller step size, which is exactly the recovery path the paper motivates
(Section II, "Shifted Cholesky QR").
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """An API was called with inconsistent or out-of-range parameters."""


class ShapeError(ConfigurationError):
    """Operands have incompatible shapes or distributions."""


class PartitionError(ConfigurationError):
    """A row partition is malformed (non-monotone offsets, empty ranks...)."""


class NumericalError(ReproError):
    """Base class for runtime numerical failures."""


class CholeskyBreakdownError(NumericalError):
    """Cholesky factorization of a Gram matrix failed.

    Per Section II of the paper this happens when the condition number of
    the input block exceeds ~eps^{-1/2}; condition (1) of the paper is then
    violated.  ``gram_diag_min`` records the most negative pivot observed
    (useful to decide a shift for shifted CholQR).
    """

    def __init__(self, message: str, *, gram_diag_min: float | None = None,
                 panel_index: int | None = None) -> None:
        super().__init__(message)
        self.gram_diag_min = gram_diag_min
        self.panel_index = panel_index


class CommunicatorError(ReproError):
    """Misuse of the simulated communicator (rank mismatch, shard count...)."""
