"""Input-validation helpers shared across the library.

These raise :class:`repro.exceptions.ConfigurationError` subclasses with
messages naming the offending argument, so API misuse fails fast at the
boundary instead of deep inside a kernel.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return int(value)


def check_nonnegative_int(value: int, name: str) -> int:
    """Validate that ``value`` is a non-negative integer and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return int(value)


def check_2d(arr: np.ndarray, name: str) -> np.ndarray:
    """Validate that ``arr`` is a 2-D ndarray and return it."""
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    return arr


def check_finite(arr: np.ndarray, name: str) -> np.ndarray:
    """Validate that ``arr`` contains no NaN/Inf and return it."""
    arr = np.asarray(arr)
    if not np.isfinite(arr).all():
        raise ConfigurationError(f"{name} contains non-finite entries")
    return arr
