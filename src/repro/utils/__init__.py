"""Small shared utilities: RNG helpers, validation, formatting."""

from repro.utils.rng import (
    default_rng,
    haar_orthonormal,
    random_with_condition,
    spectrum_logspace,
)
from repro.utils.validation import check_finite, check_positive_int
from repro.utils.formatting import render_table

__all__ = [
    "default_rng",
    "haar_orthonormal",
    "random_with_condition",
    "spectrum_logspace",
    "check_finite",
    "check_positive_int",
    "render_table",
]
