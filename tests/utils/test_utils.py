"""Utility helpers: RNG constructions, validation, formatting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, ShapeError
from repro.utils.formatting import render_table
from repro.utils.rng import (
    default_rng,
    haar_orthonormal,
    random_with_condition,
    spectrum_logspace,
)
from repro.utils.validation import (
    check_2d,
    check_finite,
    check_nonnegative_int,
    check_positive_int,
)


class TestRNG:
    def test_default_rng_passthrough(self):
        g = np.random.default_rng(1)
        assert default_rng(g) is g

    def test_default_rng_seeded_reproducible(self):
        assert (default_rng(5).integers(100) == default_rng(5).integers(100))

    def test_haar_orthonormal_columns(self, rng):
        q = haar_orthonormal(50, 8, rng)
        np.testing.assert_allclose(q.T @ q, np.eye(8), atol=1e-13)

    def test_haar_k_gt_n_rejected(self):
        with pytest.raises(ConfigurationError):
            haar_orthonormal(3, 5)

    @given(st.floats(min_value=1.0, max_value=1e12))
    @settings(max_examples=20)
    def test_spectrum_endpoints(self, cond):
        s = spectrum_logspace(6, cond)
        assert s[0] == pytest.approx(1.0)
        assert s[-1] == pytest.approx(1.0 / cond, rel=1e-9)

    def test_spectrum_bad_cond(self):
        with pytest.raises(ConfigurationError):
            spectrum_logspace(3, 0.5)

    def test_spectrum_single_column(self):
        assert spectrum_logspace(1, 100.0)[0] == 1.0

    def test_random_with_condition(self, rng):
        v = random_with_condition(100, 5, 1e4, rng)
        s = np.linalg.svd(v, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(1e4, rel=1e-9)


class TestValidation:
    def test_positive_int(self):
        assert check_positive_int(3, "x") == 3
        with pytest.raises(ConfigurationError):
            check_positive_int(0, "x")
        with pytest.raises(ConfigurationError):
            check_positive_int(2.5, "x")
        with pytest.raises(ConfigurationError):
            check_positive_int(True, "x")

    def test_nonnegative_int(self):
        assert check_nonnegative_int(0, "x") == 0
        with pytest.raises(ConfigurationError):
            check_nonnegative_int(-1, "x")

    def test_2d(self):
        check_2d(np.zeros((2, 3)), "a")
        with pytest.raises(ShapeError):
            check_2d(np.zeros(3), "a")

    def test_finite(self):
        check_finite(np.ones(3), "a")
        with pytest.raises(ConfigurationError):
            check_finite(np.array([1.0, np.nan]), "a")


class TestFormatting:
    def test_render_table_alignment(self):
        out = render_table(["name", "v"], [["a", 1], ["long-name", 22]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "long-name" in out
        assert all("|" in line for line in lines[1:] if "-+-" not in line)
