"""Storage-spec primitives: word sizes, containers, quantizers."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ReproError
from repro.precision import dtypes


class TestSpecs:
    def test_word_bytes(self):
        assert dtypes.word_bytes("fp64") == 8.0
        assert dtypes.word_bytes("fp32") == 4.0
        assert dtypes.word_bytes("bf16") == 2.0
        assert dtypes.word_bytes("dd") == 16.0

    def test_container_dtypes(self):
        assert dtypes.container_dtype("fp64") == np.float64
        assert dtypes.container_dtype("fp32") == np.float32
        assert dtypes.container_dtype("bf16") == np.float32

    def test_eps_ordering(self):
        assert (dtypes.eps("dd") < dtypes.eps("fp64")
                < dtypes.eps("fp32") < dtypes.eps("bf16"))

    def test_unknown_specs_raise(self):
        with pytest.raises(ConfigurationError):
            dtypes.word_bytes("fp8")
        with pytest.raises(ConfigurationError):
            dtypes.container_dtype("dd")  # dd has no single container
        with pytest.raises(ConfigurationError):
            dtypes.validate_storage("dd")  # not a storage format
        with pytest.raises(ConfigurationError):
            dtypes.quantize(np.ones(3), "fp16")

    @pytest.mark.parametrize("call, spec", [
        (dtypes.validate_storage, "dd"),
        (dtypes.word_bytes, "fp8"),
        (dtypes.container_dtype, "dd"),
        (dtypes.eps, "fp8"),
        (lambda spec: dtypes.quantize(np.ones(3), spec), "fp16"),
    ], ids=["validate_storage", "word_bytes", "container_dtype", "eps",
            "quantize"])
    def test_spec_error_is_a_library_error_naming_the_spec(self, call, spec):
        with pytest.raises(ReproError, match=re.escape(repr(spec))) as info:
            call(spec)
        assert type(info.value) is ConfigurationError


class TestQuantize:
    def test_fp64_identity_no_copy(self):
        a = np.random.default_rng(0).standard_normal(16)
        out = dtypes.quantize(a, "fp64")
        assert out is a  # asarray fast path: same object

    def test_fp32_is_round_to_nearest(self):
        a = np.array([1.0 + 2.0 ** -30])
        out = dtypes.quantize(a, "fp32")
        assert out.dtype == np.float32
        assert out[0] == np.float32(1.0)

    def test_input_never_mutated(self):
        a = np.full(8, 1.0 + 2.0 ** -20)
        b = a.copy()
        dtypes.quantize(a, "bf16")
        dtypes.quantize(a, "fp32")
        np.testing.assert_array_equal(a, b)


class TestRoundBf16:
    def test_values_on_bf16_grid(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(1000)
        out = dtypes.round_bf16(a)
        bits = out.view(np.uint32)
        assert np.all(bits & np.uint32(0xFFFF) == 0)

    def test_exact_values_pass_through(self):
        # powers of two and small integers are exactly representable
        a = np.array([0.0, 1.0, -2.0, 0.5, 256.0, -1024.0])
        np.testing.assert_array_equal(dtypes.round_bf16(a),
                                      a.astype(np.float32))

    def test_round_to_nearest_even(self):
        # 1 + 2^-8 sits exactly between bf16 neighbours 1.0 and 1 + 2^-7;
        # ties go to the even significand (1.0).
        a = np.array([1.0 + 2.0 ** -8])
        assert dtypes.round_bf16(a)[0] == np.float32(1.0)
        # 1 + 3*2^-8 sits between 1 + 2^-7 and 1 + 2^-6; even is 1 + 2^-6
        a = np.array([1.0 + 3.0 * 2.0 ** -8])
        assert dtypes.round_bf16(a)[0] == np.float32(1.0 + 2.0 ** -6)

    def test_relative_error_bounded(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(10_000) * 10.0 ** rng.integers(
            -20, 20, size=10_000)
        out = dtypes.round_bf16(a).astype(np.float64)
        rel = np.abs(out - a) / np.abs(a)
        assert np.max(rel) <= 2.0 ** -8

    def test_overflow_to_inf_and_nan_preserved(self):
        a = np.array([3.5e38, -3.5e38, np.inf, -np.inf, np.nan])
        out = dtypes.round_bf16(a)
        assert np.isposinf(out[0]) and np.isneginf(out[1])
        assert np.isposinf(out[2]) and np.isneginf(out[3])
        assert np.isnan(out[4])

    @staticmethod
    def _round_contiguous(arr):
        """``round_bf16`` as it was while it made its input C-contiguous
        first (which also turned a 0-d value into a 1-d one)."""
        a32 = np.ascontiguousarray(arr, dtype=np.float32)
        bits = a32.view(np.uint32)
        rounded = bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16))
                                              & np.uint32(1))
        rounded &= np.uint32(0xFFFF0000)
        return np.where(np.isnan(a32), bits, rounded).view(np.float32)

    def test_shape_and_layout_preserved_values_unchanged(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((12, 5)) * 10.0 ** rng.integers(
            -6, 6, size=(12, 5))
        base[3, 2], base[7, 0] = np.nan, np.inf
        cases = {
            "1-d": base[:, 0].copy(),
            "C-ordered": base,
            "F-ordered": np.asfortranarray(base),
            "F-ordered fp32": np.asfortranarray(base, dtype=np.float32),
            "strided rows": base[::3],
            "strided columns": base[:, 1::2],
            "column of an F tile": np.asfortranarray(base)[:, 2:3],
        }
        for name, arr in cases.items():
            out = dtypes.round_bf16(arr)
            assert out.shape == arr.shape and out.dtype == np.float32, name
            assert (out.view(np.uint32).tobytes()
                    == np.ascontiguousarray(self._round_contiguous(arr))
                    .view(np.uint32).tobytes()), name
        tile = dtypes.round_bf16(cases["F-ordered"])
        assert tile.flags.f_contiguous  # no C-ordered copy of the tile

    def test_zero_d_input_stays_zero_d(self):
        for value in (1.0 + 2.0 ** -8, np.float32(-3.3), np.asarray(2.5e-3)):
            out = dtypes.round_bf16(value)
            assert out.shape == () and out.dtype == np.float32
            assert out == self._round_contiguous(value)[0]
            assert dtypes.quantize(value, "bf16").shape == ()
        target = np.zeros((3, 1), dtype=np.float32)
        target[1, 0] = dtypes.quantize(np.asarray(0.3), "bf16")
        assert target[1, 0] == np.float32(0.30078125)

    def test_negative_nan_payload_no_wraparound(self):
        # a sign=1 NaN with a full payload must stay NaN (the rounding
        # add would wrap the uint32 without the guard)
        bits = np.array([0xFFFFFFFF], dtype=np.uint32)
        a = bits.view(np.float32)
        assert np.isnan(dtypes.round_bf16(a)[0])
