"""Double-double arithmetic: error-free transformations and dd ops."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dd.core import (
    DDArray,
    dd_add,
    dd_div,
    dd_from_double,
    dd_mul,
    dd_mul_double,
    dd_neg,
    dd_sqrt,
    dd_sub,
    dd_sum,
    dd_to_double,
    quick_two_sum,
    two_prod,
    two_sum,
)

# Error-free transformations require products/sums to stay in the normal
# range (Dekker's analysis assumes no underflow/overflow), so the test
# domain excludes subnormals — matching the library's documented domain.
def _normal_range(lo, hi):
    return st.floats(allow_nan=False, allow_infinity=False,
                     min_value=lo, max_value=hi).filter(
        lambda x: x == 0.0 or abs(x) > 1e-100)


finite = _normal_range(-1e120, 1e120)
small = _normal_range(-1e6, 1e6)


class TestErrorFreeTransforms:
    @given(finite, finite)
    def test_two_sum_exact(self, a, b):
        s, e = two_sum(a, b)
        assert s == a + b  # s is the rounded sum
        # exactness: a + b == s + e in rational arithmetic
        assert Fraction(a) + Fraction(b) == Fraction(float(s)) + Fraction(float(e))

    @given(finite, finite)
    def test_quick_two_sum_exact_when_ordered(self, a, b):
        hi, lo = (a, b) if abs(a) >= abs(b) else (b, a)
        s, e = quick_two_sum(hi, lo)
        assert Fraction(hi) + Fraction(lo) == Fraction(float(s)) + Fraction(float(e))

    @given(small, small)
    def test_two_prod_exact(self, a, b):
        p, e = two_prod(a, b)
        assert p == a * b
        assert Fraction(a) * Fraction(b) == Fraction(float(p)) + Fraction(float(e))

    def test_two_sum_catastrophic_cancellation(self):
        a, b = 1.0, 1e-30
        s, e = two_sum(a, b)
        assert s == 1.0
        assert e == 1e-30  # the tiny addend is fully recovered

    def test_vectorized(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1e-20, -2e-20, 3e-20])
        s, e = two_sum(a, b)
        assert s.shape == (3,)
        np.testing.assert_array_equal(s, a)
        np.testing.assert_array_equal(e, b)


class TestDDArithmetic:
    def test_add_recovers_small_terms(self):
        # sum 1 + 1e-25 + (-1) in dd: exact result 1e-25
        x = dd_from_double(1.0)
        x = dd_add(x, dd_from_double(1e-25))
        x = dd_add(x, dd_from_double(-1.0))
        assert dd_to_double(x) == pytest.approx(1e-25, rel=1e-30)

    @given(small, small)
    def test_add_matches_fraction(self, a, b):
        z = dd_add(dd_from_double(a), dd_from_double(b))
        exact = Fraction(a) + Fraction(b)
        got = Fraction(float(z[0])) + Fraction(float(z[1]))
        assert got == exact  # double+double is exactly representable in dd

    @given(small, small)
    def test_mul_high_accuracy(self, a, b):
        z = dd_mul(dd_from_double(a), dd_from_double(b))
        exact = Fraction(a) * Fraction(b)
        got = Fraction(float(z[0])) + Fraction(float(z[1]))
        assert got == exact  # product of doubles is exactly a dd

    @given(small, small.filter(lambda x: abs(x) > 1e-3))
    def test_div_roundtrip(self, a, b):
        q = dd_div(dd_from_double(a), dd_from_double(b))
        back = dd_mul(q, dd_from_double(b))
        assert dd_to_double(back) == pytest.approx(a, rel=1e-28, abs=1e-28)

    @given(st.floats(min_value=1e-6, max_value=1e12))
    def test_sqrt_squares_back(self, a):
        r = dd_sqrt(dd_from_double(a))
        sq = dd_mul(r, r)
        assert dd_to_double(sq) == pytest.approx(a, rel=1e-28)

    def test_sqrt_negative_raises(self):
        with pytest.raises(ValueError):
            dd_sqrt(dd_from_double(-1.0))

    def test_sqrt_zero(self):
        r = dd_sqrt(dd_from_double(0.0))
        assert dd_to_double(r) == 0.0

    def test_sub_and_neg(self):
        a = dd_from_double(3.5)
        b = dd_from_double(1.25)
        assert dd_to_double(dd_sub(a, b)) == 2.25
        assert dd_to_double(dd_neg(a)) == -3.5

    def test_mul_double(self):
        z = dd_mul_double(dd_from_double(1.0 / 3.0), 3.0)
        assert dd_to_double(z) == pytest.approx(1.0, abs=1e-16)


class TestDDSum:
    def test_exactness_on_cancelling_series(self):
        # naive float64 sum of this series loses the 1e-20 entirely
        vals = np.array([1e20, 1.0, -1e20, 1e-20])
        hi, lo = dd_sum(vals)
        total = Fraction(float(hi)) + Fraction(float(lo))
        assert total == Fraction(1.0) + Fraction(1e-20)

    def test_matches_numpy_for_benign_input(self, rng):
        vals = rng.standard_normal(1000)
        hi, lo = dd_sum(vals)
        assert float(hi + lo) == pytest.approx(float(np.sum(vals)), rel=1e-12)

    def test_axis_handling(self, rng):
        vals = rng.standard_normal((64, 3))
        hi, lo = dd_sum(vals, axis=0)
        assert hi.shape == (3,)
        np.testing.assert_allclose(hi + lo, vals.sum(axis=0), rtol=1e-13)

    def test_empty(self):
        hi, lo = dd_sum(np.zeros((0, 2)))
        assert hi.shape == (2,)
        assert np.all(hi == 0) and np.all(lo == 0)

    @given(st.integers(min_value=1, max_value=257))
    @settings(max_examples=20)
    def test_sizes(self, n):
        vals = np.arange(1, n + 1, dtype=np.float64)
        hi, lo = dd_sum(vals)
        assert float(hi) == n * (n + 1) / 2.0


class TestDDArrayWrapper:
    def test_operator_roundtrip(self):
        a = DDArray.from_double(np.array([1.0, 2.0]))
        b = DDArray.from_double(np.array([0.5, 0.25]))
        c = (a + b) * b - a / a
        expected = (np.array([1.5, 2.25]) * np.array([0.5, 0.25])) - 1.0
        np.testing.assert_allclose(c.to_double(), expected, rtol=1e-15)

    def test_sum_and_getitem(self):
        a = DDArray.from_double(np.arange(10.0))
        assert a.sum().to_double() == 45.0
        assert a[3].to_double() == 3.0

    def test_sqrt(self):
        a = DDArray.from_double(np.array([4.0, 9.0]))
        np.testing.assert_allclose(a.sqrt().to_double(), [2.0, 3.0])
