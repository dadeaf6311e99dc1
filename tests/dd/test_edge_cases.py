"""Double-double edge cases: property tests against np.longdouble and
the dd-Gram CholQR at extreme condition numbers.

``np.longdouble`` on x86 Linux is the 80-bit extended format (64-bit
significand): strictly *less* precise than a dd pair (~106 bits), so a
dd primitive agreeing with the longdouble reference to ~1 longdouble
ulp is evidence the dd error-free transformations are right — any
implementation bug (a missed Dekker split, a mis-ordered quick_two_sum)
loses tens of bits at once.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dd.core import (
    dd_add,
    dd_div,
    dd_from_double,
    dd_mul,
    dd_sqrt,
    dd_sum,
    dd_to_double,
    two_prod,
    two_sum,
)
from repro.dd.linalg import cholesky_dd, gram_dd
from repro.exceptions import CholeskyBreakdownError
from repro.ortho import MixedPrecisionCholQR, NumpyBackend
from repro.ortho.analysis import orthogonality_error
from repro.ortho.registry import get_intra_qr
from repro.utils.rng import default_rng, random_with_condition

#: Longdouble significand precision (64 bits on x86) — the comparison
#: tolerance floor.  On platforms where longdouble == double the
#: reference carries no extra information and the tests still pass with
#: the looser double bound.
LD_EPS = float(np.finfo(np.longdouble).eps)

#: Finite, well-scaled doubles: away from the Dekker-split overflow
#: (~2^996) and the two_prod underflow (~1e-150) documented in
#: repro.dd.core.
finite = st.floats(min_value=-1e120, max_value=1e120,
                   allow_nan=False, allow_infinity=False)
nonzero = finite.filter(lambda x: abs(x) > 1e-120)

#: Magnitudes whose pairwise products stay clear of the subnormal range
#: (dd error terms of a ~1e-150 product underflow, per the module docs).
well_scaled = st.floats(min_value=-1e60, max_value=1e60,
                        allow_nan=False, allow_infinity=False
                        ).filter(lambda x: abs(x) > 1e-70)


def _as_ld(x) -> np.longdouble:
    hi, lo = x
    return np.longdouble(hi) + np.longdouble(lo)


def _close_ld(got, want: np.longdouble, rtol: float = 4.0,
              scale: float | None = None) -> bool:
    """Agreement to ``rtol`` longdouble ulps of ``scale``.

    ``scale`` defaults to ``|want|`` but MUST be the largest operand
    magnitude when the computation cancels: the longdouble *reference*
    itself carries ``LD_EPS * operands`` rounding, and dd (106 bits) is
    the more accurate side of the comparison.
    """
    if scale is None:
        scale = float(abs(want)) or 1.0
    return abs(float(np.longdouble(got) - want)) <= rtol * LD_EPS * scale


class TestPrimitivesAgainstLongdouble:
    @given(finite, finite)
    @settings(max_examples=200)
    def test_two_sum_exact(self, a, b):
        s, e = two_sum(a, b)
        # the transformation is error-free: s + e == a + b exactly in
        # any precision that can represent both (longdouble can, since
        # s and e are doubles)
        assert np.longdouble(s) + np.longdouble(e) == \
            np.longdouble(a) + np.longdouble(b)

    @given(nonzero, nonzero)
    @settings(max_examples=200)
    def test_two_prod_exact(self, a, b):
        # operands within the documented two_prod range (the error term
        # of a product of ~1e-210 values underflows in double, which the
        # module docstring explicitly excludes)
        p, e = two_prod(a, b)
        if np.isfinite(p) and np.isfinite(e):
            assert np.longdouble(p) + np.longdouble(e) == \
                np.longdouble(a) * np.longdouble(b)

    @given(finite, finite, finite, finite)
    @settings(max_examples=200)
    def test_dd_add_matches_longdouble(self, a, b, c, d):
        x = dd_add(dd_from_double(a), dd_from_double(b))
        y = dd_add(dd_from_double(c), dd_from_double(d))
        z = dd_add(x, y)
        want = (np.longdouble(a) + np.longdouble(b)
                + np.longdouble(c) + np.longdouble(d))
        scale = max(abs(a), abs(b), abs(c), abs(d), float(abs(want)), 1.0)
        assert _close_ld(_as_ld(z), want, rtol=8.0, scale=scale)

    @given(well_scaled, well_scaled)
    @settings(max_examples=200)
    def test_dd_mul_matches_longdouble(self, a, b):
        z = dd_mul(dd_from_double(a), dd_from_double(b))
        assert _close_ld(_as_ld(z), np.longdouble(a) * np.longdouble(b))

    @given(nonzero, nonzero)
    @settings(max_examples=200)
    def test_dd_div_matches_longdouble(self, a, b):
        z = dd_div(dd_from_double(a), dd_from_double(b))
        assert _close_ld(_as_ld(z), np.longdouble(a) / np.longdouble(b))

    @given(st.floats(min_value=1e-100, max_value=1e100, allow_nan=False,
                     allow_infinity=False))
    @settings(max_examples=200)
    def test_dd_sqrt_matches_longdouble(self, a):
        z = dd_sqrt(dd_from_double(a))
        assert _close_ld(_as_ld(z), np.sqrt(np.longdouble(a)))

    @given(st.lists(st.floats(min_value=-1e80, max_value=1e80,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=64))
    @settings(max_examples=100)
    def test_dd_sum_matches_longdouble(self, values):
        arr = np.asarray(values, dtype=np.float64)
        z = dd_sum(arr)
        want = np.sum(arr.astype(np.longdouble))
        scale = float(np.max(np.abs(arr))) * len(values) or 1.0
        assert abs(float(_as_ld(z) - want)) <= 8.0 * LD_EPS * scale


class TestKnownHardCases:
    def test_dd_sqrt_negative_raises(self):
        with pytest.raises(ValueError):
            dd_sqrt(dd_from_double(-1.0))

    def test_dd_sqrt_zero(self):
        hi, lo = dd_sqrt(dd_from_double(0.0))
        assert hi == 0.0 and lo == 0.0

    def test_dd_sqrt_vector_rejects_any_negative(self):
        with pytest.raises(ValueError):
            dd_sqrt(dd_from_double(np.array([1.0, -1e-300])))

    def test_catastrophic_cancellation_sum(self):
        # fp64 loses the 1.0 entirely; dd keeps it
        arr = np.array([1e16, 1.0, -1e16])
        assert float(np.sum(arr)) == 0.0
        assert dd_to_double(dd_sum(arr)) == 1.0

    def test_cancellation_chain(self):
        # alternating large/small pairs: exact total = n_small
        big = np.array([1e15, -1e15] * 64)
        small = np.full(64, 2.0 ** -30)
        arr = np.concatenate([big, small])
        assert dd_to_double(dd_sum(arr)) == pytest.approx(
            64 * 2.0 ** -30, rel=1e-30)

    def test_dd_add_opposite_rounding_halves(self):
        # (a + b) where b = -a + ulp-level remainder
        a = dd_from_double(1.0)
        b = dd_from_double(-(1.0 - 2.0 ** -53))
        z = dd_add(a, b)
        assert dd_to_double(z) == 2.0 ** -53

    def test_dd_sum_empty_axis(self):
        hi, lo = dd_sum(np.zeros((0, 3)), axis=0)
        assert hi.shape == (3,)
        np.testing.assert_array_equal(hi, 0.0)


class TestDDGramCholQRExtreme:
    """dd-Gram CholQR on panels where plain fp64 CholQR breaks outright."""

    def test_kappa_1e15_panel(self):
        rng = default_rng(9)
        v = random_with_condition(4000, 6, 1e15, rng)
        nb = NumpyBackend()
        # plain CholQR: Gram cond ~ kappa^2 = 1e30 >> 1/eps — breakdown
        with pytest.raises(CholeskyBreakdownError):
            get_intra_qr("cholqr")().factor(nb, v.copy())
        # dd Gram + dd Cholesky: factorizes and reorthogonalizes to O(eps)
        q = v.copy()
        r = MixedPrecisionCholQR().factor(nb, q)
        assert orthogonality_error(q) < 1e-12
        rep = np.linalg.norm(q @ r - v) / np.linalg.norm(v)
        assert rep < 1e-10

    def test_gram_dd_is_exact_to_dd_eps(self):
        rng = default_rng(10)
        v = random_with_condition(1000, 5, 1e12, rng)
        g_hi, g_lo = gram_dd(v)
        want = (v.astype(np.longdouble).T @ v.astype(np.longdouble))
        got = (g_hi.astype(np.longdouble) + g_lo.astype(np.longdouble))
        scale = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got - want))) <= 8.0 * LD_EPS * scale

    def test_cholesky_dd_succeeds_where_fp64_fails(self):
        rng = default_rng(9)
        v = random_with_condition(2000, 5, 1e9, rng)
        g_hi, g_lo = gram_dd(v)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(g_hi)  # fp64-rounded Gram is indefinite
        r = cholesky_dd(g_hi, g_lo)
        # R reproduces the dd Gram to fp64 accuracy
        np.testing.assert_allclose(r.T @ r, g_hi, rtol=1e-13, atol=0)