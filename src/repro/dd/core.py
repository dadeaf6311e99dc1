"""Vectorized double-double arithmetic.

A double-double (dd) value represents a real number as an unevaluated sum
``hi + lo`` of two float64 with ``|lo| <= ulp(hi)/2``, giving roughly 106
bits of significand (~32 decimal digits).  All primitives below are
branch-free and vectorize over NumPy arrays, following Dekker (1971) and
Hida/Li/Bailey (2001).

The error-free transformations:

* :func:`two_sum`   — Knuth: works for any ordering of inputs (6 flops).
* :func:`quick_two_sum` — Dekker: requires ``|a| >= |b|`` (3 flops).
* :func:`two_prod`  — Dekker split based product (no FMA assumed; 17 flops).

Note on range: the Dekker splitter multiplies by ``2^27 + 1``, so inputs
with magnitude above ~``2^996`` overflow during splitting, and the
error-free property of :func:`two_prod` requires the error term not to
underflow (inputs comfortably above ~1e-150 in magnitude).  All users in
this library feed normalized basis vectors (norms O(1)), far from both
limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Dekker's splitting constant: 2**27 + 1 for IEEE binary64.
_SPLITTER = 134217729.0


def two_sum(a, b):
    """Error-free sum: return ``(s, e)`` with ``s = fl(a+b)``, ``a+b = s+e``."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def quick_two_sum(a, b):
    """Error-free sum assuming ``|a| >= |b|`` elementwise (3 flops)."""
    s = a + b
    e = b - (s - a)
    return s, e


def _split(a):
    """Dekker split: ``a = hi + lo`` with both halves having 26-bit mantissas."""
    t = _SPLITTER * a
    hi = t - (t - a)
    lo = a - hi
    return hi, lo


def two_prod(a, b):
    """Error-free product: return ``(p, e)`` with ``p = fl(a*b)``, ``a*b = p+e``."""
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


# ---------------------------------------------------------------------------
# dd pair operations (operands are (hi, lo) tuples of scalars or ndarrays)
# ---------------------------------------------------------------------------

def dd_from_double(a):
    """Lift float64 (scalar or array) to a dd pair with zero low part."""
    a = np.asarray(a, dtype=np.float64)
    return a, np.zeros_like(a)


def dd_to_double(x):
    """Round a dd pair to float64 (hi + lo evaluated in double)."""
    hi, lo = x
    return hi + lo


def dd_add(x, y):
    """Accurate dd + dd (IEEE-style, Hida et al. 'accurate' variant)."""
    xhi, xlo = x
    yhi, ylo = y
    s1, s2 = two_sum(xhi, yhi)
    t1, t2 = two_sum(xlo, ylo)
    s2 = s2 + t1
    s1, s2 = quick_two_sum(s1, s2)
    s2 = s2 + t2
    s1, s2 = quick_two_sum(s1, s2)
    return s1, s2


def dd_neg(x):
    """Negate a dd pair."""
    hi, lo = x
    return -hi, -lo


def dd_sub(x, y):
    """dd - dd."""
    return dd_add(x, dd_neg(y))


def dd_mul(x, y):
    """dd * dd."""
    xhi, xlo = x
    yhi, ylo = y
    p1, p2 = two_prod(xhi, yhi)
    p2 = p2 + (xhi * ylo + xlo * yhi)
    return quick_two_sum(p1, p2)


def dd_mul_double(x, a):
    """dd * float64."""
    xhi, xlo = x
    p1, p2 = two_prod(xhi, a)
    p2 = p2 + xlo * a
    return quick_two_sum(p1, p2)


def dd_div(x, y):
    """dd / dd via one Newton-ish correction of the double quotient."""
    xhi, xlo = x
    yhi, ylo = y
    q1 = xhi / yhi
    r = dd_sub(x, dd_mul_double(y, q1))
    q2 = (r[0] + r[1]) / (yhi + ylo)
    return quick_two_sum(q1, q2)


def dd_sqrt(x):
    """sqrt of a dd pair (one Karp-Markstein style refinement).

    Negative high parts raise ``ValueError`` — callers (dd Cholesky) catch
    this to report breakdown.
    """
    hi, lo = x
    hi_arr = np.asarray(hi, dtype=np.float64)
    if np.any(hi_arr < 0.0):
        raise ValueError("dd_sqrt of negative value")
    root = np.sqrt(hi_arr)
    # Guard exact zeros: sqrt(0 + lo) with tiny lo is below dd resolution.
    safe = np.where(root == 0.0, 1.0, root)
    resid = dd_sub(x, dd_mul((root, np.zeros_like(root)), (root, np.zeros_like(root))))
    corr = (resid[0] + resid[1]) / (2.0 * safe)
    corr = np.where(root == 0.0, 0.0, corr)
    return quick_two_sum(root, corr)


def dd_sum(hi, lo=None, axis=0):
    """Pairwise dd summation of an array along ``axis``.

    ``hi``/``lo`` may be the two components of elementwise dd values (e.g.
    from :func:`two_prod`); ``lo=None`` means plain float64 input.  The
    reduction folds halves with :func:`dd_add`, so only ``O(log n)``
    vectorized passes are made — both fast and accuracy-preserving.

    Returns a dd pair with the summed axis removed.
    """
    hi = np.asarray(hi, dtype=np.float64)
    lo = np.zeros_like(hi) if lo is None else np.asarray(lo, dtype=np.float64)
    hi = np.moveaxis(hi, axis, 0)
    lo = np.moveaxis(lo, axis, 0)
    while hi.shape[0] > 1:
        m = hi.shape[0]
        half = m // 2
        top_hi, top_lo = hi[:half], lo[:half]
        bot_hi, bot_lo = hi[half:2 * half], lo[half:2 * half]
        s_hi, s_lo = dd_add((top_hi, top_lo), (bot_hi, bot_lo))
        if m % 2:
            s_hi = np.concatenate([s_hi, hi[-1:]], axis=0)
            s_lo = np.concatenate([s_lo, lo[-1:]], axis=0)
        hi, lo = s_hi, s_lo
    if hi.shape[0] == 0:
        shape = hi.shape[1:]
        return np.zeros(shape), np.zeros(shape)
    return hi[0], lo[0]


@dataclass
class DDArray:
    """Convenience wrapper bundling the (hi, lo) pair with operators.

    Thin sugar over the functional API; kernels use the tuples directly for
    speed, while tests and the dd Cholesky use this class for readability.
    """

    hi: np.ndarray
    lo: np.ndarray

    @classmethod
    def from_double(cls, a) -> "DDArray":
        hi, lo = dd_from_double(a)
        return cls(hi, lo)

    @property
    def pair(self):
        return (self.hi, self.lo)

    def to_double(self) -> np.ndarray:
        return dd_to_double(self.pair)

    def __add__(self, other: "DDArray") -> "DDArray":
        return DDArray(*dd_add(self.pair, other.pair))

    def __sub__(self, other: "DDArray") -> "DDArray":
        return DDArray(*dd_sub(self.pair, other.pair))

    def __mul__(self, other: "DDArray") -> "DDArray":
        return DDArray(*dd_mul(self.pair, other.pair))

    def __truediv__(self, other: "DDArray") -> "DDArray":
        return DDArray(*dd_div(self.pair, other.pair))

    def __neg__(self) -> "DDArray":
        return DDArray(*dd_neg(self.pair))

    def sqrt(self) -> "DDArray":
        return DDArray(*dd_sqrt(self.pair))

    def sum(self, axis=0) -> "DDArray":
        return DDArray(*dd_sum(self.hi, self.lo, axis=axis))

    def __getitem__(self, key) -> "DDArray":
        return DDArray(self.hi[key], self.lo[key])
