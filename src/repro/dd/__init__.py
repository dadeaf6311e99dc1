"""Double-double (software ~quad precision) arithmetic substrate.

The paper's related work (Section II, ref. [26]) uses a mixed-precision
CholQR whose Gram matrix is accumulated in *twice* the working precision;
on hardware without native float128 this is emulated with double-double
arithmetic (Hida, Li, Bailey, ARITH-15).  This subpackage provides the
error-free transformations, a vectorized pair-of-arrays representation,
and the Gram-matrix kernels :func:`repro.dd.linalg.gram_dd` /
:func:`repro.dd.linalg.dot_dd` used by
:class:`repro.ortho.cholqr.MixedPrecisionCholQR`.
"""

from repro.dd.core import (
    DDArray,
    dd_add,
    dd_mul,
    dd_sub,
    dd_sum,
    dd_to_double,
    two_prod,
)
from repro.dd.linalg import cholesky_dd, dot_dd, gram_dd, matmul_dd

__all__ = [
    "DDArray",
    "two_prod",
    "dd_to_double",
    "dd_add",
    "dd_sub",
    "dd_mul",
    "dd_sum",
    "gram_dd",
    "dot_dd",
    "matmul_dd",
    "cholesky_dd",
]
