"""Structured finite-difference operators (the paper's model problems).

* :func:`laplace2d` — 5-point or 9-point 2D Laplacian (Tables II/III use
  n = 2000^2; Table III says "9-points 2D Laplace").
* :func:`laplace3d` — 7-point 3D Laplacian (Table IV "Laplace3D",
  n = 100^3, nnz/n = 6.9 — the boundary rows bring the average below 7).
* :func:`convection_diffusion_2d` — nonsymmetric upwinded operator, used
  by tests and examples to exercise the solver on a genuinely
  nonsymmetric, nondiagonalizable-ish problem.

All return ``scipy.sparse.csr_matrix`` with natural (row-major grid)
ordering; Dirichlet boundaries are eliminated (matrix acts on interior
unknowns only, identity-free).  Each generator lists its grid shape and
taps; :func:`_assemble` writes the CSR arrays straight from them.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_finite, check_positive_int

#: taps of the 1-D Dirichlet Laplacian tridiag(-1, 2, -1)
_LAP1D = {-1: -1.0, 0: 2.0, 1: -1.0}


def _index_dtype(n: int, nnz: int) -> type:
    """SciPy's rule: int32 indices unless ``n`` or ``nnz`` needs int64."""
    return np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64


def _assemble(shape: tuple[int, ...], taps) -> sp.csr_matrix:
    """Canonical CSR of a constant-coefficient stencil on a row-major grid.

    ``taps`` are ``(offset, value)`` pairs in sorted-column (lexicographic)
    order.  Row ``p`` holds a tap iff ``p + offset`` is on the grid;
    zero-valued taps are dropped, so no zero is stored.
    """
    taps = [(off, value) for off, value in taps if value != 0.0]
    offsets = np.array([o for o, _ in taps], np.int64).reshape(len(taps), len(shape))
    n = math.prod(shape)
    nnz = sum(math.prod(max(m - abs(d), 0) for m, d in zip(shape, o))
              for o, _ in taps)
    idx = _index_dtype(n, nnz)
    # keep[p, t]: is tap t of grid point p on the grid?  Folded one axis at
    # a time; `lead` ends as the fold of all axes but the last, `on` the last
    keep = np.ones((1, len(taps)), dtype=bool)
    step = np.zeros(len(taps), np.int64)  # column offset of each tap
    for axis, m in enumerate(shape):
        pos = np.arange(m)[:, None] + offsets[:, axis]
        on = (pos >= 0) & (pos < m)
        lead, keep = keep, (keep[:, None] & on).reshape(len(keep) * m, -1)
        step = step * m + offsets[:, axis]
    indptr = np.zeros(n + 1, dtype=idx)
    # taps per row: one product of the two factors (exact small ints)
    indptr[1:] = (lead.astype(np.float64) @ on.T.astype(np.float64)).ravel()
    np.cumsum(indptr, out=indptr)
    indices = (np.arange(n, dtype=idx)[:, None] + step.astype(idx))[keep]
    data = np.broadcast_to(np.array([v for _, v in taps]), keep.shape)[keep]
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _cross(ndim: int) -> list:
    """Taps of the (2 ndim + 1)-point Laplacian, the Kronecker sum of
    ``ndim`` 1-D ones (its centre ``2 + 2 (+ 2)`` is exact)."""
    taps = {(0,) * ndim: _LAP1D[0] * ndim}
    for axis, s in product(range(ndim), (-1, 1)):
        taps[tuple(s * (k == axis) for k in range(ndim))] = _LAP1D[s]
    return sorted(taps.items())


def laplace2d(nx: int, ny: int | None = None, stencil: int = 5) -> sp.csr_matrix:
    """2-D Laplacian on an ``nx x ny`` interior grid.

    ``stencil=5`` is the standard cross; ``stencil=9`` is the paper's
    Table III operator ``1/3 [[-1,-1,-1],[-1,8,-1],[-1,-1,-1]]``, i.e.
    ``T (x) (I - T/6) + (I - T/6) (x) T`` for the 1-D Laplacian ``T``,
    each value rounded as that sum of Kronecker products rounds it.
    """
    nx = check_positive_int(nx, "nx")
    ny = nx if ny is None else check_positive_int(ny, "ny")
    if stencil == 5:
        return _assemble((nx, ny), _cross(2))
    if stencil == 9:
        # SciPy divides a matrix by a scalar as a product with the reciprocal
        t = _LAP1D
        m = {d: float(d == 0) - t[d] * (1.0 / 6.0) for d in t}  # I - T/6
        return _assemble((nx, ny), [((dx, dy), t[dx] * m[dy] + m[dx] * t[dy])
                                    for dx, dy in product(t, repeat=2)])
    raise ConfigurationError(f"stencil must be 5 or 9, got {stencil}")


def laplace3d(nx: int, ny: int | None = None, nz: int | None = None) -> sp.csr_matrix:
    """3-D 7-point Laplacian on an ``nx x ny x nz`` interior grid."""
    nx = check_positive_int(nx, "nx")
    ny = nx if ny is None else check_positive_int(ny, "ny")
    nz = nx if nz is None else check_positive_int(nz, "nz")
    return _assemble((nx, ny, nz), _cross(3))


def convection_diffusion_2d(nx: int, ny: int | None = None,
                            wind: tuple[float, float] = (1.0, 0.5),
                            diffusion: float = 1.0e-2) -> sp.csr_matrix:
    """Upwinded convection-diffusion: nonsymmetric 5-point operator.

    ``-diffusion * Lap(u) + wind . grad(u)`` with first-order upwinding,
    grid spacing ``h = 1/(nx+1)``.  Strong winds make the operator highly
    nonnormal — a good stress test for the s-step basis conditioning.
    """
    nx = check_positive_int(nx, "nx")
    ny = nx if ny is None else check_positive_int(ny, "ny")
    check_finite(wind, "wind")
    check_finite(diffusion, "diffusion")
    h = 1.0 / (nx + 1)
    c = diffusion / h ** 2
    # upwind b d/dx: backward difference for b >= 0, forward otherwise
    ux, uy = ({-1: -(b / h), 0: b / h, 1: 0.0} if b >= 0
              else {-1: 0.0, 0: -(-b / h), 1: -b / h} for b in wind)
    conv = {(-1, 0): ux[-1], (0, -1): uy[-1], (0, 0): ux[0] + uy[0],
            (0, 1): uy[1], (1, 0): ux[1]}
    return _assemble((nx, ny), [(o, v * c + conv[o]) for o, v in _cross(2)])
