"""Kron-product reference for the stencil generators (the oracle of
``test_stencil_oracle.py``).

The construction :mod:`repro.matrices.stencil` replaced: each operator
is a sum of Kronecker products of 1-D Dirichlet factors, built through
SciPy's ``kron`` / ``kronsum`` / ``diags`` and converted to CSR.  Kept
unchanged on purpose, stored zeros included: ``sp.kron`` switches to BSR
when a 1-D factor is at least half dense, so the 9-point operator on a
grid 3, 4 or 5 points wide stores explicit zeros.  The assembler must
agree with it byte for byte everywhere else, and on those shapes after
``eliminate_zeros()``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_positive_int


def _kron3(a: sp.spmatrix, b: sp.spmatrix, c: sp.spmatrix) -> sp.csr_matrix:
    return sp.kron(sp.kron(a, b), c).tocsr()


def _lap1d(n: int) -> sp.csr_matrix:
    """1-D Dirichlet Laplacian tridiag(-1, 2, -1) of size n."""
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


def _eye(n: int) -> sp.csr_matrix:
    return sp.identity(n, format="csr")


def laplace2d(nx: int, ny: int | None = None, stencil: int = 5) -> sp.csr_matrix:
    """2-D Laplacian on an ``nx x ny`` interior grid.

    ``stencil=5`` is the standard cross; ``stencil=9`` is
    ``1/3 [[-1,-1,-1],[-1,8,-1],[-1,-1,-1]]``.
    """
    nx = check_positive_int(nx, "nx")
    ny = nx if ny is None else check_positive_int(ny, "ny")
    if stencil == 5:
        a = sp.kronsum(_lap1d(ny), _lap1d(nx)).tocsr()
        return a
    if stencil == 9:
        # 9-point: 1/3 * [[-1,-1,-1],[-1,8,-1],[-1,-1,-1]]
        tx = _lap1d(nx)
        ty = _lap1d(ny)
        ix = _eye(nx)
        iy = _eye(ny)
        # D2x (x) (I - 1/6 D2y) + (I - 1/6 D2x) (x) D2y
        a = (sp.kron(tx, iy - ty / 6.0) + sp.kron(ix - tx / 6.0, ty))
        return a.tocsr()
    raise ConfigurationError(f"stencil must be 5 or 9, got {stencil}")


def laplace3d(nx: int, ny: int | None = None, nz: int | None = None) -> sp.csr_matrix:
    """3-D 7-point Laplacian on an ``nx x ny x nz`` interior grid."""
    nx = check_positive_int(nx, "nx")
    ny = nx if ny is None else check_positive_int(ny, "ny")
    nz = nx if nz is None else check_positive_int(nz, "nz")
    a = (_kron3(_lap1d(nx), _eye(ny), _eye(nz))
         + _kron3(_eye(nx), _lap1d(ny), _eye(nz))
         + _kron3(_eye(nx), _eye(ny), _lap1d(nz)))
    return a.tocsr()


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
    h = 1.0 / (nx + 1)
    bx, by = wind

    def upwind1d(n: int, b: float) -> sp.csr_matrix:
        # first-order upwind d/dx on Dirichlet interior grid
        if b >= 0:
            return sp.diags([-np.ones(n - 1), np.ones(n)], [-1, 0]).tocsr() * (b / h)
        return sp.diags([-np.ones(n), np.ones(n - 1)], [0, 1]).tocsr() * (-b / h)

    diff = diffusion / h ** 2 * sp.kronsum(_lap1d(ny), _lap1d(nx))
    conv = (sp.kron(upwind1d(nx, bx), _eye(ny))
            + sp.kron(_eye(nx), upwind1d(ny, by)))
    return (diff + conv).tocsr()
