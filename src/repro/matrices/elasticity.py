"""3-D linear elasticity model problem (Table IV "Elasticity3D").

The paper's Elasticity3D is a structured 3-D model with three degrees of
freedom per grid point (n = 3 * 100^3), SPD.  We discretize the Navier
(isotropic linear elasticity) operator

    -mu * Lap(u) - (lambda + mu) * grad(div(u))

with second-order central differences on a structured grid, Dirichlet
boundaries eliminated.  The grad-div term couples the displacement
components through mixed second derivatives, giving the characteristic
3x3 block structure.  The operator is symmetric positive definite for
mu > 0, lambda + mu >= 0 (verified in tests).

The paper does not specify its discretization; nnz/row differs slightly
from the reported 5.7 (Table IV's cost model uses the paper's nnz/n
directly).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils.validation import check_positive_int


def _d1(n: int) -> sp.csr_matrix:
    """Central first difference (antisymmetric) on a Dirichlet grid."""
    off = 0.5 * np.ones(n - 1)
    return sp.diags([-off, off], [-1, 1]).tocsr()


def _d2(n: int) -> sp.csr_matrix:
    """Second difference -tridiag(1, -2, 1) (positive definite)."""
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


def _eye(n: int) -> sp.csr_matrix:
    return sp.identity(n, format="csr")


def elasticity3d(nx: int, ny: int | None = None, nz: int | None = None,
                 lam: float = 1.0, mu: float = 1.0) -> sp.csr_matrix:
    """Navier elasticity operator on an ``nx x ny x nz`` interior grid.

    Returns a CSR matrix of size ``3 * nx * ny * nz`` ordered by component
    blocks ``[u_x; u_y; u_z]`` (block-vector layout, as a structured
    application would assemble it).
    """
    nx = check_positive_int(nx, "nx")
    ny = nx if ny is None else check_positive_int(ny, "ny")
    nz = nx if nz is None else check_positive_int(nz, "nz")

    def kron3(a, b, c):
        return sp.kron(sp.kron(a, b), c)

    # scalar Laplacian on the grid
    lap = (kron3(_d2(nx), _eye(ny), _eye(nz))
           + kron3(_eye(nx), _d2(ny), _eye(nz))
           + kron3(_eye(nx), _eye(ny), _d2(nz)))
    # first derivatives per direction
    dx = kron3(_d1(nx), _eye(ny), _eye(nz))
    dy = kron3(_eye(nx), _d1(ny), _eye(nz))
    dz = kron3(_eye(nx), _eye(ny), _d1(nz))
    d = [dx, dy, dz]

    coeff = lam + mu
    blocks = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            # grad(div) block (i, j) = d_i d_j; central d1 matrices commute
            # across dimensions, and d_i @ d_j is symmetric in (i, j).
            gd = coeff * (d[i] @ d[j])
            if i == j:
                # Use -d_i^2 = d2 contribution for the diagonal of grad-div
                # to keep the operator definite on the discrete level.
                gd = coeff * kron3(*(_d2(n) if k == i else _eye(n)
                                     for k, n in enumerate((nx, ny, nz))))
                blocks[i][j] = mu * lap + gd
            else:
                blocks[i][j] = -gd
    a = sp.bmat(blocks, format="csr")
    # Symmetrize exactly against roundoff in the kron products.
    return ((a + a.T) * 0.5).tocsr()
