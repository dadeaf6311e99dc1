"""Model-problem generators."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.exceptions import ConfigurationError
from repro.matrices.stencil import convection_diffusion_2d, laplace2d, laplace3d


class TestLaplace2D:
    def test_shape_and_symmetry(self):
        a = laplace2d(10)
        assert a.shape == (100, 100)
        assert (a != a.T).nnz == 0

    def test_interior_row_structure_5pt(self):
        a = laplace2d(5).tocsr()
        mid = 12  # center of 5x5 grid
        row = a[mid].toarray().ravel()
        assert row[mid] == 4.0
        assert np.sum(row == -1.0) == 4

    def test_positive_definite(self):
        a = laplace2d(8)
        lmin = spla.eigsh(a.astype(float), k=1, which="SA",
                          return_eigenvectors=False)[0]
        assert lmin > 0

    def test_known_extreme_eigenvalue(self):
        # lambda_min = 4 sin^2(pi/(2(n+1))) * 2 for the 2D 5-point stencil
        n = 9
        a = laplace2d(n)
        h = np.pi / (2 * (n + 1))
        expected = 2 * 4 * np.sin(h) ** 2
        lmin = spla.eigsh(a.astype(float), k=1, which="SA",
                          return_eigenvectors=False)[0]
        assert lmin == pytest.approx(expected, rel=1e-8)

    def test_9pt_structure(self):
        a = laplace2d(5, stencil=9).tocsr()
        mid = 12
        row = a[mid].toarray().ravel()
        # compact 9-point: 8 off-diagonal neighbours
        assert np.count_nonzero(row) == 9
        assert (a != a.T).nnz == 0

    def test_9pt_interior_row_values(self):
        # 1/3 [[-1,-1,-1],[-1,8,-1],[-1,-1,-1]], each value as the sum of
        # Kronecker products rounds it: the edge taps sit one ulp below
        # the corner ones
        a = laplace2d(7, stencil=9)
        row = a[24]  # grid point (3, 3)
        assert row.indices.tolist() == [16, 17, 18, 23, 24, 25, 30, 31, 32]
        corner, edge = -0.3333333333333333, -0.3333333333333334
        assert row.data.tolist() == [corner, edge, corner,
                                     edge, 2.666666666666667, edge,
                                     corner, edge, corner]

    def test_9pt_positive_definite(self):
        a = laplace2d(8, stencil=9)
        lmin = spla.eigsh(a.astype(float), k=1, which="SA",
                          return_eigenvectors=False)[0]
        assert lmin > 0

    def test_rectangular(self):
        a = laplace2d(4, 6)
        assert a.shape == (24, 24)

    def test_bad_stencil(self):
        with pytest.raises(ConfigurationError):
            laplace2d(4, stencil=7)


class TestLaplace3D:
    def test_shape_and_nnz_per_row(self):
        a = laplace3d(10)
        assert a.shape == (1000, 1000)
        # paper Table IV: nnz/n = 6.9 for n = 100^3; boundary effect is
        # stronger at 10^3 but the interior stencil is 7-wide
        assert 6.0 < a.nnz / a.shape[0] <= 7.0

    def test_symmetric_positive_definite(self):
        a = laplace3d(4)
        assert (a != a.T).nnz == 0
        lmin = spla.eigsh(a.astype(float), k=1, which="SA",
                          return_eigenvectors=False)[0]
        assert lmin > 0

    def test_interior_row(self):
        a = laplace3d(5).tocsr()
        mid = 2 * 25 + 2 * 5 + 2
        row = a[mid].toarray().ravel()
        assert row[mid] == 6.0
        assert np.sum(row == -1.0) == 6


GENERATORS = {
    "laplace2d-5pt": lambda nx, ny: laplace2d(nx, ny),
    "laplace2d-9pt": lambda nx, ny: laplace2d(nx, ny, stencil=9),
    "convdiff2d": lambda nx, ny: convection_diffusion_2d(nx, ny),
    "convdiff2d-pure-upwind": lambda nx, ny: convection_diffusion_2d(
        nx, ny, wind=(-1.0, 0.0), diffusion=0.0),
}


@pytest.mark.parametrize("generator", GENERATORS.values(), ids=GENERATORS)
def test_no_stored_zeros_2d(generator):
    # the kron build stored zeros in every 9-point grid 3, 4 or 5 wide
    for nx in range(1, 13):
        for ny in range(1, 13):
            a = generator(nx, ny)
            assert a.nnz == np.count_nonzero(a.data), (nx, ny)


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (3, 3, 3),
                                   (5, 4, 3), (1, 6, 2), (4, 4, 5)])
def test_no_stored_zeros_3d(shape):
    a = laplace3d(*shape)
    assert a.nnz == np.count_nonzero(a.data)


class TestConvectionDiffusion:
    def test_nonsymmetric(self):
        a = convection_diffusion_2d(8)
        assert (a != a.T).nnz > 0

    def test_row_sums_nonnegative(self):
        # upwinding keeps the operator an M-matrix-like discretization
        a = convection_diffusion_2d(8)
        assert np.all(np.asarray(a.sum(axis=1)).ravel() > -1e-10)

    def test_negative_wind_branch(self):
        a = convection_diffusion_2d(8, wind=(-1.0, -0.5))
        assert (a != a.T).nnz > 0

    def test_solvable(self):
        a = convection_diffusion_2d(10)
        x = spla.spsolve(a.tocsc(), np.ones(100))
        assert np.all(np.isfinite(x))

    def test_pure_upwind(self):
        a = convection_diffusion_2d(8, diffusion=0.0)
        # 64 diagonal + 2 x 56 upwind neighbours; the diffusion taps are gone
        assert a.nnz == 176

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name, kwargs", [
        ("wind", lambda v: dict(wind=(v, 0.5))),
        ("wind", lambda v: dict(wind=(1.0, v))),
        ("diffusion", lambda v: dict(diffusion=v)),
    ], ids=["wind_x", "wind_y", "diffusion"])
    def test_non_finite_input(self, bad, name, kwargs):
        with pytest.raises(ConfigurationError, match=name):
            convection_diffusion_2d(8, **kwargs(bad))
