"""Hessenberg recovery H = R T R^{-1} and the small least squares.

``hessenberg_oracle`` holds the paper's plain ``R T R^{-1}`` form, the
reference the in-place recovery is checked against.
"""

from __future__ import annotations

import numpy as np
import pytest

from hessenberg_oracle import assemble_hessenberg
from repro.exceptions import NumericalError, ShapeError
from repro.krylov.basis import MonomialBasis
from repro.krylov.hessenberg import (
    assemble_hessenberg_mixed,
    least_squares_residual,
)


def arnoldi_reference(a, v0, c):
    """Plain Arnoldi: returns Q (n x c+1) and H (c+1 x c)."""
    n = a.shape[0]
    q = np.zeros((n, c + 1))
    h = np.zeros((c + 1, c))
    q[:, 0] = v0 / np.linalg.norm(v0)
    for j in range(c):
        w = a @ q[:, j]
        for i in range(j + 1):
            h[i, j] = q[:, i] @ w
            w -= h[i, j] * q[:, i]
        h[j + 1, j] = np.linalg.norm(w)
        q[:, j + 1] = w / h[j + 1, j]
    return q, h


class TestAssembleHessenberg:
    def test_recovers_arnoldi_h(self, rng):
        """Build V = monomial Krylov chain, Q R = V by dense QR, then
        H = R T R^{-1} must equal the Arnoldi Hessenberg of A."""
        n, c = 40, 6
        a = rng.standard_normal((n, n))
        v0 = rng.standard_normal(n)
        v0 /= np.linalg.norm(v0)
        v = np.zeros((n, c + 1))
        v[:, 0] = v0
        for k in range(c):
            v[:, k + 1] = a @ v[:, k]
        q, r_fact = np.linalg.qr(v)
        signs = np.sign(np.diag(r_fact))
        q, r_fact = q * signs, r_fact * signs[:, None]
        t = MonomialBasis().change_of_basis(c)
        h = assemble_hessenberg(r_fact, t, c)
        q_ref, h_ref = arnoldi_reference(a, v0, c)
        # both Hessenbergs represent A on the same Krylov space; compare
        # via the Arnoldi relation directly
        np.testing.assert_allclose(a @ q[:, :c], q @ h, rtol=1e-8, atol=1e-8)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            assemble_hessenberg(np.eye(3), np.zeros((4, 3)), 3)

    def test_singular_r_raises(self):
        r = np.eye(4)
        r[2, 2] = 0.0
        t = MonomialBasis().change_of_basis(3)
        with pytest.raises(NumericalError):
            assemble_hessenberg(r, t, 3)


class TestAssembleMixed:
    def test_reduces_to_plain_when_w_equals_r(self, rng):
        c = 5
        r = np.triu(rng.standard_normal((c + 2, c + 2))) + 3 * np.eye(c + 2)
        t = MonomialBasis().change_of_basis(c)
        h_plain = assemble_hessenberg(r, t, c)
        h_mixed = assemble_hessenberg_mixed(r, r[:, :c + 1], MonomialBasis(), c)
        np.testing.assert_allclose(h_plain, h_mixed, rtol=1e-12)

    def test_singular_w_raises(self, rng):
        c = 4
        r = np.eye(c + 1)
        w = np.eye(c + 1)
        w[1, 1] = 0.0
        with pytest.raises(NumericalError):
            assemble_hessenberg_mixed(r, w, MonomialBasis(), c)


class TestLeastSquares:
    def test_matches_lstsq(self, rng):
        h = rng.standard_normal((7, 6))
        h = np.triu(h, -1)  # Hessenberg shape
        y, res = least_squares_residual(h, 2.5)
        rhs = np.zeros(7)
        rhs[0] = 2.5
        y_ref = np.linalg.lstsq(h, rhs, rcond=None)[0]
        np.testing.assert_allclose(y, y_ref, rtol=1e-9, atol=1e-10)
        assert res == pytest.approx(np.linalg.norm(rhs - h @ y_ref), abs=1e-12)

    def test_custom_rhs(self, rng):
        h = np.triu(rng.standard_normal((4, 3)), -1)
        rhs = rng.standard_normal(4)
        y, res = least_squares_residual(h, 0.0, rhs=rhs)
        y_ref = np.linalg.lstsq(h, rhs, rcond=None)[0]
        np.testing.assert_allclose(y, y_ref, rtol=1e-9, atol=1e-10)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            least_squares_residual(np.zeros((3, 3)), 1.0)
        with pytest.raises(ShapeError):
            least_squares_residual(np.zeros((4, 3)), 1.0, rhs=np.zeros(3))

    def test_exact_solve_zero_residual(self, rng):
        # consistent system: rhs in range(H)
        h = np.triu(rng.standard_normal((5, 4)), -1) + np.vstack(
            [np.eye(4), np.zeros((1, 4))])
        y_true = rng.standard_normal(4)
        rhs = h @ y_true
        y, res = least_squares_residual(h, 0.0, rhs=rhs)
        np.testing.assert_allclose(y, y_true, rtol=1e-10)
        assert res < 1e-12
