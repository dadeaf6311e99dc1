"""The list-pass greedy coloring against its row-by-row oracle.

``coloring_oracle`` is the loop :func:`repro.precond.coloring
.greedy_coloring` replaced.  The colors must be equal entry for entry on
stencils, on the block-diagonal parts block Jacobi colors (ragged
partitions, empty blocks included), on random nonsymmetric patterns, on
patterns whose symmetrized sum drops entries (stored zeros, ``a_ij =
-a_ji``), on degenerate sizes, and past 64 colors.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import coloring_oracle as oracle
from repro.matrices.stencil import convection_diffusion_2d, laplace2d, \
    laplace3d
from repro.precond.block_jacobi import _block_diagonal_part
from repro.precond.coloring import greedy_coloring


def assert_matches_oracle(a: sp.spmatrix) -> np.ndarray:
    got, want = greedy_coloring(a), oracle.greedy_coloring(a)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    return got


def _random_pattern(n: int, density: float, seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    return sp.csr_matrix(np.where(rng.random((n, n)) < density,
                                  rng.standard_normal((n, n)), 0.0))


@pytest.mark.parametrize("a", [
    pytest.param(lambda: laplace2d(13), id="laplace2d-5pt"),
    pytest.param(lambda: laplace2d(11, 7, stencil=9), id="laplace2d-9pt"),
    pytest.param(lambda: laplace3d(6, 5, 4), id="laplace3d"),
    pytest.param(lambda: convection_diffusion_2d(12), id="convdiff2d"),
])
def test_stencils(a):
    assert_matches_oracle(a())


@st.composite
def block_diagonal_parts(draw) -> sp.csr_matrix:
    """The block-diagonal part of a stencil or random pattern over
    ragged offsets; repeated cuts leave blocks empty."""
    kind = draw(st.sampled_from(["5pt", "9pt", "random"]))
    if kind == "random":
        a = _random_pattern(draw(st.integers(1, 40)),
                            draw(st.floats(0.0, 0.4)),
                            draw(st.integers(0, 2**16)))
    else:
        a = laplace2d(draw(st.integers(2, 8)), stencil=int(kind[0]))
    n = a.shape[0]
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=7)))
    return _block_diagonal_part(a, np.array([0, *cuts, n]))


@settings(max_examples=100, deadline=None)
@given(block_diagonal_parts())
def test_block_diagonal_parts(a):
    assert_matches_oracle(a)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 60), density=st.floats(0.0, 0.5),
       seed=st.integers(0, 2**16))
def test_random_nonsymmetric_patterns(n, density, seed):
    assert_matches_oracle(_random_pattern(n, density, seed))


def test_stored_zero_is_no_edge():
    """``a + a.T`` drops a stored zero whose mirror is absent."""
    a = sp.csr_matrix((np.array([1.0, 0.0, 1.0]), np.array([0, 1, 1]),
                       np.array([0, 2, 3])), shape=(2, 2))
    assert a.nnz == 3
    np.testing.assert_array_equal(assert_matches_oracle(a), [0, 0])


def test_cancelling_pair_is_no_edge():
    """``a_01 = -a_10`` cancels in ``a + a.T``: rows 0 and 1 may share a
    color, while row 2 (coupled one way only) may not share row 0's."""
    a = sp.csr_matrix(np.array([[1.0, 2.0, 0.0],
                                [-2.0, 1.0, 0.0],
                                [3.0, 0.0, 1.0]]))
    np.testing.assert_array_equal(assert_matches_oracle(a), [0, 0, 1])


@pytest.mark.parametrize("a", [
    pytest.param(lambda: sp.csr_matrix((0, 0)), id="n=0"),
    pytest.param(lambda: sp.csr_matrix(np.array([[4.0]])), id="n=1"),
    pytest.param(lambda: sp.csr_matrix((1, 1)), id="n=1-empty"),
    pytest.param(lambda: sp.csr_matrix((5, 5)), id="all-rows-empty"),
    pytest.param(lambda: sp.csr_matrix(sp.block_diag(
        [laplace2d(3), sp.csr_matrix((4, 4)), laplace2d(2)])),
        id="empty-rows-between"),
])
def test_degenerate_sizes(a):
    assert_matches_oracle(a())


def test_dense_block_needs_more_than_64_colors():
    colors = assert_matches_oracle(sp.csr_matrix(np.ones((70, 70))))
    np.testing.assert_array_equal(colors, np.arange(70))
