"""The direct CSR assembler against its Kronecker-product oracle.

``stencil_oracle`` is the ``kron`` / ``kronsum`` / ``diags`` build
:mod:`repro.matrices.stencil` replaced.  Every generator must return the
oracle's ``indptr``, ``indices`` and ``data`` byte for byte, with the
same index dtype and format flags, on 2-D shapes up to 40 per side, 3-D
shapes up to 9 per side, both Laplacian stencils and upwind winds of
either sign or zero.  The one exception is the 9-point operator on grids
3, 4 or 5 points wide, where the oracle stores explicit zeros (its
``kron`` goes through BSR): there it is compared after
``eliminate_zeros()``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stencil_oracle as oracle
from repro.matrices import stencil
from repro.matrices.stencil import convection_diffusion_2d, laplace2d, \
    laplace3d


def assert_matches_oracle(got: sp.csr_matrix, want: sp.csr_matrix,
                          stored_zeros: bool = False) -> None:
    if stored_zeros:
        want = want.copy()
        want.eliminate_zeros()
    assert type(got) is type(want)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name
    assert got.has_sorted_indices == want.has_sorted_indices
    assert got.has_canonical_format == want.has_canonical_format


sides_2d = st.integers(1, 40)
sides_3d = st.integers(1, 9)
# a wind component of either sign or zero
winds = st.tuples(st.sampled_from([-1.0, 0.0, 1.0]),
                  st.floats(0.01, 100.0)).map(lambda p: p[0] * p[1])
diffusions = st.one_of(st.just(0.0), st.floats(1e-4, 10.0))


@settings(max_examples=150, deadline=None)
@given(nx=sides_2d, ny=sides_2d, points=st.sampled_from([5, 9]))
def test_laplace2d(nx, ny, points):
    assert_matches_oracle(laplace2d(nx, ny, stencil=points),
                          oracle.laplace2d(nx, ny, stencil=points),
                          stored_zeros=points == 9 and ny in (3, 4, 5))


@settings(max_examples=100, deadline=None)
@given(nx=sides_3d, ny=sides_3d, nz=sides_3d)
def test_laplace3d(nx, ny, nz):
    assert_matches_oracle(laplace3d(nx, ny, nz), oracle.laplace3d(nx, ny, nz))


@settings(max_examples=150, deadline=None)
@given(nx=sides_2d, ny=sides_2d, bx=winds, by=winds, diffusion=diffusions)
@example(nx=1, ny=1, bx=0.0, by=0.0, diffusion=0.0)  # every tap zero
@example(nx=6, ny=4, bx=0.0, by=0.0, diffusion=0.0)
def test_convection_diffusion_2d(nx, ny, bx, by, diffusion):
    kwargs = dict(wind=(bx, by), diffusion=diffusion)
    assert_matches_oracle(convection_diffusion_2d(nx, ny, **kwargs),
                          oracle.convection_diffusion_2d(nx, ny, **kwargs))


@pytest.mark.parametrize("nx", [63, 90, 144, 200])
def test_benchmark_sizes(nx):
    """The 9-point operators of the live benchmark workloads."""
    assert_matches_oracle(laplace2d(nx, stencil=9),
                          oracle.laplace2d(nx, stencil=9))


def test_peak_memory_is_near_the_result():
    """Assembly allocates little beyond the three CSR arrays (the kron
    build peaked at 6.5x them)."""
    laplace2d(8, stencil=9)  # warm imports and caches outside the window
    tracemalloc.start()
    try:
        a = laplace2d(200, stencil=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    assert peak <= 2 * result


def test_index_dtype_rule():
    """int32 indices unless the order or the entry count passes the int32
    range, checked on the sizes alone."""
    top = np.iinfo(np.int32).max
    assert stencil._index_dtype(top, top) is np.int32
    assert stencil._index_dtype(top + 1, 7) is np.int64
    assert stencil._index_dtype(7, top + 1) is np.int64
    a = laplace2d(200, stencil=9)
    assert a.indptr.dtype == a.indices.dtype == np.int32
