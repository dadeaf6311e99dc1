"""Sketch operators: determinism, shard-locality, embedding quality."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.sketch import (
    SketchOperator,
    canonical_family,
    derive_seed,
    make_operator,
    sketch_rows,
)
from repro.sketch.operators import (
    _GAUSS_CHUNK,
    OPERATOR_FAMILIES,
    GaussianSketch,
    SRHTSketch,
    SparseSignSketch,
    embedding_dim,
)
from repro.utils.rng import haar_orthonormal

FAMILIES = ["sparse", "gaussian", "srht"]


class TestSeeding:
    def test_derive_seed_stable(self):
        a = derive_seed(7, "ctx", 3, 5)
        assert a == derive_seed(7, "ctx", 3, 5)
        assert 0 <= a < 2 ** 63

    def test_derive_seed_sensitive_to_context(self):
        base = derive_seed(7, "ctx", 3, 5)
        assert base != derive_seed(8, "ctx", 3, 5)
        assert base != derive_seed(7, "ctx", 3, 6)
        assert base != derive_seed(7, "other", 3, 5)

    def test_type_distinction(self):
        # the int 3 and the string "3" must not collide
        assert derive_seed(0, 3) != derive_seed(0, "3")


@pytest.mark.parametrize("family", FAMILIES)
class TestOperatorContract:
    def test_deterministic(self, family):
        a = make_operator(family, 200, 24, seed=11)
        b = make_operator(family, 200, 24, seed=11)
        np.testing.assert_array_equal(a.matrix(), b.matrix())
        c = make_operator(family, 200, 24, seed=12)
        assert not np.array_equal(a.matrix(), c.matrix())

    def test_partial_matches_matrix(self, family, rng):
        op = make_operator(family, 150, 20, seed=5)
        v = rng.standard_normal((150, 4))
        np.testing.assert_allclose(op.apply(v), op.matrix() @ v,
                                   rtol=1e-12, atol=1e-13)

    def test_partition_independence(self, family, rng):
        """Summed shard partials equal the full sketch, bitwise, for any
        row split — the property the distributed layer relies on."""
        n = 173
        op = make_operator(family, n, 16, seed=3)
        v = rng.standard_normal((n, 3))
        full = op.apply(v)
        for cuts in ([40, 90, 130], [1, 2, 172], [86]):
            bounds = [0, *cuts, n]
            total = sum(op.partial(v[lo:hi], lo)
                        for lo, hi in zip(bounds, bounds[1:]))
            np.testing.assert_allclose(total, full, rtol=1e-13, atol=1e-14)

    def test_partial_stack_bit_identical_to_loop(self, family, rng):
        """A stack is a run of equal-count ranks anywhere in the rows."""
        n, ranks, rows = 200, 8, 20
        op = make_operator(family, n, 16, seed=9)
        stack = rng.standard_normal((ranks, rows, 3))
        for first_row in (0, 37):
            loop = np.stack([op.partial(stack[r], first_row + r * rows)
                             for r in range(ranks)])
            np.testing.assert_array_equal(
                op.partial_stack(stack, first_row), loop)
            empty = op.partial_stack(np.zeros((2, 0, 3)), first_row)
            assert empty.shape == (2, 16, 3) and not empty.any()

    def test_embedding_quality(self, family, rng):
        """Singular values of S Q stay within a constant band for an
        orthonormal Q at the heuristic embedding dimension."""
        n, k = 800, 10
        q = haar_orthonormal(n, k, rng)
        m = embedding_dim(k, family=family)
        op = make_operator(family, n, m, seed=21)
        s = np.linalg.svd(op.apply(q), compute_uv=False)
        assert 0.3 < s[-1] and s[0] < 1.7

    def test_apply_validates_height(self, family, rng):
        op = make_operator(family, 100, 12, seed=1)
        with pytest.raises(ConfigurationError):
            op.apply(rng.standard_normal((99, 2)))

    def test_repr_and_shape(self, family):
        op = make_operator(family, 64, 8, seed=2)
        assert op.shape == (8, 64)
        assert type(op).__name__ in repr(op)


class TestSparseSign:
    def test_countsketch_single_nnz_columns(self):
        op = SparseSignSketch(50, 8, seed=4)
        s = op.matrix()
        # exactly one +-1 per input row (CountSketch)
        assert np.all(np.count_nonzero(s, axis=0) == 1)
        assert set(np.unique(s[s != 0])) <= {-1.0, 1.0}

    def test_multi_nnz_scaling(self):
        op = SparseSignSketch(50, 16, seed=4, nnz_per_row=4)
        s = op.matrix()
        counts = np.count_nonzero(s, axis=0)
        assert np.all(counts >= 1) and np.all(counts <= 4)
        # collision-free rows carry unit weight (4 entries of 1/sqrt(4))
        clean = counts == 4
        assert clean.any()
        np.testing.assert_allclose(np.sum(s * s, axis=0)[clean], 1.0)

    def test_nnz_validation(self):
        with pytest.raises(ConfigurationError):
            SparseSignSketch(50, 8, seed=0, nnz_per_row=0)


class TestGaussian:
    def test_chunk_boundary_consistency(self, rng):
        """Row generation must not depend on where a shard starts,
        including across the chunk boundary."""
        n = _GAUSS_CHUNK + 100
        op = make_operator("gaussian", n, 6, seed=13)
        fresh = make_operator("gaussian", n, 6, seed=13)
        lo, hi = _GAUSS_CHUNK - 5, _GAUSS_CHUNK + 5
        v = rng.standard_normal((hi - lo, 2))
        np.testing.assert_array_equal(op.partial(v, lo),
                                      fresh.partial(v, lo))

    def test_variance_scaling(self):
        op = GaussianSketch(3000, 60, seed=8)
        s = op.matrix()
        assert np.var(s) * op.m_rows == pytest.approx(1.0, rel=0.05)

    def test_empty_shard_contribution(self):
        """Over-decomposed partitions hand empty shards to partial();
        the contribution is zero, including at chunk-aligned offsets."""
        op = GaussianSketch(2 * _GAUSS_CHUNK, 6, seed=3)
        for offset in (0, 100, _GAUSS_CHUNK):
            out = op.partial(np.zeros((0, 2)), offset)
            np.testing.assert_array_equal(out, np.zeros((6, 2)))


class TestSRHT:
    def test_orthogonal_rows(self):
        """Distinct Walsh rows are orthogonal: S S.T diagonal when the
        input length is already a power of two."""
        op = SRHTSketch(64, 12, seed=6)
        g = op.matrix() @ op.matrix().T
        off = g - np.diag(np.diag(g))
        np.testing.assert_allclose(off, 0.0, atol=1e-12)
        np.testing.assert_allclose(np.diag(g), 64 / 12, rtol=1e-12)

    def test_m_exceeding_padding_rejected(self):
        with pytest.raises(ConfigurationError):
            SRHTSketch(10, 17, seed=0)  # pad = 16 < 17


class TestSizingAndRegistry:
    def test_embedding_dim_families(self):
        assert embedding_dim(10, family="sparse") == 4 * 18
        assert embedding_dim(10, family="gaussian") == 2 * 18
        # distortion scaling: half the distortion, 4x the rows
        assert embedding_dim(10, family="gaussian", distortion=0.25) \
            == 8 * 18

    def test_embedding_dim_validation(self):
        with pytest.raises(ConfigurationError):
            embedding_dim(0)
        with pytest.raises(ConfigurationError):
            embedding_dim(5, distortion=1.5)

    def test_sketch_rows_oversample_and_clamp(self):
        assert sketch_rows(5, 10_000, oversample=4) == 20
        assert sketch_rows(5, 12, oversample=4) == 13  # clamp to k+8
        assert sketch_rows(1, 10_000, oversample=2) == 9  # min pad

    def test_sketch_rows_srht_padding_clamp(self):
        """Short, wide panels: the SRHT clamp must respect the padded
        length it samples from, and construction must succeed for every
        family at the size sketch_rows returns."""
        k, n = 12, 16
        for family in FAMILIES:
            m = sketch_rows(k, n, family=family)
            assert m >= k
            op = make_operator(family, n, m, seed=1)
            assert op.shape == (m, n)
        assert sketch_rows(k, n, family="srht") <= 16  # n_pad

    def test_canonical_family(self):
        assert canonical_family("CountSketch") == "sparse"
        assert canonical_family("sparse-sign") == "sparse"
        assert canonical_family("SRHT") == "srht"
        with pytest.raises(ConfigurationError):
            canonical_family("fourier")

    def test_make_operator_and_families(self):
        for name in OPERATOR_FAMILIES:
            op = make_operator(name, 40, 10, seed=0)
            assert isinstance(op, SketchOperator)

    def test_operator_param_validation(self):
        with pytest.raises(ConfigurationError):
            SparseSignSketch(0, 4, seed=0)
        with pytest.raises(ConfigurationError):
            GaussianSketch(10, 0, seed=0)
