"""Costed block-BLAS over :class:`DistMultiVector`.

Each function (i) runs the real per-rank NumPy kernels, (ii) combines
partial results through the communicator with MPI-faithful tree order, and
(iii) charges modeled time: local kernels cost ``max`` across concurrent
ranks; reductions cost one (possibly fused) allreduce.

Kernel attribution matches the paper's breakdown figures: Gram/projection
GEMMs are charged to ``dot`` (paper: "dot-products"), tall ``V -= Q R``
GEMMs to ``update`` ("vector-updates"), triangular scaling to ``trsm``.

This module validates shapes and then dispatches to the
:mod:`repro.distla.engine` kernel engine the operands' communicator was
bound to at construction (``comm.engine``) — the ``"batched"`` default
or the per-rank ``"loop"`` reference.  Both engines produce the same
reduction order and charge identical modeled costs.
"""

from __future__ import annotations

import numpy as np

from repro.dd.linalg import matmul_dd
from repro.distla import engine as _engine
from repro.distla.multivector import DistMultiVector
from repro.exceptions import ShapeError


def _check_same_partition(*mvs: DistMultiVector) -> None:
    first = mvs[0]
    for mv in mvs[1:]:
        if mv.partition != first.partition:
            raise ShapeError("operands live on different partitions")
        if mv.comm is not first.comm:
            raise ShapeError("operands bound to different communicators")


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def block_dot(x: DistMultiVector, y: DistMultiVector) -> np.ndarray:
    """Global ``X.T @ Y`` — one GEMM per rank + one allreduce.

    Returns the ``(kx, ky)`` result, replicated (conceptually) on every
    rank, as in the paper Sec. VII: "the resulting matrix ... is stored
    redundantly on all the MPI processes".
    """
    _check_same_partition(x, y)
    return _engine.resolve(x.comm).block_dot(x, y)


def block_dot_multi(pairs: list[tuple[DistMultiVector, DistMultiVector]]
                    ) -> list[np.ndarray]:
    """Several ``X.T @ Y`` products fused into a *single* allreduce.

    This is the communication pattern that makes BCGS-PIP a "single-reduce"
    algorithm: ``[Q, V].T @ V`` requires the products ``Q.T @ V`` and
    ``V.T @ V`` which travel in one message.
    """
    if not pairs:
        return []
    comm = pairs[0][0].comm
    for x, y in pairs:
        _check_same_partition(x, y)
        if x.comm is not comm:
            raise ShapeError("fused dots must share a communicator")
    return _engine.resolve(comm).block_dot_multi(pairs)


def post_block_dot_multi(pairs: list[tuple[DistMultiVector, DistMultiVector]]):
    """Posted :func:`block_dot_multi`: partials and their charges now,
    the fused allreduce posted nonblocking.

    Returns a :class:`~repro.parallel.communicator.CommRequest`; settle
    with ``request.comm.wait(request)``, which yields the same list of
    reduced arrays — bit-identical to the blocking call — and charges
    only the exposed (non-overlapped) remainder of the collective.
    ``pairs`` must be non-empty: an empty post has no communicator to
    draw a request from.
    """
    if not pairs:
        raise ShapeError("post_block_dot_multi needs at least one pair")
    comm = pairs[0][0].comm
    for x, y in pairs:
        _check_same_partition(x, y)
        if x.comm is not comm:
            raise ShapeError("fused dots must share a communicator")
    return _engine.resolve(comm).post_block_dot_multi(pairs)


def dot_dd_dist(x: DistMultiVector, y: DistMultiVector
                ) -> tuple[np.ndarray, np.ndarray]:
    """Double-double accurate ``X.T @ Y`` with a fused dd allreduce.

    Per-rank partial Gram matrices are accumulated in dd
    (:func:`repro.dd.linalg.matmul_dd`), the (hi, lo) pairs travel in one
    collective of twice the payload, and ranks combine them with dd
    addition.  Local flops are charged at the dd penalty factor; the
    communication grows only 2x — the defining trade-off of the
    mixed-precision CholQR [26].
    """
    _check_same_partition(x, y)
    his, los = [], []
    for xs, ys in zip(x.shards, y.shards):
        hi, lo = matmul_dd(xs, ys)
        his.append(hi)
        los.append(lo)
    # the panel streams at its storage word size (fp32 shards move half
    # the fp64 bytes); only the dd flop penalty is precision-independent
    _engine.charge_rows(x, "dot_dd", x.n_cols, y.n_cols,
                        max(x.word_bytes, y.word_bytes))
    # One collective, double payload; combining in dd keeps full accuracy
    # (the communicator folds the (hi, lo) pairs in tree order).
    return x.comm.allreduce_dd(his, los)


def column_norms(x: DistMultiVector) -> np.ndarray:
    """2-norms of each column (one fused allreduce)."""
    return _engine.resolve(x.comm).column_norms(x)


# ---------------------------------------------------------------------------
# local (communication-free) updates
# ---------------------------------------------------------------------------

def block_update(v: DistMultiVector, q: DistMultiVector,
                 r: np.ndarray) -> None:
    """In-place tall update ``V -= Q @ R`` (no communication).

    ``r`` is the replicated small matrix from a previous reduction.
    """
    _check_same_partition(v, q)
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (q.n_cols, v.n_cols):
        raise ShapeError(
            f"R has shape {r.shape}, expected ({q.n_cols}, {v.n_cols})")
    _engine.resolve(v.comm).block_update(v, q, r)


def trsm_inplace(v: DistMultiVector, r: np.ndarray) -> None:
    """In-place ``V <- V @ R^{-1}`` with upper-triangular replicated ``R``."""
    r = np.asarray(r, dtype=np.float64)
    k = v.n_cols
    if r.shape != (k, k):
        raise ShapeError(f"R has shape {r.shape}, expected ({k}, {k})")
    _engine.resolve(v.comm).trsm_inplace(v, r)


def scale_columns(v: DistMultiVector, scales: np.ndarray) -> None:
    """In-place per-column scaling ``V[:, j] *= scales[j]``."""
    scales = np.asarray(scales, dtype=np.float64)
    if scales.shape != (v.n_cols,):
        raise ShapeError(f"scales has shape {scales.shape}, expected ({v.n_cols},)")
    _engine.resolve(v.comm).scale_columns(v, scales)


def lincomb(out: DistMultiVector,
            terms: list[tuple[float, DistMultiVector]]) -> None:
    """``out <- sum_i alpha_i X_i`` (streaming axpy chain, no comm)."""
    if not terms:
        out.fill(0.0)
        return
    _check_same_partition(out, *[t[1] for t in terms])
    _engine.resolve(out.comm).lincomb(out, terms)


def copy_into(dst: DistMultiVector, src: DistMultiVector) -> None:
    """Costed device copy ``dst <- src`` (one read + one write stream)."""
    _check_same_partition(dst, src)
    _engine.resolve(dst.comm).copy_into(dst, src)


def matvec_small(v: DistMultiVector, coeffs: np.ndarray,
                 out: DistMultiVector) -> None:
    """``out <- V @ coeffs`` where coeffs is a replicated small matrix.

    Used for forming the approximate solution ``x += V_m y`` at the end of
    a restart cycle.
    """
    _check_same_partition(v, out)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (v.n_cols, out.n_cols):
        raise ShapeError(
            f"coeffs has shape {coeffs.shape}, expected ({v.n_cols}, {out.n_cols})")
    _engine.resolve(v.comm).matvec_small(v, coeffs, out)
