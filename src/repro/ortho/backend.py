"""Backends: one algorithm code path over two substrates.

Every orthogonalization algorithm in :mod:`repro.ortho` is written against
the small primitive set of :class:`OrthoBackend`:

* :class:`NumpyBackend` — plain ndarrays, no cost accounting.  This is the
  "MATLAB" substrate for the paper's Section VI numerics; a fused dot is
  simply several GEMMs.
* :class:`DistBackend` — :class:`~repro.distla.multivector.DistMultiVector`
  shards with modeled costs and MPI-faithful reduction order; a fused dot
  is one collective (the BCGS-PIP single-reduce property).

Because both backends share FP64 BLAS semantics, a scheme validated for
stability on the NumPy backend is *the same algorithm* the performance
harness times on the simulated cluster.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np
import scipy.linalg

from repro.distla import blas as dblas
from repro.distla import engine as dengine
from repro.distla.multivector import DistMultiVector
from repro.dd.linalg import gram_dd, matmul_dd
from repro.exceptions import ShapeError
from repro.parallel.communicator import SimComm
from repro.parallel.costmodel import LOCAL_OPS
from repro.sketch.distributed import sketch_multivector


class OrthoBackend(ABC):
    """Primitive operations the block-orthogonalization kernels need.

    Handles (the ``mv`` arguments) are backend-specific: ndarrays for
    :class:`NumpyBackend`, multivectors for :class:`DistBackend`.  Column
    views must alias the parent storage — algorithms update panels of a
    shared basis in place.
    """

    # -- structure ------------------------------------------------------
    @abstractmethod
    def n_cols(self, mv) -> int: ...

    @abstractmethod
    def n_rows_global(self, mv) -> int: ...

    @abstractmethod
    def view(self, mv, cols: slice): ...

    @abstractmethod
    def copy(self, mv): ...

    # -- reductions (each call = one global synchronization) -------------
    @abstractmethod
    def dot(self, x, y) -> np.ndarray:
        """``X.T @ Y`` — one synchronization."""

    @abstractmethod
    def fused_dots(self, pairs: list[tuple]) -> list[np.ndarray]:
        """Several ``X.T @ Y`` in ONE synchronization (BCGS-PIP fusion)."""

    def post_fused_dots(self, pairs: list[tuple]):
        """Post :meth:`fused_dots` nonblocking; settle the returned
        handle with :meth:`wait_fused_dots`.

        Default: evaluate immediately and hand back the results as the
        handle — correct (bit-identical, zero overlap) for substrates
        without a communicator.  :class:`DistBackend` overrides with a
        real posted collective whose modeled time the compute charged
        between post and wait drains.
        """
        return self.fused_dots(pairs)

    def wait_fused_dots(self, handle) -> list[np.ndarray]:
        """Settle a :meth:`post_fused_dots` handle, returning the same
        list of products the blocking call would have produced."""
        return handle

    @abstractmethod
    def dot_dd(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Double-double accurate ``X.T @ Y`` — one synchronization."""

    @abstractmethod
    def norms(self, x) -> np.ndarray:
        """Column 2-norms — one synchronization."""

    # -- local (synchronization-free) updates ----------------------------
    @abstractmethod
    def update(self, v, q, r: np.ndarray) -> None:
        """``V -= Q @ R`` in place."""

    @abstractmethod
    def trsm(self, v, r: np.ndarray) -> None:
        """``V <- V @ R^{-1}`` in place (R upper triangular)."""

    @abstractmethod
    def scale_cols(self, v, scales: np.ndarray) -> None:
        """``V[:, j] *= scales[j]`` in place."""

    # -- composite factorizations ----------------------------------------
    @abstractmethod
    def householder_qr(self, v) -> np.ndarray:
        """Householder QR: overwrite ``v`` with Q, return R (sign-fixed).

        On the distributed backend this is the latency-heavy LAPACK-style
        algorithm with ~2 global reductions per column (the paper's
        Section IV-A point about BLAS-1/2 and O(s) reduces).
        """

    @abstractmethod
    def tsqr(self, v) -> np.ndarray:
        """Communication-avoiding tall-skinny QR (binary tree of QRs)."""

    def sketch(self, v, op) -> np.ndarray:
        """Sketch ``S @ V`` with a :class:`repro.sketch.SketchOperator`.

        One synchronization on the distributed backend (shard-local
        partials allreduce, see :mod:`repro.sketch.distributed`); the
        NumPy backend applies the operator in place.  Both substrates
        draw the *same* operator, so results agree to reduction-order
        rounding."""
        raise NotImplementedError(f"{type(self).__name__} has no sketch")

    def fused_dots_sketch(self, pairs: list[tuple], v, op
                          ) -> tuple[list[np.ndarray], np.ndarray]:
        """Several ``X.T @ Y`` plus one sketch ``S @ V`` in ONE
        synchronization — the randomized schemes' fusion of projection
        coefficients and panel sketch into a single collective."""
        raise NotImplementedError(
            f"{type(self).__name__} has no fused_dots_sketch")

    # -- accounting hook ----------------------------------------------------
    def host_flops(self, flops: float) -> None:
        """Charge redundant host-side dense flops (no-op on NumPy)."""


def _sign_fix_qr(q: np.ndarray | None, r: np.ndarray,
                 ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Flip signs so R has a non-negative diagonal (paper's convention).

    Returns ``(q_fixed, r_fixed, signs)``; pass ``q=None`` to fix R only
    and apply ``signs`` to the distributed Q separately.
    """
    signs = np.sign(np.diag(r)).astype(np.float64)
    signs[signs == 0] = 1.0
    r_fixed = r * signs[:, np.newaxis]
    q_fixed = None if q is None else q * signs[np.newaxis, :]
    return q_fixed, r_fixed, signs


# ---------------------------------------------------------------------------
# NumPy backend
# ---------------------------------------------------------------------------

class NumpyBackend(OrthoBackend):
    """Plain-ndarray substrate (the Section VI "MATLAB" experiments)."""

    def n_cols(self, mv) -> int:
        return int(mv.shape[1])

    def n_rows_global(self, mv) -> int:
        return int(mv.shape[0])

    def view(self, mv, cols: slice):
        return mv[:, cols]

    def copy(self, mv):
        return np.array(mv, copy=True)

    def dot(self, x, y) -> np.ndarray:
        return x.T @ y

    def fused_dots(self, pairs):
        return [x.T @ y for x, y in pairs]

    def dot_dd(self, x, y):
        if x is y:
            return gram_dd(x)
        return matmul_dd(x, y)

    def norms(self, x) -> np.ndarray:
        return np.linalg.norm(x, axis=0)

    def update(self, v, q, r) -> None:
        v -= q @ r

    def trsm(self, v, r) -> None:
        v[...] = scipy.linalg.solve_triangular(r, v.T, trans="T", lower=False).T

    def scale_cols(self, v, scales) -> None:
        v *= np.asarray(scales)[np.newaxis, :]

    def householder_qr(self, v) -> np.ndarray:
        q, r = np.linalg.qr(v)
        q, r, _ = _sign_fix_qr(q, r)
        v[...] = q
        return r

    def tsqr(self, v) -> np.ndarray:
        # A tree with a single leaf: same as Householder QR.
        return self.householder_qr(v)

    def sketch(self, v, op) -> np.ndarray:
        return op.apply(v)

    def fused_dots_sketch(self, pairs, v, op):
        return [x.T @ y for x, y in pairs], op.apply(v)


# ---------------------------------------------------------------------------
# Distributed backend
# ---------------------------------------------------------------------------

class DistBackend(OrthoBackend):
    """Simulated-cluster substrate over :class:`DistMultiVector`; every
    costed kernel runs on the engine ``comm`` is bound to."""

    def __init__(self, comm: SimComm) -> None:
        self.comm = comm

    # -- structure ------------------------------------------------------
    def n_cols(self, mv: DistMultiVector) -> int:
        return mv.n_cols

    def n_rows_global(self, mv: DistMultiVector) -> int:
        return mv.n_global

    def view(self, mv: DistMultiVector, cols: slice) -> DistMultiVector:
        return mv.view_cols(cols)

    def copy(self, mv: DistMultiVector) -> DistMultiVector:
        return mv.copy()

    # -- reductions -------------------------------------------------------
    def dot(self, x, y) -> np.ndarray:
        return dblas.block_dot(x, y)

    def fused_dots(self, pairs):
        return dblas.block_dot_multi(pairs)

    def post_fused_dots(self, pairs):
        return dblas.post_block_dot_multi(pairs)

    def wait_fused_dots(self, handle):
        return handle.comm.wait(handle)

    def dot_dd(self, x, y):
        return dblas.dot_dd_dist(x, y)

    def norms(self, x) -> np.ndarray:
        return dblas.column_norms(x)

    # -- local updates ------------------------------------------------------
    def update(self, v, q, r) -> None:
        dblas.block_update(v, q, r)

    def trsm(self, v, r) -> None:
        dblas.trsm_inplace(v, r)

    def scale_cols(self, v, scales) -> None:
        dblas.scale_columns(v, scales)

    # -- composite factorizations -----------------------------------------
    def householder_qr(self, v: DistMultiVector) -> np.ndarray:
        """Distributed column-wise Householder QR with explicit Q.

        Per column of the factorization: one norm reduction (dlarfg's
        ``||x||``) and one projection reduction (applying the reflector to
        the trailing columns); the explicit-Q rebuild adds one projection
        reduction per column.  BLAS-1/2 locality + ~3(s+1) global reduces
        — the performance profile Section IV-A ascribes to HHQR.
        """
        k = v.n_cols
        n = v.n_global
        if k > n:
            raise ShapeError("householder_qr requires n >= k")
        reflectors: list[DistMultiVector | None] = []
        for j in range(k):
            col = v.view_cols(j)
            u = col.copy()
            u.flat[:j] = 0.0
            sigma = float(self.norms(u)[0])  # sync: partial column norm
            vjj = float(col.flat[j, 0])
            if sigma == 0.0:
                reflectors.append(None)
                continue
            alpha = -math.copysign(sigma, vjj if vjj != 0.0 else 1.0)
            # ||u after head shift||^2 analytically (dlarfg does the same):
            unorm = math.sqrt(sigma * sigma - vjj * vjj
                              + (vjj - alpha) ** 2)
            u.flat[j, 0] = u.quantize(np.asarray(vjj - alpha))
            if unorm == 0.0:
                reflectors.append(None)
                continue
            self.scale_cols(u, np.array([1.0 / unorm]))
            reflectors.append(u)
            trail = v.view_cols(slice(j, k))
            proj = self.dot(u, trail)          # sync: reflector application
            self.update(trail, u, 2.0 * proj)
        r = np.triu(np.array(v.flat[:k], dtype=np.float64, order="C"))
        # Rebuild explicit Q = H_0 ... H_{k-1} [I; 0].
        v.fill(0.0)
        np.fill_diagonal(v.flat, 1.0)
        for j in reversed(range(k)):
            u = reflectors[j]
            if u is None:
                continue
            proj = self.dot(u, v)              # sync: explicit-Q rebuild
            self.update(v, u, 2.0 * proj)
        _, r, signs = _sign_fix_qr(None, r)
        self.scale_cols(v, signs)
        return r

    def _local_qr_cost(self, rows: int, k: int,
                       word_bytes: float = 8.0) -> float:
        """Modeled cost of one local Householder panel factorization."""
        m = self.comm.machine
        flops = 4.0 * rows * k * k  # factor + explicit local Q
        # k panel sweeps, blocked; bytes scale with the storage word size
        bytes_moved = word_bytes * rows * k * max(1, k // 4)
        return (k * m.kernel_latency
                + max(flops / m.peak_flops,
                      bytes_moved / (m.mem_bandwidth * m.gemm_bw_efficiency)))

    def tsqr(self, v: DistMultiVector) -> np.ndarray:
        """Binary-tree TSQR (Demmel et al. [9]) with exact Q reconstruction.

        Local QR per rank, pairwise combining of the k x k R factors up the
        tree (one small message per level), then each leaf's Q is rebuilt
        as ``Qloc @ M_leaf`` where the ``M`` factors fall out of the
        downward sweep — the unconditionally stable CA factorization.
        """
        comm, part, flat = self.comm, v.partition, v.flat
        k = v.n_cols
        counts = part.counts.tolist()
        # Leaves: one batched QR per run of equal-count ranks.  LAPACK
        # factors each ``(rows, k)`` slice of the stack on its own, so
        # this equals one call per rank bit for bit; a rank with fewer
        # than k rows is zero-padded to k x k.
        leaf_qs, local_rs = [], []
        for n_ranks, lo, rows in part.runs:
            work = flat[lo:lo + n_ranks * rows].reshape(n_ranks, rows, k)
            if work.dtype != np.float64:
                work = work.astype(np.float64)
            if rows < k:
                work = np.concatenate(
                    [work, np.zeros((n_ranks, k - rows, k))], axis=1)
            q, r = np.linalg.qr(work)
            leaf_qs.append(q[:, :rows])
            local_rs.extend(r)
        # the panel QR runs on the driver process under the mp backend
        # (ROADMAP: worker-side panel QR is an open item), so its charges
        # carry the driver_side tag calibration uses to skip them
        comm.charge_local(
            "dot", [self._local_qr_cost(rows, k, word_bytes=v.word_bytes)
                    for rows in counts], driver_side=True)

        def tree(rs: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray], int]:
            """Return (R, leaf coefficient matrices M_i, depth)."""
            if len(rs) == 1:
                return rs[0], [np.eye(k)], 0
            half = (len(rs) + 1) // 2
            r_left, m_left, d_left = tree(rs[:half])
            r_right, m_right, d_right = tree(rs[half:])
            q, r = np.linalg.qr(np.vstack([r_left, r_right]))
            qa, qb = q[:k], q[k:]
            ms = [m @ qa for m in m_left] + [m @ qb for m in m_right]
            return r, ms, max(d_left, d_right) + 1

        r_final, coeffs, depth = tree(local_rs)
        # one small message + one 2k x k host QR per tree level (the
        # flops of one node's QR stand for every rank)
        if depth:
            comm.charge("allreduce", comm.cost.record(lambda c: depth * (
                c.point_to_point(8.0 * k * k, same_node=False)
                + c.times(comm.size).host_dense(8.0 * k ** 3 / 3.0))),
                driver_side=True)
        _, r_final, signs = _sign_fix_qr(None, np.triu(r_final))
        # rebuild: ``Q_r = Qloc_r @ (M_r * signs)``, one GEMM per rank
        mstack = np.stack(coeffs) * signs
        first = 0
        for (n_ranks, lo, rows), qrun in zip(part.runs, leaf_qs):
            rebuilt = np.matmul(qrun, mstack[first:first + n_ranks])
            flat[lo:lo + n_ranks * rows] = v.quantize(
                rebuilt.reshape(n_ranks * rows, k))
            first += n_ranks
        kernel, formula = LOCAL_OPS["matvec"]
        comm.charge(kernel, comm.cost.record(lambda c: [
            formula(c, rows, k, k, v.word_bytes) for rows in counts]),
            driver_side=True)
        return r_final

    def sketch(self, v: DistMultiVector, op) -> np.ndarray:
        return sketch_multivector(v, op)

    def fused_dots_sketch(self, pairs, v: DistMultiVector, op):
        return dengine.resolve(self.comm).fused_dot_sketch(pairs, v, op)

    # -- accounting ------------------------------------------------------
    def host_flops(self, flops: float) -> None:
        # redundant on every rank: one evaluation, counted per rank
        comm = self.comm
        comm.charge("host", comm.cost.record(
            lambda c: c.times(comm.size).host_dense(flops)))
