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

from repro import config
from repro.distla import blas as dblas
from repro.distla import engine as dengine
from repro.distla.multivector import DistMultiVector
from repro.dd.linalg import gram_dd, matmul_dd
from repro.exceptions import ShapeError
from repro.parallel.communicator import SimComm
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

    # -- accounting hooks ---------------------------------------------------
    def host_flops(self, flops: float) -> None:
        """Charge redundant host-side dense flops (no-op on NumPy)."""

    def charge_small(self, kernel: str, seconds: float) -> None:
        """Charge a fixed modeled cost (no-op on NumPy)."""


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
    """Simulated-cluster substrate over :class:`DistMultiVector`.

    ``engine`` selects the kernel-execution engine (``"loop"`` /
    ``"batched"``) for every costed BLAS call issued through this
    backend; ``None`` defers to the communicator binding and then the
    process default (:func:`repro.config.get_engine`).
    """

    def __init__(self, comm: SimComm, engine: str | None = None) -> None:
        self.comm = comm
        self.engine = None if engine is None else config.validate_engine(engine)

    def _engine(self) -> dengine.KernelEngine:
        return dengine.resolve(self.engine, self.comm)

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
        return dblas.block_dot(x, y, engine=self.engine)

    def fused_dots(self, pairs):
        return dblas.block_dot_multi(pairs, engine=self.engine)

    def post_fused_dots(self, pairs):
        return dblas.post_block_dot_multi(pairs, engine=self.engine)

    def wait_fused_dots(self, handle):
        return handle.comm.wait(handle)

    def dot_dd(self, x, y):
        return dblas.dot_dd_dist(x, y)

    def norms(self, x) -> np.ndarray:
        return dblas.column_norms(x, engine=self.engine)

    # -- local updates ------------------------------------------------------
    def update(self, v, q, r) -> None:
        dblas.block_update(v, q, r, engine=self.engine)

    def trsm(self, v, r) -> None:
        dblas.trsm_inplace(v, r, engine=self.engine)

    def scale_cols(self, v, scales) -> None:
        dblas.scale_columns(v, scales, engine=self.engine)

    # -- helpers over distributed storage -----------------------------------
    @staticmethod
    def _locate(mv: DistMultiVector, grow: int) -> tuple[int, int]:
        rank = mv.partition.owner(grow)
        return rank, grow - int(mv.partition.offsets[rank])

    def _get_entry(self, mv: DistMultiVector, grow: int, col: int = 0) -> float:
        rank, lrow = self._locate(mv, grow)
        return float(mv.shards[rank][lrow, col])

    def _set_entry(self, mv: DistMultiVector, grow: int, value: float,
                   col: int = 0) -> None:
        rank, lrow = self._locate(mv, grow)
        mv.shards[rank][lrow, col] = mv.quantize(np.asarray(value))

    def _zero_rows_above(self, mv: DistMultiVector, grow: int) -> None:
        """Zero global rows [0, grow) of every column."""
        part = mv.partition
        for rank in range(part.ranks):
            lo = int(part.offsets[rank])
            hi = int(part.offsets[rank + 1])
            if hi <= grow:
                mv.shards[rank][...] = 0.0
            elif lo < grow:
                mv.shards[rank][: grow - lo, :] = 0.0

    def _top_block(self, mv: DistMultiVector, k: int) -> np.ndarray:
        """Copy of global rows [0, k) across all columns."""
        rows = [np.array([self._get_entry(mv, i, c) for c in range(mv.n_cols)])
                for i in range(k)]
        return np.vstack(rows)

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
            self._zero_rows_above(u, j)
            sigma = float(self.norms(u)[0])  # sync: partial column norm
            vjj = self._get_entry(col, j)
            if sigma == 0.0:
                reflectors.append(None)
                continue
            alpha = -math.copysign(sigma, vjj if vjj != 0.0 else 1.0)
            # ||u after head shift||^2 analytically (dlarfg does the same):
            unorm = math.sqrt(sigma * sigma - vjj * vjj
                              + (vjj - alpha) ** 2)
            self._set_entry(u, j, vjj - alpha)
            if unorm == 0.0:
                reflectors.append(None)
                continue
            self.scale_cols(u, np.array([1.0 / unorm]))
            reflectors.append(u)
            trail = v.view_cols(slice(j, k))
            proj = self.dot(u, trail)          # sync: reflector application
            self.update(trail, u, 2.0 * proj)
        r = np.triu(self._top_block(v, k))
        # Rebuild explicit Q = H_0 ... H_{k-1} [I; 0].
        v.fill(0.0)
        for j in range(k):
            self._set_entry(v, j, 1.0, col=j)
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
        comm = self.comm
        k = v.n_cols
        stack = v.stack
        f64 = np.dtype(np.float64)
        batched = (isinstance(self._engine(), dengine.BatchedEngine)
                   and stack is not None and stack.shape[1] >= k)
        qstack = None
        if batched:
            work = stack if stack.dtype == f64 else stack.astype(f64)
            qstack, rstack = np.linalg.qr(work)
            local_rs = list(rstack)
        else:
            local_qs, local_rs = [], []
            for shard in v.shards:
                shard64 = shard if shard.dtype == f64 else shard.astype(f64)
                if shard.shape[0] >= k:
                    q, r = np.linalg.qr(shard64)
                else:
                    padded = np.vstack([shard64,
                                        np.zeros((k - shard.shape[0], k))])
                    q, r = np.linalg.qr(padded)
                    q = q[: shard.shape[0]]
                local_qs.append(q)
                local_rs.append(r)
        # the panel QR runs on the driver process under the mp backend
        # (ROADMAP: worker-side panel QR is an open item), so its charges
        # carry the driver_side tag calibration uses to skip them
        comm.charge_local(
            "dot", [self._local_qr_cost(s.shape[0], k,
                                        word_bytes=v.word_bytes)
                    for s in v.shards], driver_side=True)

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
        # one small message + one 2k x k host QR per tree level
        per_level = (comm.cost.point_to_point(8.0 * k * k, same_node=False)
                     + comm.cost.host_dense(8.0 * k ** 3 / 3.0))
        if depth:
            comm.charge_uniform("allreduce", depth * per_level, count=1,
                                driver_side=True)
        _, r_final, signs = _sign_fix_qr(None, np.triu(r_final))
        quantized = v.storage != "fp64"
        if batched:
            mstack = np.stack(coeffs) * signs[np.newaxis, np.newaxis, :]
            rebuilt = np.matmul(qstack, mstack)
            stack[...] = v.quantize(rebuilt) if quantized else rebuilt
        else:
            for shard, qloc, m in zip(v.shards, local_qs, coeffs):
                rebuilt = qloc @ (m * signs[np.newaxis, :])
                shard[...] = v.quantize(rebuilt) if quantized else rebuilt
        comm.charge_local(
            "update", [comm.cost.gemm(s.shape[0], k, k,
                                      word_bytes=v.word_bytes)
                       for s in v.shards], driver_side=True)
        return r_final

    def sketch(self, v: DistMultiVector, op) -> np.ndarray:
        return sketch_multivector(v, op, engine=self.engine)

    def fused_dots_sketch(self, pairs, v: DistMultiVector, op):
        return self._engine().fused_dot_sketch(pairs, v, op)

    # -- accounting ------------------------------------------------------
    def host_flops(self, flops: float) -> None:
        self.comm.charge_uniform("host", self.comm.cost.host_dense(flops))

    def charge_small(self, kernel: str, seconds: float) -> None:
        self.comm.charge_uniform(kernel, seconds)
