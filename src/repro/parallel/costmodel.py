"""LogGP-flavoured cost model mapping operation descriptors to seconds.

Local kernels follow a roofline:  ``t = launch + max(flops / peak,
bytes / (bw * efficiency))``.  Tall-skinny BLAS-2/3 on short inner
dimensions is bandwidth-bound on a V100 (arithmetic intensity of
``Q.T @ V`` with widths (j, c) is ``jc / (4(j+c))`` flop/byte, far below
the ~60 flop/byte FP64 ridge), so the *bytes* term dominates every
orthogonalization kernel in this paper — which is exactly why running the
second stage at block width ``bs`` instead of ``s`` pays: the prefix
``Q_{1:l-1}`` is streamed once per big panel instead of once per panel.

Collectives use a hierarchical tree: intra-node hops at NVLink latency,
inter-node hops at IB latency, plus one device synchronization per
collective (the GPU pipeline must drain before MPI may touch the buffer).

Every method returns seconds as a plain float; the caller decides the
tracing category (a local kernel's through :data:`LOCAL_OPS`).  The model
is deliberately small and fully unit-tested — see
``tests/parallel/test_costmodel.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.parallel.machine import MachineSpec
from repro.precision.dtypes import word_bytes as bytes_per_word

#: Default word size: IEEE double, the library's historical working
#: precision.  Every local-kernel method accepts ``word_bytes`` so the
#: charged byte traffic scales with the *storage* precision of the
#: operands (``bytes_per_word("fp32") == 4.0`` etc.); the default keeps
#: all fp64 charges bit-identical to the pre-precision-subsystem model.
_DOUBLE = bytes_per_word("fp64")
_INT = 4     # bytes per CSR index (cuSparse uses 32-bit local indices)
#: Native flops per double-double flop (the operands stay float64, so
#: bandwidth is unchanged): the dd Gram's penalty.
_DD_FLOPS = 20.0


class KernelCharge(NamedTuple):
    """What one concurrent local kernel costs: the record a charge hands
    to the tracer.  Built by :meth:`CostModel.record`, kept wherever its
    inputs never change (:meth:`CostModel.memoized`), charged with
    :meth:`SimComm.charge <repro.parallel.communicator.SimComm.charge>`
    any number of times."""

    #: Elapsed modeled seconds: the slowest rank's.
    seconds: float
    #: Floating-point operations of every rank's shard, summed.
    flops: float
    #: Device-memory bytes every rank's shard moves, summed.
    mem_bytes: float


@dataclass(frozen=True)
class CostModel:
    """Maps operation shapes to modeled seconds on one :class:`MachineSpec`."""

    machine: MachineSpec
    #: Running ``[flops, bytes_moved]`` of ONE evaluation: a list only on
    #: the copy :meth:`record` hands to its ``evaluate``, ``None`` on
    #: every model a caller holds (one ``is not None`` test per costing).
    _shapes: list | None = field(default=None, compare=False, repr=False)
    #: How many ranks each shape recorded through this copy stands for.
    _ranks: int = field(default=1, compare=False, repr=False)

    def record(self, evaluate: Callable[["CostModel"], "float | list[float]"]
               ) -> KernelCharge:
        """The :class:`KernelCharge` of a kernel that takes
        ``evaluate(model)`` seconds — one figure, or one per concurrently
        running rank (the slowest counts).  ``evaluate`` sees a copy of
        this model that totals the operation shape of every formula it
        calls."""
        shapes = [0.0, 0.0]
        seconds = evaluate(CostModel(self.machine, shapes))
        return KernelCharge(
            max(seconds) if isinstance(seconds, list) else seconds, *shapes)

    def times(self, ranks: int) -> "CostModel":
        """This model, for costing ONE shard that ``ranks`` ranks all
        execute: same seconds, every recorded shape counted ``ranks``
        times."""
        return CostModel(self.machine, self._shapes, ranks)

    def memoized(self, memo: dict, key,
                 evaluate: Callable[["CostModel"], "float | list[float]"]
                 ) -> KernelCharge:
        """``self.record(evaluate)``, run once per ``(key, machine)`` in
        the caller's ``memo``.  ``key`` must name everything ``evaluate``
        closes over that can vary."""
        key = (key, self.machine)
        charge = memo.get(key)
        if charge is None:
            charge = memo[key] = self.record(evaluate)
        return charge

    # ------------------------------------------------------------------
    # local device kernels
    # ------------------------------------------------------------------
    def _roofline(self, flops: float, bytes_moved: float, efficiency: float) -> float:
        if self._shapes is not None:
            self._shapes[0] += flops * self._ranks
            self._shapes[1] += bytes_moved * self._ranks
        m = self.machine
        t_flops = flops / m.peak_flops
        t_bytes = bytes_moved / (m.mem_bandwidth * efficiency)
        return m.kernel_latency + max(t_flops, t_bytes)

    def gemm_efficiency(self, width: float) -> float:
        """Effective bandwidth fraction of a tall-skinny BLAS-2/3 kernel
        whose *narrow* dimension is ``width`` columns.

        width == 1 is a GEMV (clean streaming); widths 2..~8 hit the
        reduction-shaped split-k regime (slowest); efficiency then climbs
        linearly to the wide plateau at ``gemm_width_sat`` columns — the
        hardware mechanism behind the paper's "increasing the potential
        for the data reuse" with block size ``bs``.
        """
        m = self.machine
        if width <= 1:
            return m.gemv_efficiency
        if m.gemm_width_sat <= 2:
            return m.gemm_bw_efficiency
        frac = min(1.0, (width - 2.0) / (m.gemm_width_sat - 2.0))
        return m.gemm_eff_narrow + frac * (m.gemm_bw_efficiency
                                           - m.gemm_eff_narrow)

    def gemm(self, m_rows: float, k_inner: float, n_cols: float,
             word_bytes: float = _DOUBLE) -> float:
        """Dense ``C[m,n] += A[m,k] @ B[k,n]`` (tall-skinny: m >> k, n).

        Bytes: stream A and B once, write C once — ``word_bytes`` each
        (the *storage* word size of the operands; fp32 panels are
        charged at half the fp64 traffic).  For the tall-skinny shapes
        in block orthogonalization (m = local rows) the A/B streams
        dominate; efficiency follows the narrow dimension.
        """
        flops = 2.0 * m_rows * k_inner * n_cols
        bytes_moved = word_bytes * (m_rows * k_inner + k_inner * n_cols
                                    + m_rows * n_cols)
        eff = self.gemm_efficiency(min(k_inner, n_cols) if k_inner and n_cols
                                   else 1.0)
        return self._roofline(flops, bytes_moved, eff)

    def gemm_tall_update(self, m_rows: float, k_inner: float, n_cols: float,
                         word_bytes: float = _DOUBLE) -> float:
        """Tall update ``V[m,n] -= Q[m,k] @ R[k,n]`` (reads and writes V)."""
        flops = 2.0 * m_rows * k_inner * n_cols
        bytes_moved = word_bytes * (m_rows * k_inner + k_inner * n_cols
                                    + 2.0 * m_rows * n_cols)
        eff = self.gemm_efficiency(min(k_inner, n_cols) if k_inner and n_cols
                                   else 1.0)
        return self._roofline(flops, bytes_moved, eff)

    def syrk(self, m_rows: float, n_cols: float,
             word_bytes: float = _DOUBLE) -> float:
        """Symmetric rank-k: ``G = V.T @ V`` for tall-skinny V (m x n)."""
        flops = 1.0 * m_rows * n_cols * (n_cols + 1)
        bytes_moved = word_bytes * (m_rows * n_cols + n_cols * n_cols)
        return self._roofline(flops, bytes_moved,
                              self.gemm_efficiency(n_cols))

    def trsm(self, m_rows: float, n_cols: float,
             word_bytes: float = _DOUBLE) -> float:
        """Triangular solve ``Q = V @ R^{-1}`` over m x n tall operand."""
        flops = 1.0 * m_rows * n_cols * n_cols
        bytes_moved = word_bytes * (2.0 * m_rows * n_cols
                                    + n_cols * n_cols / 2.0)
        return self._roofline(flops, bytes_moved,
                              self.gemm_efficiency(n_cols))

    def blas1(self, n_elems: float, n_streams: int = 2, writes: int = 1,
              word_bytes: float = _DOUBLE) -> float:
        """Vector kernel streaming ``n_streams`` reads + ``writes`` writes."""
        flops = 2.0 * n_elems
        bytes_moved = word_bytes * n_elems * (n_streams + writes)
        return self._roofline(flops, bytes_moved, self.machine.stream_efficiency)

    def spmv(self, nnz: float, n_rows: float, n_cols_touched: float,
             word_bytes: float = _DOUBLE) -> float:
        """CSR SpMV: stream values+indices once, rows of y, gathered x.

        ``spmv_efficiency`` covers the irregular x-gather; the fixed
        overhead covers the distributed-SpMV bookkeeping (operand
        import/export, MPI progression, device syncs) that dominates at
        small local sizes — see the MachineSpec module docstring.
        ``word_bytes`` sizes the *vector* streams (x gather + y rows) at
        the operand storage precision; matrix values always stream fp64.
        """
        flops = 2.0 * nnz
        bytes_moved = ((_DOUBLE + _INT) * nnz + _INT * (n_rows + 1)
                       + word_bytes * (n_rows + n_cols_touched))
        return (self.machine.spmv_fixed_overhead
                + self._roofline(flops, bytes_moved,
                                 self.machine.spmv_efficiency))

    def host_dense(self, flops: float) -> float:
        """Small redundant dense math on the host (Cholesky of an s x s
        Gram, Hessenberg least squares) — paper Sec. VII runs these on CPU
        on every rank."""
        if self._shapes is not None:
            self._shapes[0] += flops * self._ranks
        return flops / self.machine.host_flops

    def ghost_plan_analysis(self, level_rows: float, level_nnz: float) -> float:
        """Symbolic cost of building one rank's s-level ghost-zone closure.

        Host-side graph traversal over the transitively reachable rows:
        each closure level walks its rows' CSR adjacency (a few ops per
        nonzero to follow column indices, plus per-row set/sort
        bookkeeping).  ``level_rows`` / ``level_nnz`` are the totals over
        every level of the plan (:class:`repro.distla.halo.GhostPlan`
        records them per rank).  Charged once per ``(depth, expand)`` key
        when the plan is first analyzed — deep-halo planning is no longer
        free, so one-shot short solves see the setup the CA MPK really
        pays before its first panel.
        """
        return self.host_dense(8.0 * level_nnz + 32.0 * level_rows)

    def srht_apply(self, n_pad: float, n_cols: float, m_rows: float,
                   word_bytes: float = _DOUBLE) -> float:
        """Batched FFT-style SRHT: one fast Walsh–Hadamard transform over
        the zero-padded shard, applied to all ``n_cols`` columns at once.

        The butterfly network does ``n_pad log2(n_pad)`` adds per column
        (versus ``2 m n_pad`` for the explicit tall GEMM the closed-form
        operator charges), then gathers and sign-flips the ``m_rows``
        sampled rows.  Bytes: stream the padded work array in and out
        once — the log2(n_pad) passes are cache-tiled — plus the sampled
        output.  Used by :class:`repro.sketch.operators.FastSRHTSketch`.
        """
        lg = max(1.0, math.log2(max(n_pad, 2.0)))
        flops = n_pad * lg * n_cols + 2.0 * m_rows * n_cols
        bytes_moved = word_bytes * (2.0 * n_pad * n_cols
                                    + m_rows * n_cols)
        return self._roofline(flops, bytes_moved,
                              self.machine.stream_efficiency)

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------
    def _tree_hops(self, ranks: int) -> tuple[int, int]:
        """(intra-node hops, inter-node hops) of a hierarchical reduction."""
        m = self.machine
        if ranks <= 1:
            return 0, 0
        on_node = min(ranks, m.ranks_per_node)
        nodes = m.nodes_for(ranks)
        intra = math.ceil(math.log2(on_node)) if on_node > 1 else 0
        inter = math.ceil(math.log2(nodes)) if nodes > 1 else 0
        return intra, inter

    def allreduce(self, bytes_payload: float, ranks: int) -> float:
        """Allreduce of ``bytes_payload`` across ``ranks`` devices.

        Hierarchical recursive doubling: every hop pays its latency plus
        the payload over its link; one device sync drains the GPU pipeline
        before MPI may read the buffer (and one more to resume).
        """
        if ranks <= 1:
            return 0.0
        m = self.machine
        intra, inter = self._tree_hops(ranks)
        t = 2.0 * m.device_sync_latency
        t += intra * (m.net_latency_intra + bytes_payload / m.net_bandwidth_intra)
        t += inter * (m.net_latency_inter + bytes_payload / m.net_bandwidth_inter)
        return t

    def bcast(self, bytes_payload: float, ranks: int) -> float:
        """Broadcast of ``bytes_payload`` from one root to ``ranks`` devices.

        Same hierarchical tree as :meth:`allreduce` but one-way: a single
        device sync drains the root's pipeline, then the payload fans out
        down the intra/inter hop levels.  Half the sync cost of an
        allreduce because nothing is gathered back.
        """
        if ranks <= 1:
            return 0.0
        m = self.machine
        intra, inter = self._tree_hops(ranks)
        t = m.device_sync_latency
        t += intra * (m.net_latency_intra + bytes_payload / m.net_bandwidth_intra)
        t += inter * (m.net_latency_inter + bytes_payload / m.net_bandwidth_inter)
        return t

    def point_to_point(self, bytes_payload: float, same_node: bool) -> float:
        """One message between two ranks."""
        m = self.machine
        if same_node:
            return m.net_latency_intra + bytes_payload / m.net_bandwidth_intra
        return m.net_latency_inter + bytes_payload / m.net_bandwidth_inter

    def halo_exchange(self, recv_bytes_by_peer: dict[int, float], rank: int,
                      ranks: int) -> float:
        """Neighbour exchange as seen by one rank: messages from all peers
        land concurrently; serialization only on shared injection bandwidth.
        """
        m = self.machine
        if not recv_bytes_by_peer:
            return 0.0
        node = rank // m.ranks_per_node
        t_lat = 0.0
        vol_intra = 0.0
        vol_inter = 0.0
        for peer, nbytes in recv_bytes_by_peer.items():
            if peer // m.ranks_per_node == node:
                t_lat = max(t_lat, m.net_latency_intra)
                vol_intra += nbytes
            else:
                t_lat = max(t_lat, m.net_latency_inter)
                vol_inter += nbytes
        return (m.device_sync_latency + t_lat
                + vol_intra / m.net_bandwidth_intra
                + vol_inter / m.net_bandwidth_inter)

    # ------------------------------------------------------------------
    # batched (multi-solve) charging
    # ------------------------------------------------------------------
    def fixed_cost(self, kernel: str, ranks: int) -> float:
        """Width-independent seconds of ONE charged ``kernel`` occurrence.

        Every formula above is affine in its shape: ``t = fixed +
        work(shape)`` where the fixed part (launch latency, device
        syncs, per-hop message latency) does not grow with the operand.
        A fused pass over ``b`` stacked operands therefore pays the
        fixed part once and the work term per member — this method is
        the split the communicator's charge funnel subtracts from follower
        members' charges inside a fusion ``group()``.  Host-side redundant math
        (``host``, ``ghost_plan``) has no launch cost and batching buys
        it nothing.
        """
        m = self.machine
        if kernel == "allreduce":
            return self.allreduce(0.0, ranks)
        if kernel == "bcast":
            return self.bcast(0.0, ranks)
        if kernel == "halo":
            if ranks <= 1:
                return 0.0
            lat = (m.net_latency_inter if m.nodes_for(ranks) > 1
                   else m.net_latency_intra)
            return m.device_sync_latency + lat
        if kernel == "spmv_local":
            return m.kernel_latency + m.spmv_fixed_overhead
        if kernel in ("host", "ghost_plan"):
            return 0.0
        return m.kernel_latency


# ---------------------------------------------------------------------------
# the one local-kernel price table
# ---------------------------------------------------------------------------

def _dot_dd(cost, rows, k_x, k_y, word_bytes=_DOUBLE) -> float:
    """dd ``X.T @ Y``: the GEMM, floored by its flops at the dd penalty."""
    m = cost.machine
    return max(cost.gemm(rows, k_x, k_y, word_bytes), m.kernel_latency
               + 2.0 * rows * k_x * k_y * _DD_FLOPS / m.peak_flops)


def _norm(cost, rows, cols, word_bytes=_DOUBLE) -> float:
    return cost.blas1(rows * cols, 1, 0, word_bytes)     # nothing written


def _stream(cost, rows, cols, reads, word_bytes=_DOUBLE) -> float:
    return cost.blas1(rows * cols, reads, 1, word_bytes)  # one written


#: Local (communication-free) op -> ``(charged kernel, formula)``, the ONE
#: place a local op meets its formula: ``formula(model, rows, *args)``
#: costs one rank's ``rows``-row shard; ``args`` are the column widths
#: (``j, k`` of a ``(rows, j)``-by-``(rows, k)`` op, ``k`` of a panel), the
#: operands read (``scale``, ``axpy``), the word size (fp64 if omitted).
LOCAL_OPS = {
    "dot": ("dot", CostModel.gemm),                    # X.T @ Y
    "dot_dd": ("dot", _dot_dd),                        # X.T @ Y in dd
    "norm": ("norm", _norm),                           # ||V[:, j]||
    "update": ("update", CostModel.gemm_tall_update),  # V -= Q @ R
    "matvec": ("update", CostModel.gemm),              # out = V @ C
    "trsm": ("trsm", CostModel.trsm),                  # V @ R^{-1}
    "scale": ("scale", _stream),                       # V * d
    "axpy": ("axpy", _stream),                         # sum_i a_i X_i
}
