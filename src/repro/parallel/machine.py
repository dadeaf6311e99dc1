"""Machine descriptions for the performance simulator.

A :class:`MachineSpec` captures the handful of hardware constants the cost
model needs.  The constants in the presets are public figures for the
paper's systems; none of them are fitted to the paper's result tables (the
reproduction target is ratios/crossovers, which depend on operation counts,
not on the constants — see docs/cost-model.md).

Device-level constants (NVIDIA V100, SXM2 16GB):
  * 7.0 TF/s FP64 peak, ~900 GB/s HBM2 peak; STREAM-like kernels reach
    ~78-85% of peak bandwidth.
  * Tall-skinny cuBLAS GEMM efficiency depends strongly on the *narrow*
    dimension: reduction-shaped products with 4-8 columns run at
    ~100-200 GB/s effective (split-k kernels), while 48+ column blocks
    approach ~50% of peak; plain GEMV streams at ~50%.  This width
    dependence is the hardware face of the paper's "data reuse with a
    larger block size" argument, so the model carries it explicitly
    (``gemm_eff_narrow`` / ``gemm_bw_efficiency`` / ``gemm_width_sat``).
  * CUDA kernel launch + driver overhead ~5-10 microseconds.
  * A distributed (Tpetra-style) SpMV pays a fixed per-call overhead for
    import/export packing, MPI progression and device synchronization —
    ~0.25 ms on V100-era Summit software (visible in the paper's
    Table III: SpMV time stops scaling past ~8 nodes).

Network constants (Summit, dual-rail EDR InfiniBand, fat tree):
  * ~1.5 us nearest-neighbour MPI latency CPU-side; GPU-direct collectives
    on V100-era Spectrum MPI see ~20-30 us effective latency per hop once
    device synchronization is included.
  * 12.5 GB/s per-direction per rail inter-node; NVLink ~50 GB/s
    intra-node per direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class MachineSpec:
    """Hardware constants for one device type plus its interconnect.

    All rates are bytes/s and flop/s; all latencies are seconds.
    """

    name: str
    #: FP64 peak of one device (one MPI rank = one device).
    peak_flops: float
    #: Peak memory bandwidth of one device.
    mem_bandwidth: float
    #: Achievable fraction of peak bandwidth for streaming (BLAS-1) kernels.
    stream_efficiency: float
    #: Bandwidth fraction of *wide* tall-skinny BLAS-3 (>= gemm_width_sat
    #: narrow-dimension columns).
    gemm_bw_efficiency: float
    #: Bandwidth fraction of very narrow (2-8 column) tall-skinny GEMM.
    gemm_eff_narrow: float
    #: Narrow-dimension width at which GEMM efficiency saturates.
    gemm_width_sat: float
    #: Bandwidth fraction of GEMV (single-column projections/updates).
    gemv_efficiency: float
    #: Bandwidth fraction of CSR SpMV (irregular gathers).
    spmv_efficiency: float
    #: Fixed per-SpMV overhead (import/export, MPI progression, syncs).
    spmv_fixed_overhead: float
    #: Fixed overhead per device-kernel launch.
    kernel_latency: float
    #: Devices (MPI ranks) per node.
    ranks_per_node: int
    #: Effective per-hop latency of an intra-node collective step.
    net_latency_intra: float
    #: Effective per-hop latency of an inter-node collective step.
    net_latency_inter: float
    #: Per-direction intra-node link bandwidth (NVLink).
    net_bandwidth_intra: float
    #: Per-direction inter-node link bandwidth (IB).
    net_bandwidth_inter: float
    #: Host-side scalar flop rate for the small redundant dense math
    #: (Cholesky of s x s Gram, least squares on the Hessenberg) which the
    #: implementation performs "redundantly ... on CPU" (paper Sec. VII).
    host_flops: float
    #: Fixed cost of a device<->host transfer + synchronization, paid once
    #: per global collective with device data (cudaMemcpy + stream sync).
    device_sync_latency: float

    def nodes_for(self, ranks: int) -> int:
        """Number of nodes hosting ``ranks`` devices."""
        return max(1, math.ceil(ranks / self.ranks_per_node))

    def with_overrides(self, **kwargs) -> "MachineSpec":
        """Return a copy with selected fields replaced (for ablations)."""
        return replace(self, **kwargs)


def summit() -> MachineSpec:
    """Summit: 6 V100 per node (the paper's Tables III/IV, Figs. 10-13)."""
    return MachineSpec(
        name="summit",
        peak_flops=7.0e12,
        mem_bandwidth=900.0e9,
        stream_efficiency=0.80,
        gemm_bw_efficiency=0.50,
        gemm_eff_narrow=0.15,
        gemm_width_sat=48.0,
        gemv_efficiency=0.50,
        spmv_efficiency=0.18,
        spmv_fixed_overhead=2.5e-4,
        kernel_latency=8.0e-6,
        ranks_per_node=6,
        net_latency_intra=6.0e-6,
        net_latency_inter=3.5e-5,
        net_bandwidth_intra=5.0e10,
        net_bandwidth_inter=1.25e10,
        host_flops=1.0e10,
        device_sync_latency=3.0e-5,
    )


def vortex() -> MachineSpec:
    """Vortex (Sandia ASC testbed): 4 V100 per node (the paper's Table II)."""
    return MachineSpec(
        name="vortex",
        peak_flops=7.0e12,
        mem_bandwidth=900.0e9,
        stream_efficiency=0.80,
        gemm_bw_efficiency=0.50,
        gemm_eff_narrow=0.15,
        gemm_width_sat=48.0,
        gemv_efficiency=0.50,
        spmv_efficiency=0.18,
        spmv_fixed_overhead=2.5e-4,
        kernel_latency=8.0e-6,
        ranks_per_node=4,
        net_latency_intra=6.0e-6,
        net_latency_inter=3.5e-5,
        net_bandwidth_intra=5.0e10,
        net_bandwidth_inter=1.25e10,
        host_flops=1.0e10,
        device_sync_latency=3.0e-5,
    )


def generic_cpu() -> MachineSpec:
    """A generic multicore CPU node — useful for unit tests and laptops.

    Latency terms are small relative to bandwidth so tests that assert
    bandwidth-driven behaviour are not swamped by launch overhead.
    """
    return MachineSpec(
        name="generic_cpu",
        peak_flops=5.0e11,
        mem_bandwidth=1.0e11,
        stream_efficiency=0.85,
        gemm_bw_efficiency=0.70,
        gemm_eff_narrow=0.70,   # CPU BLAS is far less width-sensitive
        gemm_width_sat=2.0,
        gemv_efficiency=0.70,
        spmv_efficiency=0.85,
        spmv_fixed_overhead=0.0,
        kernel_latency=2.0e-7,
        ranks_per_node=16,
        net_latency_intra=1.0e-6,
        net_latency_inter=5.0e-6,
        net_bandwidth_intra=2.0e10,
        net_bandwidth_inter=1.0e10,
        host_flops=5.0e10,
        device_sync_latency=0.0,
    )


#: Registry used by the experiment CLI (``--machine summit``).
PRESETS = {
    "summit": summit,
    "vortex": vortex,
    "generic_cpu": generic_cpu,
}
