"""LogGP calibration: fit machine constants from measured span streams.

The mp backend emits twin span streams for one solve — the ``modeled``
stream (SimComm cost formulas on the configured
:class:`~repro.parallel.machine.MachineSpec`) and the ``measured``
stream (wall clock on the host actually running the ranks).  This
module closes the loop: least-squares fit the LogGP constants so the
model *describes the host it just ran on*, producing a calibrated
MachineSpec whose predictions earn a tight drift bound
(``experiments/calibration.py`` gates it in nightly CI).

Two independent fits over the in-order span pairing of
:func:`repro.obs.drift.pair_kernel_spans`:

**Network** (``allreduce`` pairs, ``driver_side`` spans
excluded — the TSQR tree reduction runs on the driver and would skew
the latency estimate):  each modeled duration decomposes exactly into a
latency part ``L`` (device syncs + per-hop latencies) and a wire part
``W`` (payload over per-hop bandwidths); fitting ``measured ~ lam*L +
beta*W`` rescales ``net_latency_{intra,inter}`` and
``device_sync_latency`` by ``lam`` and divides
``net_bandwidth_{intra,inter}`` by ``beta``.

**Local kernels** (everything outside
:data:`~repro.parallel.tracing.COLLECTIVE_KERNELS`): each modeled
duration splits into a fixed part ``F`` (kernel launch, plus the SpMV
fixed overhead) and a rate part ``R`` (the roofline term); fitting
``measured ~ kappa*F + gamma*R`` rescales ``kernel_latency`` /
``spmv_fixed_overhead`` by ``kappa`` and divides ``peak_flops`` /
``mem_bandwidth`` / ``host_flops`` by ``gamma``.

Both fits are guarded: non-positive or indeterminate solutions fall
back to the single-scalar ratio fit, and an empty stream returns the
base machine unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel.costmodel import CostModel
from repro.parallel.machine import MachineSpec, summit
from repro.parallel.tracing import COLLECTIVE_KERNELS, SpanEvent

from repro.obs.drift import pair_kernel_spans
from repro.obs.export import infer_ranks

#: Fallback rank count when the stream carries no rank-lane spans and
#: the caller does not say (matches the :class:`Simulation` default).
DEFAULT_RANKS = 4


@dataclass(frozen=True)
class CalibrationFit:
    """One calibration: the fitted scale factors and their provenance."""

    base: MachineSpec
    machine: MachineSpec
    #: Latency scale of the network fit (syncs + per-hop latencies).
    lam_net: float
    #: Wire-time scale of the network fit (per-hop payload terms).
    beta_net: float
    #: Fixed-cost scale of the local-kernel fit (launch + SpMV overhead).
    kappa_kernel: float
    #: Rate scale of the local-kernel fit (roofline / host-flops terms).
    gamma_kernel: float
    ranks: int
    n_net_pairs: int = 0
    n_kernel_pairs: int = 0
    #: Collective pairs skipped because the charge ran driver-side.
    n_driver_excluded: int = 0
    span_mismatches: int = 0

    def to_dict(self) -> dict:
        return {
            "base_machine": self.base.name,
            "machine": self.machine.name,
            "lam_net": self.lam_net,
            "beta_net": self.beta_net,
            "kappa_kernel": self.kappa_kernel,
            "gamma_kernel": self.gamma_kernel,
            "ranks": self.ranks,
            "n_net_pairs": self.n_net_pairs,
            "n_kernel_pairs": self.n_kernel_pairs,
            "n_driver_excluded": self.n_driver_excluded,
            "span_mismatches": self.span_mismatches,
            "constants": {
                "net_latency_intra": self.machine.net_latency_intra,
                "net_latency_inter": self.machine.net_latency_inter,
                "net_bandwidth_intra": self.machine.net_bandwidth_intra,
                "net_bandwidth_inter": self.machine.net_bandwidth_inter,
                "device_sync_latency": self.machine.device_sync_latency,
                "kernel_latency": self.machine.kernel_latency,
                "spmv_fixed_overhead": self.machine.spmv_fixed_overhead,
                "peak_flops": self.machine.peak_flops,
                "mem_bandwidth": self.machine.mem_bandwidth,
                "host_flops": self.machine.host_flops,
            },
        }


def _fit_two(rows: list[tuple[float, float, float]]) -> tuple[float, float]:
    """Least squares ``z ~ a*x + b*y`` with positivity guards.

    ``rows`` holds (x, y, z) observations.  Falls back to the common
    scalar ratio ``a = b = sum(z*(x+y)) / sum((x+y)^2)`` when the 2x2
    normal system is singular (one regressor identically zero, or the
    two collinear) or produces a non-positive scale; returns (1, 1)
    when even that is degenerate.
    """
    sxx = sum(x * x for x, _, _ in rows)
    syy = sum(y * y for _, y, _ in rows)
    sxy = sum(x * y for x, y, _ in rows)
    sxz = sum(x * z for x, _, z in rows)
    syz = sum(y * z for _, y, z in rows)
    det = sxx * syy - sxy * sxy
    if det > 1e-12 * max(sxx * syy, 1e-300):
        a = (syy * sxz - sxy * syz) / det
        b = (sxx * syz - sxy * sxz) / det
        if a > 0.0 and b > 0.0 and a == a and b == b:
            return float(a), float(b)
    num = sum(z * (x + y) for x, y, z in rows)
    den = sum((x + y) ** 2 for x, y, _ in rows)
    if den > 0.0 and num > 0.0:
        s = float(num / den)
        return s, s
    return 1.0, 1.0


def _net_decomposition(span: SpanEvent, cost: CostModel,
                       ranks: int) -> tuple[float, float] | None:
    """(latency part, wire part) of one modeled collective charge.

    Mirrors :meth:`CostModel.allreduce` exactly; halo charges return
    None (their per-peer decomposition is not recoverable from the span
    payload annotation alone).
    """
    if span.name != "allreduce" or ranks <= 1:
        return None
    m = cost.machine
    intra, inter = cost._tree_hops(ranks)
    payload = float(span.payload_bytes or 0.0)
    lat = (2.0 * m.device_sync_latency + intra * m.net_latency_intra
           + inter * m.net_latency_inter)
    wire = (intra * payload / m.net_bandwidth_intra
            + inter * payload / m.net_bandwidth_inter)
    return lat, wire


def _kernel_decomposition(span: SpanEvent,
                          machine: MachineSpec) -> tuple[float, float]:
    """(fixed part, rate part) of one modeled local-kernel charge.

    The fixed part is the launch latency (plus the SpMV bookkeeping
    overhead for ``spmv_local``; zero for the pure-host kernel), capped
    at the span's duration; the rate part is the remainder (roofline
    streaming / flop time).
    """
    dur = max(span.duration, 0.0)
    if span.name == "host":
        return 0.0, dur
    fixed = machine.kernel_latency
    if span.name == "spmv_local":
        fixed += machine.spmv_fixed_overhead
    fixed = min(fixed, dur)
    return fixed, dur - fixed


def calibrate(spans, base: MachineSpec | None = None,
              ranks: int | None = None) -> CalibrationFit:
    """Fit LogGP constants from a combined (or separate) span stream.

    ``spans`` is any iterable of :class:`SpanEvent` containing BOTH
    streams of one mp run (e.g. modeled twin + measured tracer spans
    concatenated, or a file loaded via
    :func:`repro.obs.export.load_spans`).  ``base`` is the MachineSpec
    the modeled stream was charged on (default: Summit); ``ranks``
    defaults to the rank-lane inference, then :data:`DEFAULT_RANKS`.
    """
    base = base if base is not None else summit()
    spans = list(spans)
    if ranks is None:
        ranks = infer_ranks(spans) or DEFAULT_RANKS
    modeled = [s for s in spans if s.stream == "modeled"]
    measured = [s for s in spans if s.stream == "measured"]
    pairs, mismatches = pair_kernel_spans(modeled, measured)
    cost = CostModel(base)

    net_rows: list[tuple[float, float, float]] = []
    kernel_rows: list[tuple[float, float, float]] = []
    n_driver = 0
    for mod, mea in pairs:
        if mod.name in COLLECTIVE_KERNELS:
            if mod.driver_side or mea.driver_side:
                n_driver += 1
                continue
            dec = _net_decomposition(mod, cost, ranks)
            if dec is not None and mod.duration > 0.0:
                net_rows.append((dec[0], dec[1], max(mea.duration, 0.0)))
        else:
            fixed, rate = _kernel_decomposition(mod, base)
            if fixed + rate > 0.0:
                kernel_rows.append((fixed, rate, max(mea.duration, 0.0)))

    if not net_rows and not kernel_rows:
        return CalibrationFit(
            base=base, machine=base, lam_net=1.0, beta_net=1.0,
            kappa_kernel=1.0, gamma_kernel=1.0, ranks=ranks,
            span_mismatches=mismatches)

    lam, beta = _fit_two(net_rows) if net_rows else (1.0, 1.0)
    kappa, gamma = _fit_two(kernel_rows) if kernel_rows else (1.0, 1.0)
    machine = base.with_overrides(
        name=f"{base.name}-calibrated",
        net_latency_intra=base.net_latency_intra * lam,
        net_latency_inter=base.net_latency_inter * lam,
        device_sync_latency=base.device_sync_latency * lam,
        net_bandwidth_intra=base.net_bandwidth_intra / beta,
        net_bandwidth_inter=base.net_bandwidth_inter / beta,
        kernel_latency=base.kernel_latency * kappa,
        spmv_fixed_overhead=base.spmv_fixed_overhead * kappa,
        peak_flops=base.peak_flops / gamma,
        mem_bandwidth=base.mem_bandwidth / gamma,
        host_flops=base.host_flops / gamma,
    )
    return CalibrationFit(
        base=base, machine=machine, lam_net=lam, beta_net=beta,
        kappa_kernel=kappa, gamma_kernel=gamma, ranks=ranks,
        n_net_pairs=len(net_rows), n_kernel_pairs=len(kernel_rows),
        n_driver_excluded=n_driver, span_mismatches=mismatches)


def fit_machine(spans, base: MachineSpec | None = None,
                ranks: int | None = None) -> MachineSpec:
    """Calibrated :class:`MachineSpec` from a span stream (the
    one-call form of :func:`calibrate`)."""
    return calibrate(spans, base=base, ranks=ranks).machine
