"""Metrics registry: counters / gauges / histograms over the charge stream.

The tracer's accumulators answer "how many seconds went where"; this
module answers the *machine-facing* questions behind the paper's cost
argument — how many flops each kernel retired, how many bytes it moved
(device memory AND network wire, split by collective kind), what its
arithmetic intensity is, and what fraction of the
:class:`~repro.parallel.machine.MachineSpec` roofline it sustained.

Feed path (two hooks, both no-ops when disabled):

1. :meth:`MetricsRegistry.record_op` — called by
   :class:`~repro.parallel.costmodel.CostModel` whenever a local-kernel
   cost is computed, with the (flops, bytes_moved) operation shape.
   Shapes queue as *pending*.
2. :meth:`MetricsRegistry.observe` — called by
   :meth:`~repro.parallel.tracing.Tracer.add` on every charge.  The
   pending shapes drain into the charge's (phase, kernel) counters, so
   flop/byte totals land exactly where the seconds land.

Collective charges carry no pending shapes; their ``payload_bytes``
feed the per-kind network-byte counters instead.  Everything snapshots
to JSON (:meth:`MetricsSnapshot.to_dict`) and Prometheus text
exposition (:meth:`MetricsSnapshot.to_prometheus`).

Enable per simulation with ``Simulation(..., metrics=True)`` (or
:meth:`Simulation.enable_metrics`); the snapshot rides on
``SolveResult.metrics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.parallel.machine import MachineSpec
from repro.parallel.tracing import COLLECTIVE_KERNELS, _key_str

#: Histogram bucket upper bounds for per-charge durations (seconds):
#: log-spaced x4 from 1 microsecond to ~16 s, plus +Inf implicitly.
DURATION_BUCKETS = tuple(1e-6 * 4.0 ** i for i in range(13))


@dataclass
class _Hist:
    """One log-bucketed duration histogram (cumulative on export)."""

    buckets: list[int] = field(
        default_factory=lambda: [0] * (len(DURATION_BUCKETS) + 1))
    total: float = 0.0
    count: int = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for i, bound in enumerate(DURATION_BUCKETS):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """Prometheus-style (le, cumulative_count) pairs, +Inf last."""
        out, running = [], 0
        for bound, n in zip(DURATION_BUCKETS, self.buckets):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.buckets[-1]))
        return out


class MetricsRegistry:
    """Counters / gauges / histograms fed from the charge sites.

    One registry instruments one modeled timeline: attach with
    ``tracer.attach_metrics(registry)`` plus a ``CostModel(machine,
    metrics=registry)``.  Accumulates for the tracer's lifetime;
    :meth:`snapshot` is cheap and repeatable.
    """

    def __init__(self, machine: MachineSpec, ranks: int):
        self.machine = machine
        self.ranks = int(ranks)
        self.seconds: dict[tuple[str, str], float] = {}
        self.calls: dict[tuple[str, str], int] = {}
        self.flops: dict[tuple[str, str], float] = {}
        self.mem_bytes: dict[tuple[str, str], float] = {}
        self.driver_seconds: dict[tuple[str, str], float] = {}
        self.net_bytes: dict[str, float] = dict.fromkeys(
            COLLECTIVE_KERNELS, 0.0)
        self.hist: dict[str, _Hist] = {}
        self._pending: list[tuple[float, float]] = []

    # -- feed ----------------------------------------------------------
    def record_op(self, flops: float, bytes_moved: float) -> None:
        """Queue one costed operation shape (from :class:`CostModel`)."""
        self._pending.append((float(flops), float(bytes_moved)))

    def record_ops(self, shapes: list[tuple[float, float]]) -> None:
        """Queue several ``(flops, bytes_moved)`` shapes, in order — what
        a site that evaluated the cost model once replays per charge."""
        self._pending.extend(shapes)

    def scale_pending(self, factor: float) -> None:
        """Multiply queued shapes by ``factor``.

        ``charge_uniform`` sites evaluate the cost model once for a
        shard shape that every rank executes, so the charge fans the
        queued (flops, bytes) out by the rank count.  Keeps the
        counters the *aggregate over all costed shards* regardless of
        whether the active engine evaluated per rank (loop) or once
        per uniform stack (batched).
        """
        if self._pending and factor != 1.0:
            self._pending = [(f * factor, b * factor)
                             for f, b in self._pending]

    def observe(self, phase: str, kernel: str, seconds: float, count: int,
                payload_bytes: float | None, driver_side: bool) -> None:
        """Land one charge (from :meth:`Tracer.add`), draining pending
        operation shapes into its (phase, kernel) bucket."""
        key = (phase, kernel)
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds
        self.calls[key] = self.calls.get(key, 0) + count
        if driver_side:
            self.driver_seconds[key] = (
                self.driver_seconds.get(key, 0.0) + seconds)
        if self._pending:
            f = sum(p[0] for p in self._pending)
            b = sum(p[1] for p in self._pending)
            self._pending.clear()
            self.flops[key] = self.flops.get(key, 0.0) + f
            self.mem_bytes[key] = self.mem_bytes.get(key, 0.0) + b
        if payload_bytes and kernel in self.net_bytes:
            self.net_bytes[kernel] += payload_bytes
        h = self.hist.get(kernel)
        if h is None:
            h = self.hist[kernel] = _Hist()
        h.observe(seconds)

    # -- export --------------------------------------------------------
    def snapshot(self) -> "MetricsSnapshot":
        """Derive gauges (intensity, roofline utilization) from the
        counters and freeze everything into a :class:`MetricsSnapshot`."""
        m = self.machine
        kernels: dict[tuple[str, str], dict] = {}
        for key in sorted(self.seconds):
            sec = self.seconds[key]
            f = self.flops.get(key, 0.0)
            b = self.mem_bytes.get(key, 0.0)
            row = {
                "seconds": sec,
                "calls": self.calls.get(key, 0),
                "flops": f,
                "mem_bytes": b,
                "driver_seconds": self.driver_seconds.get(key, 0.0),
            }
            if b > 0.0:
                row["arithmetic_intensity"] = f / b
            if sec > 0.0:
                # charged seconds are wall time (max over ranks); flops
                # and bytes are the aggregate of every costed shard, so
                # utilization is against the whole machine's peaks
                row["flop_utilization"] = f / (sec * self.ranks
                                               * m.peak_flops)
                row["mem_bw_utilization"] = b / (sec * self.ranks
                                                 * m.mem_bandwidth)
            kernels[key] = row
        total_sec = sum(self.seconds.values())
        total_f = sum(self.flops.values())
        total_b = sum(self.mem_bytes.values())
        totals = {
            "seconds": total_sec,
            "flops": total_f,
            "mem_bytes": total_b,
            "net_bytes": sum(self.net_bytes.values()),
        }
        if total_b > 0.0:
            totals["arithmetic_intensity"] = total_f / total_b
        if total_sec > 0.0:
            totals["flop_utilization"] = total_f / (
                total_sec * self.ranks * m.peak_flops)
            totals["mem_bw_utilization"] = total_b / (
                total_sec * self.ranks * m.mem_bandwidth)
        hists = {
            kern: {"buckets": [[le, n] for le, n in h.cumulative()],
                   "sum": h.total, "count": h.count}
            for kern, h in sorted(self.hist.items())}
        return MetricsSnapshot(
            machine=m.name, ranks=self.ranks, kernels=kernels,
            net_bytes=dict(self.net_bytes), totals=totals,
            histograms=hists)


@dataclass
class MetricsSnapshot:
    """Frozen registry state plus derived gauges, ready to export."""

    machine: str
    ranks: int
    kernels: dict[tuple[str, str], dict]
    net_bytes: dict[str, float]
    totals: dict
    histograms: dict[str, dict]

    def to_dict(self) -> dict:
        """JSON-safe document (tuple keys flattened to "phase/kernel").

        This is what rides on ``SolveResult.metrics`` and inside
        experiment artifacts.
        """
        return {
            "machine": self.machine,
            "ranks": self.ranks,
            "kernels": {_key_str(k): dict(v)
                        for k, v in self.kernels.items()},
            "net_bytes": {k: float(v) for k, v in self.net_bytes.items()},
            "totals": dict(self.totals),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of the snapshot."""
        def fmt(v: float) -> str:
            return repr(float(v))

        lines: list[str] = []

        def counter(name: str, help_: str,
                    rows: list[tuple[str, float]]) -> None:
            lines.append(f"# HELP {name} {help_}")
            lines.append(f"# TYPE {name} counter")
            for labels, v in rows:
                lines.append(f"{name}{{{labels}}} {fmt(v)}")

        def kl(key: tuple[str, str]) -> str:
            return f'phase="{key[0]}",kernel="{key[1]}"'

        counter("repro_kernel_seconds_total",
                "Modeled seconds charged per phase/kernel.",
                [(kl(k), v["seconds"]) for k, v in self.kernels.items()])
        counter("repro_kernel_calls_total",
                "Charge calls per phase/kernel.",
                [(kl(k), v["calls"]) for k, v in self.kernels.items()])
        counter("repro_kernel_flops_total",
                "Floating-point operations retired per phase/kernel.",
                [(kl(k), v["flops"]) for k, v in self.kernels.items()
                 if v["flops"]])
        counter("repro_kernel_mem_bytes_total",
                "Device-memory bytes moved per phase/kernel.",
                [(kl(k), v["mem_bytes"]) for k, v in self.kernels.items()
                 if v["mem_bytes"]])
        counter("repro_kernel_driver_seconds_total",
                "Seconds charged to driver-side execution.",
                [(kl(k), v["driver_seconds"])
                 for k, v in self.kernels.items() if v["driver_seconds"]])
        counter("repro_net_bytes_total",
                "Network wire bytes per collective kind.",
                [(f'kind="{k}"', v) for k, v in self.net_bytes.items()])

        def gauge(name: str, help_: str, field_: str) -> None:
            rows = [(kl(k), v[field_]) for k, v in self.kernels.items()
                    if field_ in v]
            lines.append(f"# HELP {name} {help_}")
            lines.append(f"# TYPE {name} gauge")
            for labels, v in rows:
                lines.append(f"{name}{{{labels}}} {fmt(v)}")
            if field_ in self.totals:
                lines.append(
                    f'{name}{{phase="all",kernel="all"}} '
                    f"{fmt(self.totals[field_])}")

        gauge("repro_arithmetic_intensity",
              "Flops per device-memory byte (roofline x-axis).",
              "arithmetic_intensity")
        gauge("repro_roofline_flop_utilization",
              "Fraction of machine peak flops sustained.",
              "flop_utilization")
        gauge("repro_roofline_mem_bw_utilization",
              "Fraction of machine memory bandwidth sustained.",
              "mem_bw_utilization")

        name = "repro_kernel_duration_seconds"
        lines.append(f"# HELP {name} Per-charge duration distribution.")
        lines.append(f"# TYPE {name} histogram")
        for kern, h in self.histograms.items():
            for le, n in h["buckets"]:
                le_s = "+Inf" if le == float("inf") else repr(le)
                lines.append(
                    f'{name}_bucket{{kernel="{kern}",le="{le_s}"}} {n}')
            lines.append(f'{name}_sum{{kernel="{kern}"}} {fmt(h["sum"])}')
            lines.append(f'{name}_count{{kernel="{kern}"}} {h["count"]}')
        return "\n".join(lines) + "\n"
