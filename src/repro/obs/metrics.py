"""Metrics: a machine-facing view of a tracer's totals and span stream.

The tracer's rows answer "how many seconds went where"; every charge
that came from a cost-model formula also carries the flops it retired
and the device-memory bytes it moved (:class:`~repro.parallel.costmodel
.KernelCharge`), and every collective its wire payload.  This module
keeps none of that a second time.  :meth:`MetricsSnapshot.of` *derives*
everything it reports — per ``(phase, kernel)`` seconds / calls / flops
/ bytes, network bytes per collective kind, arithmetic intensity, the
fraction of the :class:`~repro.parallel.machine.MachineSpec` roofline
sustained, and a log-bucketed histogram of per-charge durations per
kernel — from one tracer's totals and its charge spans
(:attr:`~repro.parallel.tracing.SpanEvent.is_charge`).  Nothing hooks
:meth:`Tracer.add`.

Everything snapshots to JSON (:meth:`MetricsSnapshot.to_dict`) and
Prometheus text exposition (:meth:`MetricsSnapshot.to_prometheus`).
``Simulation(..., metrics=True)`` (or :meth:`Simulation.enable_metrics`)
records the modeled span stream, and ``Simulation.metrics_doc()`` — what
rides on ``SolveResult.metrics`` — is the snapshot of it; ``repro-trace
metrics`` builds the same snapshot from an exported span stream.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from repro.parallel.machine import MachineSpec
from repro.parallel.tracing import Tracer, _key_str

#: Histogram bucket upper bounds for per-charge durations (seconds):
#: log-spaced x4 from 1 microsecond to ~16 s, plus +Inf implicitly.
DURATION_BUCKETS = tuple(1e-6 * 4.0 ** i for i in range(13))


def _histograms(spans) -> dict[str, dict]:
    """Per kernel, the ``t1 - t0`` of its charge spans: Prometheus-style
    cumulative ``[le, count]`` buckets (+Inf last), their sum, count."""
    durations: dict[str, list[float]] = {}
    for s in spans:
        if s.is_charge:
            durations.setdefault(s.name, []).append(s.duration)
    hists = {}
    for kern, values in sorted(durations.items()):
        counts = [0] * (len(DURATION_BUCKETS) + 1)
        for v in values:
            counts[bisect_left(DURATION_BUCKETS, v)] += 1
        running, buckets = 0, []
        for le, n in zip((*DURATION_BUCKETS, float("inf")), counts):
            running += n
            buckets.append([le, running])
        hists[kern] = {"buckets": buckets, "sum": math.fsum(values),
                       "count": len(values)}
    return hists


@dataclass
class MetricsSnapshot:
    """Per-kernel rows, derived gauges and duration histograms of one
    run, ready to export."""

    machine: str
    ranks: int
    kernels: dict[tuple[str, str], dict]
    net_bytes: dict[str, float]
    totals: dict
    histograms: dict[str, dict]

    @classmethod
    def of(cls, t: Tracer, spans, machine: MachineSpec,
           ranks: int) -> "MetricsSnapshot":
        """The snapshot of tracer ``t`` (live, or replayed from an export)
        and of the charge spans among ``spans``, against ``machine``'s
        peaks over ``ranks`` ranks.

        Rows, net bytes and gauges are read off the totals; histograms
        off the spans, so a run and its export give the same buckets.
        """
        def gauges(row: dict) -> dict:
            sec, f, b = row["seconds"], row["flops"], row["mem_bytes"]
            if b > 0.0:
                row["arithmetic_intensity"] = f / b
            if sec > 0.0:
                # charged seconds are wall time (max over ranks); flops
                # and bytes are the aggregate of every costed shard, so
                # utilization is against the whole machine's peaks
                row["flop_utilization"] = f / (sec * ranks
                                               * machine.peak_flops)
                row["mem_bw_utilization"] = b / (sec * ranks
                                                 * machine.mem_bandwidth)
            return row

        kernels = {key: gauges({
            "seconds": t.by_kernel[key],
            "calls": t.counts.get(key, 0),
            "flops": t.flops.get(key, 0.0),
            "mem_bytes": t.mem_bytes.get(key, 0.0),
            "driver_seconds": t.driver_seconds.get(key, 0.0),
        }) for key in sorted(t.by_kernel)}
        net_bytes = {kind: entry["bytes"] for kind, entry
                     in t.collective_counts(payload_bytes=True).items()}
        row = gauges({
            "seconds": sum(t.by_kernel.values()),
            "flops": sum(t.flops.values()),
            "mem_bytes": sum(t.mem_bytes.values()),
        })
        row["net_bytes"] = sum(net_bytes.values())
        return cls(machine=machine.name, ranks=int(ranks), kernels=kernels,
                   net_bytes=net_bytes, totals=row,
                   histograms=_histograms(spans))

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
