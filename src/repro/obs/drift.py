"""Predicted-vs-measured drift monitor.

The mp backend produces twin timelines for one solve: the **measured**
tracer (wall-clock ``perf_counter`` deltas) and its **modeled** twin
(the SimComm cost formulas, bit-identical to a ``backend="sim"`` run).
This module quantifies how far the model's *shape* drifts from reality.

Raw magnitudes are incommensurable by design — modeled seconds describe
the configured machine (e.g. a V100 cluster), measured seconds are
Python processes on the CI host — so the gateable metric is the
**share drift**: for each phase, the absolute difference between the
fraction of total time the model assigns it and the fraction actually
measured (``|modeled_share - measured_share|``, in [0, 1]).  The raw
per-phase relative error *after removing the global scale factor*
(``measured_total / modeled_total``) is reported alongside for
calibration work, as is the span-by-span pairing count: when both
tracers recorded spans, every driver-side kernel charge on the modeled
twin is matched in order against its measured sibling, and any sequence
mismatch — the model charging a kernel the execution never paid for, or
vice versa — is counted in :attr:`DriftReport.span_mismatches`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel.tracing import SpanEvent, Tracer

#: Default gate on :attr:`DriftReport.max_share_drift` — deliberately
#: loose (the CI host's Python-process timings are nothing like the
#: modeled cluster's); tightens as LogGP calibration lands.
DEFAULT_DRIFT_BOUND = 0.95


@dataclass(frozen=True)
class PhaseDrift:
    """Model-vs-measurement comparison for one phase."""

    phase: str
    modeled_seconds: float
    measured_seconds: float
    modeled_share: float
    measured_share: float
    #: |measured - scale * modeled| / (scale * modeled): relative error
    #: after the global scale factor is removed (inf when the model
    #: assigns the phase zero time but measurement saw some).
    rel_error: float
    #: |modeled_share - measured_share|, the gated metric.
    share_drift: float
    #: Driver-side kernel spans paired in this phase (0 without spans).
    spans_paired: int = 0

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "modeled_seconds": self.modeled_seconds,
            "measured_seconds": self.measured_seconds,
            "modeled_share": self.modeled_share,
            "measured_share": self.measured_share,
            "rel_error": self.rel_error,
            "share_drift": self.share_drift,
            "spans_paired": self.spans_paired,
        }


@dataclass(frozen=True)
class DriftReport:
    """Per-phase drift between a modeled and a measured timeline."""

    phases: tuple = ()
    modeled_total: float = 0.0
    measured_total: float = 0.0
    #: measured_total / modeled_total — the one number separating "the
    #: model is wrong" from "the host is not the modeled machine".
    scale: float = float("nan")
    span_mismatches: int = 0
    spans_paired: int = 0

    @property
    def max_share_drift(self) -> float:
        """Worst per-phase share drift (0.0 for an empty report)."""
        return max((p.share_drift for p in self.phases), default=0.0)

    def within(self, bound: float = DEFAULT_DRIFT_BOUND) -> bool:
        """True when every phase's share drift is below ``bound``."""
        return self.max_share_drift < bound

    def phase_drift(self, phase: str) -> "PhaseDrift | None":
        for p in self.phases:
            if p.phase == phase:
                return p
        return None

    def to_dict(self) -> dict:
        """JSON-safe document (the ``drift`` section of
        ``BENCH_measured.json``)."""
        return {
            "modeled_total": self.modeled_total,
            "measured_total": self.measured_total,
            "scale": self.scale,
            "max_share_drift": self.max_share_drift,
            "span_mismatches": self.span_mismatches,
            "spans_paired": self.spans_paired,
            "phases": [p.to_dict() for p in self.phases],
        }

    def summary(self) -> str:
        """Human-readable per-phase table."""
        lines = [f"scale (measured/modeled): {self.scale:.3e}    "
                 f"max share drift: {self.max_share_drift:.3f}    "
                 f"spans paired: {self.spans_paired} "
                 f"(mismatched: {self.span_mismatches})"]
        lines.append(f"  {'phase':<12s} {'modeled':>12s} {'measured':>12s} "
                     f"{'m.share':>8s} {'x.share':>8s} {'drift':>7s}")
        for p in sorted(self.phases, key=lambda p: -p.share_drift):
            lines.append(
                f"  {p.phase:<12s} {p.modeled_seconds:>12.6f} "
                f"{p.measured_seconds:>12.6f} {p.modeled_share:>8.1%} "
                f"{p.measured_share:>8.1%} {p.share_drift:>7.3f}")
        return "\n".join(lines)


def pair_kernel_spans(modeled_spans, measured_spans
                      ) -> tuple[list[tuple[SpanEvent, SpanEvent]], int]:
    """Pair the two streams' charge spans in order (phase envelopes and
    per-rank lanes are presentation, not charges, and are not paired).

    Both backends funnel every charge through the same call sites, so
    the n-th modeled kernel span and the n-th measured one describe the
    same logical operation; a ``(phase, name)`` disagreement (or a
    length difference) counts as a mismatch.  Returns
    ``(pairs, mismatches)`` where pairs holds only the agreeing ones.
    """
    mod = [s for s in modeled_spans if s.is_charge]
    mea = [s for s in measured_spans if s.is_charge]
    pairs = []
    mismatches = abs(len(mod) - len(mea))
    for m, x in zip(mod, mea):
        if (m.phase, m.name) == (x.phase, x.name):
            pairs.append((m, x))
        else:
            mismatches += 1
    return pairs, mismatches


def drift_report(modeled, measured, *,
                 modeled_spans=None, measured_spans=None) -> DriftReport:
    """Compare a modeled timeline against a measured one.

    ``modeled`` / ``measured`` are :class:`Tracer` or
    :class:`TraceTotals` (e.g. ``tracer.since(snap)`` diffs scoped to
    one solve).  Spans are taken from the tracers when recorded, or
    passed explicitly to scope them independently of the totals.
    """
    if modeled_spans is None and isinstance(modeled, Tracer):
        modeled_spans = modeled.spans
    if measured_spans is None and isinstance(measured, Tracer):
        measured_spans = measured.spans
    pairs, mismatches = pair_kernel_spans(modeled_spans or (),
                                          measured_spans or ())
    paired_by_phase: dict[str, int] = {}
    for m, _ in pairs:
        paired_by_phase[m.phase] = paired_by_phase.get(m.phase, 0) + 1

    mod_total = float(modeled.clock)
    mea_total = float(measured.clock)
    scale = mea_total / mod_total if mod_total > 0 else float("nan")
    phases = []
    for phase in sorted(set(modeled.by_phase) | set(measured.by_phase)):
        ms = float(modeled.by_phase.get(phase, 0.0))
        xs = float(measured.by_phase.get(phase, 0.0))
        m_share = ms / mod_total if mod_total > 0 else 0.0
        x_share = xs / mea_total if mea_total > 0 else 0.0
        scaled = ms * scale if scale == scale else 0.0  # NaN-safe
        if scaled > 0:
            rel = abs(xs - scaled) / scaled
        else:
            rel = 0.0 if xs == 0.0 else float("inf")
        phases.append(PhaseDrift(
            phase=phase, modeled_seconds=ms, measured_seconds=xs,
            modeled_share=m_share, measured_share=x_share,
            rel_error=rel, share_drift=abs(m_share - x_share),
            spans_paired=paired_by_phase.get(phase, 0)))
    return DriftReport(phases=tuple(phases), modeled_total=mod_total,
                       measured_total=mea_total, scale=scale,
                       span_mismatches=mismatches, spans_paired=len(pairs))
