"""Time accounting for the simulated (or real-process) machine.

A :class:`Tracer` owns one clock.  Code charges time with
``tracer.add(kernel, seconds)`` inside a ``with tracer.phase("ortho")``
region; totals are kept per phase and per (phase, kernel) pair, plus call
counters.  This is what regenerates the paper's time-breakdown figures
(Figs. 10-12: dot-products vs vector-updates vs the rest of the
orthogonalization) and the SpMV/Ortho/Total columns of Tables II-IV.

Two kinds of tracer exist, distinguished by :attr:`Tracer.stream`:

``"modeled"``
    The clock is simulated seconds charged by the
    :class:`~repro.parallel.costmodel.CostModel` (the ``"sim"`` backend,
    and :attr:`MpComm.modeled`, the mp backend's predicted twin).

``"measured"``
    The clock is real wall-clock seconds (``perf_counter`` deltas)
    recorded by the ``"mp"`` executor backend.

Structured span stream (opt-in)
-------------------------------
Beyond the lossy accumulators, a tracer can keep a **structured span
stream**: one :class:`SpanEvent` per charge (and per ``phase()`` region)
with begin/end timestamps on the tracer's clock, the enclosing phase,
the kernel, the restart-cycle marker, the reduction payload bytes and
the stream tag.  Spans power the Chrome-trace / JSONL exporters and the
predicted-vs-measured drift monitor in :mod:`repro.obs`.

Spans are **disabled by default** and the disabled path is a no-op: one
``is not None`` test per charge, nothing allocated.  Call
:meth:`Tracer.enable_spans` (or ``Simulation(..., spans=True)``) to
record them.

Overlap dimension (nonblocking collectives)
-------------------------------------------
When a communicator posts a collective (``post_allreduce`` & co.), the
compute charged between post and wait drains the collective's modeled
time, and the ``wait`` charges only the exposed remainder — passing the
hidden part as ``overlapped_seconds``.  That hidden time accumulates in
:attr:`Tracer.overlapped` (per phase/kernel, queryable via
:meth:`Tracer.overlapped_seconds`) and is stamped onto the wait's
:class:`SpanEvent`, so Perfetto can show hidden vs exposed comm without
the clock ever double-counting.

The tracer is deliberately not thread-safe: the simulator executes ranks
in lockstep inside one Python thread, charging the *maximum* cost across
concurrently-executing ranks (see :mod:`repro.distla.blas`).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Canonical phase names used across the library; free-form names are also
#: accepted (they simply show up as extra rows in reports).
PHASES = ("spmv", "precond", "ortho", "small_dense", "other")

#: Canonical kernel names (sub-categories inside a phase).
KERNELS = (
    "dot",        # Gram / projection GEMMs (the paper's "dot-products")
    "update",     # V -= Q R tall updates (the paper's "vector-updates")
    "norm",
    "scale",
    "chol",
    "trsm",
    "allreduce",
    "halo",
    "bcast",
    "spmv_local",
    "host",
    "axpy",
)

#: Kernels that are communication collectives (global or neighbourhood);
#: what :meth:`Tracer.collective_counts` reports.
COLLECTIVE_KERNELS = ("allreduce", "halo", "bcast")

#: Stream tags a tracer's clock can run on.
STREAMS = ("modeled", "measured")


def phase_names() -> tuple[str, ...]:
    """Public accessor for the canonical phase list."""
    return PHASES


@dataclass
class SpanEvent:
    """One begin/end interval on a tracer's clock.

    ``cat`` is ``"kernel"`` for charge spans (one per :meth:`Tracer.add`
    call), ``"phase"`` for ``with tracer.phase(...)`` regions, and free
    for :meth:`Tracer.record_span` callers (the mp backend tags per-rank
    sub-spans of the worker-executed SpMV).  ``rank`` is ``None`` for
    driver-global spans (the simulator charges the max over ranks) and a
    rank index for per-rank lanes.
    """

    name: str
    t0: float
    t1: float
    phase: str
    stream: str
    cat: str = "kernel"
    count: int = 1
    payload_bytes: float | None = None
    cycle: int | None = None
    rank: int | None = None
    #: For the exposed-remainder charge of a posted collective: how many
    #: seconds of the collective were hidden behind compute before the
    #: wait (``None`` for ordinary blocking charges).
    overlapped_seconds: float | None = None
    #: True for kernels the mp backend executes on the driver process
    #: rather than the workers (panel QR, sketch apply): their measured
    #: wall-clock carries no worker round-trip, so LogGP calibration
    #: must exclude them from network fits.
    driver_side: bool = False

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_dict(self) -> dict:
        """JSON-safe flat dict (the JSONL exporter's line schema)."""
        return {
            "name": self.name, "t0": self.t0, "t1": self.t1,
            "phase": self.phase, "stream": self.stream, "cat": self.cat,
            "count": self.count, "payload_bytes": self.payload_bytes,
            "cycle": self.cycle, "rank": self.rank,
            "overlapped_seconds": self.overlapped_seconds,
            "driver_side": self.driver_side,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SpanEvent":
        return cls(name=doc["name"], t0=float(doc["t0"]), t1=float(doc["t1"]),
                   phase=doc.get("phase", "other"),
                   stream=doc.get("stream", "modeled"),
                   cat=doc.get("cat", "kernel"),
                   count=int(doc.get("count", 1)),
                   payload_bytes=doc.get("payload_bytes"),
                   cycle=doc.get("cycle"), rank=doc.get("rank"),
                   overlapped_seconds=doc.get("overlapped_seconds"),
                   driver_side=bool(doc.get("driver_side", False)))


def _key_str(key: tuple[str, str]) -> str:
    """Serialize a (phase, kernel) tuple key as ``"phase/kernel"``."""
    return f"{key[0]}/{key[1]}"


@dataclass
class TraceTotals:
    """Immutable-ish snapshot of tracer accumulators (for diffs)."""

    clock: float
    by_phase: dict[str, float]
    by_kernel: dict[tuple[str, str], float]
    counts: dict[tuple[str, str], int]
    #: Hidden comm seconds per (phase, kernel): the part of each posted
    #: collective that compute drained before its ``wait`` (empty for
    #: purely blocking runs).
    overlapped: dict = field(default_factory=dict)
    #: Wire payload bytes per (phase, kernel) — fed from the
    #: ``payload_bytes`` argument of :meth:`Tracer.add`, so only
    #: collective charges contribute (local kernels pass None).
    payload_bytes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-safe document: tuple keys flattened to ``"phase/kernel"``.

        The machine-readable form experiment artifacts embed instead of
        hand-rolled breakdown dicts.
        """
        return {
            "clock": float(self.clock),
            "by_phase": {p: float(v) for p, v in self.by_phase.items()},
            "by_kernel": {_key_str(k): float(v)
                          for k, v in self.by_kernel.items()},
            "counts": {_key_str(k): int(c) for k, c in self.counts.items()},
            "overlapped": {_key_str(k): float(v)
                           for k, v in self.overlapped.items()},
            "payload_bytes": {_key_str(k): float(v)
                              for k, v in self.payload_bytes.items()},
        }


@dataclass
class Tracer:
    """Accumulates seconds per phase/kernel plus a global clock, and —
    when enabled — a structured :class:`SpanEvent` stream.

    ``stream`` labels which clock this tracer runs on (``"modeled"`` or
    ``"measured"``); it is stamped into every span.  The phase stack and
    the cycle marker live in shared mutable cells so a twin tracer can
    attribute through them (see :meth:`share_phase_stack`).
    """

    clock: float = 0.0
    by_phase: dict = field(default_factory=lambda: defaultdict(float))
    by_kernel: dict = field(default_factory=lambda: defaultdict(float))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    overlapped: dict = field(default_factory=lambda: defaultdict(float))
    payload_bytes: dict = field(default_factory=lambda: defaultdict(float))
    stream: str = "modeled"
    _phase_stack: list = field(default_factory=lambda: ["other"])
    _cycle: list = field(default_factory=lambda: [None])
    _spans: list | None = None
    _metrics: object | None = None

    # ------------------------------------------------------------------
    @property
    def current_phase(self) -> str:
        return self._phase_stack[-1]

    @property
    def current_cycle(self) -> int | None:
        """Restart-cycle marker stamped into spans (None outside solves)."""
        return self._cycle[0]

    def set_cycle(self, cycle: int | None) -> None:
        """Mark subsequent spans as belonging to restart cycle ``cycle``."""
        self._cycle[0] = cycle

    def share_phase_stack(self, other: "Tracer") -> None:
        """Attribute ``other``'s charges through THIS tracer's context.

        Aliases the phase stack *and* the cycle marker, so one ``with
        tracer.phase(...)`` region (and one :meth:`set_cycle` call)
        drives both tracers — the mp backend uses this to keep its
        measured tracer and its modeled twin attributing every charge to
        the same phase without reaching into private fields.
        """
        other._phase_stack = self._phase_stack
        other._cycle = self._cycle

    @contextmanager
    def phase(self, name: str):
        """Charge subsequent :meth:`add` calls to phase ``name``.

        Re-entrant: nesting (including re-entering the *same* phase
        name) pushes/pops a stack, so an inner region ends back in the
        outer phase.  With spans enabled, each region also records one
        ``cat="phase"`` span covering its clock interval.
        """
        self._phase_stack.append(name)
        t0 = self.clock
        try:
            yield self
        finally:
            self._phase_stack.pop()
            if self._spans is not None:
                self._spans.append(SpanEvent(
                    name, t0, self.clock, name, self.stream, cat="phase",
                    cycle=self._cycle[0]))

    def add(self, kernel: str, seconds: float, count: int = 1,
            payload_bytes: float | None = None,
            overlapped_seconds: float | None = None,
            driver_side: bool = False) -> None:
        """Advance the clock by ``seconds``, attributed to ``kernel``.

        ``payload_bytes`` optionally records the wire payload of a
        collective; it accumulates in :attr:`payload_bytes` and lands in
        the span stream (charged seconds are unchanged whether or not it
        is passed).

        ``overlapped_seconds`` marks this charge as the *exposed*
        remainder of a posted collective and records how much of the
        collective was hidden behind compute before its ``wait``.  The
        hidden part never advances the clock (that time already elapsed
        inside the draining charges); it accumulates in
        :attr:`overlapped` as a separate dimension.

        ``driver_side`` tags charges the mp backend executes on the
        driver process (see :class:`SpanEvent`); it only lands in the
        span stream and the metrics feed.
        """
        if seconds < 0:
            raise ValueError(f"negative cost for kernel {kernel!r}: {seconds}")
        phase = self._phase_stack[-1]
        t0 = self.clock
        self.clock = t0 + seconds
        self.by_phase[phase] += seconds
        self.by_kernel[(phase, kernel)] += seconds
        self.counts[(phase, kernel)] += count
        if overlapped_seconds:
            self.overlapped[(phase, kernel)] += overlapped_seconds
        if payload_bytes:
            self.payload_bytes[(phase, kernel)] += payload_bytes
        if self._metrics is not None:
            self._metrics.observe(phase, kernel, seconds, count,
                                  payload_bytes, driver_side)
        if self._spans is not None:
            self._spans.append(SpanEvent(
                kernel, t0, self.clock, phase, self.stream, count=count,
                payload_bytes=payload_bytes, cycle=self._cycle[0],
                overlapped_seconds=overlapped_seconds,
                driver_side=driver_side))

    # -- span stream ----------------------------------------------------
    def enable_spans(self) -> None:
        """Start recording :class:`SpanEvent` objects (idempotent)."""
        if self._spans is None:
            self._spans = []

    def disable_spans(self) -> None:
        """Stop recording and DROP any recorded spans."""
        self._spans = None

    @property
    def spans_enabled(self) -> bool:
        return self._spans is not None

    @property
    def spans(self) -> list[SpanEvent]:
        """Copy of the recorded span stream (empty when disabled)."""
        return list(self._spans) if self._spans is not None else []

    def record_span(self, name: str, t0: float, t1: float, *,
                    phase: str | None = None, cat: str = "kernel",
                    count: int = 1, payload_bytes: float | None = None,
                    rank: int | None = None,
                    cycle: int | None = None,
                    driver_side: bool = False) -> None:
        """Append a raw span WITHOUT touching the accumulators.

        For sub-charge detail that must not double-count — e.g. the mp
        backend's per-rank SpMV gather/compute lanes, whose driver-side
        totals are already charged through :meth:`add`.  No-op while
        spans are disabled.
        """
        if self._spans is None:
            return
        self._spans.append(SpanEvent(
            name, t0, t1, phase if phase is not None else self.current_phase,
            self.stream, cat=cat, count=count, payload_bytes=payload_bytes,
            cycle=self._cycle[0] if cycle is None else cycle, rank=rank,
            driver_side=driver_side))

    # -- metrics feed ---------------------------------------------------
    def attach_metrics(self, registry) -> None:
        """Feed every subsequent charge into ``registry`` (a
        :class:`repro.obs.metrics.MetricsRegistry`).  Disabled by
        default; the disabled path is one ``is not None`` test per
        charge — accumulator and clock behaviour are identical either
        way (``scripts/span_overhead_check.py`` gates this)."""
        self._metrics = registry

    def detach_metrics(self) -> None:
        self._metrics = None

    # ------------------------------------------------------------------
    def snapshot(self) -> TraceTotals:
        """Copy of the accumulators, e.g. to diff around a solver call."""
        return TraceTotals(self.clock, dict(self.by_phase),
                           dict(self.by_kernel), dict(self.counts),
                           dict(self.overlapped), dict(self.payload_bytes))

    def since(self, snap: TraceTotals) -> TraceTotals:
        """Totals accumulated after ``snap`` was taken.

        Seconds and call counts alike are element-wise differences: a
        kernel charged 3 times before the snapshot and 5 times in total
        diffs to count 2 (keys absent from ``snap`` diff against zero).
        """
        by_phase = {k: v - snap.by_phase.get(k, 0.0)
                    for k, v in self.by_phase.items()}
        by_kernel = {k: v - snap.by_kernel.get(k, 0.0)
                     for k, v in self.by_kernel.items()}
        counts = {k: v - snap.counts.get(k, 0)
                  for k, v in self.counts.items()}
        overlapped = {k: v - snap.overlapped.get(k, 0.0)
                      for k, v in self.overlapped.items()}
        payload = {k: v - snap.payload_bytes.get(k, 0.0)
                   for k, v in self.payload_bytes.items()}
        return TraceTotals(self.clock - snap.clock, by_phase, by_kernel,
                           counts, overlapped, payload)

    def reset(self) -> None:
        """Zero accumulators and drop recorded spans (phase stack and
        span-enablement are preserved)."""
        self.clock = 0.0
        self.by_phase.clear()
        self.by_kernel.clear()
        self.counts.clear()
        self.overlapped.clear()
        self.payload_bytes.clear()
        if self._spans is not None:
            self._spans.clear()

    # ------------------------------------------------------------------
    def phase_seconds(self, name: str) -> float:
        return float(self.by_phase.get(name, 0.0))

    def kernel_seconds(self, phase: str, kernel: str) -> float:
        return float(self.by_kernel.get((phase, kernel), 0.0))

    def kernel_count(self, phase: str, kernel: str) -> int:
        return int(self.counts.get((phase, kernel), 0))

    def overlapped_seconds(self, phase: str | None = None,
                           kernel: str | None = None) -> float:
        """Total hidden comm seconds, optionally filtered by phase/kernel.

        The sum over :attr:`overlapped` entries — i.e. how much posted
        collective time compute drained before the matching ``wait``
        charges landed.  Zero for purely blocking runs.
        """
        return float(sum(
            v for (ph, kern), v in self.overlapped.items()
            if (phase is None or ph == phase)
            and (kernel is None or kern == kernel)))

    def collective_counts(self, phase: str | None = None, *,
                          payload_bytes: bool = False) -> dict:
        """Call counts of every collective kernel, optionally per phase.

        Returns ``{"allreduce": n, "halo": m, "bcast": k}`` — all of
        :data:`COLLECTIVE_KERNELS`, zero-filled for collectives never
        charged — covering global reductions, neighbourhood exchanges
        and broadcasts alike (:meth:`sync_count` reports only the
        allreduce entry).

        With ``payload_bytes=True`` each entry becomes ``{"count": n,
        "bytes": b}`` where ``bytes`` totals the wire payload charged
        through :meth:`add` — the comm-budget tests pin both: how often
        each collective fires AND how much it moves.
        """
        out = dict.fromkeys(COLLECTIVE_KERNELS, 0)
        for (ph, kern), c in self.counts.items():
            if kern in out and (phase is None or ph == phase):
                out[kern] += c
        if not payload_bytes:
            return out
        nbytes = dict.fromkeys(COLLECTIVE_KERNELS, 0.0)
        for (ph, kern), b in self.payload_bytes.items():
            if kern in nbytes and (phase is None or ph == phase):
                nbytes[kern] += b
        return {k: {"count": out[k], "bytes": float(nbytes[k])}
                for k in COLLECTIVE_KERNELS}

    def sync_count(self, phase: str | None = None) -> int:
        """Number of global synchronizations (allreduces) charged so far."""
        return self.collective_counts(phase)["allreduce"]

    def to_dict(self, include_spans: bool = False) -> dict:
        """JSON-safe document of the accumulators (and optionally spans).

        Same layout as :meth:`TraceTotals.to_dict` plus the ``stream``
        tag; with ``include_spans=True`` and spans enabled, a ``spans``
        list of :meth:`SpanEvent.to_dict` entries is appended.
        """
        doc = self.snapshot().to_dict()
        doc["stream"] = self.stream
        if include_spans and self._spans is not None:
            doc["spans"] = [s.to_dict() for s in self._spans]
        return doc

    def report(self) -> str:
        """Multi-line human-readable accounting summary."""
        lines = [f"{self.stream} clock: {self.clock:.6f} s"]
        if self.overlapped:
            lines.append(
                f"  hidden comm (overlapped): "
                f"{self.overlapped_seconds():.6f} s")
        for ph in sorted(self.by_phase, key=lambda p: -self.by_phase[p]):
            lines.append(f"  {ph:<12s} {self.by_phase[ph]:.6f} s")
            kerns = [(k[1], v) for k, v in self.by_kernel.items() if k[0] == ph]
            for kern, v in sorted(kerns, key=lambda kv: -kv[1]):
                cnt = self.counts[(ph, kern)]
                lines.append(f"    {kern:<12s} {v:.6f} s  (x{cnt})")
        return "\n".join(lines)
