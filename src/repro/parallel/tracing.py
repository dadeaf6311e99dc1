"""Time accounting for the simulated (or real-process) machine.

A :class:`Tracer` owns one clock.  Code charges time with
``tracer.add(kernel, seconds, ...)`` inside a ``with
tracer.phase("ortho")`` region; totals are kept per phase and per
(phase, kernel) pair.  This is what regenerates the paper's
time-breakdown figures (Figs. 10-12: dot-products vs vector-updates vs
the rest of the orthogonalization) and the SpMV/Ortho/Total columns of
Tables II-IV.

One charge, one record
----------------------
A charge is ONE record handed to :meth:`Tracer.add` in one call —
kernel, seconds, occurrence count, and where they apply the wire
payload of a collective, the flops and device-memory bytes of a
cost-model :class:`~repro.parallel.costmodel.KernelCharge` (summed over
every rank's shard) and the driver-side tag.  ``add`` folds it into the ``(phase, kernel)`` row of
the :class:`TraceTotals` columns; the one other row writer is its batch
twin :meth:`Tracer.fold`, which folds arrays of raw-seconds charges
exactly as one ``add`` each would — the one-row case of
:func:`fold_block`, which folds a ``(cells x charges)`` block at once.
Spans, snapshots, the metrics view (:mod:`repro.obs.metrics`) and a
replayed export (:meth:`Tracer.replay`) are all read off that one
stream.  Nothing reaches the totals by a side
channel, so the flop / byte columns are kept whether or not anyone
reads them.

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
the kernel, the restart-cycle marker, the rest of the charge's record
and the stream tag.  Spans power the Chrome-trace / JSONL exporters, the
duration histograms of the metrics snapshot and the predicted-vs-measured
drift monitor in :mod:`repro.obs`.

Spans are **disabled by default** and the disabled path is a no-op: one
``is not None`` test per charge, nothing allocated.  Call
:meth:`Tracer.enable_spans` (or ``Simulation(..., spans=True)`` /
``metrics=True``) to record them.

The tracer is deliberately not thread-safe: the simulator executes ranks
in lockstep inside one Python thread, charging the *maximum* cost across
concurrently-executing ranks (see :mod:`repro.distla.blas`).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

#: Canonical phase names used across the library; free-form names are also
#: accepted (they simply show up as extra rows in reports).
PHASES = ("spmv", "precond", "ortho", "other")

#: Canonical kernel names (sub-categories inside a phase).
KERNELS = (
    "dot",        # Gram / projection GEMMs (the paper's "dot-products")
    "update",     # V -= Q R tall updates (the paper's "vector-updates")
    "norm",
    "scale",
    "trsm",
    "allreduce",
    "halo",
    "spmv_local",
    "host",
    "ghost_plan",  # symbolic analysis of a CA-MPK ghost closure
    "axpy",
)

#: Kernels that are communication collectives (global or neighbourhood);
#: what :meth:`Tracer.collective_counts` reports.
COLLECTIVE_KERNELS = ("allreduce", "halo")

#: Stream tags a tracer's clock can run on.
STREAMS = ("modeled", "measured")


@dataclass
class SpanEvent:
    """One begin/end interval on a tracer's clock.

    ``cat`` is ``"kernel"`` for charge spans (one per :meth:`Tracer.add`
    call, carrying that charge's whole record), ``"phase"`` for ``with
    tracer.phase(...)`` regions, and free for :meth:`Tracer.record_span`
    callers (the mp backend tags per-rank sub-spans of the
    worker-executed SpMV).  ``rank`` is ``None`` for driver-global spans
    (the simulator charges the max over ranks) and a rank index for
    per-rank lanes.

    The fields are the span schema: :meth:`to_dict` / :meth:`from_dict`
    and both trace formats of :mod:`repro.obs.export` are derived from
    them, so a field added here travels through every exporter.
    """

    name: str
    t0: float
    t1: float
    phase: str = "other"
    stream: str = "modeled"
    cat: str = "kernel"
    count: int = 1
    payload_bytes: float | None = None
    cycle: int | None = None
    rank: int | None = None
    #: True for kernels the mp backend executes on the driver process
    #: rather than the workers (panel QR, sketch apply): their measured
    #: wall-clock carries no worker round-trip, so LogGP calibration
    #: must exclude them from network fits.
    driver_side: bool = False
    #: Operations and device-memory bytes of a cost-model charge, summed
    #: over the ranks (``None`` where the charge was raw seconds).
    flops: float | None = None
    mem_bytes: float | None = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def is_charge(self) -> bool:
        """True for the span of one :meth:`Tracer.add` call: a driver-side
        kernel span, not a phase envelope or a per-rank lane."""
        return self.cat == "kernel" and self.rank is None

    def to_dict(self) -> dict:
        """JSON-safe flat dict, one key per field in field order (the
        JSONL exporter's line schema)."""
        return {name: getattr(self, name)
                for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, doc: dict) -> "SpanEvent":
        """Inverse of :meth:`to_dict`: every field read by name, an absent
        one at its default.  Raises ``TypeError`` (or ``ValueError``) when
        ``name``, ``t0`` or ``t1`` is missing or a time is not a number."""
        span = cls(**{name: doc[name] for name in cls.__dataclass_fields__
                      if name in doc})
        span.t0, span.t1 = float(span.t0), float(span.t1)
        return span


def _key_str(key: tuple[str, str]) -> str:
    """Serialize a (phase, kernel) tuple key as ``"phase/kernel"``."""
    return f"{key[0]}/{key[1]}"


def _float_column():
    return field(default_factory=lambda: defaultdict(float))


#: The ``(phase, kernel)``-keyed columns of :class:`TraceTotals`.
_COLUMNS = ("by_kernel", "counts", "payload_bytes", "flops", "mem_bytes",
            "driver_seconds")


@dataclass
class TraceTotals:
    """What a tracer has accumulated: the clock, seconds per phase, and
    one row per ``(phase, kernel)`` whose columns are the fields of the
    charge record.  A :class:`Tracer` is the live one; :meth:`Tracer
    .snapshot` and :meth:`Tracer.since` return detached copies."""

    clock: float = 0.0
    by_phase: dict = _float_column()
    #: Charged seconds.
    by_kernel: dict = _float_column()
    #: Occurrences charged (a fused follower counts zero).
    counts: dict = field(default_factory=lambda: defaultdict(int))
    #: Wire payload bytes (collective charges only).
    payload_bytes: dict = _float_column()
    #: Operations / device-memory bytes of every rank's shard, from the
    #: charges that carried a cost-model record (raw-seconds charges add
    #: no row).
    flops: dict = _float_column()
    mem_bytes: dict = _float_column()
    #: Seconds of the charges tagged ``driver_side``.
    driver_seconds: dict = _float_column()

    def to_dict(self) -> dict:
        """JSON-safe document: tuple keys flattened to ``"phase/kernel"``.

        The machine-readable form experiment artifacts embed instead of
        hand-rolled breakdown dicts.
        """
        doc = {"clock": float(self.clock),
               "by_phase": {p: float(v) for p, v in self.by_phase.items()}}
        for name in _COLUMNS:
            cast = int if name == "counts" else float
            doc[name] = {_key_str(k): cast(v)
                         for k, v in getattr(self, name).items()}
        return doc


class FoldedBlock(NamedTuple):
    """What :func:`fold_block` makes of a ``(cells x charges)`` block:
    per cell the totals of a tracer that took the block's row of charges
    one :meth:`Tracer.add` at a time."""

    #: The ``(phase, kernel)`` rows the folded charges name, in the order
    #: they first name them, and their phases, first-seen.
    keys: tuple
    phases: tuple
    #: ``(cells, keys)`` and ``(cells, phases)`` seconds, and the
    #: ``(keys,)`` occurrences every cell shares.
    by_kernel: np.ndarray
    by_phase: np.ndarray
    counts: np.ndarray
    #: ``(cells, charges + 1)``: each cell's clock before every folded
    #: charge and after the last.
    clocks: np.ndarray
    #: Why the fold stopped short (a negative charge), or ``None``.
    error: str | None

    def check(self) -> None:
        """Raise the ``ValueError`` of a negative charge, if one stopped
        the fold."""
        if self.error is not None:
            raise ValueError(self.error)


def fold_block(keys, rows, seconds, counts,
               start: TraceTotals | None = None) -> FoldedBlock:
    """Fold a ``(cells x charges)`` block of seconds: charge ``i`` of
    every cell lands on the row ``keys[rows[i]]`` under its own phase with
    ``counts[i]`` occurrences, on top of the ``start`` totals (none when
    omitted).  One ``np.add.at`` per column sums every cell's charges in
    charge order and ``np.add.accumulate`` runs each clock, so every cell
    is bit for bit one :meth:`Tracer.add` per charge; never a pairwise
    ``sum``.  A charge negative in any cell stops the fold before it."""
    seconds = np.asarray(seconds, dtype=float)
    negative = np.flatnonzero((seconds < 0).any(axis=0))
    n = negative[0] if negative.size else seconds.shape[1]
    at, paid = np.asarray(rows[:n], dtype=np.intp), seconds[:, :n]
    used = tuple(keys[:at.max(initial=-1) + 1])
    phases = tuple(dict.fromkeys(phase for phase, _ in used))

    def summed(column, names, index, values, dtype=float):
        """Every cell's ``values`` added at ``index`` in order onto the
        ``column`` of the start totals (zeros without them): one flat
        ``np.add.at``."""
        sums = (np.zeros(len(values) * len(names), dtype) if start is None
                else np.tile(np.array([getattr(start, column).get(k, 0)
                                       for k in names], dtype), len(values)))
        np.add.at(sums, (np.arange(len(values))[:, None] * len(names)
                         + index).ravel(), values.ravel())
        return sums.reshape(len(values), len(names))

    phase_of = np.array([phases.index(p) for p, _ in used], dtype=np.intp)
    clocks = np.concatenate((np.full((len(paid), 1), 0.0 if start is None
                                     else start.clock), paid), axis=1)
    error = None
    if negative.size:
        cell = np.flatnonzero(seconds[:, n] < 0)[0]
        error = (f"negative cost for kernel {keys[rows[n]][1]!r}: "
                 f"{float(seconds[cell, n])}")
    return FoldedBlock(
        used, phases, summed("by_kernel", used, at, paid),
        summed("by_phase", phases, phase_of[at], paid),
        summed("counts", used, at, np.asarray(counts[:n])[None], int)[0],
        np.add.accumulate(clocks, axis=1), error)


@dataclass
class Tracer(TraceTotals):
    """The live totals plus a global clock, and — when enabled — a
    structured :class:`SpanEvent` stream.

    ``stream`` labels which clock this tracer runs on (``"modeled"`` or
    ``"measured"``); it is stamped into every span.  The phase stack and
    the cycle marker live in shared mutable cells so a twin tracer can
    attribute through them (see :meth:`share_phase_stack`).
    """

    stream: str = "modeled"
    _phase_stack: list = field(default_factory=lambda: ["other"])
    _cycle: list = field(default_factory=lambda: [None])
    _spans: list | None = None

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
            driver_side: bool = False, flops: float | None = None,
            mem_bytes: float | None = None) -> None:
        """Fold one charge record into the totals: advance the clock by
        ``seconds`` and add every field to the ``(current phase,
        kernel)`` row.  A live charge and a replayed span (:meth:`replay`)
        both come through here; :meth:`fold` is its batch twin.

        ``payload_bytes`` is the wire payload of a collective.
        ``flops`` / ``mem_bytes`` come, together,
        from a cost-model record (``None`` for raw seconds).
        ``driver_side`` tags charges the mp backend executes on the
        driver process (see :class:`SpanEvent`).  None of them changes
        the charged seconds.
        """
        if seconds < 0:
            raise ValueError(f"negative cost for kernel {kernel!r}: {seconds}")
        phase = self._phase_stack[-1]
        key = (phase, kernel)
        t0 = self.clock
        self.clock = t0 + seconds
        self.by_phase[phase] += seconds
        self.by_kernel[key] += seconds
        self.counts[key] += count
        if payload_bytes:
            self.payload_bytes[key] += payload_bytes
        if flops is not None:
            self.flops[key] += flops
            self.mem_bytes[key] += mem_bytes
        if driver_side:
            self.driver_seconds[key] += seconds
        if self._spans is not None:
            self._spans.append(SpanEvent(
                kernel, t0, self.clock, phase, self.stream, count=count,
                payload_bytes=payload_bytes, cycle=self._cycle[0],
                driver_side=driver_side, flops=flops, mem_bytes=mem_bytes))

    def fold(self, keys, rows, seconds, counts) -> "Tracer":
        """Fold charge ``i``, ``seconds[i]`` and ``counts[i]`` on the row
        ``keys[rows[i]]`` under its own phase, for every ``i`` at once
        (``keys`` in the order ``rows`` first names them): the one-row
        case of :func:`fold_block`, bit for bit one :meth:`add` per
        charge, key order and spans included.  A negative charge folds
        those before it, then raises."""
        block = fold_block(keys, rows, [seconds], counts, self)
        self.by_phase.update(zip(block.phases, block.by_phase[0].tolist()))
        self.by_kernel.update(zip(block.keys, block.by_kernel[0].tolist()))
        self.counts.update(zip(block.keys, block.counts.tolist()))
        clocks = block.clocks[0].tolist()
        self.clock = clocks[-1]
        if self._spans is not None:
            self._spans.extend(
                SpanEvent(keys[row][1], t0, t1, keys[row][0], self.stream,
                          count=int(count), cycle=self._cycle[0])
                for row, count, t0, t1 in zip(
                    np.asarray(rows).tolist(), counts, clocks, clocks[1:]))
        block.check()
        return self

    def replay(self, spans) -> "Tracer":
        """Fold the charge spans of this tracer's stream back in, each
        under its own phase — what rebuilds the totals of an exported
        trace.  Seconds are span durations, so they match the live totals
        to rounding; every other column matches exactly."""
        for s in spans:
            if s.is_charge and s.stream == self.stream:
                self._phase_stack.append(s.phase)
                self.add(s.name, s.duration, s.count, s.payload_bytes,
                         s.driver_side, s.flops, s.mem_bytes)
                self._phase_stack.pop()
                self.clock = s.t1
        return self

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
                    phase: str | None = None, count: int = 1,
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
            self.stream, count=count,
            cycle=self._cycle[0] if cycle is None else cycle, rank=rank,
            driver_side=driver_side))

    # ------------------------------------------------------------------
    def snapshot(self) -> TraceTotals:
        """Copy of the accumulators, e.g. to diff around a solver call."""
        return TraceTotals(self.clock, dict(self.by_phase),
                           *(dict(getattr(self, name)) for name in _COLUMNS))

    def since(self, snap: TraceTotals) -> TraceTotals:
        """Totals accumulated after ``snap`` was taken.

        Every column is an element-wise difference: a kernel charged 3
        times before the snapshot and 5 times in total diffs to count 2
        (keys absent from ``snap`` diff against zero).
        """
        def diff(name: str) -> dict:
            before = getattr(snap, name)
            return {k: v - before.get(k, 0)
                    for k, v in getattr(self, name).items()}

        return TraceTotals(self.clock - snap.clock, diff("by_phase"),
                           *map(diff, _COLUMNS))

    def reset(self) -> None:
        """Zero accumulators and drop recorded spans (phase stack and
        span-enablement are preserved)."""
        self.clock = 0.0
        self.by_phase.clear()
        for name in _COLUMNS:
            getattr(self, name).clear()
        if self._spans is not None:
            self._spans.clear()

    # ------------------------------------------------------------------
    def phase_seconds(self, name: str) -> float:
        return float(self.by_phase.get(name, 0.0))

    def kernel_seconds(self, phase: str, kernel: str) -> float:
        return float(self.by_kernel.get((phase, kernel), 0.0))

    def kernel_count(self, phase: str, kernel: str) -> int:
        return int(self.counts.get((phase, kernel), 0))

    def collective_counts(self, phase: str | None = None, *,
                          payload_bytes: bool = False) -> dict:
        """Call counts of every collective kernel, optionally per phase.

        Returns ``{"allreduce": n, "halo": m}`` — all of
        :data:`COLLECTIVE_KERNELS`, zero-filled for collectives never
        charged — covering global reductions and neighbourhood
        exchanges alike (:meth:`sync_count` reports only the allreduce
        entry).

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
        doc = super().to_dict()
        doc["stream"] = self.stream
        if include_spans and self._spans is not None:
            doc["spans"] = [s.to_dict() for s in self._spans]
        return doc

    def report(self) -> str:
        """Multi-line human-readable accounting summary."""
        lines = [f"{self.stream} clock: {self.clock:.6f} s"]
        for ph in sorted(self.by_phase, key=lambda p: -self.by_phase[p]):
            lines.append(f"  {ph:<12s} {self.by_phase[ph]:.6f} s")
            kerns = [(k[1], v) for k, v in self.by_kernel.items() if k[0] == ph]
            for kern, v in sorted(kerns, key=lambda kv: -kv[1]):
                cnt = self.counts[(ph, kern)]
                lines.append(f"    {kern:<12s} {v:.6f} s  (x{cnt})")
        return "\n".join(lines)
