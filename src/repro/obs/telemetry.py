"""Per-cycle solve telemetry: :class:`CycleRecord` and its builder.

The s-step solvers used to smuggle their numerics monitors — the
residual-gap test of arXiv:2409.03079, the basis-condition estimate
``kappa(S V)``, the leave-one-out embedding-distortion estimate of
arXiv:2503.16717 — through an ad-hoc ``diagnostics`` dict of running
maxima.  :class:`SolveTelemetry` records the same observations as one
structured :class:`CycleRecord` per restart cycle instead, so a caller
can see *which* cycle went bad and where a re-sketch was requested.  The
legacy ``diagnostics`` maxima are derived from the records at the end of
the solve (``max_of``), so their values are unchanged.

The builder mirrors how the solver discovers facts about a cycle:

* :meth:`SolveTelemetry.begin_cycle` opens a record when the cycle's
  basis generation starts;
* :meth:`observe` folds checkpoint measurements in as running per-cycle
  maxima (the solver applies its own validity filters first — e.g. only
  finite condition estimates count, exactly as ``diagnostics`` did);
* :meth:`end_cycle` freezes the record with the cumulative iteration
  count;
* :meth:`observe_gap` lands on the *previous* (already frozen) record,
  because the explicit residual that reveals a cycle's estimated/true
  gap is only computed at the top of the next cycle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


#: CycleRecord measurement fields maintained as running per-cycle maxima.
MAX_FIELDS = ("basis_condition", "embedding_distortion", "residual_gap")


@dataclass(frozen=True)
class CycleRecord:
    """Everything one restart cycle reported about itself.

    ``cycle`` numbers restarts from 0; ``iterations`` is the solver's
    *cumulative* iteration count when the cycle ended.  Measurement
    fields are ``None`` when the cycle never produced the observation
    (e.g. ``basis_condition`` in a classical-mode cycle).  ``events``
    is an ordered tuple of tags such as ``"resketch_requested"`` or
    ``"breakdown"``.
    """

    cycle: int
    iterations: int
    mode: str | None = None
    residual_norm: float | None = None
    residual_gap: float | None = None
    basis_condition: float | None = None
    embedding_distortion: float | None = None
    events: tuple = ()

    def to_dict(self) -> dict:
        """JSON-safe flat dict (``events`` as a list)."""
        doc = dataclasses.asdict(self)
        doc["events"] = list(self.events)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "CycleRecord":
        return cls(cycle=int(doc["cycle"]), iterations=int(doc["iterations"]),
                   mode=doc.get("mode"),
                   residual_norm=doc.get("residual_norm"),
                   residual_gap=doc.get("residual_gap"),
                   basis_condition=doc.get("basis_condition"),
                   embedding_distortion=doc.get("embedding_distortion"),
                   events=tuple(doc.get("events", ())))


class SolveTelemetry:
    """Mutable builder accumulating :class:`CycleRecord` objects.

    One instance per solve; :meth:`to_list` is what lands on
    ``SolveResult.telemetry``.  All mutators are cheap (dict updates) —
    telemetry is always on, it replaces the diagnostics bookkeeping the
    solver did anyway.
    """

    def __init__(self) -> None:
        self.records: list[CycleRecord] = []
        self._pending: dict | None = None
        self._events: list[str] = []

    # -- building -------------------------------------------------------
    def begin_cycle(self, cycle: int, mode: str | None = None) -> None:
        """Open the record for restart cycle ``cycle`` (closing any
        record left pending, defensively)."""
        if self._pending is not None:
            self.end_cycle(int(self._pending.get("iterations", 0)))
        self._pending = {"cycle": int(cycle), "iterations": 0, "mode": mode}
        self._events = []

    def observe(self, field: str, value: float) -> None:
        """Fold a checkpoint measurement into the pending record
        (running max — checkpoints repeat within a cycle)."""
        if self._pending is None or field not in MAX_FIELDS:
            return
        prev = self._pending.get(field)
        value = float(value)
        self._pending[field] = value if prev is None else max(prev, value)

    def note_residual(self, relative_residual: float) -> None:
        """Record the latest checkpoint's relative residual estimate."""
        if self._pending is not None:
            self._pending["residual_norm"] = float(relative_residual)

    def event(self, name: str) -> None:
        """Tag the pending cycle with a named event."""
        if self._pending is not None:
            self._events.append(str(name))

    def observe_gap(self, gap: float) -> None:
        """Attach a residual-gap measurement to the last completed cycle
        (the explicit residual exposing it is computed one restart
        later)."""
        if not self.records:
            return
        last = self.records[-1]
        prev = last.residual_gap
        gap = float(gap)
        self.records[-1] = dataclasses.replace(
            last, residual_gap=gap if prev is None else max(prev, gap))

    def end_cycle(self, iterations: int) -> CycleRecord | None:
        """Freeze the pending record with the cumulative ``iterations``
        count; no-op (returns None) when no cycle is open."""
        if self._pending is None:
            return None
        doc = self._pending
        self._pending = None
        rec = CycleRecord(
            cycle=doc["cycle"], iterations=int(iterations),
            mode=doc.get("mode"), residual_norm=doc.get("residual_norm"),
            residual_gap=doc.get("residual_gap"),
            basis_condition=doc.get("basis_condition"),
            embedding_distortion=doc.get("embedding_distortion"),
            events=tuple(self._events))
        self._events = []
        self.records.append(rec)
        return rec

    # -- reading --------------------------------------------------------
    def max_of(self, field: str, default: float | None = None):
        """Max of a measurement field across all records, skipping
        ``None`` observations; ``default`` when nothing was observed."""
        values = [getattr(r, field) for r in self.records
                  if getattr(r, field) is not None]
        if self._pending is not None and self._pending.get(field) is not None:
            values.append(self._pending[field])
        return max(values) if values else default

    def to_list(self) -> list[CycleRecord]:
        return list(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)
