"""Trace exporters: Chrome trace-event JSON and JSONL span streams.

The Chrome document follows the trace-event format consumed by Perfetto
and ``chrome://tracing``: every :class:`~repro.parallel.tracing.SpanEvent`
becomes one complete (``"ph": "X"``) event with microsecond timestamps.
The two timelines load as separate *processes* (pid 1 = ``modeled``,
pid 2 = ``measured``) and each process splits into lanes (*threads*):
tid 0 is the driver timeline, tid ``1 + r`` is rank ``r``'s lane (the mp
backend's per-worker SpMV sub-spans).  Process/thread ``"M"`` metadata
events carry the human-readable track names.

The JSONL form is one :meth:`SpanEvent.to_dict` object per line — the
grep/pandas-friendly twin.  :func:`load_spans` reads either format back
(sniffed by content, not extension).  Both are written from the
:class:`SpanEvent` fields: a Chrome event carries ``name`` / ``cat`` /
times / stream / rank in its envelope and every other field in ``args``
unless it is at its default.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from repro.exceptions import ConfigurationError
from repro.parallel.tracing import SpanEvent, Tracer

#: Trace-event process ids per stream tag (unknown streams land on 9).
STREAM_PIDS = {"modeled": 1, "measured": 2}
_PID_STREAMS = {pid: stream for stream, pid in STREAM_PIDS.items()}
#: The span fields a trace event's envelope carries (``ts`` / ``dur``,
#: ``pid``, ``tid``); the rest go to ``args``.
_ENVELOPE = ("name", "t0", "t1", "stream", "cat", "rank")
_ARGS = tuple(f for f in fields(SpanEvent) if f.name not in _ENVELOPE)


def _gather_spans(sources) -> list[SpanEvent]:
    """Flatten tracers / span iterables into one span list."""
    spans: list[SpanEvent] = []
    for src in sources:
        if isinstance(src, Tracer):
            spans.extend(src.spans)
        elif isinstance(src, SpanEvent):
            spans.append(src)
        else:
            spans.extend(src)
    return spans


def _lane(rank) -> int:
    return 0 if rank is None else 1 + int(rank)


def chrome_trace_doc(*sources) -> dict:
    """Build a Chrome trace-event document from tracers or span lists.

    Each positional argument is a :class:`Tracer` (its recorded spans
    are taken) or an iterable of :class:`SpanEvent`.  Returns the
    ``{"traceEvents": [...]}`` document, metadata events first.
    """
    spans = _gather_spans(sources)
    events = []
    processes: dict[int, str] = {}
    lanes: set[tuple[int, int]] = set()
    for sp in spans:
        pid = STREAM_PIDS.get(sp.stream, 9)
        tid = _lane(sp.rank)
        processes.setdefault(pid, sp.stream)
        lanes.add((pid, tid))
        args = {f.name: getattr(sp, f.name) for f in _ARGS
                if getattr(sp, f.name) != f.default}
        events.append({
            "name": sp.name, "cat": sp.cat, "ph": "X",
            "ts": sp.t0 * 1e6, "dur": sp.duration * 1e6,
            "pid": pid, "tid": tid, "args": args,
        })
    meta = []
    for pid in sorted(processes):
        meta.append({"name": "process_name", "ph": "M", "pid": pid,
                     "tid": 0, "args": {"name": processes[pid]}})
    for pid, tid in sorted(lanes):
        lane = "driver" if tid == 0 else f"rank {tid - 1}"
        meta.append({"name": "thread_name", "ph": "M", "pid": pid,
                     "tid": tid, "args": {"name": lane}})
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def export_chrome_trace(path, *sources) -> Path:
    """Write a Chrome trace-event JSON file; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace_doc(*sources)) + "\n")
    return path


def spans_to_jsonl(*sources) -> str:
    """Serialize spans as JSON Lines (one object per span, time order)."""
    spans = sorted(_gather_spans(sources), key=lambda s: (s.t0, s.t1))
    return "".join(json.dumps(s.to_dict()) + "\n" for s in spans)


def export_jsonl(path, *sources) -> Path:
    """Write a JSONL span stream; returns the path."""
    path = Path(path)
    path.write_text(spans_to_jsonl(*sources))
    return path


def _spans_from_chrome(doc: dict) -> list[SpanEvent]:
    """Invert :func:`chrome_trace_doc` (metadata events are consumed for
    stream names, unknown pids fall back to the pid table)."""
    streams = dict(_PID_STREAMS)
    for ev in doc.get("traceEvents", ()):
        if ev.get("ph") == "M" and ev.get("name") == "process_name":
            streams[ev["pid"]] = ev["args"]["name"]
    spans = []
    for ev in doc.get("traceEvents", ()):
        if ev.get("ph") != "X":
            continue
        t0 = float(ev["ts"]) / 1e6
        tid = int(ev.get("tid", 0))
        spans.append(SpanEvent.from_dict({
            **ev.get("args", {}), "name": ev["name"], "t0": t0,
            "t1": t0 + float(ev.get("dur", 0.0)) / 1e6,
            "stream": streams.get(ev.get("pid"), "modeled"),
            "cat": ev.get("cat", "kernel"),
            "rank": None if tid == 0 else tid - 1}))
    return spans


def load_spans(path) -> list[SpanEvent]:
    """Read spans back from a Chrome-trace or JSONL file.

    Format is sniffed from the content: a document whose top level is an
    object with ``traceEvents`` parses as Chrome trace; anything else is
    treated as JSONL (blank lines skipped).  A malformed file raises
    :class:`~repro.exceptions.ConfigurationError` naming it (and, for
    JSONL, the 1-based line).
    """
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
        if isinstance(doc, dict) and "traceEvents" in doc:
            try:
                return _spans_from_chrome(doc)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise ConfigurationError(
                    f"{path}: malformed trace event ({exc!r})") from exc
    spans = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                spans.append(SpanEvent.from_dict(json.loads(line)))
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: not a span record ({exc})") from exc
    return spans


def infer_ranks(spans) -> int | None:
    """Rank count a span stream shows: the highest rank lane + 1, or
    ``None`` when no span sits on a rank lane (a ``backend="sim"`` run)."""
    lanes = [s.rank for s in spans if s.rank is not None]
    return max(lanes) + 1 if lanes else None
