"""``repro-trace``: inspect and convert exported trace files.

Subcommands over the files :mod:`repro.obs.export` writes (Chrome
trace-event JSON or JSONL, sniffed automatically):

``repro-trace summarize trace.json [--json]``
    Per-stream, per-phase totals, span counts and collective payload
    bytes — the quick "what's in this trace" view.  ``--json`` emits
    the machine-readable :func:`summarize_doc` instead (what the
    calibration experiment embeds in its artifact).

``repro-trace diff a.json [b.json]``
    Per-phase share-drift table between two traces; with a single file
    containing both streams (an mp-backend export), diffs its modeled
    track against its measured one.

``repro-trace metrics trace.json [--ranks N] [--prometheus]``
    Print the metrics snapshot of one stream's charge spans as JSON (or
    Prometheus text exposition): the same snapshot a live run's
    ``metrics_doc()`` is.  Every charge span carries its whole record,
    so flops, bytes, roofline gauges and duration histograms all come
    back.  ``--ranks`` is required when the trace has no rank lanes
    (every ``backend="sim"`` export).

``repro-trace calibrate trace.json [--machine M] [--ranks N]``
    Fit LogGP machine constants from an mp run's twin span streams
    (:func:`repro.obs.calibrate.fit_machine`) and print the calibrated
    constants next to the base machine's.

``repro-trace export in.jsonl out.json``
    Convert between the JSONL and Chrome formats (target chosen by the
    output extension, or forced with ``--format``).

A malformed trace file (or a rank count ``metrics`` cannot infer) is
reported on stderr with exit status 2.

Installed as a console script by ``pip install``; equally runnable from
a checkout as ``PYTHONPATH=src python -m repro.obs.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.exceptions import ConfigurationError
from repro.obs.drift import drift_report
from repro.obs.export import (export_chrome_trace, export_jsonl, infer_ranks,
                              load_spans)
from repro.parallel.machine import PRESETS
from repro.parallel.tracing import Tracer


def _replayed(spans) -> dict[str, Tracer]:
    """Per stream, a tracer rebuilt from the charge spans."""
    streams = {s.stream for s in spans if s.is_charge}
    return {stream: Tracer(stream=stream).replay(spans)
            for stream in streams}


def _stream_views(spans):
    """Per stream with kernel charges: its rebuilt tracer, rank lanes,
    collective payload bytes and span count."""
    for stream, tracer in sorted(_replayed(spans).items()):
        own = [s for s in spans if s.stream == stream]
        lanes = {s.rank for s in own if s.rank is not None}
        payload = sum(s.payload_bytes for s in own
                      if s.payload_bytes is not None and s.is_charge)
        yield tracer, len(lanes), float(payload), len(own)


def summarize_doc(spans) -> dict:
    """Machine-readable trace summary: per-stream totals + span stats.

    The JSON form behind ``repro-trace summarize --json``; the
    calibration experiment embeds it in ``BENCH_calibration.json``.
    """
    return {"n_spans": len(spans), "streams": {
        tracer.stream: {
            "spans": n,
            "rank_lanes": lanes,
            "collective_payload_bytes": payload,
            "totals": tracer.snapshot().to_dict(),
        } for tracer, lanes, payload, n in _stream_views(spans)}}


def _summarize(args) -> int:
    spans = load_spans(args.trace)
    if getattr(args, "json", False):
        print(json.dumps(summarize_doc(spans), indent=2, sort_keys=True))
        return 0 if spans else 1
    if not spans:
        print(f"{args.trace}: no spans")
        return 1
    print(f"{args.trace}: {len(spans)} spans")
    for tracer, lanes, payload, _ in _stream_views(spans):
        print(f"\n[{tracer.stream}]"
              + (f" {lanes} rank lanes," if lanes else "")
              + f" {payload:.0f} collective payload bytes")
        print(tracer.report())
    return 0


def _metrics(args) -> int:
    from repro.obs.metrics import MetricsSnapshot

    spans = load_spans(args.trace)
    own = [s for s in spans if s.stream == args.stream]
    tracer = Tracer(stream=args.stream).replay(own)
    if not tracer.counts:
        print(f"{args.trace}: no driver kernel spans on stream "
              f"{args.stream!r}", file=sys.stderr)
        return 1
    ranks = args.ranks if args.ranks is not None else infer_ranks(spans)
    if ranks is None:
        raise ConfigurationError(f"{args.trace}: no rank lanes to infer the "
                                 f"rank count from; pass --ranks")
    snap = MetricsSnapshot.of(tracer, own, PRESETS[args.machine](), ranks)
    if args.prometheus:
        print(snap.to_prometheus(), end="")
    else:
        print(json.dumps(snap.to_dict(), indent=2, sort_keys=True))
    return 0


def _calibrate(args) -> int:
    from repro.obs.calibrate import calibrate

    spans = load_spans(args.trace)
    base = PRESETS[args.machine]()
    fit = calibrate(spans, base=base, ranks=args.ranks)
    if args.json:
        print(json.dumps(fit.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"calibrated {base.name!r} from {fit.n_net_pairs} network + "
          f"{fit.n_kernel_pairs} kernel span pairs "
          f"({fit.n_driver_excluded} driver-side collective charges "
          f"excluded, {fit.span_mismatches} mismatches)")
    print(f"  latency scale {fit.lam_net:.3e}   wire scale "
          f"{fit.beta_net:.3e}   launch scale {fit.kappa_kernel:.3e}   "
          f"rate scale {fit.gamma_kernel:.3e}")
    rows = fit.to_dict()["constants"]
    for key, value in rows.items():
        print(f"  {key:<22s} {getattr(base, key):>12.4e} -> {value:>12.4e}")
    return 0


def _diff(args) -> int:
    spans_a = load_spans(args.a)
    if args.b is not None:
        spans_b = load_spans(args.b)
        acc_a, acc_b = _replayed(spans_a), _replayed(spans_b)
        if len(acc_a) != 1 or len(acc_b) != 1:
            # multi-stream files diff stream-by-stream on matching tags
            common = sorted(set(acc_a) & set(acc_b))
            if not common:
                print("no common stream between the two traces")
                return 1
            for stream in common:
                print(f"[{stream}] {args.a} vs {args.b}")
                rep = drift_report(
                    acc_a[stream], acc_b[stream],
                    modeled_spans=[s for s in spans_a if s.stream == stream],
                    measured_spans=[s for s in spans_b if s.stream == stream])
                print(rep.summary())
            return 0
        (ta,) = acc_a.values()
        (tb,) = acc_b.values()
        rep = drift_report(ta, tb, modeled_spans=spans_a,
                           measured_spans=spans_b)
        print(rep.summary())
        return 0
    acc = _replayed(spans_a)
    if not ("modeled" in acc and "measured" in acc):
        print(f"{args.a} holds streams {sorted(acc)}; need both 'modeled' "
              f"and 'measured' to self-diff (or pass a second trace)")
        return 1
    rep = drift_report(
        acc["modeled"], acc["measured"],
        modeled_spans=[s for s in spans_a if s.stream == "modeled"],
        measured_spans=[s for s in spans_a if s.stream == "measured"])
    print(rep.summary())
    return 0


def _export(args) -> int:
    spans = load_spans(args.src)
    fmt = args.format
    if fmt is None:
        fmt = "jsonl" if Path(args.dst).suffix == ".jsonl" else "chrome"
    if fmt == "jsonl":
        path = export_jsonl(args.dst, spans)
    else:
        path = export_chrome_trace(args.dst, spans)
    print(f"wrote {path} ({fmt}, {len(spans)} spans)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro-trace", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("summarize", help="per-stream/phase totals of a trace")
    s.add_argument("trace")
    s.add_argument("--json", action="store_true",
                   help="machine-readable summary document")
    s.set_defaults(func=_summarize)

    m = sub.add_parser("metrics",
                       help="metrics snapshot of a trace's charge spans")
    m.add_argument("trace")
    m.add_argument("--machine", choices=sorted(PRESETS), default="summit")
    m.add_argument("--ranks", type=int, default=None,
                   help="rank count (default: inferred from rank lanes; "
                        "required when the trace has none)")
    m.add_argument("--stream", choices=("modeled", "measured"),
                   default="modeled")
    m.add_argument("--prometheus", action="store_true",
                   help="Prometheus text exposition instead of JSON")
    m.set_defaults(func=_metrics)

    c = sub.add_parser("calibrate",
                       help="fit LogGP constants from an mp-run trace")
    c.add_argument("trace")
    c.add_argument("--machine", choices=sorted(PRESETS), default="summit")
    c.add_argument("--ranks", type=int, default=None,
                   help="rank count (default: inferred from rank lanes)")
    c.add_argument("--json", action="store_true",
                   help="machine-readable fit document")
    c.set_defaults(func=_calibrate)

    d = sub.add_parser("diff", help="per-phase share drift between traces")
    d.add_argument("a")
    d.add_argument("b", nargs="?", default=None,
                   help="second trace; omit to diff one file's modeled "
                        "stream against its measured one")
    d.set_defaults(func=_diff)

    e = sub.add_parser("export", help="convert between trace formats")
    e.add_argument("src")
    e.add_argument("dst")
    e.add_argument("--format", choices=("chrome", "jsonl"), default=None,
                   help="target format (default: by output extension)")
    e.set_defaults(func=_export)
    return p


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"repro-trace: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (e.g. piped into head) — standard CLI exit
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
