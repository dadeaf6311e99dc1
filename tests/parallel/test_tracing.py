"""Tracer: phase attribution, snapshots/diffs, spans, reporting."""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.parallel.tracing import COLLECTIVE_KERNELS, SpanEvent, Tracer


class TestPhases:
    def test_default_phase_is_other(self):
        t = Tracer()
        t.add("dot", 1.0)
        assert t.phase_seconds("other") == 1.0

    def test_nested_phases(self):
        t = Tracer()
        with t.phase("ortho"):
            t.add("dot", 1.0)
            with t.phase("spmv"):
                t.add("halo", 0.5)
            t.add("update", 2.0)
        assert t.phase_seconds("ortho") == 3.0
        assert t.phase_seconds("spmv") == 0.5
        assert t.clock == 3.5

    def test_reentering_same_phase_name_unwinds_to_outer(self):
        t = Tracer()
        with t.phase("ortho"):
            with t.phase("ortho"):
                t.add("dot", 1.0)
            assert t.current_phase == "ortho"
            t.add("update", 2.0)
        assert t.current_phase == "other"
        assert t.phase_seconds("ortho") == 3.0

    def test_phase_restored_after_exception(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.phase("ortho"):
                raise RuntimeError("boom")
        assert t.current_phase == "other"

    def test_negative_cost_rejected(self):
        t = Tracer()
        with pytest.raises(ValueError):
            t.add("dot", -1.0)


class TestSnapshots:
    def test_since_counts_are_diffs_not_totals(self):
        t = Tracer()
        t.add("dot", 1.0, count=3)
        snap = t.snapshot()
        t.add("dot", 1.0, count=2)
        d = t.since(snap)
        assert d.counts[("other", "dot")] == 2
        assert t.counts[("other", "dot")] == 5

    def test_since_keys_absent_from_snapshot_diff_against_zero(self):
        t = Tracer()
        t.add("dot", 1.0)
        snap = t.snapshot()
        with t.phase("spmv"):
            t.add("halo", 0.25, count=4)
        d = t.since(snap)
        assert d.by_kernel[("spmv", "halo")] == 0.25
        assert d.counts[("spmv", "halo")] == 4
        # untouched keys diff to zero, not disappear
        assert d.by_kernel[("other", "dot")] == 0.0
        assert d.counts[("other", "dot")] == 0

    def test_since_diff(self):
        t = Tracer()
        with t.phase("ortho"):
            t.add("dot", 1.0)
        snap = t.snapshot()
        with t.phase("ortho"):
            t.add("dot", 2.0)
            t.add("allreduce", 0.5)
        d = t.since(snap)
        assert d.clock == 2.5
        assert d.by_phase["ortho"] == 2.5
        assert d.by_kernel[("ortho", "dot")] == 2.0
        assert d.counts[("ortho", "allreduce")] == 1

    def test_reset(self):
        t = Tracer()
        t.add("dot", 1.0)
        t.reset()
        assert t.clock == 0.0
        assert t.sync_count() == 0


class TestAccessors:
    def test_sync_count_by_phase(self):
        t = Tracer()
        with t.phase("ortho"):
            t.add("allreduce", 0.1)
            t.add("allreduce", 0.1)
        with t.phase("spmv"):
            t.add("allreduce", 0.1)
        assert t.sync_count() == 3
        assert t.sync_count("ortho") == 2

    def test_kernel_count(self):
        t = Tracer()
        t.add("dot", 0.5, count=3)
        assert t.kernel_count("other", "dot") == 3

    def test_report_contains_phases(self):
        t = Tracer()
        with t.phase("ortho"):
            t.add("dot", 1.0)
        rep = t.report()
        assert "ortho" in rep and "dot" in rep

    def test_collective_counts_zero_filled(self):
        t = Tracer()
        assert t.collective_counts() == dict.fromkeys(COLLECTIVE_KERNELS, 0)

    def test_collective_counts_cover_all_collectives(self):
        t = Tracer()
        with t.phase("ortho"):
            t.add("allreduce", 0.1, count=2)
        with t.phase("spmv"):
            t.add("halo", 0.1, count=3)
            t.add("spmv_local", 1.0)  # not a collective
        assert t.collective_counts() == {"allreduce": 2, "halo": 3}
        assert t.collective_counts("ortho") == {"allreduce": 2, "halo": 0}
        assert t.sync_count("ortho") == 2

    def test_collective_counts_with_payload_bytes(self):
        t = Tracer()
        with t.phase("ortho"):
            t.add("allreduce", 0.1, count=2, payload_bytes=64.0)
        with t.phase("spmv"):
            t.add("halo", 0.1, payload_bytes=256.0)
            t.add("allreduce", 0.1, payload_bytes=8.0)
        assert t.collective_counts(payload_bytes=True) == {
            "allreduce": {"count": 3, "bytes": 72.0},
            "halo": {"count": 1, "bytes": 256.0}}
        assert t.collective_counts("ortho", payload_bytes=True) == {
            "allreduce": {"count": 2, "bytes": 64.0},
            "halo": {"count": 0, "bytes": 0.0}}

    def test_payload_accumulator_and_since_diff(self):
        t = Tracer()
        with t.phase("ortho"):
            t.add("allreduce", 0.1, payload_bytes=64.0)
        snap = t.snapshot()
        with t.phase("ortho"):
            t.add("allreduce", 0.1, payload_bytes=16.0)
        assert t.payload_bytes[("ortho", "allreduce")] == 80.0
        d = t.since(snap)
        assert d.payload_bytes[("ortho", "allreduce")] == 16.0
        doc = t.snapshot().to_dict()
        assert doc["payload_bytes"] == {"ortho/allreduce": 80.0}
        t.reset()
        assert t.payload_bytes == {}


class TestSpanStream:
    def test_disabled_by_default_and_records_nothing(self):
        t = Tracer()
        assert not t.spans_enabled
        t.add("dot", 1.0)
        t.record_span("halo", 0.0, 0.5, rank=1)  # no-op while disabled
        assert t.spans == []

    def test_charge_span_fields(self):
        t = Tracer()
        t.enable_spans()
        t.set_cycle(7)
        with t.phase("ortho"):
            t.add("allreduce", 0.5, count=2, payload_bytes=64.0)
        kernel_spans = [s for s in t.spans if s.cat == "kernel"]
        assert len(kernel_spans) == 1
        s = kernel_spans[0]
        assert (s.name, s.phase, s.stream) == ("allreduce", "ortho", "modeled")
        assert (s.t0, s.t1, s.duration) == (0.0, 0.5, 0.5)
        assert (s.count, s.payload_bytes, s.cycle, s.rank) == (2, 64.0, 7, None)

    def test_phase_region_records_phase_span(self):
        t = Tracer()
        t.enable_spans()
        with t.phase("spmv"):
            t.add("halo", 0.25)
            t.add("spmv_local", 0.75)
        phase_spans = [s for s in t.spans if s.cat == "phase"]
        assert len(phase_spans) == 1
        assert phase_spans[0].name == "spmv"
        assert (phase_spans[0].t0, phase_spans[0].t1) == (0.0, 1.0)

    def test_record_span_does_not_touch_accumulators(self):
        t = Tracer()
        t.enable_spans()
        t.record_span("halo", 1.0, 2.0, phase="spmv", rank=3)
        assert t.clock == 0.0 and not t.counts
        (s,) = t.spans
        assert (s.name, s.phase, s.rank) == ("halo", "spmv", 3)

    def test_disable_drops_reset_preserves_enablement(self):
        t = Tracer()
        t.enable_spans()
        t.add("dot", 1.0)
        t.reset()
        assert t.spans_enabled and t.spans == []
        t.add("dot", 1.0)
        t.disable_spans()
        assert not t.spans_enabled and t.spans == []

    def test_measured_stream_tag(self):
        t = Tracer(stream="measured")
        t.enable_spans()
        t.add("dot", 1.0)
        assert t.spans[0].stream == "measured"
        assert t.report().startswith("measured clock:")

    def test_driver_side_stamped_on_spans(self):
        t = Tracer()
        t.enable_spans()
        t.add("dot", 0.5, driver_side=True)
        t.add("dot", 0.5)
        t.record_span("update", 1.0, 1.5, driver_side=True)
        flags = [s.driver_side for s in t.spans]
        assert flags == [True, False, True]

    def test_add_calls_no_callback(self):
        """Every view of a charge is read off the rows or the span stream
        afterwards: ``add`` itself calls nothing but the span constructor
        (and raises on a negative cost)."""
        tree = ast.parse(textwrap.dedent(inspect.getsource(Tracer.add)))
        called = {node.func.attr if isinstance(node.func, ast.Attribute)
                  else node.func.id
                  for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert called == {"ValueError", "SpanEvent", "append"}

    def test_record_fields_fold_into_rows_and_spans(self):
        """flops / mem_bytes / driver seconds are columns beside seconds,
        counts and payload, and a span carries the whole record."""
        t = Tracer()
        t.enable_spans()
        with t.phase("ortho"):
            t.add("dot", 0.5, flops=10.0, mem_bytes=80.0, driver_side=True)
            t.add("dot", 0.25, flops=6.0, mem_bytes=48.0)
            t.add("allreduce", 0.1, payload_bytes=8.0)   # raw seconds
        key = ("ortho", "dot")
        assert (t.flops[key], t.mem_bytes[key]) == (16.0, 128.0)
        assert t.driver_seconds == {key: 0.5}
        assert ("ortho", "allreduce") not in t.flops
        assert [(s.flops, s.mem_bytes) for s in t.spans
                if s.cat == "kernel"] == [(10.0, 80.0), (6.0, 48.0),
                                          (None, None)]
        snap = t.snapshot()
        t.add("dot", 1.0, flops=1.0, mem_bytes=2.0)
        assert t.since(snap).flops == {key: 0.0, ("other", "dot"): 1.0}
        doc = t.to_dict()
        assert doc["flops"] == {"ortho/dot": 16.0, "other/dot": 1.0}
        assert doc["driver_seconds"] == {"ortho/dot": 0.5}
        t.reset()
        assert not t.flops and not t.mem_bytes and not t.driver_seconds

    def test_replay_rebuilds_the_totals_from_spans(self):
        live = Tracer()
        live.enable_spans()
        with live.phase("ortho"):
            live.add("dot", 0.5, flops=10.0, mem_bytes=80.0)
            live.add("allreduce", 0.25, payload_bytes=8.0)
        with live.phase("spmv"):
            live.add("halo", 0.125, count=0, payload_bytes=4.0,
                     driver_side=True)
        other = Tracer(stream="measured")
        other.enable_spans()
        other.add("dot", 9.0)
        spans = live.spans + other.spans
        # binary-fraction durations: t1 - t0 is exact, so is the replay
        assert Tracer().replay(spans).snapshot() == live.snapshot()
        assert Tracer(stream="measured").replay(spans).clock == 9.0


#: ``((phase, kernel), seconds, count)`` lists, zero seconds and counts
#: 0 / 2 included, few enough keys that rows repeat
CHARGES = st.lists(st.tuples(
    st.tuples(st.sampled_from(["spmv", "ortho", "other"]),
              st.sampled_from(["dot", "allreduce", "halo"])),
    st.one_of(st.just(0.0), st.floats(0.0, 1e3, allow_nan=False)),
    st.sampled_from([0, 1, 2])), max_size=40)


def fold(tracer: Tracer, charges) -> Tracer:
    """``tracer.fold`` of ``((phase, kernel), seconds, count)`` tuples:
    keys in first-seen order, one row index per charge."""
    keys = list(dict.fromkeys(key for key, _, _ in charges))
    return tracer.fold(keys, [keys.index(key) for key, _, _ in charges],
                       [seconds for _, seconds, _ in charges],
                       [count for _, _, count in charges])


class TestFold:
    """``Tracer.fold`` is one ``add`` per charge, under the charge's own
    phase, in list order: bit for bit, key order included."""

    @staticmethod
    def _rows(t: Tracer) -> tuple:
        return (t.clock.hex(), [(k, v.hex()) for k, v in t.by_phase.items()],
                [(k, v.hex()) for k, v in t.by_kernel.items()],
                list(t.counts.items()),
                [s.to_dict() for s in t.spans if s.cat == "kernel"])

    @staticmethod
    def _added(charges, spans: bool = False) -> Tracer:
        tracer = Tracer()
        if spans:
            tracer.enable_spans()
        for (phase, kernel), seconds, count in charges:
            with tracer.phase(phase):
                tracer.add(kernel, seconds, count=count)
        return tracer

    @given(before=CHARGES, charges=CHARGES, spans=st.booleans())
    def test_fold_is_sequential_add(self, before, charges, spans):
        added, folded = Tracer(), Tracer()
        if spans:
            added.enable_spans()
            folded.enable_spans()
        for (phase, kernel), seconds, count in before + charges:
            with added.phase(phase):
                added.add(kernel, seconds, count=count)
        fold(folded, before)
        fold(folded, charges)
        assert self._rows(folded) == self._rows(added)

    def test_negative_charge_names_its_kernel(self):
        t = Tracer()
        with pytest.raises(ValueError, match="'update'"):
            fold(t, [(("ortho", "dot"), 1.0, 1), (("ortho", "update"), -1e-9, 1)])
        assert t.clock == 1.0 and t.by_phase == {"ortho": 1.0}

    def test_empty_fold_changes_nothing(self):
        t = self._added([(("spmv", "halo"), 0.5, 1)], spans=True)
        before = self._rows(t)
        assert fold(t, []) is t and self._rows(t) == before
        assert fold(Tracer(), []).to_dict() == Tracer().to_dict()

    def test_fold_onto_rows_already_there(self):
        """Existing rows keep their place and sum on; new ones follow."""
        first = [(("ortho", "dot"), 0.1, 1), (("spmv", "halo"), 0.2, 1)]
        then = [(("other", "host"), 0.3, 2), (("ortho", "dot"), 0.7, 1),
                (("spmv", "halo"), 1e-17, 0)]
        folded = fold(self._added(first, spans=True), then)
        assert self._rows(folded) == self._rows(
            self._added(first + then, spans=True))
        assert list(folded.by_kernel) == [("ortho", "dot"), ("spmv", "halo"),
                                          ("other", "host")]
        assert folded.counts[("ortho", "dot")] == 2

    def test_a_run_of_zero_second_charges(self):
        """Zero seconds still open rows, count, and span an empty interval."""
        zeros = [(("ortho", "dot"), 0.0, 1)] * 3 + [(("other", "host"), 0.0, 2)]
        folded = Tracer()
        folded.enable_spans()
        fold(folded, [(("spmv", "halo"), 0.25, 1)] + zeros)
        assert self._rows(folded) == self._rows(self._added(
            [(("spmv", "halo"), 0.25, 1)] + zeros, spans=True))
        assert folded.clock == 0.25 and folded.counts[("ortho", "dot")] == 3
        assert [s.duration for s in folded.spans] == [0.25, 0.0, 0.0, 0.0, 0.0]


class TestSharePhaseStack:
    """Regression for the mp backend's modeled twin: one phase()/cycle
    context must drive both tracers without touching private fields."""

    def test_twin_follows_phase_and_cycle(self):
        measured = Tracer(stream="measured")
        modeled = Tracer()
        measured.share_phase_stack(modeled)
        measured.set_cycle(3)
        with measured.phase("ortho"):
            measured.add("allreduce", 0.2)
            modeled.add("allreduce", 0.1)
        assert modeled.phase_seconds("ortho") == 0.1
        assert measured.phase_seconds("ortho") == 0.2
        assert modeled.current_cycle == 3

    def test_twin_spans_attribute_identically(self):
        measured = Tracer(stream="measured")
        modeled = Tracer()
        measured.share_phase_stack(modeled)
        for t in (measured, modeled):
            t.enable_spans()
        with measured.phase("spmv"):
            measured.add("halo", 0.2)
            modeled.add("halo", 0.1)
        (ms,) = [s for s in measured.spans if s.cat == "kernel"]
        (ds,) = [s for s in modeled.spans if s.cat == "kernel"]
        assert ms.phase == ds.phase == "spmv"
        assert (ms.stream, ds.stream) == ("measured", "modeled")


class TestSerialization:
    def test_span_event_round_trip(self):
        s = SpanEvent("allreduce", 1.0, 1.5, "ortho", "measured",
                      count=2, payload_bytes=8.0, cycle=4, rank=1,
                      driver_side=True)
        assert SpanEvent.from_dict(s.to_dict()) == s

    def test_span_event_from_sparse_dict_defaults(self):
        s = SpanEvent.from_dict({"name": "dot", "t0": 0, "t1": 1})
        assert (s.phase, s.stream, s.cat, s.count) == (
            "other", "modeled", "kernel", 1)
        assert s.payload_bytes is None and s.rank is None
        assert s.driver_side is False

    def test_a_retired_field_of_an_older_export_is_ignored(self):
        """Exports written while charges carried a hidden-time field
        (``overlapped_seconds``) still load, and replay to the same
        totals."""
        doc = SpanEvent("allreduce", 0.0, 0.5, "ortho", payload_bytes=8.0
                        ).to_dict()
        old = dict(doc, overlapped_seconds=0.25)
        assert SpanEvent.from_dict(old) == SpanEvent.from_dict(doc)
        assert (Tracer().replay([SpanEvent.from_dict(old)]).snapshot()
                == Tracer().replay([SpanEvent.from_dict(doc)]).snapshot())

    def test_totals_to_dict_flattens_keys(self):
        t = Tracer()
        with t.phase("ortho"):
            t.add("dot", 1.5, count=2)
        doc = t.snapshot().to_dict()
        assert doc["clock"] == 1.5
        assert doc["by_phase"] == {"ortho": 1.5}
        assert doc["by_kernel"] == {"ortho/dot": 1.5}
        assert doc["counts"] == {"ortho/dot": 2}

    def test_tracer_to_dict_stream_and_spans(self):
        t = Tracer(stream="measured")
        t.add("dot", 1.0)
        doc = t.to_dict()
        assert doc["stream"] == "measured"
        assert "spans" not in doc
        t.enable_spans()
        t.add("dot", 1.0)
        doc = t.to_dict(include_spans=True)
        assert [s["name"] for s in doc["spans"]] == ["dot"]
        import json
        json.dumps(doc)  # JSON-safe end to end
