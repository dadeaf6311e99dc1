"""SolveTelemetry / CycleRecord: builder semantics and diagnostics parity."""

from __future__ import annotations

import numpy as np

from repro.obs.telemetry import CycleRecord, SolveTelemetry


class TestBuilder:
    def test_cycle_lifecycle(self):
        tel = SolveTelemetry()
        tel.begin_cycle(0, mode="classical")
        tel.observe("basis_condition", 10.0)
        tel.observe("basis_condition", 3.0)   # running max, not last-wins
        tel.note_residual(1e-3)
        rec = tel.end_cycle(30)
        assert rec == tel.records[-1]
        assert (rec.cycle, rec.iterations, rec.mode) == (0, 30, "classical")
        assert rec.basis_condition == 10.0
        assert rec.residual_norm == 1e-3
        assert rec.residual_gap is None and rec.embedding_distortion is None

    def test_observe_outside_cycle_is_noop(self):
        tel = SolveTelemetry()
        tel.observe("basis_condition", 5.0)
        tel.note_residual(1.0)
        tel.event("breakdown")
        assert tel.end_cycle(0) is None
        assert len(tel) == 0

    def test_observe_unknown_field_ignored(self):
        tel = SolveTelemetry()
        tel.begin_cycle(0)
        tel.observe("not_a_field", 1.0)
        rec = tel.end_cycle(1)
        assert not hasattr(rec, "not_a_field")

    def test_begin_closes_pending_defensively(self):
        tel = SolveTelemetry()
        tel.begin_cycle(0)
        tel.begin_cycle(1)
        tel.end_cycle(10)
        assert [r.cycle for r in tel] == [0, 1]

    def test_events_attach_to_pending_cycle_only(self):
        tel = SolveTelemetry()
        tel.begin_cycle(0)
        tel.event("breakdown")
        tel.end_cycle(5)
        tel.begin_cycle(1)
        tel.end_cycle(10)
        assert tel.records[0].events == ("breakdown",)
        assert tel.records[1].events == ()

    def test_observe_gap_max_merges_onto_last_frozen_record(self):
        tel = SolveTelemetry()
        tel.observe_gap(9.0)                     # no records yet: no-op
        tel.begin_cycle(0)
        tel.end_cycle(5)
        tel.observe_gap(0.5)
        tel.observe_gap(0.25)
        assert tel.records[0].residual_gap == 0.5


class TestReaders:
    def _tel(self):
        tel = SolveTelemetry()
        tel.begin_cycle(0)
        tel.observe("basis_condition", 2.0)
        tel.end_cycle(10)
        tel.begin_cycle(1)
        tel.observe("basis_condition", 8.0)
        tel.event("resketch_requested")
        tel.end_cycle(20)
        return tel

    def test_max_of_skips_none(self):
        tel = self._tel()
        assert tel.max_of("basis_condition") == 8.0
        assert tel.max_of("residual_gap", 0.0) == 0.0

    def test_max_of_includes_pending(self):
        tel = self._tel()
        tel.begin_cycle(2)
        tel.observe("basis_condition", 99.0)
        assert tel.max_of("basis_condition") == 99.0

    def test_inf_observation_survives(self):
        tel = SolveTelemetry()
        tel.begin_cycle(0)
        tel.observe("embedding_distortion", np.inf)
        tel.end_cycle(1)
        assert tel.max_of("embedding_distortion") == np.inf


class TestRecordSerialization:
    def test_round_trip(self):
        rec = CycleRecord(cycle=3, iterations=90, mode="sketched",
                          residual_norm=1e-6, residual_gap=0.1,
                          basis_condition=12.0, embedding_distortion=0.4,
                          events=("breakdown", "resketch_requested"))
        assert CycleRecord.from_dict(rec.to_dict()) == rec

    def test_to_dict_is_json_safe(self):
        import json
        rec = CycleRecord(cycle=0, iterations=1)
        doc = rec.to_dict()
        assert isinstance(doc["events"], list)
        json.dumps(doc)
