"""The repro-obs writer (repro.obs.export)."""

import json

from repro.obs.export import export_json, spans_payload
from repro.obs.trace import Tracer


def _sample_tracer():
    clock = {"t": 0.0}
    tracer = Tracer(lambda: clock["t"])
    span = tracer.start("rsds.get")
    clock["t"] = 2.0
    span.finish(status="ok")
    return tracer


def test_json_round_trip_via_path(tmp_path):
    path = tmp_path / "nested" / "report.json"
    document = export_json(
        path,
        meta={"experiment": "unit"},
        collected={"table2": {"hit_ratio": 0.75}},
        tracers=[_sample_tracer()],
    )
    loaded = json.loads(path.read_text())
    assert loaded == document
    assert sorted(loaded) == ["collected", "format", "meta", "spans", "version"]
    assert loaded["format"] == "repro-obs"
    assert loaded["version"] == 1
    assert loaded["meta"] == {"experiment": "unit"}
    assert loaded["collected"]["table2"]["hit_ratio"] == 0.75
    assert loaded["spans"]["finished"] == 1
    assert loaded["spans"]["summary"]["rsds.get"]["total_s"] == 2.0


def test_spans_payload_merges_tracers():
    payload = spans_payload([_sample_tracer(), _sample_tracer()])
    assert payload["finished"] == 2
    assert payload["started"] == 2
    assert payload["dropped"] == 0
    assert payload["summary"]["rsds.get"]["count"] == 2
    assert payload["summary"]["rsds.get"]["mean_s"] == 2.0
