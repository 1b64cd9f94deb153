"""CLI behavior: exit codes, the --trace flag and ``repro report``."""

import json

import pytest

import repro.cli as cli
from repro.obs import active_tracers, reset_tracing, tracing_enabled
from repro.sim import Kernel


@pytest.fixture(autouse=True)
def _clean_tracing():
    reset_tracing()
    yield
    reset_tracing()


def _fake_experiment(args):
    kernel = Kernel()

    def proc():
        yield kernel.timeout(1.5)

    kernel.process(proc(), name="fake-work")
    kernel.run()
    return "fake done"


def _failing_experiment(args):
    raise RuntimeError("boom")


@pytest.fixture()
def fake_experiments(monkeypatch):
    monkeypatch.setitem(cli.COMMANDS, "fake", _fake_experiment)
    monkeypatch.setitem(cli.COMMANDS, "failing", _failing_experiment)


def test_unknown_experiment_exits_2(capsys):
    assert cli.main(["nonexistent"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_failing_experiment_exits_1(fake_experiments, capsys):
    assert cli.main(["failing"]) == 1
    err = capsys.readouterr().err
    assert "RuntimeError: boom" in err
    assert "experiment failed: failing" in err


def test_failure_stops_remaining_experiments(fake_experiments, capsys):
    assert cli.main(["failing", "fake"]) == 1
    assert "fake done" not in capsys.readouterr().out


def test_successful_experiment_exits_0(fake_experiments, capsys):
    assert cli.main(["fake"]) == 0
    assert "fake done" in capsys.readouterr().out


def test_trace_flag_writes_span_summary(fake_experiments, tmp_path):
    trace_path = tmp_path / "trace.json"
    assert cli.main(["fake", "--trace", str(trace_path)]) == 0
    document = json.loads(trace_path.read_text())
    assert document["format"] == "repro-obs"
    summary = document["spans"]["summary"]
    assert summary["sim.process"]["count"] == 1
    assert summary["sim.process"]["total_s"] == 1.5


def test_trace_state_reset_after_run(fake_experiments, tmp_path):
    cli.main(["fake", "--trace", str(tmp_path / "t.json")])
    assert not tracing_enabled()
    assert active_tracers() == []


def test_report_keeps_trace_on_and_writes_its_document(fake_experiments, tmp_path):
    """``report`` uses the tracing state it finds: under ``--trace`` the
    file holds the macro run's spans *and* those of the command after
    it, while the report document holds its own run's spans only."""
    trace_path, report_path = tmp_path / "trace.json", tmp_path / "report.json"
    argv = ["report", "fake", "--quick", "--out", str(report_path)]
    assert cli.main(argv + ["--trace", str(trace_path)]) == 0

    report = json.loads(report_path.read_text())
    own = report["spans"]["summary"]
    traced = json.loads(trace_path.read_text())["spans"]["summary"]
    assert traced["faas.invoke"]["count"] == own["faas.invoke"]["count"] > 0
    # The fake command's one process, traced after report returned.
    assert traced["sim.process"]["count"] == own["sim.process"]["count"] + 1

    assert sorted(report) == ["collected", "format", "meta", "spans", "version"]
    assert sorted(report["collected"]) == [
        "cache_backend", "checks", "invokers", "kvcache", "ofc", "persistor",
        "rclib", "rsds", "table2", "tenancy",
    ]
    assert report["spans"]["finished"] > 0


def test_report_without_trace_leaves_tracing_off(tmp_path):
    assert cli.main(["report", "--quick", "--out", str(tmp_path / "r.json")]) == 0
    assert not tracing_enabled()
    assert active_tracers() == []
