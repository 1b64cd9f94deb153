"""CLI behavior: exit codes and the --trace flag."""

import pytest

import repro.cli as cli
from repro.obs import load_json, reset_tracing
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
    document = load_json(trace_path)
    assert document["format"] == "repro-obs"
    summary = document["spans"]["summary"]
    assert summary["sim.process"]["count"] == 1
    assert summary["sim.process"]["total_s"] == 1.5


def test_trace_state_reset_after_run(fake_experiments, tmp_path):
    from repro.obs import active_tracers, tracing_enabled

    cli.main(["fake", "--trace", str(tmp_path / "t.json")])
    assert not tracing_enabled()
    assert active_tracers() == []
