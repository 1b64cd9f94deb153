"""``repro perf``: the front that records what ``perf/run.py`` measured.

No test runs the real benchmark: each points the front at a fake
checkout whose ``perf/run.py`` writes a small hand-written
``results.json`` document and exits as told.
"""

import json

import pytest

from repro import cli
from repro.bench import trajectory
from repro.bench.trajectory import build_entry, record

END_TO_END = ("wall_s", "setup_s", "sim_exec_mean_ms", "success_share")
FAKE_RUN = """\
import json, os, sys
here = os.path.dirname(os.path.abspath(__file__))
os.makedirs(os.path.join(here, "out"))
json.dump({document!r}, open(os.path.join(here, "out", "results.json"), "w"))
json.dump(sys.argv[1:], open(os.path.join(here, "argv.json"), "w"))
print("# the report streams through")
sys.exit({exit})
"""


def document(smoke=False, incorrect=None):
    stats = {"value": 2.0, "q1": 1.9, "q3": 2.2, "min": 1.8, "n": 4}
    workloads = {
        name: {
            "end_to_end": {metric: dict(stats) for metric in END_TO_END},
            "per_layer": {
                "host.sim.self_s": 0.4, "host.sim.share": 0.18,
                "host.kvcache.share": 0.145, "trace.wall_s": 3.0,
                "micro.sim.sleep_events_per_s": 5e6,
            },
            "fingerprint": f"print-of-{name}",
            "correct": name != incorrect,
        }
        for name in ("functions_read", "swift_baseline")
    }
    return {
        "header": {"nproc": 2, "python": "3.11.4", "git_sha": "c0ffee" * 6 + "beef",
                   "seed": 0, "smoke": smoke},
        "workloads": workloads,
        "micro": {"micro.sim.sleep_events_per_s": {"value": 5e6},
                  "micro.cache.faast_putget_per_s": {"value": 0.0, "absent": "gone"}},
    }


@pytest.fixture()
def checkout(tmp_path, monkeypatch):
    """``checkout(document, exit=0)`` writes a fake checkout's run.py."""
    perf_dir = tmp_path / "checkout" / "perf"
    perf_dir.mkdir(parents=True)
    (perf_dir.parent / "BENCHMARK.json").write_text("{}")
    monkeypatch.setattr(trajectory, "CHECKOUT", str(perf_dir.parent))

    def arm(document, exit=0):
        (perf_dir / "run.py").write_text(FAKE_RUN.format(document=document, exit=exit))
        return perf_dir

    return arm


def perf(path, *flags):
    return cli.main(["perf", "--bench-out", str(path), *flags])


def test_record_creates_missing_parent_directories(tmp_path):
    path = tmp_path / "results" / "nested" / "BENCH_perf.json"
    record({"label": "first"}, path=str(path))
    doc = json.loads(path.read_text())
    assert doc == {"schema": 2, "entries": [{"label": "first"}]}


def test_record_appends_to_existing_trajectory(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    old = {"schema": 1, "label": "é old", "kernel_events_per_sec": 1620.5}
    path.write_text(json.dumps({"schema": 1, "entries": [old]}, indent=2) + "\n")
    before = path.read_text()
    record({"label": "first"}, path=str(path))
    record({"label": "second"}, path=str(path))
    after = path.read_text()
    labels = [e["label"] for e in json.loads(after)["entries"]]
    assert labels == ["é old", "first", "second"]
    # The schema-1 entry's bytes are still in the file, untouched.
    assert before[before.index('"entries"'):before.rindex("\n  ]")] in after


def test_entry_carries_every_metric_with_dispersion_and_the_layer_shares():
    entry = build_entry(document(), "accepted state")
    assert entry["schema"] == 2 and entry["label"] == "accepted state"
    assert entry["commit"] == "c0ffee" * 6 + "beef" and entry["seed"] == 0
    assert entry["machine"] == {"python": "3.11.4", "cpus": 2}
    assert list(entry["workloads"]) == ["functions_read", "swift_baseline"]
    swift = entry["workloads"]["swift_baseline"]
    assert tuple(swift["end_to_end"]) == END_TO_END
    for stats in swift["end_to_end"].values():
        assert stats == {"median": 2.0, "q1": 1.9, "q3": 2.2, "n": 4}
    assert swift["per_layer"] == {"host.sim.share": 0.18, "host.kvcache.share": 0.145}
    assert swift["fingerprint"] == "print-of-swift_baseline"
    assert entry["micro"] == {"micro.sim.sleep_events_per_s": 5e6,
                              "micro.cache.faast_putget_per_s": 0.0}


def test_perf_runs_the_benchmark_and_appends_one_entry(checkout, tmp_path, capfd):
    perf_dir = checkout(document())
    path = tmp_path / "BENCH_perf.json"
    assert perf(path, "--label", "one benchmark") == 0
    assert json.loads((perf_dir / "argv.json").read_text()) == ["--seed", "0"]
    (entry,) = json.loads(path.read_text())["entries"]
    assert entry["label"] == "one benchmark" and len(entry["workloads"]) == 2
    out = capfd.readouterr().out
    assert "# the report streams through" in out and "appended to" in out


@pytest.mark.parametrize(
    "incorrect, exit, reason",
    [("swift_baseline", 0, "swift_baseline"), (None, 3, "exited 3")],
)
def test_failed_run_appends_nothing_and_fails(
    checkout, tmp_path, capfd, incorrect, exit, reason
):
    checkout(document(incorrect=incorrect), exit=exit)
    path = tmp_path / "BENCH_perf.json"
    assert perf(path) == 1
    assert not path.exists()
    assert reason in capfd.readouterr().err


def test_quick_runs_the_smoke_cells_and_appends_nothing(checkout, tmp_path, capfd):
    perf_dir = checkout(document(smoke=True))
    path = tmp_path / "BENCH_perf.json"
    assert perf(path, "--quick") == 0
    assert json.loads((perf_dir / "argv.json").read_text()) == ["--smoke"]
    assert not path.exists()
    assert "nothing appended" in capfd.readouterr().out


def test_no_checkout_is_a_one_line_error_not_a_traceback(tmp_path, monkeypatch, capfd):
    monkeypatch.setattr(trajectory, "CHECKOUT", str(tmp_path / "site-packages"))
    assert perf(tmp_path / "BENCH_perf.json") == 1
    captured = capfd.readouterr()
    (line,) = captured.err.splitlines()
    assert "source checkout" in line and "perf/run.py" in line
    assert "Traceback" not in captured.err and captured.out == ""
