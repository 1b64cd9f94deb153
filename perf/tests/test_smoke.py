"""Smoke tests of the benchmark itself.

Run with ``python -m pytest perf/tests -q`` from the repository root
(tier-1's ``testpaths`` does not include this directory).  ``--smoke``
cells are about twenty times shorter than the measured ones, so the
whole module finishes in well under a minute.
"""

from __future__ import annotations

import ast
import copy
import json
import os
import re
import subprocess
import sys

import pytest

from perf import cells, compare, run

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def declared():
    return run.declared()


@pytest.fixture(scope="module")
def smoke_run():
    """One complete ``--smoke`` command: (result line, results.json)."""
    done = subprocess.run(
        [sys.executable, os.path.join(PERF, "run.py"), "--smoke", "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    with open(os.path.join(PERF, "out", "results.json"), encoding="utf-8") as handle:
        return json.loads(done.stdout.splitlines()[-1]), json.load(handle)


@pytest.fixture(scope="module")
def smoke_cells():
    """One untraced smoke cell per workload at seed 0."""
    return {
        name: run.run_child(name, seed=0, smoke=True, traced=False)
        for name in cells.WORKLOADS
    }


def test_output_names_equal_the_declaration(declared, smoke_run):
    line, document = smoke_run
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    workloads = [w["name"] for w in declared["workloads"]]
    end_to_end = [m["name"] for m in declared["end_to_end"]]
    per_layer = [m["name"] for m in declared["per_layer"]]
    assert list(document["workloads"]) == workloads == list(cells.WORKLOADS)
    for name, result in document["workloads"].items():
        assert list(result["end_to_end"]) == end_to_end, name
        assert list(result["per_layer"]) == per_layer, name
        assert result["correct"], result["checks"]
        assert not result["absent"], result["absent"]
    assert set(line["metrics"]) == {
        f"{w}:{m}" for w in workloads for m in end_to_end + per_layer
    }


def test_declaration_stays_inside_the_contract(declared):
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in declared[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert declared["paths"] == ["perf"]
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_end_to_end_metrics_are_never_zero(smoke_run):
    _line, document = smoke_run
    for name, result in document["workloads"].items():
        for metric, stats in result["end_to_end"].items():
            assert stats["value"] > 0, (name, metric)


def test_same_seed_same_fingerprint_other_seed_differs(smoke_run, smoke_cells):
    _line, document = smoke_run
    for name, cell in smoke_cells.items():
        assert cell["fingerprint"] == document["workloads"][name]["fingerprint"]
        other = run.run_child(name, seed=1, smoke=True, traced=False)
        assert other["fingerprint"] != cell["fingerprint"], name


def _failing(checks):
    return {item["check"] for item in checks if not item["ok"]}


def _broken(cell, **changes):
    broken = copy.deepcopy(cell)
    for path, value in changes.items():
        target = broken
        *parents, leaf = path.split("__")
        for parent in parents:
            target = target[parent]
        target[leaf] = value
    return broken


def test_every_output_check_fires_on_a_broken_result(smoke_cells):
    for name, cell in smoke_cells.items():
        assert not _failing(run.check_workload(name, [cell, cell], smoke=True)), name

    def failing(name, smoke=True, **changes):
        cell = smoke_cells[name]
        return _failing(
            run.check_workload(name, [cell, _broken(cell, **changes)], smoke)
        )

    assert "accounting" in failing("swift_baseline", delivered=1)
    assert "fingerprint" in failing("swift_baseline", fingerprint="0" * 64)
    cell = smoke_cells["tenants_pressure"]
    lossy = _broken(cell, failed=cell["submitted"], ok=0)
    assert "failed_share" in _failing(
        run.check_workload("tenants_pressure", [lossy], smoke=True)
    )
    # A smoke cell has too few samples for the full-size rule.
    assert "latency_samples" in _failing(
        run.check_workload("swift_baseline", [smoke_cells["swift_baseline"]], False)
    )
    for name in ("functions_read", "pipelines_ephemeral"):
        stuck = _broken(smoke_cells[name], persist_scheduled=10**9)
        assert "write_back_drained" in _failing(run.check_workload(name, [stuck], True))
        gave_up = _broken(smoke_cells[name], **{"counters__core.persist_gave_up": 1})
        assert "write_back_drained" in _failing(
            run.check_workload(name, [gave_up], True)
        )
    kept = _broken(
        smoke_cells["pipelines_ephemeral"],
        **{"counters__core.intermediates_removed": 0},
    )
    assert "ephemeral_path" in _failing(
        run.check_workload("pipelines_ephemeral", [kept], True)
    )
    roomy = _broken(
        smoke_cells["tenants_pressure"], **{"counters__kvcache.migrations": 0}
    )
    assert "memory_pressure" in _failing(
        run.check_workload("tenants_pressure", [roomy], True)
    )
    assert "violations" in failing("chaos_faulted", facts__violations=1)
    calm = _broken(smoke_cells["chaos_faulted"], facts__crashes_scheduled=0)
    assert "fault_schedule" in _failing(
        run.check_workload("chaos_faulted", [calm], True)
    )


def test_improvement_over_swift_check(smoke_run):
    _line, document = smoke_run
    results = copy.deepcopy(document["workloads"])
    assert run.check_improvement(results)["ok"]
    slow = results["functions_read"]["end_to_end"]["sim_exec_mean_ms"]
    slow["value"] = 10 * results["swift_baseline"]["end_to_end"][
        "sim_exec_mean_ms"
    ]["value"]
    assert not run.check_improvement(results)["ok"]
    del results["swift_baseline"]
    assert run.check_improvement(results) is None


def test_compare_applies_the_bounds(declared, smoke_run):
    _line, document = smoke_run
    same, code = compare.compare([document], [document], declared, same_commit=True)
    assert "identical" in same[-1]
    # Smoke cells run for milliseconds, so their host times may be
    # unresolved; nothing may be *worse* than itself.
    assert not any(" worse " in row for row in same)
    assert code in (0, 1)
    slower = copy.deepcopy(document)
    stats = slower["workloads"]["swift_baseline"]["end_to_end"]["sim_exec_mean_ms"]
    stats["value"] = stats["q1"] = stats["q3"] = stats["value"] * 2
    lossy = slower["workloads"]["chaos_faulted"]["end_to_end"]["success_share"]
    lossy["value"] = lossy["q1"] = lossy["q3"] = lossy["value"] - 0.001
    rows, code = compare.compare([document], [slower], declared, same_commit=False)
    assert code == 1
    assert any("sim_exec_mean_ms" in row and " worse " in row for row in rows)
    assert any("failed share rose" in row for row in rows)
    other = copy.deepcopy(document)
    other["header"]["nproc"] = -1
    assert compare.compare([document], [other], declared, False)[1] == 2


#: The only names of the program the benchmark may import; later
#: refactors keep them importable (see perf/README.md).
ALLOWED_MODULES = {
    "repro.faas", "repro.kvcache", "repro.storage", "repro.ml",
    "repro.faults", "repro.checks",
    "repro.workloads.faasload", "repro.workloads.tenants",
    "repro.workloads.pipelines", "repro.workloads.functions",
    "repro.workloads.media",
    "repro.obs.trace", "repro.bench.envs", "repro.bench.model_cache",
}
ALLOWED_NAMES = {
    "repro.sim.Kernel", "repro.sim.Event",
    "repro.core.config.OFCConfig", "repro.core.ofc.OFCPlatform",
    "repro.cache.make_backend",
}


def _repro_imports(path):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name


def test_import_surface_is_pinned():
    sources = [
        os.path.join(folder, name)
        for folder, _dirs, files in os.walk(PERF)
        for name in files
        if name.endswith(".py")
    ]
    assert len(sources) >= 6
    for path in sources:
        for module, name in _repro_imports(path):
            dotted = f"{module}.{name}" if name else module
            assert (
                module in ALLOWED_MODULES
                or dotted in ALLOWED_MODULES
                or dotted in ALLOWED_NAMES
            ), f"{os.path.relpath(path, ROOT)} imports {dotted}"
