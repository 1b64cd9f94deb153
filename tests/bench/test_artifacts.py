"""The paper artifacts are defined once: the registry's stems are the
committed ``results/`` files, each drawn by exactly one artifact, and
the command line runs the registry."""

from pathlib import Path

import pytest

import repro.cli as cli
from repro.bench.artifacts import ARTIFACTS, TABLES

RESULTS = Path(__file__).resolve().parents[2] / "results"
#: Committed results no paper artifact draws: benchmark-only tables.
BENCHMARK_ONLY = ("ablation_", "kernel_microbench")
#: Artifacts whose drivers take seconds to minutes (cross-validated
#: learners; Figure 6 is wall clock): the benchmarks check those files.
SLOW = ("table1", "benefit", "fig5", "fig6", "maturation")


def test_stems_are_the_committed_results():
    committed = {
        path.stem
        for path in RESULTS.glob("*.txt")
        if not path.stem.startswith(BENCHMARK_ONLY)
    }
    assert set(TABLES) == committed


def test_no_stem_is_drawn_by_two_artifacts():
    stems = [table.stem for tables in ARTIFACTS.values() for table in tables]
    assert len(stems) == len(set(stems)) == 23


def test_cli_runs_the_registry_then_faults():
    assert cli.ALL == (*ARTIFACTS, "faults")


@pytest.mark.parametrize("name", [name for name in ARTIFACTS if name not in SLOW])
def test_full_size_prints_the_committed_file(name):
    for table in ARTIFACTS[name]:
        _result, text = table.draw(workers=1)
        assert text + "\n" == (RESULTS / f"{table.stem}.txt").read_text(), table.stem


def test_quick_sizes_set_the_driver_arguments_full_ones_do():
    for table in TABLES.values():
        if table.quick is not None:
            assert set(table.quick) == set(table.full), table.stem
