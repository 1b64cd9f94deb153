"""Parallel sweep runner: determinism and plumbing."""

import pytest

from repro.bench.fig8 import _fig8_cell, run_fig8
from repro.bench.runner import cell_seed, CellOutcome, run_cells, run_grid
from repro.sim.latency import KB


def _square(cell):
    return cell * cell


def test_run_cells_preserves_order_serial():
    outcomes = run_cells(_square, [3, 1, 2], workers=1)
    assert [o.result for o in outcomes] == [9, 1, 4]
    assert [o.cell for o in outcomes] == [3, 1, 2]
    assert all(isinstance(o, CellOutcome) for o in outcomes)


def test_run_cells_preserves_order_parallel():
    outcomes = run_cells(_square, list(range(8)), workers=4)
    assert [o.result for o in outcomes] == [n * n for n in range(8)]


def test_run_grid_returns_raw_results():
    assert run_grid(_square, [2, 4], workers=1) == [4, 16]


def test_invalid_workers_rejected():
    with pytest.raises(ValueError, match="workers"):
        run_cells(_square, [1], workers=0)


def test_cell_seed_stable_and_distinct():
    a = cell_seed(0, "wand_blur", 16 * KB)
    assert a == cell_seed(0, "wand_blur", 16 * KB)
    assert a != cell_seed(0, "wand_blur", 64 * KB)
    assert a != cell_seed(1, "wand_blur", 16 * KB)


def test_parallel_sweep_matches_serial():
    # The acceptance property: fanning cells across processes must
    # reproduce the serial sweep bit-for-bit (same seeds, same order).
    sizes = (1 * KB, 16 * KB)
    serial = run_fig8(sizes=sizes, seed=0, workers=1)
    parallel = run_fig8(sizes=sizes, seed=0, workers=4)
    assert parallel == serial


def test_traced_sweep_exports_worker_spans(tmp_path):
    # Worker processes trace their own cells; what they recorded must
    # reach the parent's export, or --trace is empty whenever a sweep
    # fans out (it was: run_grid dropped CellOutcome.obs).
    from repro.obs import enable_tracing, export_json, reset_tracing
    from repro.obs.trace import active_tracers

    def traced_spans(workers):
        reset_tracing()
        enable_tracing()
        try:
            run_fig8(sizes=(16 * KB,), seed=0, workers=workers)
            doc = export_json(tmp_path / "t.json", tracers=active_tracers())
        finally:
            reset_tracing()
        spans = doc["spans"]
        counts = {name: agg["count"] for name, agg in spans["summary"].items()}
        return counts, spans["finished"], spans["started"]

    serial = traced_spans(1)
    assert serial[0]["faas.invoke"] > 0 and serial[1] > 0
    assert traced_spans(2) == serial


def test_cell_function_is_picklable():
    import pickle

    pickle.dumps(_fig8_cell)
