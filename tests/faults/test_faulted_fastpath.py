"""Bit-identical parity under fault injection: generated loop vs steps.

Fault-injected kernels run the same generated ``run``/``run_until`` as
every other kernel.  These tests are the system-scale evidence that the
loop is right on the failure paths too: the checked-in minimized chaos
reproducers and a fixed-seed chaos cell must produce *equal* results —
every recorded data-plane op, every counter, zero divergence — on the
production loop and with ``Kernel.run``/``run_until`` replaced by the
``step()`` versions of ``tests/sim/reference_kernel.py``.
"""

from dataclasses import asdict
from pathlib import Path

import pytest

from repro.bench.grid import load_cell, run_cell, TenantCell
from tests.sim.reference_kernel import use_step_dispatch

FAULT_DIR = Path(__file__).resolve().parents[2] / "examples" / "faults"

REPRODUCERS = sorted(FAULT_DIR.glob("chaos_*.json"))


def _run_both(run_once, monkeypatch):
    """``run_once()`` on the production loop, then on the step oracle."""
    generated = run_once()
    use_step_dispatch(monkeypatch)
    return generated, run_once()


@pytest.mark.parametrize(
    "reproducer", REPRODUCERS, ids=[p.stem for p in REPRODUCERS]
)
def test_reproducer_replay_parity(reproducer, monkeypatch):
    """Replaying a minimized reproducer is bit-identical on both loops."""
    assert REPRODUCERS, "no checked-in reproducers found"
    cell = load_cell(reproducer)
    generated, stepped = _run_both(lambda: asdict(run_cell(cell)), monkeypatch)
    assert generated == stepped


def test_fixed_seed_chaos_cell_history_parity(monkeypatch):
    """A fixed-seed chaos cell (generated schedule, crashes + episodes)
    produces an identical per-op history on both loops — not just equal
    summary counters."""
    from repro.bench import grid
    from repro.checks import check_history

    cell = TenantCell(
        intensity="medium",
        n_tenants=24,
        mean_interval_s=6.0,
        duration_s=30.0,
        seed=11,
        warmup_s=10.0,
    )

    def run_once():
        # The cell hands its recorded history to the checker; listen in.
        audited = []

        def spy(ops, ofc):
            audited.append((ops, ofc.kernel.now))
            return check_history(ops, ofc)

        with monkeypatch.context() as patch:
            patch.setattr(grid, "check_history", spy)
            row = run_cell(cell)
        (ops, final_now), = audited
        # Everything observable except payload object identity (payload
        # references are per-run Python objects).
        history = [
            (
                op.seq,
                op.op,
                op.key,
                op.t_start,
                op.t_ack,
                op.status,
                op.error,
                op.size,
                op.version,
                op.store_version,
                op.payload_missing,
                op.tenant,
                op.request_id,
                op.pipeline_id,
                op.final_stage,
                op.intermediate,
            )
            for op in ops
        ]
        return {"history": history, "row": asdict(row), "final_now": final_now}

    generated, stepped = _run_both(run_once, monkeypatch)
    assert generated == stepped
    assert generated["history"], "cell recorded no data-plane ops"
    assert generated["row"]["crashes"] + generated["row"]["episodes"] > 0
    assert generated["row"]["violations_total"] == 0
