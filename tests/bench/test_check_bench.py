"""The seeded exactness gate (``scripts/check_bench.py``) in tier-1.

The script lives under ``scripts/`` (not the package), so it is loaded
by path.  One test runs the real gate against the checked-in baseline;
the others give ``compare`` that baseline's own values, moved by hand.
"""

import copy
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "check_bench.py"

spec = importlib.util.spec_from_file_location("check_bench", SCRIPT)
check_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_bench)

BASELINE = check_bench.load_baseline(check_bench.BASELINE_PATH)
HEADLINE = "wand_blur/16384/OFC-LH"


@pytest.fixture()
def measured():
    return copy.deepcopy(BASELINE)


def failures(measured):
    return check_bench.compare(BASELINE, measured["headlines"], measured["micro"])


def test_real_gate_is_exact_against_the_checked_in_baseline(tmp_path, capsys):
    assert check_bench.main(["--out", str(tmp_path / "metrics.json")]) == 0
    out = capsys.readouterr().out
    assert "20 headlines" in out and "8 micro entries exact" in out
    # Bit-equal, not merely inside the tolerance.
    assert "note:" not in out


def test_drifted_micro_counter_fails(measured):
    measured["micro"]["faults/cell_ops"] += 1
    (failure,) = failures(measured)
    assert "faults/cell_ops" in failure and "drifted" in failure


def test_baseline_key_without_measured_counterpart_fails(measured):
    del measured["headlines"][HEADLINE]
    del measured["micro"]["tenants/arrivals_200t_1h"]
    headline, micro = failures(measured)
    assert HEADLINE in headline and "not measured" in headline
    assert "tenants/arrivals_200t_1h" in micro and "not measured" in micro


def test_headline_past_the_tolerance_fails(measured):
    measured["headlines"][HEADLINE] *= 1.26
    (failure,) = failures(measured)
    assert HEADLINE in failure and "+26.0%" in failure


def test_headline_inside_the_tolerance_passes_with_a_note(measured, capsys):
    assert failures(measured) == [] and capsys.readouterr().out == ""
    measured["headlines"][HEADLINE] *= 1.24
    assert failures(measured) == []
    (note,) = capsys.readouterr().out.splitlines()
    assert note.startswith("note:") and HEADLINE in note and "+24.0%" in note
