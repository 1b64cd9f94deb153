"""Shared helpers for the benchmark suite.

Every paper-artifact benchmark draws one table of
:data:`repro.bench.artifacts.TABLES` at full size, prints it, and writes
it to ``results/<stem>.txt`` so a run leaves artifacts behind — the
text ``repro <artifact>`` prints.  Absolute numbers are not expected to
match the paper's testbed; assertions check the *shape* (who wins, rough
factors, where crossovers fall).
"""

import pathlib

from repro.bench.artifacts import TABLES

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def save_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n[saved to results/{name}.txt]")


def draw(benchmark, stem: str):
    """Time, save and return (for the shape assertions) the driver
    result behind table ``stem``."""
    result, text = benchmark.pedantic(TABLES[stem].draw, rounds=1, iterations=1)
    save_result(stem, text)
    return result
