"""Experiment drivers for the paper's tables and figures.

Each module reproduces one evaluation artifact; the ``benchmarks/``
tree wraps these drivers in pytest-benchmark targets, and the
``examples/`` scripts reuse them for demonstrations.

| Paper artifact | Driver |
|----------------|--------------------------------------|
| Figure 2       | :mod:`repro.bench.fig2`              |
| Figure 3       | :mod:`repro.bench.etl`               |
| Table 1        | :mod:`repro.bench.table1`            |
| Figure 5       | :mod:`repro.bench.fig5`              |
| Figure 6       | :mod:`repro.bench.fig6`              |
| §7.1.3         | :mod:`repro.bench.maturation`        |
| Figure 7       | :mod:`repro.bench.etl`               |
| Figure 8       | :mod:`repro.bench.fig8`              |
| Figure 9, Table 2 | :mod:`repro.bench.macro`          |
| Figure 10      | :mod:`repro.bench.fig10`             |
| beyond: tenants, cachewars, chaos | :mod:`repro.bench.grid` |
| §7.6 availability: faults, run    | :mod:`repro.bench.grid` |

Sweeps fan their independent cells across processes via
:mod:`repro.bench.runner`.  The simulator's own speed is measured by
``perf/run.py``, not here: :mod:`repro.bench.trajectory` (``repro
perf``) only records in ``BENCH_perf.json`` what that measured.
"""

from repro.bench.envs import (
    BaselineEnv,
    build_ofc_env,
    build_owk_redis_env,
    build_owk_swift_env,
)
from repro.bench.runner import cell_seed, CellOutcome, run_cells, run_grid

__all__ = [
    "BaselineEnv",
    "CellOutcome",
    "build_ofc_env",
    "build_owk_redis_env",
    "build_owk_swift_env",
    "cell_seed",
    "run_cells",
    "run_grid",
]
