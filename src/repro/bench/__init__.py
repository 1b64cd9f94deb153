"""Experiment drivers for the paper's tables and figures.

Each module computes one or more evaluation artifacts;
:mod:`repro.bench.artifacts` defines every artifact once (driver, sizes,
tables, ``results/`` file), and both ``repro <artifact>`` and the
``benchmarks/`` tree draw from it.

| Paper artifact | Driver |
|----------------|--------------------------------------|
| Figure 2       | :mod:`repro.bench.fig2`              |
| Figures 3, 7   | :mod:`repro.bench.etl`               |
| Table 1, §7.1.1 | :mod:`repro.bench.table1`           |
| Figure 5       | :mod:`repro.bench.fig5`              |
| Figure 6       | :mod:`repro.bench.fig6`              |
| §7.1.3         | :mod:`repro.bench.maturation`        |
| Figure 8       | :mod:`repro.bench.fig8`              |
| Figures 9, 10, Table 2 | :mod:`repro.bench.macro`     |
| beyond: tenants, cachewars, chaos | :mod:`repro.bench.grid` |
| §7.6 availability: faults, run    | :mod:`repro.bench.grid` |

Sweeps fan their independent cells across processes via
:mod:`repro.bench.runner`.  The simulator's own speed is measured by
``perf/run.py``, not here: :mod:`repro.bench.trajectory` (``repro
perf``) only records in ``BENCH_perf.json`` what that measured.
"""
