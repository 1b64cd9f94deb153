"""The repository benchmark (see ``perf/README.md`` and ``BENCHMARK.json``).

Importing the package puts the repository's ``src/`` directory on
``sys.path`` so ``repro`` is importable without ``PYTHONPATH=src``: the
benchmark command in ``BENCHMARK.json`` may name no path outside
``perf/``.  In a directory that holds only the benchmark's own files
the import fails, and so does every entry point.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if not os.path.isdir(os.path.join(SRC, "repro")):
    raise ImportError(
        f"the benchmark measures the program under {SRC!r}, which is missing"
    )
if SRC not in sys.path:
    sys.path.insert(0, SRC)
