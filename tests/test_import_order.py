"""Every package imports first, in a fresh interpreter.

``repro.core.cache_agent`` imports ``repro.kvcache.cluster``, and the
cluster derives from the backend contract, so the contract must live
where ``repro.kvcache`` can import it without pulling in ``repro.cache``
or ``repro.core`` — or whichever of them a process imports first would
meet the other half-initialised.  A package resolves its exports on
use, so each entry point is imported and every name in its ``__all__``
read.  One subprocess per entry point, since a module imported once
stays imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

SCRIPT = """
import sys
import {module} as package
for name in getattr(package, "__all__", ()):
    getattr(package, name)
print(" ".join(name for name in sys.modules if name.startswith("repro.")))
"""


@pytest.mark.parametrize(
    "module",
    ["repro.kvcache", "repro.cache", "repro.core", "repro.faults", "repro.bench.grid"],
)
def test_package_imports_first(module):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(module=module)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    if module == "repro.kvcache":
        packages = {name.split(".")[1] for name in done.stdout.split()}
        assert not packages & {"cache", "core"}, sorted(packages)
