"""Reproduction of "OFC: an opportunistic caching system for FaaS
platforms" (EuroSys 2021).

A process loads only the code it runs: the packages whose public names
sit in several submodules (``repro.core``, ``repro.kvcache``,
``repro.ml``, ``repro.workloads``, ``repro.cache``) re-export them
through :func:`lazy_exports`, so ``import repro.kvcache.errors`` does
not compile the cluster, and ``from repro.kvcache import CacheCluster``
imports the module that defines it on that line.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    namespace: Dict[str, Any], table: Dict[str, str]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """A package's public names, resolved on first access (PEP 562).

    ``table`` maps each public name to the module that defines it; a
    leading dot makes the module relative to the package.  Returns
    ``(__all__, __getattr__, __dir__)`` for the package to bind.  The
    first access to a name imports its module and stores the object in
    ``namespace`` (the package's ``globals()``), so every later lookup
    is a plain attribute read."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return list(table), __getattr__, __dir__
