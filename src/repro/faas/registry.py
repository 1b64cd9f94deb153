"""Function registry (OpenWhisk's CouchDB-backed function metadata).

Besides the function specs themselves, the registry stores per-function
ML model blobs: the paper keeps each function's memory model in
OpenWhisk's CouchDB so that fetching a function's metadata also fetches
its model (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.faas.errors import NoSuchFunction


@dataclass
class FunctionSpec:
    """Static description of one deployed function.

    ``body`` is the function's code: a callable taking an invocation
    context (see :class:`repro.faas.invoker.InvocationContext`) and
    returning a simulation generator.
    """

    name: str
    tenant: str
    body: Callable[..., Any]
    #: Memory the tenant booked (MB); the sandbox default.
    booked_memory_mb: float = 512.0
    #: Input data category, used for feature extraction ("image",
    #: "audio", "video", "text", or None).
    input_kind: Optional[str] = None
    #: Names of the function-specific scalar arguments.
    arg_names: List[str] = field(default_factory=list)
    #: Free-form annotations (e.g. which argument holds the object id).
    annotations: Dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.tenant}/{self.name}"


class FunctionRegistry:
    """All deployed functions plus their stored ML models."""

    def __init__(self):
        self._functions: Dict[str, FunctionSpec] = {}
        self._models: Dict[str, Dict[str, Any]] = {}

    def register(self, spec: FunctionSpec) -> None:
        self._functions[spec.key] = spec

    def get(self, tenant: str, name: str) -> FunctionSpec:
        try:
            return self._functions[f"{tenant}/{name}"]
        except KeyError:
            raise NoSuchFunction(f"{tenant}/{name}") from None

    def __contains__(self, key: str) -> bool:
        return key in self._functions

    def all_functions(self) -> List[FunctionSpec]:
        return list(self._functions.values())

    # -- model storage (CouchDB analog) ------------------------------------

    def store_model(self, function_key: str, kind: str, model: Any) -> None:
        """Persist a trained model blob under (function, kind)."""
        if function_key not in self._functions:
            raise NoSuchFunction(function_key)
        self._models.setdefault(function_key, {})[kind] = model

    def load_model(self, function_key: str, kind: str) -> Optional[Any]:
        return self._models.get(function_key, {}).get(kind)
