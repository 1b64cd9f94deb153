"""Function registry (OpenWhisk's CouchDB-backed function metadata).

The registry holds the deployed function specs.  The paper also keeps
each function's memory model in CouchDB, next to its metadata (§5.1);
here the models live with :class:`repro.core.trainer.ModelTrainer`,
which is the only reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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

    @cached_property
    def key(self) -> str:
        """``tenant/name``, built once: a spec is static, and the sizing
        decision and sandbox lookup of every invocation read it."""
        return f"{self.tenant}/{self.name}"


class FunctionRegistry:
    """All deployed functions."""

    def __init__(self):
        self._functions: Dict[str, FunctionSpec] = {}

    def register(self, spec: FunctionSpec) -> None:
        self._functions[spec.key] = spec

    def get(self, tenant: str, name: str) -> FunctionSpec:
        try:
            return self._functions[f"{tenant}/{name}"]
        except KeyError:
            raise NoSuchFunction(f"{tenant}/{name}") from None

    def __contains__(self, key: str) -> bool:
        return key in self._functions
