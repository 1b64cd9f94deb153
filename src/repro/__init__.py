"""Reproduction of "OFC: an opportunistic caching system for FaaS
platforms" (EuroSys 2021).

A process loads only the code it runs: the packages whose public names
sit in several submodules (``repro.core``, ``repro.kvcache``,
``repro.ml``, ``repro.workloads``, ``repro.cache``) re-export them
through :func:`lazy_exports`, so ``import repro.kvcache.errors`` does
not compile the cluster, and ``from repro.kvcache import CacheCluster``
imports the module that defines it on that line.

The records built per invocation or per stored object are dataclasses
rebuilt by :func:`slotted`, so an instance holds its fields in slots
rather than in a ``__dict__`` of its own, and a mapping field that most
of them leave empty shares :data:`EMPTY` instead of an empty dict each.
"""

from __future__ import annotations

import copyreg
import dataclasses
import importlib
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Type, TypeVar

_T = TypeVar("_T")

#: One shared, read-only empty mapping: an object's tags, a record's
#: features and a function's arguments when there are none.
EMPTY: Mapping[str, Any] = MappingProxyType({})


def _read_only(mapping: Dict[str, Any]) -> Mapping[str, Any]:
    """Rebuild a pickled mapping proxy; an empty one is EMPTY again."""
    return MappingProxyType(mapping) if mapping else EMPTY


# A mapping proxy does not pickle by itself; a record holding EMPTY must.
copyreg.pickle(MappingProxyType, lambda proxy: (_read_only, (dict(proxy),)))


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


def slotted(cls: Optional[Type[_T]] = None, *, weakref: bool = False) -> Any:
    """Rebuild a dataclass with one ``__slots__`` entry per field.

    ``dataclass(slots=True)`` needs Python 3.10 and its ``weakref_slot``
    3.11; this does the same for every supported version.  Stack it
    above ``@dataclass`` (``@slotted`` or ``@slotted(weakref=True)``).
    Like CPython's ``dataclasses._add_slots`` it builds a new class from
    the old one's body minus the field defaults (a class attribute may
    not share a slot's name; the generated ``__init__`` keeps its own
    references to them) and minus the ``__dict__`` and ``__weakref__``
    descriptors.  ``weakref=True`` adds a ``__weakref__`` slot, which
    every instance then pays for.  The class's bases must carry no
    slots of their own."""

    def rebuild(cls: Type[_T]) -> Type[_T]:
        if "__slots__" in cls.__dict__:
            raise TypeError(f"{cls.__name__} already specifies __slots__")
        names = tuple(f.name for f in dataclasses.fields(cls))
        body = {
            key: value
            for key, value in cls.__dict__.items()
            if key not in names and key not in ("__dict__", "__weakref__")
        }
        body["__slots__"] = names + (("__weakref__",) if weakref else ())
        new = type(cls)(cls.__name__, cls.__bases__, body)
        new.__qualname__ = cls.__qualname__
        return new

    return rebuild if cls is None else rebuild(cls)
