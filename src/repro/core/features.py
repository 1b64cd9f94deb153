"""Feature extraction from invocation requests (§5.1.2).

Features come from two places:

* the input object's metadata, pre-extracted at object-creation time
  and stored alongside it in the RSDS (``ObjectMeta.user_meta``) so the
  invocation critical path never parses media;
* the function-specific scalar arguments, whose names are known to the
  platform but whose semantics are not — they are passed through
  opaquely (decision trees need no semantic information).

Arguments holding object identifiers (the ``input_ref`` and anything a
tenant annotated as a reference) are excluded: an object name is not a
predictive feature.

Rows are values.  :func:`build_row` is the one builder, for the request
path (:func:`extract_features`) and for offline rows
(:func:`repro.bench.datasets.feature_row`) alike.  It interns each row
by type-exact content (``True`` is not ``1.0``, ``-0.0`` is not
``0.0``, and the key order is part of the row), so the sizing decision,
the invocation record, every training sample and every dataset holding
equal features share one read-only :class:`FeatureRow`.  The intern
table (a :class:`weakref.WeakValueDictionary`) holds its rows weakly: a
row lives exactly as long as something else holds it.
"""

from __future__ import annotations

import weakref
from typing import Any, Collection, Dict, Mapping, Optional

from repro import EMPTY
from repro.faas.records import InvocationRequest
from repro.faas.registry import FunctionSpec
from repro.storage.object_store import ObjectStore

#: Request arguments that are never features (platform-internal).
_EXCLUDED_ARGS = {"refs", "_stage_index"}

#: Feature names by argument name (see :func:`arg_feature`).
_ARG_KEYS: Dict[str, str] = {}


def arg_feature(name: str) -> str:
    """The feature name of request argument ``name``, ``arg_<name>``.

    One string object per name, so the feature rows share their keys."""
    key = _ARG_KEYS.get(name)
    if key is None:
        key = _ARG_KEYS[name] = f"arg_{name}"
    return key


class FeatureRow(dict):
    """One interned feature row: a plain dict to every reader (J48 walks
    it with ``get``, a :class:`~repro.ml.dataset.Dataset` reads its
    columns), shared by every holder of equal content, and so
    read-only.  ``dict(row)`` is a writable copy.  A pickled row is
    interned again when it is loaded."""

    __slots__ = ("__weakref__",)

    def _read_only(self, *args, **kwargs):
        raise TypeError("a FeatureRow is shared and read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return (_interned, (dict(self),))


#: Intern key (see :func:`_interned`) -> the live row with that content.
_ROWS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _kind(value: Any) -> Any:
    """What an intern key holds beside ``value``: its type, or for a
    float zero its type and exact hex (which tells ``-0.0`` from
    ``0.0``)."""
    if isinstance(value, float) and not value:
        return type(value), value.hex()
    return type(value)


def _interned(row: Dict[str, Any]) -> FeatureRow:
    """The live row equal to ``row`` (a finished one), made from ``row``
    if there is none.

    The intern key is the row's names, its values and each value's
    type, so equal keys mean equal names, order, types and values
    (``True`` is not ``1.0``; a NaN matches only the very object).
    Equal floats of one type differ only in a zero's sign, so in a row
    with a falsy value a float zero is keyed by its type and hex in
    place of its type (``-0.0`` is not ``0.0``; no type equals a
    pair)."""
    values = row.values()
    key = (*row, *values, *map(type if all(values) else _kind, values))
    found = _ROWS.get(key)
    if found is None:
        found = _ROWS[key] = FeatureRow(row)
    return found


def build_row(
    tags: Mapping[str, Any],
    args: Mapping[str, Any],
    size: Optional[int] = None,
    ref_args: Collection[str] = (),
) -> FeatureRow:
    """The interned feature row of an input and a request's arguments.

    ``in_size`` (``float(size)``, when given) comes first, then the
    object's scalar tags (a tag named ``in_size`` keeps that place and
    sets its value), then each argument as ``arg_<name>``: a bool as
    itself (a nominal column), any other number as a float, a string as
    itself.  Platform-internal arguments, those named in ``ref_args``
    and non-scalar values (lists, objects) are opaque and skipped."""
    row = {} if size is None else {"in_size": float(size)}
    for name, value in tags.items():
        if isinstance(value, (int, float, str)):
            row[name] = value
    for name, value in args.items():
        if name in _EXCLUDED_ARGS or name in ref_args:
            continue
        if isinstance(value, (bool, str)):
            row[arg_feature(name)] = value
        elif isinstance(value, (int, float)):
            row[arg_feature(name)] = float(value)
    return _interned(row)


def extract_features(
    request: InvocationRequest,
    spec: FunctionSpec,
    store: Optional[ObjectStore] = None,
) -> FeatureRow:
    """Features for one invocation: object metadata + opaque arguments."""
    meta = None
    if store is not None and request.input_ref:
        bucket, _sep, name = request.input_ref.partition("/")
        meta = store.find_meta(bucket, name)
    ref_args = spec.annotations.get("ref_args", ())  # 0-2 names: no set
    if meta is None:
        return build_row(EMPTY, request.args, None, ref_args)
    return build_row(meta.user_meta, request.args, meta.size, ref_args)
