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
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.faas.records import InvocationRequest
from repro.faas.registry import FunctionSpec
from repro.storage.object_store import ObjectStore

#: Request arguments that are never features (platform-internal).
_EXCLUDED_ARGS = {"refs", "_stage_index"}

#: Feature names by argument name (see :func:`arg_feature`).
_ARG_KEYS: Dict[str, str] = {}


def arg_feature(name: str) -> str:
    """The feature name of request argument ``name``, ``arg_<name>``.

    One string object per name, so the features dicts an OFC run keeps
    (one per invocation, one per training sample) share their keys."""
    key = _ARG_KEYS.get(name)
    if key is None:
        key = _ARG_KEYS[name] = f"arg_{name}"
    return key


def extract_features(
    request: InvocationRequest,
    spec: FunctionSpec,
    store: Optional[ObjectStore] = None,
) -> Dict[str, Any]:
    """Features for one invocation: object metadata + opaque arguments."""
    features: Dict[str, Any] = {}
    if store is not None and request.input_ref:
        bucket, _sep, name = request.input_ref.partition("/")
        if store.contains(bucket, name):
            meta = store.peek_meta(bucket, name)
            features["in_size"] = float(meta.size)
            for key, value in meta.user_meta.items():
                if isinstance(value, (int, float, bool, str)):
                    features[key] = value
    ref_args = spec.annotations.get("ref_args", ())  # 0-2 names: no set
    for name, value in request.args.items():
        if name in _EXCLUDED_ARGS or name in ref_args:
            continue
        if isinstance(value, (int, float)):
            features[arg_feature(name)] = float(value)
        elif isinstance(value, (str, bool)):
            features[arg_feature(name)] = value
        # Anything else (lists, objects) is opaque and skipped.
    return features
