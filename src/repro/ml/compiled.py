"""Compiled decision-tree inference: the ML fast path.

``J48Classifier.predict_one`` historically walked a pointer-chasing
``_Node`` tree, doing one dict lookup, one ``try: float(...)`` and a
handful of attribute loads per level — per row, on the invocation
critical path (§7.1.2).  This module compiles a fitted tree in two
stages — the first once after ``fit()``, the second the first time a
caller predicts through :class:`CompiledTree` itself:

1. **Flatten** the ``_Node`` tree into parallel arrays —
   ``node_feature[i]`` (feature *position* tested at node ``i``, -1
   for a leaf), ``node_threshold[i]`` (numeric cut or ``None``),
   ``node_left[i]``/``node_right[i]`` (numeric children),
   ``node_children[i]`` (``value -> child id`` for nominal splits) and
   ``node_prediction[i]`` (the node's majority class, returned when a
   value is missing/unseen at node ``i``) — plus a *feature codec*
   that turns a row dict into a positional list in one pass (one
   ``dict.get`` per tested feature, numeric coercion hoisted out of
   the walk).

2. **Generate code**: the arrays are emitted as a dedicated Python
   function — numeric coercion per feature up top, then the tree as
   nested ``if value <= threshold`` branches and per-node nominal
   dispatch tables — and ``exec``-compiled.  Prediction is then one
   call into straight-line branchy bytecode: no per-node attribute
   loads, no ``try`` per level, no interpretive walk at all.

Trees deeper than the CPython indentation limit allows (or with
non-finite thresholds, which cannot be spelled as literals) skip stage
2 and use the positional array walk, which is the same for every
semantic purpose — and the arrays, not the generated function, are
what pickles (the function is regenerated on first use after
unpickling, which is how warm-model cache entries travel between
processes).

Predictions are bit-identical to the plain ``_Node`` walk, which lives
on as the test oracle ``tests/ml/reference_tree.py`` — including the
fall-back-to-majority behaviour on missing features, non-numeric
values at numeric nodes and unseen nominal values
(``tests/ml/test_compiled_parity.py`` proves it property-style).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

#: Leaf marker in ``node_feature``.
LEAF = -1

#: Deepest tree the code generator will emit.  CPython's tokenizer
#: refuses more than 100 indentation levels; the encode prologue and
#: dispatch chains use a few, so stay comfortably below.
MAX_CODEGEN_DEPTH = 80


class CompiledTree:
    """A fitted tree flattened into parallel arrays plus a row codec."""

    __slots__ = (
        "feature_names",
        "feature_numeric",
        "node_feature",
        "node_threshold",
        "node_left",
        "node_right",
        "node_children",
        "node_prediction",
        "n_nodes",
        "depth",
        "_codec",
        "_fn",
        "_batch",
        "_generated",
    )

    def __init__(self, root, feature_types: Dict[str, str]):
        self.feature_names: List[str] = []
        self.feature_numeric: List[bool] = []
        self.node_feature: List[int] = []
        self.node_threshold: List[Any] = []
        self.node_left: List[int] = []
        self.node_right: List[int] = []
        self.node_children: List[Any] = []
        self.node_prediction: List[int] = []
        feature_ids: Dict[str, int] = {}

        def feature_id(name: str) -> int:
            fid = feature_ids.get(name)
            if fid is None:
                fid = feature_ids[name] = len(self.feature_names)
                self.feature_names.append(name)
                self.feature_numeric.append(
                    feature_types.get(name) == "numeric"
                )
            return fid

        def emit(node) -> int:
            i = len(self.node_feature)
            self.node_feature.append(LEAF)
            self.node_threshold.append(None)
            self.node_left.append(LEAF)
            self.node_right.append(LEAF)
            self.node_children.append(None)
            self.node_prediction.append(node.prediction)
            return i

        max_depth = 0
        # Iterative DFS: ids are assigned pre-order, children patched in
        # after their subtrees are emitted (no recursion limit issues).
        stack = [(root, emit(root), 0)]
        while stack:
            node, i, d = stack.pop()
            if d > max_depth:
                max_depth = d
            if node.is_leaf:
                continue
            self.node_feature[i] = feature_id(node.feature)
            if node.threshold is not None:
                self.node_threshold[i] = node.threshold
                self.node_left[i] = li = emit(node.left)
                self.node_right[i] = ri = emit(node.right)
                stack.append((node.left, li, d + 1))
                stack.append((node.right, ri, d + 1))
            else:
                table = {}
                for value, child in node.children.items():
                    table[value] = ci = emit(child)
                    stack.append((child, ci, d + 1))
                self.node_children[i] = table
        self.n_nodes = len(self.node_feature)
        self.depth = max_depth
        # Pre-zipped codec: one (name, is_numeric) pass per row.
        self._codec = list(zip(self.feature_names, self.feature_numeric))
        self._defer_codegen()

    def _defer_codegen(self) -> None:
        """Stage 2 runs on the first ``predict``/``predict_one``: the
        invocation path only ever takes the array walk
        (``predict_encoded(encode(row))``), and most fitted trees are
        refitted before anything asks them for a batch."""
        self._fn: Optional[Callable[[Dict[str, Any]], int]] = None
        self._batch: Optional[Callable[[Sequence], List]] = None
        self._generated = False

    def _install_codegen(self) -> None:
        self._generated = True
        compiled = self._codegen()
        if compiled is not None:
            self._fn, self._batch = compiled

    # -- pickling ------------------------------------------------------------
    # The generated functions cannot pickle; the arrays can, and fully
    # determine them.  Warm-model cache entries rely on this round trip.

    def __getstate__(self):
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in ("_fn", "_batch", "_generated")
        }

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
        self._defer_codegen()

    # -- code generation -----------------------------------------------------

    def _emit_body(
        self,
        lines: List[str],
        namespace: Dict[str, Any],
        base_indent: int,
        terminal: str,
    ) -> None:
        """Append the tree's branch code to ``lines``.

        ``terminal`` is a format string with a ``{i}`` placeholder that
        ends a path at node ``i`` (``return _p[{i}]`` for the per-row
        function; append-and-continue for the batch loop).

        Feature fetches are *lazy*: each feature's get + numeric
        coercion (mirroring ``encode``: float() failures become None,
        i.e. missing) is emitted at the first node on the path that
        tests it, so a prediction only ever touches the features its
        own path needs.
        """
        feat = self.node_feature
        thr = self.node_threshold
        numeric = self.feature_numeric
        codec_names = self.feature_names
        # Iterative emit (mirrors the walk): each stack entry is a node
        # id, the indentation its code starts at, and the set of
        # features already fetched on the path leading to it.
        stack: List[Any] = [(0, base_indent, frozenset())]
        while stack:
            entry = stack.pop()
            if isinstance(entry, str):
                lines.append(entry)  # deferred 'else:' / 'elif:' line
                continue
            i, ind, fetched = entry
            pad = " " * ind
            f = feat[i]
            if f < 0:
                lines.append(terminal.format(i=i, pad=pad))
                continue
            if f not in fetched:
                # Plain subscript: a specialized dict load, roughly
                # half the cost of a ``row.get(...)`` method call.  A
                # missing key raises KeyError, which the enclosing
                # except routes through the array walk — the walk's
                # ``get``-based codec maps it to the same per-node
                # majority fallback.
                lines.append(f"{pad}v{f} = row[{codec_names[f]!r}]")
                if numeric[f]:
                    lines.append(f"{pad}if type(v{f}) is not float:")
                    lines.append(f"{pad} try:")
                    lines.append(f"{pad}  v{f} = float(v{f})")
                    lines.append(f"{pad} except (TypeError, ValueError):")
                    lines.append(f"{pad}  v{f} = None")
                fetched = fetched | {f}
            t = thr[i]
            if t is not None:
                # repr(float) round-trips; plain float() also normalises
                # numpy scalars, whose own repr is not a bare literal.
                lines.append(f"{pad}if v{f} <= {float(t)!r}:")
                # LIFO: right subtree is pushed first so the left body
                # is emitted directly under its 'if'.
                stack.append((self.node_right[i], ind + 1, fetched))
                stack.append(f"{pad}else:")
                stack.append((self.node_left[i], ind + 1, fetched))
            else:
                # Nominal: dict lookup keeps exact semantics (equality
                # matching, TypeError on unhashable), then an int
                # dispatch chain over the few observed branch values.
                table = {v: j for j, v in enumerate(self.node_children[i])}
                namespace[f"_t{i}"] = table
                lines.append(f"{pad}_j = _t{i}.get(v{f}, -1)")
                stack.append(
                    f"{pad}else:\n" + terminal.format(i=i, pad=pad + " ")
                )
                children = list(self.node_children[i].values())
                for j in range(len(children) - 1, -1, -1):
                    kw = "if" if j == 0 else "elif"
                    stack.append((children[j], ind + 1, fetched))
                    stack.append(f"{pad}{kw} _j == {j}:")

    def _codegen(self):
        """Emit the tree as two dedicated Python functions — per-row
        and batch — and ``exec``-compile them.

        Returns ``None`` (callers fall back to the array walk) when the
        tree is too deep for CPython's 100-level indentation limit or a
        threshold has no exact source-literal spelling (``repr`` of a
        finite float round-trips; ``inf``/``nan`` do not).

        The tree bodies carry no missing-value checks: a None at a
        numeric node raises TypeError on ``<=``, and the except clause
        re-runs the row through the array walk, which returns that
        node's majority.  Rows with every tested numeric feature
        present (the overwhelmingly common case) pay nothing — a
        CPython try block is free until it raises.  A genuinely
        unhashable nominal value raises TypeError in both the
        generated dispatch and the fallback walk, so it still
        propagates to the caller exactly as the reference walk does.
        """
        if self.depth > MAX_CODEGEN_DEPTH:
            return None
        if any(
            t is not None and not math.isfinite(t) for t in self.node_threshold
        ):
            return None

        namespace: Dict[str, Any] = {}
        # Predictions return through a shared table rather than baked
        # literals so the exact label objects of the reference walk
        # (possibly numpy scalars) come back unchanged.
        namespace["_p"] = self.node_prediction

        lines: List[str] = ["def _tree_predict(row):", " try:"]
        self._emit_body(lines, namespace, 2, "{pad}return _p[{i}]")
        lines.append(" except (KeyError, TypeError):")
        lines.append("  return _fb(row)")

        # The batch variant keeps the row loop inside the generated
        # code: no per-row Python call, no comprehension dispatch.
        lines.append("def _tree_batch(rows):")
        lines.append(" _out = []")
        lines.append(" _a = _out.append")
        lines.append(" for row in rows:")
        lines.append("  try:")
        self._emit_body(
            lines, namespace, 3, "{pad}_a(_p[{i}])\n{pad}continue"
        )
        lines.append("  except (KeyError, TypeError):")
        lines.append("   _a(_fb(row))")
        lines.append(" return _out")

        source = "\n".join(lines)
        exec(compile(source, "<compiled-tree>", "exec"), namespace)
        namespace["_fb"] = self._walk_row
        return namespace["_tree_predict"], namespace["_tree_batch"]

    # -- row codec -----------------------------------------------------------

    def encode(self, row: Dict[str, Any]) -> List[Any]:
        """One positional value per tested feature; numeric coercion
        (mirroring ``float(value)`` at every numeric node, with failures
        mapped to ``None``) happens here, once per row."""
        get = row.get
        values: List[Any] = []
        append = values.append
        for name, numeric in self._codec:
            v = get(name)
            if numeric and type(v) is not float:
                try:
                    v = float(v)
                except (TypeError, ValueError):
                    v = None
            append(v)
        return values

    # -- inference -----------------------------------------------------------

    def predict_encoded(self, values: List[Any]) -> int:
        feat = self.node_feature
        thr = self.node_threshold
        left = self.node_left
        right = self.node_right
        kids = self.node_children
        pred = self.node_prediction
        i = 0
        while True:
            f = feat[i]
            if f < 0:
                return pred[i]
            t = thr[i]
            v = values[f]
            if t is not None:
                if v is None:
                    return pred[i]  # missing/non-numeric: node majority
                i = left[i] if v <= t else right[i]
            else:
                child = kids[i].get(v)
                if child is None:
                    return pred[i]  # unseen nominal value: node majority
                i = child
        raise AssertionError("unreachable")  # pragma: no cover

    def _walk_row(self, row: Dict[str, Any]) -> int:
        """Array-walk fallback — also the generated function's escape
        hatch for rows with missing/uncoercible numeric values."""
        return self.predict_encoded(self.encode(row))

    def predict_one(self, row: Dict[str, Any]) -> int:
        if not self._generated:
            self._install_codegen()
        fn = self._fn
        if fn is not None:
            return fn(row)
        return self.predict_encoded(self.encode(row))

    def predict(self, rows: Sequence[Dict[str, Any]]) -> np.ndarray:
        if not self._generated:
            self._install_codegen()
        batch = self._batch
        if batch is not None:
            return np.asarray(batch(rows))
        walk = self.predict_encoded
        encode = self.encode
        return np.asarray([walk(encode(row)) for row in rows])
