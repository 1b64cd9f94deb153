"""Feature rows are values: one builder, interned by type-exact content.

The request path (``extract_features``) and the offline rows
(``bench.datasets.feature_row``: pretraining, Table 1, Figures 5/6)
build rows with ``core.features.build_row``, which hands out one
read-only dict per distinct row.  The intern table holds its rows
weakly, so it never keeps a row that no record, sample or dataset
holds (ROADMAP item 17: a run's memory is its state).
"""

from __future__ import annotations

import copy
import gc
import pickle
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import model_cache
from repro.bench.datasets import feature_row
from repro.bench.envs import build_ofc_env, pretrain_function
from repro.core import features
from repro.core.features import build_row, extract_features, FeatureRow
from repro.faas.records import InvocationRequest
from repro.ml.dataset import Dataset
from repro.sim import Kernel
from repro.storage import ObjectStore, SWIFT_PROFILE
from repro.workloads.faasload import FaaSLoad, TenantSpec
from tests.core.test_persistor_features import make_spec


def test_a_bool_argument_and_a_bool_tag_are_nominal_online_and_offline():
    tags = {"in_size": 5000.0, "width": 640.0, "alpha": True, "format": "png"}
    media = SimpleNamespace(features=lambda: dict(tags))
    args = {"sharpen": True, "sigma": 2, "mode": "fast"}
    kernel = Kernel()
    store = ObjectStore(kernel, profile=SWIFT_PROFILE)
    store.create_bucket("inputs")
    kernel.run_process(store.put("inputs", "img", None, 5000, user_meta=tags))
    request = InvocationRequest(
        function="f", tenant="t", args=args, input_ref="inputs/img"
    )

    online = extract_features(request, make_spec(), store)
    offline = feature_row(media, args)
    assert online is offline
    assert list(online) == [
        "in_size", "width", "alpha", "format", "arg_sharpen", "arg_sigma", "arg_mode",
    ]
    assert online["arg_sharpen"] is True
    assert online["alpha"] is True
    assert type(online["arg_sigma"]) is float

    other = feature_row(media, {**args, "sharpen": False})
    dataset = Dataset([online, other], [0, 1])
    assert dataset.feature_type("arg_sharpen") == "nominal"
    assert dataset.feature_type("alpha") == "nominal"
    assert dataset.feature_type("arg_sigma") == "numeric"


def test_rows_are_interned_by_type_exact_content_in_order():
    one = build_row({"x": 1.0, "y": "a"}, {})
    assert build_row({"x": 1.0, "y": "a"}, {}) is one
    assert build_row({"x": 1.0}, {}, ref_args=("y",)) is not one
    # Equal as dicts, but not the same row.
    for other in (
        build_row({"x": True, "y": "a"}, {}),
        build_row({"x": 1, "y": "a"}, {}),
        build_row({"y": "a", "x": 1.0}, {}),
    ):
        assert other == one and other is not one
    zero = build_row({"x": 0.0}, {})
    negative_zero = build_row({"x": -0.0}, {})
    assert negative_zero is not zero
    assert str(negative_zero["x"]) == "-0.0"
    assert build_row({"x": -0.0}, {}) is negative_zero
    assert build_row({}, {"b": True}) is not build_row({}, {"b": 1.0})
    assert build_row({"z": 0.0}, {}) is build_row({"z": 0.0}, {})

    class Real(float):
        pass

    for value in (0.0, -0.0, 2.5):
        assert build_row({"x": Real(value)}, {}) is not build_row({"x": value}, {})


def test_drawn_values_are_finished_before_they_are_interned():
    """An argument drawn as an int is the float row, a tag kept as an
    int is not, and skipped values leave the row the rest would make."""
    assert build_row({}, {"x": 3}) is build_row({}, {"x": 3.0})
    assert build_row({"arg_x": 3}, {}) is not build_row({}, {"x": 3})
    assert build_row({"k": 3}, {})["k"] == 3
    assert type(build_row({"k": 3}, {})["k"]) is int
    plain = build_row({"w": 1.0}, {"x": 1.0}, size=5)
    assert build_row({"in_size": [5], "w": 1.0}, {"x": 1.0}, size=5) is plain
    assert build_row({"w": 1.0}, {"x": 1.0, "l": [1], "refs": ["a"]}, size=5) is plain
    assert list(plain) == ["in_size", "w", "arg_x"]
    # A skipped tag gives up its place to the argument of the same name.
    shadowed = build_row({"arg_x": [1], "w": 2.5}, {"x": 1.0})
    assert list(shadowed) == ["w", "arg_x"]
    assert shadowed is build_row({"w": 2.5}, {"x": 1.0})


def test_a_row_is_read_only_and_loads_back_as_itself():
    row = build_row({"in_size": 10.0, "format": "png"}, {"sigma": 2.0})
    for write in (
        lambda: row.__setitem__("x", 1.0),
        lambda: row.__delitem__("format"),
        lambda: row.update(x=1.0),
        lambda: row.setdefault("x", 1.0),
        lambda: row.pop("format"),
        lambda: row.popitem(),
        lambda: row.clear(),
    ):
        with pytest.raises(TypeError):
            write()
    assert row == {"in_size": 10.0, "format": "png", "arg_sigma": 2.0}
    assert pickle.loads(pickle.dumps(row)) is row
    assert copy.copy(row) is row and copy.deepcopy(row) is row
    writable = dict(row)
    writable["x"] = 1.0
    # Pickles share one entry per row, and load as the live rows.
    rows = pickle.loads(pickle.dumps([row, row, build_row({"k": "v"}, {})]))
    assert rows[0] is row and rows[1] is row
    assert type(rows[2]) is FeatureRow


def reference_row(tags, args, size=None, ref_args=()):
    """The builder's rule spelt out: ``in_size``, scalar tags, then the
    arguments with bools and strings kept and other numbers as floats."""
    row = {} if size is None else {"in_size": float(size)}
    for name, value in tags.items():
        if isinstance(value, (int, float, str)):
            row[name] = value
    for name, value in args.items():
        if name in ("refs", "_stage_index") or name in ref_args:
            continue
        if isinstance(value, (bool, str)):
            row[f"arg_{name}"] = value
        elif isinstance(value, (int, float)):
            row[f"arg_{name}"] = float(value)
    return row


def exact(row):
    """Type-exact content: names in order, value types, and reprs
    (which tell ``-0.0`` from ``0.0``)."""
    return tuple((name, type(value), repr(value)) for name, value in row.items())


VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 0, 1, 3, True, False, "a", "1.0", [1]]),
    st.floats(allow_nan=False, min_value=-4, max_value=4),
)
NAMES = st.sampled_from(["in_size", "w", "arg_x", "x", "refs"])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.dictionaries(NAMES, VALUES, max_size=4),
            st.dictionaries(NAMES, VALUES, max_size=3),
            st.sampled_from([None, 0, 5]),
        ),
        min_size=2,
        max_size=6,
    )
)
def test_the_builder_follows_its_rule_and_shares_exactly_equal_rows(draws):
    rows = [build_row(tags, args, size) for tags, args, size in draws]
    for row, (tags, args, size) in zip(rows, draws):
        assert exact(row) == exact(reference_row(tags, args, size))
    for a in rows:
        for b in rows:
            assert (a is b) == (exact(a) == exact(b))


def _table_rows() -> list:
    """The rows the intern table refers to (it holds them weakly; a
    dead row's entry is gone with it)."""
    return list(features._ROWS.values())


def _held_rows(*holders) -> dict:
    """id -> row over every row the given records and samples hold."""
    return {
        id(item.features): item.features
        for group in holders
        for item in group
        if isinstance(item.features, FeatureRow)
    }


def test_the_intern_table_is_bounded_by_its_holders():
    """During an OFC run the table holds no row that a live record, an
    in-flight invocation or a training sample does not hold, and after
    it, dropping the records, the trainer and the deployment empties
    it of every row the run made."""
    gc.collect()
    before = _table_rows()  # other tests' live rows
    model_cache.clear()
    ofc = build_ofc_env(seed=0)
    platform = ofc.platform
    load = FaaSLoad(ofc.kernel, platform, ofc.store, truth_seed=0)
    load.prepare(
        [
            TenantSpec(function, function, mean_interval_s=1.0, n_inputs=3)
            for function in ("wand_blur", "wand_rotate", "wand_sepia")
        ]
    )
    for runtime in load.tenants:
        pretrain_function(
            ofc, runtime.model, runtime.descriptors, tenant=runtime.spec.tenant_id
        )
    in_flight, keys = {}, set()
    policy = platform.sizing_policy

    def tracking_policy(request, spec, record):
        decision = yield from policy(request, spec, record)
        in_flight[id(record)] = SimpleNamespace(features=decision.features)
        return decision

    platform.sizing_policy = tracking_policy
    kept, made, checks = [], [], [0]

    def on_completion(record):
        in_flight.pop(id(record), None)
        keys.add(record.request.key)
        assert type(record.features) is FeatureRow
        made.append(weakref.ref(record.features))
        if record.request.request_id % 3 == 0:
            kept.append(record)  # the rest live on only in a sample
        if len(made) % 97 == 0:
            gc.collect()
            samples = [
                sample
                for key in keys
                for sample in ofc.trainer.models_for(key).samples
            ]
            held = _held_rows(kept, in_flight.values(), samples, [record], before_ns)
            table = {id(row) for row in _table_rows()}
            assert table <= set(held), len(table - set(held))
            checks[0] += 1

    before_ns = [SimpleNamespace(features=row) for row in before]
    platform.completion_listeners.append(on_completion)
    load.run(120.0)
    ofc.kernel.run(until=ofc.kernel.now + 60.0)
    assert not in_flight
    assert checks[0] >= 3
    model_cache.clear()

    run_rows = {id(ref()) for ref in made if ref() is not None}
    assert len(run_rows) < len(made) / 2
    del ofc, platform, load, kept, on_completion, tracking_policy, policy
    gc.collect()
    before_ids = {id(row) for row in before}
    assert all(ref() is None or id(ref()) in before_ids for ref in made)
    assert len(features._ROWS) == len(before)
