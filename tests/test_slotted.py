"""``repro.slotted`` and the records it rebuilds.

A ``@slotted`` dataclass must behave like its plain twin everywhere the
code base (and pickle, copy and ``dataclasses``) touches it, while its
instances carry no ``__dict__``.  The helper's own tests need neither
pytest nor numpy, so they also run as a script on the oldest supported
Python::

    PYTHONPATH=src python3.9 tests/test_slotted.py
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import weakref
from dataclasses import dataclass, field
from typing import Dict, List

from repro import slotted


def _counter() -> Dict[str, int]:
    return {"n": 0}


@dataclass
class Plain:
    name: str
    size: int = 3
    tags: List[str] = field(default_factory=list)
    meta: Dict[str, int] = field(default_factory=_counter)
    ratio: float = 0.5

    #: A class attribute that is not a field.
    kind = "twin"

    @property
    def double(self) -> int:
        return 2 * self.size

    def grow(self, by: int) -> None:
        self.size += by


@slotted
@dataclass
class Slotted:
    name: str
    size: int = 3
    tags: List[str] = field(default_factory=list)
    meta: Dict[str, int] = field(default_factory=_counter)
    ratio: float = 0.5

    kind = "twin"

    @property
    def double(self) -> int:
        return 2 * self.size

    def grow(self, by: int) -> None:
        self.size += by


@slotted(weakref=True)
@dataclass
class WeakSlotted:
    name: str
    size: int = 3


def _twins(*args, **kwargs):
    return Plain(*args, **kwargs), Slotted(*args, **kwargs)


def _raises(exc_type, call) -> None:
    try:
        call()
    except exc_type:
        return
    raise AssertionError(f"expected {exc_type.__name__}")


def test_helper_init_defaults_match_the_plain_twin():
    plain, slot = _twins("a")
    assert dataclasses.astuple(slot) == dataclasses.astuple(plain)
    plain, slot = _twins("b", 7, ["x"], ratio=0.25)
    assert dataclasses.astuple(slot) == dataclasses.astuple(plain)
    assert slot.double == plain.double == 14
    slot.grow(1)
    assert slot.size == 8
    assert Slotted.kind == slot.kind == "twin"


def test_helper_default_factories_are_independent():
    first, second = Slotted("a"), Slotted("b")
    assert first.tags is not second.tags
    assert first.meta is not second.meta
    first.tags.append("x")
    first.meta["n"] += 1
    assert second.tags == [] and second.meta == {"n": 0}


def test_helper_dataclass_functions_match_the_plain_twin():
    plain, slot = _twins("a", 5, ["x"])
    assert [f.name for f in dataclasses.fields(Slotted)] == [
        f.name for f in dataclasses.fields(Plain)
    ]
    assert dataclasses.is_dataclass(slot)
    assert dataclasses.asdict(slot) == dataclasses.asdict(plain)
    replaced = dataclasses.replace(slot, size=9)
    assert type(replaced) is Slotted
    assert dataclasses.asdict(replaced) == dataclasses.asdict(
        dataclasses.replace(plain, size=9)
    )
    assert replaced.tags is slot.tags  # replace is shallow, as for Plain


def test_helper_eq_and_repr_match_the_plain_twin():
    plain, slot = _twins("a", 5, ["x"])
    assert slot == Slotted("a", 5, ["x"])
    assert slot != Slotted("a", 6, ["x"])
    assert slot != plain  # different classes, as between two dataclasses
    assert repr(slot) == repr(plain).replace("Plain", "Slotted", 1)
    assert Slotted.__hash__ is None  # eq without frozen: unhashable


def test_helper_pickle_and_copy_round_trips():
    slot = Slotted("a", 5, ["x"], {"n": 2})
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(slot, protocol=protocol))
        assert type(back) is Slotted and back == slot
    shallow = copy.copy(slot)
    assert shallow == slot and shallow is not slot
    assert shallow.tags is slot.tags
    deep = copy.deepcopy(slot)
    assert deep == slot and deep.tags is not slot.tags


def test_helper_instances_have_no_dict():
    slot = Slotted("a")
    assert not hasattr(slot, "__dict__")
    assert Slotted.__slots__ == ("name", "size", "tags", "meta", "ratio")
    assert Slotted.__qualname__ == "Slotted"

    def undeclared():
        slot.colour = "red"

    _raises(AttributeError, undeclared)
    _raises(TypeError, lambda: weakref.ref(slot))


def test_helper_weakref_slot_is_opt_in():
    weak = WeakSlotted("a")
    assert not hasattr(weak, "__dict__")
    ref = weakref.ref(weak)
    assert ref() is weak
    del weak
    assert ref() is None


def test_helper_rejects_a_class_with_slots_or_no_fields():
    @dataclass
    class Declared:
        __slots__ = ("x",)
        x: int

    _raises(TypeError, lambda: slotted(Declared))
    _raises(TypeError, lambda: slotted(Plain.grow))


def _records():
    """One instance of every record the simulator rebuilds with
    ``@slotted`` (per invocation, per stored object, per cached key),
    plus the invoker's slotted ``InvocationContext``."""
    from repro.core.trainer import TrainingSample
    from repro.faas.invoker import InvocationContext
    from repro.faas.pipeline import PipelineRecord, StageRecord
    from repro.faas.platform import SizingDecision
    from repro.faas.records import InvocationRecord, InvocationRequest, Phases
    from repro.kvcache.coordinator import Placement
    from repro.kvcache.objects import CacheObject
    from repro.storage.meta import ObjectMeta, StoredObject

    request = InvocationRequest(function="f", tenant="t")
    record = InvocationRecord(request=request)
    meta = ObjectMeta("inputs", "in")
    return record, [
        request,
        Phases(),
        record,
        meta,
        StoredObject(meta),
        CacheObject("inputs/in", None, 1),
        Placement("n0", ("n1",), 1),
        TrainingSample({}, 0, 0),
        SizingDecision(64.0),
        StageRecord("f", 0.0, 1.0),
        PipelineRecord("p", "p-1", 0.0),
        InvocationContext(None, record, None, None),
    ]


def test_converted_records_have_no_instance_dict():
    record, instances = _records()
    assert len({type(obj) for obj in instances}) == len(instances)
    for obj in instances:
        name = type(obj).__name__
        assert not hasattr(obj, "__dict__"), name

        def undeclared():
            obj.undeclared_attribute = 1

        _raises(AttributeError, undeclared)
        if obj is record:
            assert weakref.ref(obj)() is obj
        else:
            # Only InvocationRecord pays for a weakref slot.
            _raises(TypeError, lambda: weakref.ref(obj))
        if dataclasses.is_dataclass(obj):
            assert pickle.loads(pickle.dumps(obj)) == obj, name
            assert copy.copy(obj) == obj, name


if __name__ == "__main__":
    helper_tests = [
        test
        for name, test in sorted(globals().items())
        if name.startswith("test_helper_")
    ]
    for test in helper_tests:
        test()
    print(f"{len(helper_tests)} helper tests passed")
