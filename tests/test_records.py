"""Records built by ``tagweaver.records`` behave as frozen dataclasses do.

They are also slotted, cache their hash, and copy and pickle through their
constructor, so that a copy hashes afresh.

Each record class is compared with a frozen ``dataclasses.make_dataclass``
twin whose fields, defaults and compare flags are read from the class's
own source, not from anything the decorator computed.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import functools
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagweaver
from tagweaver import (
    ElementIdentifier, NormalizedValue, TagStatement, TagValue, parse_statechart, records, resolve_element,
)
from tagweaver.statechart import StatechartModel

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(tagweaver.__path__))


def _declared_fields(class_node: ast.ClassDef) -> tuple[tuple[str, bool, bool], ...]:
    """(name, compare, has_default) of each field the class body annotates."""
    declared = []
    for node in class_node.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        compare, has_default = True, node.value is not None
        value = node.value
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "field":
            keywords = {kw.arg: kw.value for kw in value.keywords}
            has_default = "default" in keywords
            if "compare" in keywords:
                compare = ast.literal_eval(keywords["compare"])
        declared.append((node.target.id, compare, has_default))
    return tuple(declared)


def _declared_records() -> dict[type, tuple[tuple[str, bool, bool], ...]]:
    """Every class decorated ``@record`` in the package's source."""
    declared = {}
    for name in MODULES:
        module = importlib.import_module(f"tagweaver.{name}")
        tree = ast.parse((ROOT / "src" / "tagweaver" / f"{name}.py").read_text())
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list
            ):
                declared[getattr(module, node.name)] = _declared_fields(node)
    return declared


DECLARED = _declared_records()
RECORDS = sorted(DECLARED, key=lambda cls: (cls.__module__, cls.__qualname__))


def _twin(cls: type) -> type:
    # The defaults live in the signature of the generated ``__init__``: the
    # class holds a slot under each field's name.
    parameters = inspect.signature(cls.__init__).parameters
    specs = []
    for name, compare, has_default in DECLARED[cls]:
        assert (parameters[name].default is not inspect.Parameter.empty) is has_default
        default = {"default": parameters[name].default} if has_default else {}
        specs.append((name, "object", dataclasses.field(compare=compare, **default)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


TWINS = {cls: _twin(cls) for cls in RECORDS}

# Small domains, so that drawn values are often equal.
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.sampled_from(["", "a", "b"]),
    st.tuples(st.integers(0, 1), st.sampled_from(["a", "b"])),
)


def _record_classes_in_package() -> set[type]:
    found = set()
    for name in MODULES:
        module = importlib.import_module(f"tagweaver.{name}")
        found |= {
            obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and "__record_fields__" in obj.__dict__
        }
    return found


def test_the_package_builds_28_record_classes():
    assert len(RECORDS) == 28
    assert _record_classes_in_package() == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_fields_are_the_annotated_names_in_order(cls):
    assert records.fields(cls) == tuple(name for name, _, _ in DECLARED[cls])
    assert [f.name for f in dataclasses.fields(TWINS[cls])] == list(records.fields(cls))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_record_agrees_with_its_dataclass_twin(cls, data):
    twin, spec = TWINS[cls], DECLARED[cls]
    values = [data.draw(VALUES) for _ in spec]
    others = [value if data.draw(st.booleans()) else data.draw(VALUES) for value in values]
    a, b = cls(*values), cls(*others)
    twin_a, twin_b = twin(*values), twin(*others)

    assert (a == b) is (twin_a == twin_b)
    assert (a != b) is (twin_a != twin_b)
    assert hash(a) == hash(twin_a)
    assert hash(b) == hash(twin_b)
    assert repr(a) == repr(twin_a)
    assert cls(**dict(zip(records.fields(cls), values))) == a

    required = sum(1 for _, _, has_default in spec if not has_default)
    assert repr(cls(*values[:required])) == repr(twin(*values[:required]))

    changes = {name: data.draw(VALUES) for name, _, _ in spec if data.draw(st.booleans())}
    changed = records.replace(a, **changes)
    assert type(changed) is cls
    assert repr(changed) == repr(dataclasses.replace(twin_a, **changes))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_only_compared_fields_decide_equality(cls):
    spec = DECLARED[cls]
    record = cls(*[0] * len(spec))
    for name, compare, _ in spec:
        other = records.replace(record, **{name: 1})
        assert (other == record) is not compare
        assert (hash(other) == hash(record)) is not compare


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_a_record_is_never_equal_to_another_class(cls):
    values = [0] * len(DECLARED[cls])
    record, twin = cls(*values), TWINS[cls](*values)
    assert record.__eq__(twin) is NotImplemented
    assert record != twin
    assert record != tuple(values)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_assignment_and_deletion_raise(cls):
    record = cls(*[0] * len(DECLARED[cls]))
    for name in [*records.fields(cls), "not_a_field"]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert cls(*[0] * len(DECLARED[cls])) == record


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_records_are_slotted_and_only_cached_properties_keep_a_dict(cls):
    record = cls(*[0] * len(DECLARED[cls]))
    cached = any(isinstance(value, functools.cached_property) for value in vars(cls).values())
    assert hasattr(record, "__dict__") is cached
    assert set(records.fields(cls)) <= set(cls.__slots__)
    assert not hasattr(record, "__weakref__")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_a_cached_hash_is_the_hash_of_an_equal_record_built_fresh(cls, data):
    values = [data.draw(VALUES) for _ in DECLARED[cls]]
    record = cls(*values)
    first = hash(record)
    assert hash(record) == first == hash(TWINS[cls](*values))
    assert hash(cls(*values)) == first
    assert record == cls(*values)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_equal_records_that_hash_afresh(cls, round_trip):
    values = [f"v{i}" for i in range(len(DECLARED[cls]))]
    record = cls(*values)
    hash(record)
    copied = round_trip(record)
    assert type(copied) is cls and copied == record and repr(copied) == repr(record)
    assert copied._record_hash is None  # not carried over
    assert hash(copied) == hash(record)
    assert [getattr(copied, name) for name in records.fields(cls)] == values


_VALUE = (
    "NormalizedValue.of_children((('code', NormalizedValue.of_string('E42')),"
    " ('tags', NormalizedValue.of_children((('level', NormalizedValue.of_enum('high')),)))))"
)


def test_an_unpickled_record_finds_its_entry_under_another_hash_seed(tmp_path):
    """Unpickled under another ``PYTHONHASHSEED``, a record's string hashes change; its hash follows."""

    def run(seed: int, code: str) -> str:
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, "-c", "from tagweaver import NormalizedValue\n" + code],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.stderr == ""
        return done.stdout

    data = tmp_path / "value.pickle"
    path = f"pathlib.Path({str(data)!r})"
    run(1, f"import pathlib, pickle\nvalue = {_VALUE}\nhash(value)\n{path}.write_bytes(pickle.dumps(value))")
    assert run(2, (
        f"import pathlib, pickle\nvalue = pickle.loads({path}.read_bytes())\n"
        f"fresh = {_VALUE}\n"
        "print(value == fresh, hash(value) == hash(fresh), {fresh: 'found'}.get(value))"
    )) == "True True found\n"
    assert pickle.loads(data.read_bytes()) == eval(_VALUE, {"NormalizedValue": NormalizedValue})


def test_statechart_index_is_cached_on_the_instance(samples_dir, profile):
    built = StatechartModel("p", "C", (), ())
    assert "element_table" not in built.__dict__
    table = built.element_table
    assert built.__dict__["element_table"] is table
    assert built.element_table is table

    text = (samples_dir / "mobile.sc").read_text()
    model = parse_statechart(text)
    handle = resolve_element(model, ElementIdentifier(ElementIdentifier.QUALIFIED, ("Start",), "Start"), profile=profile)
    assert handle.path == "Start"
    assert model.__dict__["element_table"] is model.element_table
    assert model == parse_statechart(text)
    assert hash(model) == hash(parse_statechart(text))


@pytest.mark.parametrize(
    "shared, fresh",
    [(TagValue.simple, lambda: TagValue(TagValue.SIMPLE)), (NormalizedValue.flag, lambda: NormalizedValue("flag"))],
    ids=["TagValue.simple", "NormalizedValue.flag"],
)
def test_the_simple_value_and_the_flag_are_shared(shared, fresh):
    one, built = shared(), fresh()
    assert shared() is one and built is not one
    assert built == one and hash(built) == hash(one) and repr(built) == repr(one)
    for round_trip in (copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))):
        assert round_trip(one) == one and hash(round_trip(one)) == hash(one)


def test_the_parser_and_the_checker_hand_out_the_shared_instances(golden_tags, chart, schema, profile):
    uses = [tag for item in golden_tags.body if isinstance(item, TagStatement) for tag in item.tag_refs]
    simple = [tag.value for tag in uses if tag.value.kind == TagValue.SIMPLE]
    assert simple and all(value is TagValue.simple() for value in simple)
    _, resolved = tagweaver.check(tagweaver.CheckInput(golden_tags, chart, (schema,), profile))
    flags = [a.value for a in resolved.attachments if a.value.kind == "flag"]
    assert flags and all(value is NormalizedValue.flag() for value in flags)
