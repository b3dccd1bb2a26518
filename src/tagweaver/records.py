"""Frozen record classes, built without :mod:`dataclasses`.

``@record`` gives a class what ``@dataclass(frozen=True)`` gives it, with
no evaluated annotation: every ``tagweaver`` run is a fresh process, and the
dataclass machinery (with the ``inspect`` import it brings) was about a
quarter of its import time.

The class is rebuilt with ``__slots__``: one slot per field, one for the
cached hash, and an instance ``__dict__`` only where the body uses
``cached_property``.  Its methods come from templates over placeholder
fields ``_0``, ``_1``, ...: ``__init__`` and ``__reduce__`` from one per
field count, ``__eq__`` and ``__hash__`` from one per count of compared
fields.  A process compiles each template once (code compiled at run time
is never cached in ``__pycache__``, and one ``exec`` per class cost every
process 7-10 ms), and each class gets a copy of its code with the field
names put in (``CodeType.replace``): the bytecode that an ``exec`` of its
own would give.  ``__init__`` stores each field
through its slot's descriptor, and the field defaults live in its
signature.  A record's hash is computed on first use and kept, since
nested records (values inside values, identifiers in memo keys) are hashed
again and again.  Copies and pickles go through the constructor, so they
hash afresh.

The parsers and the checker call record classes positionally.  A type
called with keywords first packs them into a dict, which ``type.__call__``
then unpacks into ``__init__``: on CPython 3.11 that makes an
``Attachment`` cost 1.07 µs with keywords against 0.72 µs positionally,
and a ``TagUse`` 0.78 against 0.53 µs, paid for every record of a load
and a check.  A record with no field of its own to vary (a simple tag
value, a flag) is one shared instance: records are frozen.
"""

from __future__ import annotations

from functools import cache, cached_property  # loaded by ``re`` already
from types import CodeType, FunctionType

__all__ = ["record", "field", "fields", "replace"]

_MISSING = object()


class field:
    """Declare a field's default, or leave the field out of ``==`` and ``hash``."""

    __slots__ = ("default", "compare")

    def __init__(self, *, default: object = _MISSING, compare: bool = True) -> None:
        self.default = default
        self.compare = compare


def fields(cls_or_record) -> tuple[str, ...]:
    """The field names of a record class or instance, in declaration order."""
    return cls_or_record.__record_fields__


def replace(obj, /, **changes):
    """A copy of the record ``obj`` with the named fields replaced."""
    for name in obj.__record_fields__:
        changes.setdefault(name, getattr(obj, name))
    return obj.__class__(**changes)


def _repr(self) -> str:
    args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__record_fields__)
    return f"{self.__class__.__qualname__}({args})"


def _setattr(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _compiled(source: str) -> dict[str, CodeType]:
    """The code of each function that ``source`` defines, by name."""
    module = compile(source, "<record template>", "exec")
    return {code.co_name: code for code in module.co_consts if isinstance(code, CodeType)}


@cache
def _construct(count: int) -> dict[str, CodeType]:
    # ``__init__`` and ``__reduce__`` of ``count`` fields ``_0``, ``_1``, ...
    params = "".join(f", _{i}" for i in range(count))
    stores = "".join(f"    _s{i}(self, _{i})\n" for i in range(count))
    values = "".join(f"self._{i}," for i in range(count))
    return _compiled(
        f"def __init__(self{params}):\n{stores}    _set_hash(self, None)\n"
        f"def __reduce__(self):\n    return self.__class__, ({values})\n"
    )


@cache
def _compare(count: int) -> dict[str, CodeType]:
    # ``__eq__`` and ``__hash__`` over ``count`` compared fields ``_0``, ``_1``, ...
    key = "".join(f"self._{i}," for i in range(count))
    other_key = "".join(f"other._{i}," for i in range(count))
    return _compiled(
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({key}) == ({other_key})\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        "    value = self._record_hash\n"
        "    if value is None:\n"
        f"        value = hash(({key}))\n"
        "        _set_hash(self, value)\n"
        "    return value\n"
    )


def record(cls: type) -> type:
    """A frozen, slotted record class over the fields that the body of ``cls`` annotates."""
    body = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    names, defaults, compared = [], [], []
    for name in body.get("__annotations__", {}):
        default, compare = body.pop(name, _MISSING), True
        if isinstance(default, field):
            default, compare = default.default, default.compare
        if default is not _MISSING:
            defaults.append(default)
        elif defaults:
            raise TypeError(f"non-default field {name!r} follows a default field")
        names.append(name)
        if compare:
            compared.append(name)
    namespace: dict[str, object] = {}  # the methods' globals: each field's slot setter
    for templates, fields_of in ((_construct, names), (_compare, compared)):
        rename = {f"_{i}": name for i, name in enumerate(fields_of)}
        for method, code in templates(len(fields_of)).items():
            code = code.replace(co_varnames=tuple(rename.get(n, n) for n in code.co_varnames),
                                co_names=tuple(rename.get(n, n) for n in code.co_names))
            argdefs = tuple(defaults) if method == "__init__" and defaults else None
            function = body[method] = FunctionType(code, namespace, method, argdefs)
            function.__qualname__ = f"{cls.__qualname__}.{method}"
    cached = any(isinstance(value, cached_property) for value in body.values())
    body.update(
        __slots__=(*names, "_record_hash", *(("__dict__",) if cached else ())),
        __qualname__=cls.__qualname__,
        __record_fields__=tuple(names),
        __repr__=_repr,
        __setattr__=_setattr,
        __delattr__=_delattr,
    )
    built = type(cls)(cls.__name__, cls.__bases__, body)
    for i, name in enumerate(names):
        namespace[f"_s{i}"] = built.__dict__[name].__set__
    namespace["_set_hash"] = built.__dict__["_record_hash"].__set__
    return built
