"""Frozen record classes, built without :mod:`dataclasses`.

``@record`` gives a class what ``@dataclass(frozen=True)`` gives it, with
one generated ``exec`` per class and no evaluated annotation: every
``tagweaver`` run is a fresh process, and the dataclass machinery (with
the ``inspect`` import it brings) was about a quarter of its import time.

The class is rebuilt with ``__slots__``: one slot per field, one for the
cached hash, and an instance ``__dict__`` only where the body uses
``cached_property``.  The generated ``__init__`` stores each field through
its slot's descriptor, and the field defaults live in its signature.  A
record's hash is computed on first use and kept, since nested records
(values inside values, identifiers in memo keys) are hashed again and
again.  Copies and pickles go through the constructor, so they hash
afresh.

The parsers and the checker call record classes positionally.  A type
called with keywords first packs them into a dict, which ``type.__call__``
then unpacks into ``__init__``: on CPython 3.11 that makes an
``Attachment`` cost 1.07 µs with keywords against 0.72 µs positionally,
and a ``TagUse`` 0.78 against 0.53 µs, paid for every record of a load
and a check.  A record with no field of its own to vary (a simple tag
value, a flag) is one shared instance: records are frozen.
"""

from __future__ import annotations

from functools import cached_property  # loaded by ``re`` already

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


def record(cls: type) -> type:
    """A frozen, slotted record class over the fields that the body of ``cls`` annotates."""
    body = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    namespace: dict[str, object] = {}
    names, params, stores, compared = [], [], [], []
    for name in body.get("__annotations__", {}):
        default, compare = body.pop(name, _MISSING), True
        if isinstance(default, field):
            default, compare = default.default, default.compare
        names.append(name)
        if default is _MISSING:
            params.append(name)
        else:
            namespace[f"_dflt_{name}"] = default
            params.append(f"{name}=_dflt_{name}")
        stores.append(f"    _set_{name}(self, {name})\n")
        if compare:
            compared.append(name)
    key = "".join(f"self.{name}," for name in compared)
    other_key = "".join(f"other.{name}," for name in compared)
    exec(
        f"def __init__(self, {', '.join(params)}):\n{''.join(stores)}"
        "    _set_hash(self, None)\n"
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
        "def __reduce__(self):\n"
        f"    return self.__class__, ({''.join(f'self.{name},' for name in names)})\n",
        namespace,
    )
    for method in ("__init__", "__eq__", "__hash__", "__reduce__"):
        function = body[method] = namespace[method]
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
    for name in names:
        namespace[f"_set_{name}"] = built.__dict__[name].__set__
    namespace["_set_hash"] = built.__dict__["_record_hash"].__set__
    return built
