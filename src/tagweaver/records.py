"""Frozen record classes, built without :mod:`dataclasses`.

``@record`` gives a class what ``@dataclass(frozen=True)`` gives it, with
one generated ``exec`` per class and no evaluated annotation: every
``tagweaver`` run is a fresh process, and the dataclass machinery (with
the ``inspect`` import it brings) was about a quarter of its import time.
Fields are stored with ``object.__setattr__``, as frozen dataclasses store
them; ``self.__dict__`` stores would give each instance an unshared dict.
"""

from __future__ import annotations

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
    """Make ``cls`` a frozen record over the fields its own body annotates."""
    namespace: dict[str, object] = {"_set": object.__setattr__}
    names, params, stores, compared = [], [], [], []
    for name in cls.__dict__.get("__annotations__", {}):
        default, compare = cls.__dict__.get(name, _MISSING), True
        if isinstance(default, field):
            default, compare = default.default, default.compare
            if default is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, default)
        names.append(name)
        if default is _MISSING:
            params.append(name)
        else:
            namespace[f"_dflt_{name}"] = default
            params.append(f"{name}=_dflt_{name}")
        stores.append(f"\n    _set(self, {name!r}, {name})")
        if compare:
            compared.append(name)
    key = "".join(f"self.{name}," for name in compared)
    other_key = "".join(f"other.{name}," for name in compared)
    exec(
        f"def __init__(self, {', '.join(params)}):{''.join(stores) or ' pass'}\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({key}) == ({other_key})\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({key}))\n",
        namespace,
    )
    for method in ("__init__", "__eq__", "__hash__"):
        function = namespace[method]
        function.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, function)
    cls.__record_fields__ = tuple(names)
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls
