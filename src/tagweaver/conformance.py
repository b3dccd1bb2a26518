"""Conformance checking of a tag model against its target model and schemas.

``check`` answers three questions about every tagged element:

* does the element exist in the target model (condition ``E1``)?
* is the tag's type declared, exactly once, across the referenced schemas
  (``E3_1`` per use, ``E2`` for duplicate declarations)?
* is the attachment admissible — element type within the tag type's scope
  (``E3_2``) and value within its domain (``E3_3``, with the finer-grained
  ``CardinalityViolation`` and ``UnknownSubtagName`` inside complex
  values)?

The body is checked in one pass, in source order.  A statement that tags
several elements with several tags is checked as its full cross product,
element by element and then tag by tag, so its diagnostics equal those of
the equivalent single-element, single-tag statements.  An unresolved
element suppresses the per-pair type checks, and an unknown tag type
suppresses the scope and domain checks, so one root cause yields one
diagnostic.  Re-tagging an element with an identical tag is reported as a
warning (``DuplicateTagWarning``); using a ``private`` tag type directly
on an element is the error ``PrivateTopLevelUse``.

When no error is found, the checker also returns the resolved taggings:
one attachment per (element, tag) pair with the value normalized into
typed form.  A tag value is checked through ``check`` only, and a native
subtag's value by the same check of its domain kind as a tag type's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .derivation import LanguageProfile
from .diagnostics import Condition, Diagnostic, Severity, has_errors, reporter
from .elements import ElementHandle, resolve_element
from .errors import ResolutionError
from .records import field, record
from .tagmodel import Context, ElementIdentifier, TagModel, TagUse, TagValue, qualify
from .tagschema import NATIVE_KINDS, DomainSpec, TagSchema, TagTypeDef

if TYPE_CHECKING:
    from .statechart import StatechartModel

__all__ = [
    "NormalizedValue",
    "Attachment",
    "ResolvedTagging",
    "CheckInput",
    "check",
    "INT64_MIN",
    "INT64_MAX",
]

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@record
class NormalizedValue:
    """A tag value after domain checking, in typed form.

    ``kind`` is one of ``flag``, ``int``, ``string``, ``bool``, ``enum``,
    ``complex``; ``value`` carries the payload for the scalar kinds and
    ``children`` the named sub-values for ``complex``.
    """

    kind: str
    value: int | str | bool | None = None
    children: tuple[tuple[str, NormalizedValue], ...] = ()

    @staticmethod
    def flag() -> NormalizedValue:
        """The one flag value: records are frozen, so every flag shares it."""
        return _FLAG

    @classmethod
    def of_int(cls, value: int) -> NormalizedValue:
        return cls("int", value)

    @classmethod
    def of_string(cls, value: str) -> NormalizedValue:
        return cls("string", value)

    @classmethod
    def of_bool(cls, value: bool) -> NormalizedValue:
        return cls("bool", value)

    @classmethod
    def of_enum(cls, value: str) -> NormalizedValue:
        return cls("enum", value)

    @classmethod
    def of_children(cls, children: tuple[tuple[str, NormalizedValue], ...]) -> NormalizedValue:
        return cls("complex", None, children)


_FLAG = NormalizedValue("flag")


@record
class Attachment:
    """One resolved (element, tag type, value) tagging."""

    element: ElementHandle
    tag_type: str
    schema: str  # qualified name of the defining schema
    value: NormalizedValue
    file: str | None = field(default=None, compare=False)
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@record
class ResolvedTagging:
    target: str  # qualified name of the target model
    attachments: tuple[Attachment, ...]


@record
class CheckInput:
    tag_model: TagModel
    target: StatechartModel
    schemas: tuple[TagSchema, ...]
    profile: LanguageProfile


# ---------------------------------------------------------------------------
# Check driver
# ---------------------------------------------------------------------------


def check(inp: CheckInput) -> tuple[list[Diagnostic], ResolvedTagging | None]:
    """Check one tag model; returns (diagnostics, resolved-or-None).

    The resolved taggings are returned only when there is no error
    diagnostic (warnings are fine), and then contain exactly one
    attachment per expanded (element, tag) pair.
    """

    _require_matching_inputs(inp)
    model = inp.tag_model
    diags: list[Diagnostic] = []
    report = reporter(diags, model.source_name)

    # Tag type names must be unique across the union of referenced schemas;
    # uses resolve against the first definition in conforms-to order.  A
    # schema listed twice, however spelled, is taken once.
    types: dict[str, tuple[TagSchema, TagTypeDef, str]] = {}
    taken: set[str] = set()
    for schema in inp.schemas:
        schema_name = schema.qualified_name
        if schema_name in taken:
            continue
        taken.add(schema_name)
        for tt in schema.tag_types:
            if tt.name in types:
                report(
                    Condition.E2_DUPLICATE_TAG_TYPE_NAME,
                    f"tag type '{tt.name}' is defined by both "
                    f"'{types[tt.name][2]}' and '{schema_name}'",
                    model.conforms_line,
                    model.conforms_col,
                )
            else:
                types[tt.name] = (schema, tt, schema_name)

    # Each (identifier, context) is resolved once; identifier equality
    # ignores line and col, so a failure is still reported at every use.
    # The model names an element's production, and the profile the scope
    # keyword that the check, the attachment and the export all carry; a
    # production without one (``@skip``) keeps its own name.
    keywords = {kw.production: kw.keyword for kw in inp.profile.scope_keywords if not kw.is_nested}
    # ``resolve`` returns the model's handle and the keyword handle, or None.
    resolved: dict[tuple, tuple[ElementHandle, ElementHandle] | str] = {}

    def resolve(ref: ElementIdentifier, context: ElementHandle | None):
        key = (ref, context)
        found = resolved.get(key)
        if found is None:
            try:
                element = resolve_element(inp.target, ref, context, profile=inp.profile)
            except ResolutionError as exc:
                found = str(exc)
            else:
                kind = keywords.get(element.element_type, element.element_type)
                found = (element, ElementHandle(element.path, kind))
            resolved[key] = found
        if isinstance(found, str):
            report(Condition.E1_UNRESOLVED_ELEMENT, found, ref.line, ref.col)
            return None
        return found

    # A tag use's value is checked once, however many elements its
    # statement tags; every pair still reports that use's value diagnostics.
    # Keyed by identity: every use lives in ``model`` for the whole call.
    checked_values: dict[int, tuple[list[Diagnostic], NormalizedValue | None]] = {}

    attachments: list[Attachment] = []
    seen: set[tuple[str, str, str, NormalizedValue]] = set()
    for handle, tag in _walk(model.body, None, resolve):
        entry = types.get(tag.name)
        if entry is None:
            known = ", ".join(sorted(types)) or "none"
            report(
                Condition.E3_1_UNKNOWN_TAG_TYPE,
                f"'{tag.name}' is not a tag type of the referenced schemas "
                f"(known: {known})",
                tag.line,
                tag.col,
            )
            continue
        schema, tt, schema_name = entry

        if tt.is_private:
            report(
                Condition.PRIVATE_TOP_LEVEL_USE,
                f"tag type '{tt.name}' is private and can only be used as a subtag",
                tag.line,
                tag.col,
            )

        if not tt.scope.admits(handle.element_type):
            allowed = ", ".join(tt.scope.keywords)
            article = "an" if handle.element_type[0] in "AEIOUaeiou" else "a"
            report(
                Condition.E3_2_SCOPE_MISMATCH,
                f"'{handle.path}' is {article} {handle.element_type}, but tag type "
                f"'{tt.name}' only applies to: {allowed}",
                tag.line,
                tag.col,
            )

        checked = checked_values.get(id(tag))
        if checked is None:
            checked = checked_values[id(tag)] = _check_value(tag, tt, schema, model.source_name)
        value_diags, normalized = checked
        diags.extend(value_diags)
        if normalized is None:
            continue

        key = (handle.path, handle.element_type, tt.name, normalized)
        if key in seen:
            report(
                Condition.DUPLICATE_TAG_WARNING,
                f"{handle.element_type} '{handle.path}' is already tagged with an identical "
                f"'{tt.name}'",
                tag.line,
                tag.col,
                severity=Severity.WARNING,
            )
        seen.add(key)
        attachments.append(
            Attachment(handle, tt.name, schema_name, normalized, model.source_name, tag.line, tag.col)
        )

    if has_errors(diags):
        return diags, None
    return diags, ResolvedTagging(target=inp.target.qualified_name, attachments=tuple(attachments))


def _require_matching_inputs(inp: CheckInput) -> None:
    """Contract checks: conforms-to and target were matched by the caller."""

    if not inp.schemas:
        raise ValueError("check requires at least one schema")
    available = {schema.qualified_name for schema in inp.schemas}
    for ref in inp.tag_model.conforms_to:
        if qualify(ref, inp.tag_model.package) not in available:
            raise ValueError(f"conforms-to entry '{ref}' matches no supplied schema")
    qualified = qualify(inp.tag_model.target_model, inp.tag_model.package)
    if qualified != inp.target.qualified_name:
        raise ValueError(
            f"tag model targets '{qualified}' but the supplied model is "
            f"'{inp.target.qualified_name}'"
        )


def _walk(body, context: ElementHandle | None, resolve):
    """Yield the (element handle, tag use) pairs of ``body`` in source order.

    A ``within`` element is resolved when the walk reaches it, so every
    diagnostic comes in the order of the text it concerns.
    """

    for item in body:
        if isinstance(item, Context):
            found = resolve(item.identifier, context)
            # An unresolved block is unaddressable; one diagnostic, no cascade.
            if found is not None:
                yield from _walk(item.body, found[0], resolve)
        else:
            for element_ref in item.element_refs:
                for tag in item.tag_refs:
                    found = resolve(element_ref, context)
                    if found is not None:
                        yield found[1], tag


# ---------------------------------------------------------------------------
# Value domain checking
# ---------------------------------------------------------------------------


def _check_value(
    use: TagUse, tag_type: TagTypeDef, schema: TagSchema, file: str | None
) -> tuple[list[Diagnostic], NormalizedValue | None]:
    # Every report below is an error and comes back with no value.
    diags: list[Diagnostic] = []
    return diags, _check_value_inner(use, tag_type.domain, tag_type.name, schema, reporter(diags, file))


# What each value domain takes: the kind of tag value it accepts, and the
# message tail for a value of another kind (formatted with the native kind).
_TAKES = {
    DomainSpec.SIMPLE: (TagValue.SIMPLE, "is a simple flag and takes no value"),
    DomainSpec.NATIVE: (TagValue.VALUED, "needs a {} value"),
    DomainSpec.ENUM: (TagValue.VALUED, "needs one of its enumeration values"),
    DomainSpec.COMPLEX: (TagValue.COMPLEX, "is complex and needs a '{{...}}' value"),
}
# The domain of a native subtag, by its kind.
_NATIVE = {kind: DomainSpec.of_native(kind) for kind in NATIVE_KINDS}


def _check_value_inner(
    use: TagUse, domain: DomainSpec, name: str, schema: TagSchema, report, owner: str | None = None
) -> NormalizedValue | None:
    """Check ``use``'s value against ``domain``: of tag type ``name``, or subtag ``name`` of ``owner``."""

    value = use.value
    takes, tail = _TAKES[domain.kind]
    if value.kind != takes:
        label = f"tag type '{name}'" if owner is None else f"subtag '{name}' of '{owner}'"
        report(
            Condition.E3_3_DOMAIN_MISMATCH,
            f"{label} {tail.format(domain.native)}",
            use.line, use.col,
        )
        return None
    if domain.kind == DomainSpec.SIMPLE:
        return NormalizedValue.flag()
    if domain.kind == DomainSpec.NATIVE:
        return _check_native(domain.native, value.raw, name, use, report)
    if domain.kind == DomainSpec.ENUM:
        if value.raw not in domain.values:
            options = ", ".join(domain.values)
            report(
                Condition.E3_3_DOMAIN_MISMATCH,
                f'"{value.raw}" is not an enumeration value of \'{name}\' ({options})',
                use.line, use.col,
            )
            return None
        return NormalizedValue.of_enum(value.raw)

    # Complex domain.
    children: list[tuple[str, NormalizedValue]] = []
    counts: dict[str, int] = {}
    ok = True
    for sub in value.subtags:
        counts[sub.name] = counts.get(sub.name, 0) + 1
        ref = domain.reference(sub.name)
        if ref is None:
            declared = ", ".join(r.name for r in domain.references)
            report(
                Condition.UNKNOWN_SUBTAG_NAME,
                f"subtag '{sub.name}' is not declared by '{name}' (declared: {declared})",
                sub.line, sub.col,
            )
            ok = False
            continue
        if ref.is_native:
            norm = _check_value_inner(sub, _NATIVE[ref.type_name], sub.name, schema, report, name)
        else:
            target = schema.tag_type(ref.type_name)
            if target is None:
                # Unresolved named references are schema well-formedness
                # problems; surface the use site as a domain mismatch.
                report(
                    Condition.E3_3_DOMAIN_MISMATCH,
                    f"subtag '{sub.name}' references unknown tag type '{ref.type_name}'",
                    sub.line, sub.col,
                )
                ok = False
                continue
            norm = _check_value_inner(sub, target.domain, target.name, schema, report)
        if norm is None:
            ok = False
            continue
        children.append((sub.name, norm))

    for ref in domain.references:
        count = counts.get(ref.name, 0)
        if not ref.cardinality.admits(count):
            report(
                Condition.CARDINALITY_VIOLATION,
                f"'{name}' needs {ref.cardinality.phrase} "
                f"'{ref.name}' subtag, found {count}",
                use.line, use.col,
            )
            ok = False

    if not ok:
        return None
    return NormalizedValue.of_children(tuple(children))


def _check_native(kind: str, raw: str, label: str, at: TagUse, report) -> NormalizedValue | None:
    if kind == "String":
        return NormalizedValue.of_string(raw)
    if kind == "Boolean":
        if raw == "true":
            return NormalizedValue.of_bool(True)
        if raw == "false":
            return NormalizedValue.of_bool(False)
        report(
            Condition.E3_3_DOMAIN_MISMATCH,
            f'"{raw}" is not a Boolean (\'{label}\' takes exactly "true" or "false")',
            at.line, at.col,
        )
        return None
    # int: optional minus, decimal digits, 64-bit signed range.
    body = raw[1:] if raw.startswith("-") else raw
    if not body or not body.isascii() or not body.isdigit():
        problem = "is not a decimal integer"
    elif not INT64_MIN <= (parsed := int(raw)) <= INT64_MAX:
        problem = "does not fit a signed 64-bit integer"
    else:
        return NormalizedValue.of_int(parsed)
    report(
        Condition.E3_3_DOMAIN_MISMATCH,
        f'"{raw}" {problem} (\'{label}\' takes an int)',
        at.line, at.col,
    )
    return None
