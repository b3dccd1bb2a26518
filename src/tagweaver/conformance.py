"""Conformance checking of a tag model against its target model and schemas.

``check`` answers three questions about every tagged element:

* does the element exist in the target model (condition ``E1``)?
* is the tag's type declared, exactly once, across the referenced schemas
  (``E3_1`` per use, ``E2`` for duplicate declarations)?
* is the attachment admissible — element type within the tag type's scope
  (``E3_2``) and value within its domain (``E3_3``, with the finer-grained
  ``CardinalityViolation`` and ``UnknownSubtagName`` inside complex
  values)?

A statement that tags several elements with several tags is checked as
its full cross product, so its diagnostics equal those of the equivalent
single-element, single-tag statements.  An unresolved element suppresses
the per-pair type checks, and an unknown tag type suppresses the scope
and domain checks, so one root cause yields one diagnostic.  Re-tagging
an element with an identical tag is reported as a warning
(``DuplicateTagWarning``); using a ``private`` tag type directly on an
element is the error ``PrivateTopLevelUse``.

When no error is found, the checker also returns the resolved taggings:
one attachment per (element, tag) pair with the value normalized into
typed form.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .derivation import LanguageProfile
from .diagnostics import Condition, Diagnostic, Severity, has_errors, reporter
from .elements import ElementHandle, resolve_element
from .errors import ResolutionError
from .records import field, record
from .tagmodel import Context, ElementIdentifier, TagModel, TagStatement, TagUse, TagValue, qualify
from .tagschema import Cardinality, DomainSpec, TagSchema, TagTypeDef

if TYPE_CHECKING:
    from .statechart import StatechartModel

__all__ = [
    "NormalizedValue",
    "Attachment",
    "ResolvedTagging",
    "CheckInput",
    "check",
    "check_value_domain",
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

    @classmethod
    def flag(cls) -> NormalizedValue:
        return cls("flag")

    @classmethod
    def of_int(cls, value: int) -> NormalizedValue:
        return cls("int", value=value)

    @classmethod
    def of_string(cls, value: str) -> NormalizedValue:
        return cls("string", value=value)

    @classmethod
    def of_bool(cls, value: bool) -> NormalizedValue:
        return cls("bool", value=value)

    @classmethod
    def of_enum(cls, value: str) -> NormalizedValue:
        return cls("enum", value=value)

    @classmethod
    def of_children(cls, children: tuple[tuple[str, NormalizedValue], ...]) -> NormalizedValue:
        return cls("complex", children=children)


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
    types: dict[str, tuple[TagSchema, TagTypeDef]] = {}
    taken: set[str] = set()
    for schema in inp.schemas:
        if schema.qualified_name in taken:
            continue
        taken.add(schema.qualified_name)
        for tt in schema.tag_types:
            if tt.name in types:
                report(
                    Condition.E2_DUPLICATE_TAG_TYPE_NAME,
                    f"tag type '{tt.name}' is defined by both "
                    f"'{types[tt.name][0].qualified_name}' and '{schema.qualified_name}'",
                    model.conforms_line,
                    model.conforms_col,
                )
            else:
                types[tt.name] = (schema, tt)

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

    pairs = _expand(model.body, None, resolve)

    # A tag use's value is checked once, however many elements its
    # statement tags; every pair still reports that use's value diagnostics.
    # Keyed by identity: every use lives in ``model`` for the whole call.
    checked_values: dict[int, tuple[list[Diagnostic], NormalizedValue | None]] = {}

    attachments: list[Attachment] = []
    seen: set[tuple[str, str, str, NormalizedValue]] = set()
    for element_ref, context, tag in pairs:
        found = resolve(element_ref, context)
        if found is None:
            continue
        handle = found[1]

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
        schema, tt = entry

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
            Attachment(
                element=handle,
                tag_type=tt.name,
                schema=schema.qualified_name,
                value=normalized,
                file=model.source_name,
                line=tag.line,
                col=tag.col,
            )
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


def _expand(body, context: ElementHandle | None, resolve):
    """Flatten contexts into (element_ref, context handle, tag_use) triples."""

    pairs: list[tuple] = []
    for item in body:
        if isinstance(item, Context):
            found = resolve(item.identifier, context)
            if found is None:
                # The whole block is unaddressable; one diagnostic, no cascade.
                continue
            pairs.extend(_expand(item.body, found[0], resolve))
        elif isinstance(item, TagStatement):
            for element_ref in item.element_refs:
                for tag in item.tag_refs:
                    pairs.append((element_ref, context, tag))
    return pairs


# ---------------------------------------------------------------------------
# Value domain checking
# ---------------------------------------------------------------------------


def check_value_domain(
    value: TagValue, tag_type: TagTypeDef, schema: TagSchema
) -> tuple[list[Diagnostic], NormalizedValue | None]:
    """Check ``value`` against ``tag_type``'s domain and normalize it.

    Returns the diagnostics plus the normalized value, or ``None`` in
    place of the value when any diagnostic is an error.  Named references
    inside complex domains resolve within ``schema``; scopes play no role
    here.
    """

    return _check_value(TagUse(name=tag_type.name, value=value), tag_type, schema, None)


def _check_value(
    use: TagUse, tag_type: TagTypeDef, schema: TagSchema, file: str | None
) -> tuple[list[Diagnostic], NormalizedValue | None]:
    diags: list[Diagnostic] = []
    normalized = _check_value_inner(use, tag_type, schema, reporter(diags, file))
    if has_errors(diags):
        return diags, None
    return diags, normalized


def _check_value_inner(
    use: TagUse, tag_type: TagTypeDef, schema: TagSchema, report
) -> NormalizedValue | None:
    domain = tag_type.domain
    value = use.value
    name = tag_type.name

    if domain.kind == DomainSpec.SIMPLE:
        if value.kind != TagValue.SIMPLE:
            report(
                Condition.E3_3_DOMAIN_MISMATCH,
                f"tag type '{name}' is a simple flag and takes no value",
                use.line, use.col,
            )
            return None
        return NormalizedValue.flag()

    if domain.kind == DomainSpec.NATIVE:
        if value.kind != TagValue.VALUED:
            report(
                Condition.E3_3_DOMAIN_MISMATCH,
                f"tag type '{name}' needs a {domain.native} value",
                use.line, use.col,
            )
            return None
        return _check_native(domain.native, value.raw, name, use, report)

    if domain.kind == DomainSpec.ENUM:
        if value.kind != TagValue.VALUED:
            report(
                Condition.E3_3_DOMAIN_MISMATCH,
                f"tag type '{name}' needs one of its enumeration values",
                use.line, use.col,
            )
            return None
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
    if value.kind != TagValue.COMPLEX:
        report(
            Condition.E3_3_DOMAIN_MISMATCH,
            f"tag type '{name}' is complex and needs a '{{...}}' value",
            use.line, use.col,
        )
        return None

    children: list[tuple[str, NormalizedValue]] = []
    ok = True
    for sub in value.subtags:
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
            if sub.value.kind != TagValue.VALUED:
                report(
                    Condition.E3_3_DOMAIN_MISMATCH,
                    f"subtag '{sub.name}' of '{name}' needs a {ref.type_name} value",
                    sub.line, sub.col,
                )
                ok = False
                continue
            norm = _check_native(ref.type_name, sub.value.raw, sub.name, sub, report)
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
            norm = _check_value_inner(sub, target, schema, report)
        if norm is None:
            ok = False
            continue
        children.append((sub.name, norm))

    for ref in domain.references:
        count = sum(1 for sub in value.subtags if sub.name == ref.name)
        if not ref.cardinality.admits(count):
            report(
                Condition.CARDINALITY_VIOLATION,
                f"'{name}' needs {_cardinality_phrase(ref.cardinality)} "
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
        report(
            Condition.E3_3_DOMAIN_MISMATCH,
            f'"{raw}" is not a decimal integer (\'{label}\' takes an int)',
            at.line, at.col,
        )
        return None
    parsed = int(raw)
    if not INT64_MIN <= parsed <= INT64_MAX:
        report(
            Condition.E3_3_DOMAIN_MISMATCH,
            f'"{raw}" does not fit a signed 64-bit integer (\'{label}\' takes an int)',
            at.line, at.col,
        )
        return None
    return NormalizedValue.of_int(parsed)


def _cardinality_phrase(cardinality: Cardinality) -> str:
    return {
        Cardinality.REQUIRED: "exactly one",
        Cardinality.OPTIONAL: "at most one",
        Cardinality.AT_LEAST_ONE: "at least one",
        Cardinality.MANY: "any number of",
    }[cardinality]
