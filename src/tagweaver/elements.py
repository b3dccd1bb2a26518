"""Model elements, and the one resolver of element identifiers for any DSL.

A model parser fills one :class:`ElementTable` per model.
:func:`resolve_element` reads that table and the derived language profile
alone: a qualified name is looked up by path, in the context first; a
bracket identifier is read by the profile's bracket forms
(:meth:`~tagweaver.derivation.LanguageProfile.bracket_readings`).  A form
with sketch literals names an element by the dotted paths in its slots,
each the part of the element that the slot's word labels; a form without
literals names it by its whitespace-normalized text, searched in the
context first.  When several forms read the text, their matches are
pooled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ResolutionError
from .records import record

if TYPE_CHECKING:
    from .derivation import LanguageProfile
    from .tagmodel import ElementIdentifier

__all__ = ["ElementHandle", "ElementTable", "normalize_expression", "resolve_element"]

Segments = tuple[str, ...]


@record
class ElementHandle:
    """An addressable element of a model, typed by its grammar production."""

    path: str
    element_type: str


def normalize_expression(text: str) -> str:
    """Collapse all whitespace runs so expression text compares stably."""

    return " ".join(text.split())


class ElementTable:
    """The elements of one model, with the lookups resolution needs.

    ``handles`` lists them in enumeration order, ``root`` first; ``named``
    maps each path below the root to its element (all ``named_type``).
    ``texts`` maps (production, normalized text) of each bracketed element
    to (owner path, element) pairs.  ``parts`` maps (production, the path
    of each of its parts) to the elements with those parts, the parts in
    the order of the production's labels in ``part_labels``.
    """

    def __init__(self, root: ElementHandle, named_type: str):
        self.root, self.named_type = root, named_type
        self.handles: list[ElementHandle] = [root]
        self.named: dict[Segments, ElementHandle] = {}
        self.texts: dict[tuple[str, str], list[tuple[Segments, ElementHandle]]] = {}
        self.part_labels: dict[str, tuple[str, ...]] = {}
        self.parts: dict[tuple[str, tuple[Segments, ...]], list[ElementHandle]] = {}

    def add_named(self, path: Segments) -> None:
        if path not in self.named:
            self.named[path] = handle = ElementHandle(".".join(path), self.named_type)
            self.handles.append(handle)

    def add_bracketed(
        self, production: str, owner: Segments, text: str, parts: dict[str, Segments] | None = None
    ) -> None:
        """File an element written ``[text]`` below ``owner`` (() for the root), with its parts."""

        norm = normalize_expression(text)
        handle = ElementHandle(f"{'.'.join(owner)}.[{norm}]" if owner else f"[{norm}]", production)
        self.handles.append(handle)
        self.texts.setdefault((production, norm), []).append((owner, handle))
        if parts is not None:
            labels = self.part_labels.setdefault(production, tuple(parts))
            self.parts.setdefault((production, tuple(map(parts.get, labels))), []).append(handle)

    def with_parts(self, production: str, parts: dict[str, Segments]) -> list[ElementHandle]:
        """The elements of ``production`` whose parts are ``parts``, label for label."""

        labels = self.part_labels.get(production, ())
        if len(parts) != len(labels):
            return []
        return self.parts.get((production, tuple(map(parts.get, labels))), [])


def resolve_element(
    model, ident: ElementIdentifier, context: ElementHandle | None = None, *,
    profile: LanguageProfile,
) -> ElementHandle:
    """Resolve ``ident`` in ``model.element_table``; :class:`ResolutionError` unless unique."""

    table = model.element_table
    root = table.root.path
    # Only a named element of the model is a context to search in.  No
    # context and the root mean the root level; any other element, or a
    # path the model lacks, offers nothing below it.
    owner = tuple(context.path.split(".")) if context is not None else None
    if table.named.get(owner) != context:
        owner = None

    if not ident.is_bracket:
        path = ident.path
        found = table.named.get(owner + path) if owner is not None else None
        # Then the root, where the model's own name denotes the model and
        # may lead a path.
        if found is None and path[0] == root:
            found = table.named.get(path[1:]) if path[1:] else table.root
        elif found is None:
            found = table.named.get(path)
        if found is None:
            where = f" (context '{context.path}')" if context is not None else ""
            raise ResolutionError(f"'{ident.text}' does not name an element of '{root}'{where}")
        return found

    norm = normalize_expression(ident.raw)
    readings = profile.bracket_readings(ident.raw)
    if not readings:
        grammar = profile.grammar_name
        raise ResolutionError(f"'[{norm}]' matches no bracket identifier form of '{grammar}'")
    rule, slots = readings[0]
    if rule.sketch_literals():  # then every form read has literals
        # Slots name elements from the root, whatever the context.
        readings = [(r, s) for r, s in readings if all(slot in table.named for slot in s)]
        if not readings:
            named = table.named_type.lower()
            raise ResolutionError(f"'[{norm}]' endpoints do not name {named}s of '{root}'")
        matches = [
            handle
            for r, s in readings
            for handle in table.with_parts(r.nonterminal, dict(zip(r.slot_labels, s)))
        ]
        text = rule.render_slots(slots)
    else:
        occurrences = [o for r, _ in readings for o in table.texts.get((r.nonterminal, norm), ())]
        matches = []
        if owner is not None:
            depth = len(owner)
            matches = [h for path, h in occurrences if len(path) > depth and path[:depth] == owner]
            # The context's own elements count once, however often the
            # text repeats there; each occurrence below it counts.
            matches += [h for path, h in occurrences if path == owner][:1]
        matches = matches or [h for _, h in occurrences]
        text = f"'[{norm}]'"
    if len(matches) == 1:
        return matches[0]
    kinds = [r.nonterminal.lower() for r, _ in readings]
    if not matches:
        raise ResolutionError(f"no {' or '.join(kinds)} {text} in '{root}'")
    raise ResolutionError(f"{len(matches)} {'s or '.join(kinds)}s match {text} in '{root}'")
