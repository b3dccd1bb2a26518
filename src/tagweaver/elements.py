"""Model elements, and the one resolver of element identifiers for any DSL.

A model parser fills one :class:`ElementTable` per model: each named
element by path, under its own production (``add_named(path,
production)``), and each bracketed element in one index, by its text and
by its labelled parts.  :func:`resolve_element` reads that table and the
derived language profile alone: a qualified name is looked up by path, in
the context first; a bracket identifier is read by the profile's bracket
forms (:meth:`~tagweaver.derivation.LanguageProfile.bracket_readings`),
and each reading is one index key.  A form with sketch literals keys an
element by the dotted paths in its slots, each the part that the slot's
word labels; a form without literals keys it by its whitespace-normalized
text.  The occurrences of every reading's key are pooled, then searched
in the context first.
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
    """The elements of one model, with the one index resolution reads.

    ``handles`` lists them in enumeration order, ``root`` first; ``named``
    maps each path below the root to its element, typed by its own
    production.  ``index`` files each bracketed element, as an (owner
    path, element) pair, under (production, normalized text) and, when
    it has parts, under (production, its (label, path) parts sorted), so
    that the parts match in any order.
    """

    def __init__(self, root: ElementHandle):
        self.root = root
        self.handles: list[ElementHandle] = [root]
        self.named: dict[Segments, ElementHandle] = {}
        # The productions of the named elements, in first-seen order.
        self._named_productions: dict[str, None] = {}
        self.index: dict[tuple[str, str | tuple], list[tuple[Segments, ElementHandle]]] = {}

    def add_named(self, path: Segments, production: str) -> None:
        if path not in self.named:
            self.named[path] = handle = ElementHandle(".".join(path), production)
            self.handles.append(handle)
            self._named_productions[production] = None

    def add_bracketed(
        self, production: str, owner: Segments, text: str, parts: dict[str, Segments] | None = None
    ) -> None:
        """File an element written ``[text]`` below ``owner`` (() for the root), with its parts."""

        norm = normalize_expression(text)
        handle = ElementHandle(f"{'.'.join(owner)}.[{norm}]" if owner else f"[{norm}]", production)
        self.handles.append(handle)
        occurrence = (owner, handle)
        self.index.setdefault((production, norm), []).append(occurrence)
        if parts is not None:
            self.index.setdefault((production, tuple(sorted(parts.items()))), []).append(occurrence)


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
    sketched = bool(rule.sketch_literals())  # then every form read has literals
    if sketched:
        # Slots name elements from the root, whatever the context; the
        # elements they key are filed at the root, so the context filter
        # below keeps every occurrence.
        readings = [(r, s) for r, s in readings if all(slot in table.named for slot in s)]
        if not readings:
            productions = dict.fromkeys(p.lower() for p in table._named_productions)
            named = "s or ".join(productions) + "s" if productions else "elements"
            raise ResolutionError(f"'[{norm}]' endpoints do not name {named} of '{root}'")
    occurrences = [
        occurrence
        for r, s in readings
        for occurrence in table.index.get(
            (r.nonterminal, tuple(sorted(zip(r.slot_labels, s))) if sketched else norm), ()
        )
    ]
    matches = []
    if owner is not None:
        depth = len(owner)
        matches = [h for path, h in occurrences if len(path) > depth and path[:depth] == owner]
        # The context's own elements count once, however often the text
        # repeats there; each occurrence below it counts.
        matches += [h for path, h in occurrences if path == owner][:1]
    matches = matches or [h for _, h in occurrences]
    if len(matches) == 1:
        return matches[0]
    text = rule.render_slots(slots) if sketched else f"'[{norm}]'"
    kinds = [r.nonterminal.lower() for r, _ in readings]
    if not matches:
        raise ResolutionError(f"no {' or '.join(kinds)} {text} in '{root}'")
    raise ResolutionError(f"{len(matches)} {'s or '.join(kinds)}s match {text} in '{root}'")
