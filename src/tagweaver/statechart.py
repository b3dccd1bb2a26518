"""Parser and element resolution for the statechart DSL (``.sc`` files).

The language is a small hierarchical statechart notation::

    package mobile;
    statechart Mobile {
        initial state Start;
        state Active {
            state Call {
                [status!=isActive];
            }
        }
        final state Done;
        Start -> Active : dial() ;
    }

States nest arbitrarily and may carry bracketed invariant expressions,
which are kept as opaque text.  Transitions connect states by (possibly
dotted) name and may carry opaque event text after ``:``.  A bare ``...``
inside a body is accepted as an elision marker and ignored.

Beyond parsing, this module answers the question "which model element
does this identifier denote?" for the element identifiers that appear in
tag files: dotted state paths, the chart's own name, ``[A -> B]`` for
transitions, and ``[expr]`` for invariants.  Resolution goes through a
per-model element index (state paths, transition endpoints, invariant
texts) that is built once per model, so each lookup is a few dictionary
lookups rather than a walk of the chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import ParseError, ResolutionError
from .parsing import ARROW, BRACKET, ELLIPSIS, EOF, IDENT, TokenCursor, is_identifier, tokenize
from .tagmodel import ElementIdentifier

__all__ = [
    "STATECHART",
    "STATE",
    "TRANSITION",
    "INVARIANT",
    "StateDef",
    "TransitionDef",
    "StatechartModel",
    "ElementHandle",
    "DuplicateSiblingState",
    "UnresolvedTransitionEndpoint",
    "UnresolvedElement",
    "AmbiguousElement",
    "AmbiguousTransition",
    "parse_statechart",
    "resolve_element",
    "enumerate_elements",
    "pretty_print_statechart",
    "normalize_expression",
]

# Element-type names as they appear in schema scope clauses.
STATECHART = "Statechart"
STATE = "State"
TRANSITION = "Transition"
INVARIANT = "Invariant"


class DuplicateSiblingState(ParseError):
    """Two sibling states share a name."""


class UnresolvedTransitionEndpoint(ParseError):
    """A transition names a source or target state that does not exist."""


class UnresolvedElement(ResolutionError):
    """An element identifier matches nothing in the model."""


class AmbiguousElement(ResolutionError):
    """An element identifier matches more than one element."""


class AmbiguousTransition(AmbiguousElement):
    """Endpoints match several transitions, so ``[A -> B]`` cannot pick one."""


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateDef:
    name: str
    initial: bool = False
    final: bool = False
    substates: tuple[StateDef, ...] = ()
    invariants_src: tuple[str, ...] = ()
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    @property
    def modifiers(self) -> frozenset[str]:
        mods = set()
        if self.initial:
            mods.add("initial")
        if self.final:
            mods.add("final")
        return frozenset(mods)


@dataclass(frozen=True)
class TransitionDef:
    source: tuple[str, ...]
    target: tuple[str, ...]
    event: str | None = None
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class StatechartModel:
    package: str
    name: str
    states: tuple[StateDef, ...]
    transitions: tuple[TransitionDef, ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)
    source_name: str | None = field(default=None, compare=False)

    @property
    def qualified_name(self) -> str:
        return f"{self.package}.{self.name}"

    @cached_property
    def _index(self) -> _ElementIndex:
        return _ElementIndex(self)


@dataclass(frozen=True)
class ElementHandle:
    """A resolved, addressable element of a statechart model."""

    path: str
    element_type: str


def normalize_expression(text: str) -> str:
    """Collapse all whitespace runs so invariant text compares stably."""

    return " ".join(text.split())


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def parse_statechart(text: str, filename: str | None = None) -> StatechartModel:
    """Parse ``.sc`` source text into a :class:`StatechartModel`.

    Raises :class:`ParseError` on syntax errors,
    :class:`DuplicateSiblingState` when sibling states share a name, and
    :class:`UnresolvedTransitionEndpoint` when a transition endpoint does
    not name a state.
    """

    cur = TokenCursor(tokenize(text, raw_brackets=True, filename=filename), filename)

    cur.expect_keyword("package")
    package_parts, _ = cur.qualified_name()
    cur.expect(";")

    cur.expect_keyword("statechart")
    name_tok = cur.expect(IDENT)
    cur.expect("{")

    states: list[StateDef] = []
    transitions: list[TransitionDef] = []
    sibling_names: set[str] = set()

    while not cur.at("}"):
        if cur.match(ELLIPSIS):
            continue
        tok = cur.peek()
        if tok.kind == IDENT and tok.value in ("state", "initial", "final"):
            states.append(_parse_state(cur, sibling_names))
        elif tok.kind == IDENT:
            transitions.append(_parse_transition(cur, text))
        elif tok.kind == BRACKET:
            raise cur.error("invariants are only allowed inside a state body")
        elif tok.kind == EOF:
            raise cur.error("unexpected end of input: missing '}'")
        else:
            raise cur.error(f"unexpected '{tok.value}' in statechart body")
    cur.expect("}")
    cur.expect(EOF)

    model = StatechartModel(
        package=".".join(package_parts),
        name=name_tok.value,
        states=tuple(states),
        transitions=tuple(transitions),
        warnings=_duplicate_transition_warnings(transitions),
        source_name=filename,
    )
    _check_transitions(model, filename)
    return model


def _parse_state(cur: TokenCursor, sibling_names: set[str]) -> StateDef:
    initial = False
    final = False
    first = cur.peek()
    while cur.peek().kind == IDENT and cur.peek().value in ("initial", "final"):
        word = cur.advance().value
        if word == "initial":
            if initial:
                raise cur.error("duplicate 'initial' modifier", first)
            initial = True
        else:
            if final:
                raise cur.error("duplicate 'final' modifier", first)
            final = True
    if initial and final:
        raise cur.error("a state cannot be both initial and final", first)
    cur.expect_keyword("state")
    name_tok = cur.expect(IDENT)
    if name_tok.value in sibling_names:
        raise DuplicateSiblingState(
            f"duplicate sibling state '{name_tok.value}'",
            name_tok.line,
            name_tok.col,
            cur.filename,
        )
    sibling_names.add(name_tok.value)

    substates: list[StateDef] = []
    invariants: list[str] = []
    if cur.match("{"):
        nested_names: set[str] = set()
        while not cur.at("}"):
            if cur.match(ELLIPSIS):
                continue
            tok = cur.peek()
            if tok.kind == IDENT and tok.value in ("state", "initial", "final"):
                substates.append(_parse_state(cur, nested_names))
            elif tok.kind == BRACKET:
                cur.advance()
                cur.expect(";")
                invariants.append(tok.value.strip())
            elif tok.kind == EOF:
                raise cur.error("unexpected end of input: missing '}'")
            else:
                raise cur.error(f"unexpected '{tok.value}' in state body")
        cur.expect("}")
    else:
        cur.expect(";")

    return StateDef(
        name=name_tok.value,
        initial=initial,
        final=final,
        substates=tuple(substates),
        invariants_src=tuple(invariants),
        line=name_tok.line,
        col=name_tok.col,
    )


def _parse_transition(cur: TokenCursor, text: str) -> TransitionDef:
    source, first = cur.qualified_name()
    cur.expect(ARROW)
    target, _ = cur.qualified_name()
    event: str | None = None
    if cur.at(":"):
        colon = cur.advance()
        # Event text is opaque: take the raw source slice up to ';'.
        while not cur.at(";") and not cur.at(EOF):
            cur.advance()
        if cur.at(EOF):
            raise cur.error("unterminated transition: missing ';'")
        semi = cur.peek()
        event = text[colon.end : semi.start].strip()
    cur.expect(";")
    return TransitionDef(
        source=source, target=target, event=event, line=first.line, col=first.col
    )


def _check_transitions(model: StatechartModel, filename: str | None) -> None:
    states = model._index.states
    for tr in model.transitions:
        for label, endpoint in (("source", tr.source), ("target", tr.target)):
            if endpoint not in states:
                raise UnresolvedTransitionEndpoint(
                    f"transition {label} '{'.'.join(endpoint)}' does not name a state",
                    tr.line,
                    tr.col,
                    filename,
                )


def _duplicate_transition_warnings(transitions: list[TransitionDef]) -> tuple[str, ...]:
    seen: dict[tuple[tuple[str, ...], tuple[str, ...], str | None], TransitionDef] = {}
    warnings: list[str] = []
    for tr in transitions:
        key = (tr.source, tr.target, tr.event)
        if key in seen:
            src, tgt = ".".join(tr.source), ".".join(tr.target)
            event = f" : {tr.event}" if tr.event is not None else ""
            warnings.append(
                f"duplicate transition {src} -> {tgt}{event} "
                f"(lines {seen[key].line} and {tr.line})"
            )
        else:
            seen[key] = tr
    return tuple(warnings)


# ---------------------------------------------------------------------------
# Element lookup
# ---------------------------------------------------------------------------


class _ElementIndex:
    """Lookup tables over one model, built by one iterative pre-order walk.

    ``states`` maps each state path (a tuple of segments) to its state, in
    pre-order.  ``transitions`` maps ``(source, target)`` paths to their
    transitions, in source order.  ``invariants`` maps normalized invariant
    text to the path of the owning state, once per occurrence, in
    pre-order.
    """

    def __init__(self, model: StatechartModel):
        self.states: dict[tuple[str, ...], StateDef] = {}
        self.invariants: dict[str, list[tuple[str, ...]]] = {}
        stack = [((st.name,), st) for st in reversed(model.states)]
        while stack:
            path, st = stack.pop()
            self.states[path] = st
            for inv in st.invariants_src:
                self.invariants.setdefault(normalize_expression(inv), []).append(path)
            stack.extend((path + (sub.name,), sub) for sub in reversed(st.substates))
        self.transitions: dict[tuple[tuple[str, ...], tuple[str, ...]], list[TransitionDef]] = {}
        for tr in model.transitions:
            self.transitions.setdefault((tr.source, tr.target), []).append(tr)


def _transition_handle(tr: TransitionDef) -> ElementHandle:
    src, tgt = ".".join(tr.source), ".".join(tr.target)
    return ElementHandle(path=f"[{src} -> {tgt}]", element_type=TRANSITION)


def enumerate_elements(model: StatechartModel) -> tuple[ElementHandle, ...]:
    """All addressable elements in a stable pre-order.

    Order: the chart itself, then each state in source order (each followed
    by its invariants, then its substates, recursively), then transitions
    in source order.
    """

    handles = [ElementHandle(path=model.name, element_type=STATECHART)]
    for segments, st in model._index.states.items():
        path = ".".join(segments)
        handles.append(ElementHandle(path=path, element_type=STATE))
        for inv in st.invariants_src:
            norm = normalize_expression(inv)
            handles.append(ElementHandle(path=f"{path}.[{norm}]", element_type=INVARIANT))
    handles.extend(_transition_handle(tr) for tr in model.transitions)
    return tuple(handles)


def resolve_element(
    model: StatechartModel, ident: ElementIdentifier, context_path: str = ""
) -> ElementHandle:
    """Resolve one element identifier against the model.

    Qualified names resolve relative to ``context_path`` first and fall
    back to the model root; the model's own name denotes the chart itself.
    Bracket identifiers of the shape ``[A -> B]`` denote the unique
    transition with those endpoints; any other bracket text denotes the
    invariant with the same (whitespace-normalized) expression.  Every
    lookup goes through the model's element index.

    Raises :class:`UnresolvedElement`, :class:`AmbiguousElement`, or
    :class:`AmbiguousTransition`.
    """

    # Context search applies only when the context names a state.  An empty
    # context and the chart's own name mean the root level; any other path,
    # for example a transition's, offers no children.
    context = None
    if context_path not in ("", model.name):
        context = tuple(context_path.split("."))
        if context not in model._index.states:
            context = None
    if ident.is_bracket:
        return _resolve_bracket(model, ident.raw, context)
    return _resolve_qualified(model, ident.path, context_path, context)


def _resolve_qualified(
    model: StatechartModel,
    segments: tuple[str, ...],
    context_path: str,
    context: tuple[str, ...] | None,
) -> ElementHandle:
    states = model._index.states
    if context is not None and context + segments in states:
        return ElementHandle(path=".".join(context + segments), element_type=STATE)

    # Root: the chart's own name denotes the chart, and may also be used
    # as an explicit leading segment.
    if segments[0] == model.name:
        if len(segments) == 1:
            return ElementHandle(path=model.name, element_type=STATECHART)
        if segments[1:] in states:
            return ElementHandle(path=".".join(segments[1:]), element_type=STATE)
    elif segments in states:
        return ElementHandle(path=".".join(segments), element_type=STATE)

    where = f" (context '{context_path}')" if context_path else ""
    raise UnresolvedElement(
        f"'{'.'.join(segments)}' does not name an element of '{model.name}'{where}"
    )


def _resolve_bracket(
    model: StatechartModel, raw: str, context: tuple[str, ...] | None
) -> ElementHandle:
    index = model._index
    endpoints = _parse_endpoints(raw)
    if endpoints is not None:
        # Endpoints always resolve from the root, whatever the context.
        source, target = endpoints
        if source not in index.states or target not in index.states:
            raise UnresolvedElement(
                f"'[{normalize_expression(raw)}]' endpoints do not name states of '{model.name}'"
            )
        src, tgt = ".".join(source), ".".join(target)
        matches = index.transitions.get(endpoints, [])
        if not matches:
            raise UnresolvedElement(f"no transition {src} -> {tgt} in '{model.name}'")
        if len(matches) > 1:
            raise AmbiguousTransition(
                f"{len(matches)} transitions match {src} -> {tgt} in '{model.name}'"
            )
        return _transition_handle(matches[0])

    # Invariant lookup by normalized expression text, context subtree first.
    norm = normalize_expression(raw)
    owners = index.invariants.get(norm, [])
    matches: list[tuple[str, ...]] = []
    if context is not None:
        depth = len(context)
        matches = [path for path in owners if len(path) > depth and path[:depth] == context]
        # The context state's own invariants count once, however often the
        # text repeats there; each occurrence below it counts.
        if context in owners:
            matches.append(context)
    if not matches:
        matches = owners
    if not matches:
        raise UnresolvedElement(f"no invariant '[{norm}]' in '{model.name}'")
    if len(matches) > 1:
        raise AmbiguousElement(f"{len(matches)} invariants match '[{norm}]' in '{model.name}'")
    return ElementHandle(path=f"{'.'.join(matches[0])}.[{norm}]", element_type=INVARIANT)


def _parse_endpoints(raw: str) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """Parse ``A -> B`` endpoint text; None when the text is not that shape."""

    if "->" not in raw:
        return None
    left, _, right = raw.partition("->")
    source = _parse_dotted(left)
    target = _parse_dotted(right)
    if source is None or target is None:
        return None
    return source, target


def _parse_dotted(text: str) -> tuple[str, ...] | None:
    parts = [p.strip() for p in text.strip().split(".")]
    if not parts or any(not is_identifier(p) for p in parts):
        return None
    return tuple(parts)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def pretty_print_statechart(model: StatechartModel) -> str:
    """Render a model back to canonical ``.sc`` text (round-trip safe)."""

    lines = [f"package {model.package};", "", f"statechart {model.name} {{"]

    def emit_state(st: StateDef, depth: int) -> None:
        pad = "    " * depth
        mods = ("initial " if st.initial else "") + ("final " if st.final else "")
        if not st.substates and not st.invariants_src:
            lines.append(f"{pad}{mods}state {st.name};")
            return
        lines.append(f"{pad}{mods}state {st.name} {{")
        for inv in st.invariants_src:
            lines.append(f"{pad}    [{inv}];")
        for sub in st.substates:
            emit_state(sub, depth + 1)
        lines.append(f"{pad}}}")

    for st in model.states:
        emit_state(st, 1)
    if model.transitions:
        lines.append("")
    for tr in model.transitions:
        src, tgt = ".".join(tr.source), ".".join(tr.target)
        if tr.event is not None:
            lines.append(f"    {src} -> {tgt} : {tr.event};")
        else:
            lines.append(f"    {src} -> {tgt};")
    lines.append("}")
    return "\n".join(lines) + "\n"
