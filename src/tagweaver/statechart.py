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
lookups rather than a walk of the chart.  An element is reported with
the grammar production it comes from, never with a scope keyword: the
derived language profile names those.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

from .diagnostics import Condition, Diagnostic, Severity, reporter
from .errors import ResolutionError
from .parsing import ARROW, BRACKET, ELLIPSIS, EOF, IDENT, TokenCursor, is_identifier, tokenize
from .records import field, record
from .tagmodel import ElementIdentifier

__all__ = [
    "StateDef",
    "TransitionDef",
    "StatechartModel",
    "ElementHandle",
    "parse_statechart",
    "resolve_element",
    "enumerate_elements",
    "pretty_print_statechart",
    "normalize_expression",
]

# The grammar productions (``samples/statechart.glang``) elements come from.
_CHART, _STATE, _TRANSITION, _INVARIANT = "SCDefinition", "State", "Transition", "Invariant"


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


@record
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


@record
class TransitionDef:
    source: tuple[str, ...]
    target: tuple[str, ...]
    event: str | None = None
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@record
class StatechartModel:
    package: str
    name: str
    states: tuple[StateDef, ...]
    transitions: tuple[TransitionDef, ...]
    # Duplicate siblings, unknown endpoints and repeated transitions.
    findings: tuple[Diagnostic, ...] = field(default=(), compare=False)
    source_name: str | None = field(default=None, compare=False)

    @property
    def qualified_name(self) -> str:
        return f"{self.package}.{self.name}"

    @cached_property
    def _index(self) -> _ElementIndex:
        return _ElementIndex(self.states, self.transitions)


@record
class ElementHandle:
    """An addressable element of a model, typed by its grammar production."""

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

    Raises :class:`~tagweaver.errors.ParseError` on syntax errors.  Sibling
    states that share a name, transition endpoints that name no state and
    repeated transitions are kept as ``findings``.
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
    findings: list[Diagnostic] = []
    report = reporter(findings, filename)

    while not cur.at("}"):
        if cur.match(ELLIPSIS):
            continue
        tok = cur.peek()
        if tok.kind == IDENT and tok.value in ("state", "initial", "final"):
            states.append(_parse_state(cur, sibling_names, report))
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

    index = _ElementIndex(states, transitions)
    _check_transitions(transitions, index, report)
    model = StatechartModel(
        package=".".join(package_parts),
        name=name_tok.value,
        states=tuple(states),
        transitions=tuple(transitions),
        findings=tuple(findings),
        source_name=filename,
    )
    model.__dict__["_index"] = index  # what the cached property would build
    return model


def _parse_state(cur: TokenCursor, sibling_names: set[str], report) -> StateDef:
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
        report(
            Condition.DUPLICATE_SIBLING_STATE,
            f"duplicate sibling state '{name_tok.value}'",
            name_tok.line,
            name_tok.col,
        )
    sibling_names.add(name_tok.value)

    substates: list[StateDef] = []
    invariants: list[str] = []
    if cur.at("{"):
        cur.enter(cur.advance())
        nested_names: set[str] = set()
        while not cur.at("}"):
            if cur.match(ELLIPSIS):
                continue
            tok = cur.peek()
            if tok.kind == IDENT and tok.value in ("state", "initial", "final"):
                substates.append(_parse_state(cur, nested_names, report))
            elif tok.kind == BRACKET:
                cur.advance()
                cur.expect(";")
                invariants.append(tok.value.strip())
            elif tok.kind == EOF:
                raise cur.error("unexpected end of input: missing '}'")
            else:
                raise cur.error(f"unexpected '{tok.value}' in state body")
        cur.expect("}")
        cur.leave()
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


def _check_transitions(transitions: list[TransitionDef], index: _ElementIndex, report) -> None:
    """Report each endpoint that names no state, and each repeated transition."""

    seen: dict[tuple[tuple[str, ...], tuple[str, ...], str | None], TransitionDef] = {}
    for tr in transitions:
        for label, endpoint in (("source", tr.source), ("target", tr.target)):
            if endpoint not in index.states:
                report(
                    Condition.UNRESOLVED_TRANSITION_ENDPOINT,
                    f"transition {label} '{'.'.join(endpoint)}' does not name a state",
                    tr.line,
                    tr.col,
                )
        key = (tr.source, tr.target, tr.event)
        if key in seen:
            src, tgt = ".".join(tr.source), ".".join(tr.target)
            event = f" : {tr.event}" if tr.event is not None else ""
            report(
                Condition.DUPLICATE_TRANSITION,
                f"duplicate transition {src} -> {tgt}{event} "
                f"(lines {seen[key].line} and {tr.line})",
                tr.line,
                tr.col,
                Severity.WARNING,
            )
        else:
            seen[key] = tr


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

    def __init__(self, states: Sequence[StateDef], transitions: Sequence[TransitionDef]):
        self.states: dict[tuple[str, ...], StateDef] = {}
        self.invariants: dict[str, list[tuple[str, ...]]] = {}
        stack = [((st.name,), st) for st in reversed(states)]
        while stack:
            path, st = stack.pop()
            self.states[path] = st
            for inv in st.invariants_src:
                self.invariants.setdefault(normalize_expression(inv), []).append(path)
            stack.extend((path + (sub.name,), sub) for sub in reversed(st.substates))
        self.transitions: dict[tuple[tuple[str, ...], tuple[str, ...]], list[TransitionDef]] = {}
        for tr in transitions:
            self.transitions.setdefault((tr.source, tr.target), []).append(tr)


def _transition_handle(tr: TransitionDef) -> ElementHandle:
    src, tgt = ".".join(tr.source), ".".join(tr.target)
    return ElementHandle(path=f"[{src} -> {tgt}]", element_type=_TRANSITION)


def enumerate_elements(model: StatechartModel) -> tuple[ElementHandle, ...]:
    """All addressable elements in a stable pre-order.

    Order: the chart itself, then each state in source order (each followed
    by its invariants, then its substates, recursively), then transitions
    in source order.
    """

    handles = [ElementHandle(path=model.name, element_type=_CHART)]
    for segments, st in model._index.states.items():
        path = ".".join(segments)
        handles.append(ElementHandle(path=path, element_type=_STATE))
        for inv in st.invariants_src:
            norm = normalize_expression(inv)
            handles.append(ElementHandle(path=f"{path}.[{norm}]", element_type=_INVARIANT))
    handles.extend(_transition_handle(tr) for tr in model.transitions)
    return tuple(handles)


def resolve_element(
    model: StatechartModel, ident: ElementIdentifier, context: ElementHandle | None = None
) -> ElementHandle:
    """Resolve one element identifier against the model.

    Qualified names resolve relative to ``context`` first, when it is a
    state of the model, and fall back to the model root; the model's own
    name denotes the chart itself.  Bracket identifiers of the shape
    ``[A -> B]`` denote the unique transition with those endpoints; any
    other bracket text denotes the invariant with the same
    (whitespace-normalized) expression.  Every lookup goes through the
    model's element index.

    Raises :class:`~tagweaver.errors.ResolutionError` when the identifier
    names no element or more than one.
    """

    # Context search applies only when the context is a state.  No context
    # and the chart itself mean the root level; a transition or an
    # invariant offers no children, and neither does a state path the
    # model lacks, because nothing in the index lies below it.
    state = None
    if context is not None and context.element_type == _STATE:
        state = tuple(context.path.split("."))
    if ident.is_bracket:
        return _resolve_bracket(model, ident.raw, state)
    return _resolve_qualified(model, ident.path, context, state)


def _resolve_qualified(
    model: StatechartModel,
    segments: tuple[str, ...],
    context: ElementHandle | None,
    state: tuple[str, ...] | None,
) -> ElementHandle:
    states = model._index.states
    if state is not None and state + segments in states:
        return ElementHandle(path=".".join(state + segments), element_type=_STATE)

    # Root: the chart's own name denotes the chart, and may also be used
    # as an explicit leading segment.
    if segments[0] == model.name:
        if len(segments) == 1:
            return ElementHandle(path=model.name, element_type=_CHART)
        if segments[1:] in states:
            return ElementHandle(path=".".join(segments[1:]), element_type=_STATE)
    elif segments in states:
        return ElementHandle(path=".".join(segments), element_type=_STATE)

    where = f" (context '{context.path}')" if context is not None else ""
    raise ResolutionError(
        f"'{'.'.join(segments)}' does not name an element of '{model.name}'{where}"
    )


def _resolve_bracket(
    model: StatechartModel, raw: str, state: tuple[str, ...] | None
) -> ElementHandle:
    index = model._index
    endpoints = _parse_endpoints(raw)
    if endpoints is not None:
        # Endpoints always resolve from the root, whatever the context.
        source, target = endpoints
        if source not in index.states or target not in index.states:
            raise ResolutionError(
                f"'[{normalize_expression(raw)}]' endpoints do not name states of '{model.name}'"
            )
        src, tgt = ".".join(source), ".".join(target)
        matches = index.transitions.get(endpoints, [])
        if not matches:
            raise ResolutionError(f"no transition {src} -> {tgt} in '{model.name}'")
        if len(matches) > 1:
            raise ResolutionError(
                f"{len(matches)} transitions match {src} -> {tgt} in '{model.name}'"
            )
        return _transition_handle(matches[0])

    # Invariant lookup by normalized expression text, context subtree first.
    norm = normalize_expression(raw)
    owners = index.invariants.get(norm, [])
    matches: list[tuple[str, ...]] = []
    if state is not None:
        depth = len(state)
        matches = [path for path in owners if len(path) > depth and path[:depth] == state]
        # The context state's own invariants count once, however often the
        # text repeats there; each occurrence below it counts.
        if state in owners:
            matches.append(state)
    if not matches:
        matches = owners
    if not matches:
        raise ResolutionError(f"no invariant '[{norm}]' in '{model.name}'")
    if len(matches) > 1:
        raise ResolutionError(f"{len(matches)} invariants match '[{norm}]' in '{model.name}'")
    return ElementHandle(path=f"{'.'.join(matches[0])}.[{norm}]", element_type=_INVARIANT)


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
