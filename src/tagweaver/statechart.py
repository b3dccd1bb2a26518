"""Parser and pretty-printer for the statechart DSL (``.sc`` files).

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

The parser also fills the model's element table (see
:mod:`tagweaver.elements`): the chart, its states by path, each invariant
under its state, and each transition with its ``source`` and ``target``
paths, labelled as in its production.  An element is reported with the
grammar production it comes from, never with a scope keyword: the
derived language profile names those, and it decides, through its
bracket forms, how a reference reads as an element.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

from .diagnostics import Condition, Diagnostic, Severity, reporter
from .elements import ElementHandle, ElementTable
from .parsing import ARROW, BRACKET, ELLIPSIS, EOF, IDENT, TokenCursor, tokenize
from .records import field, record

__all__ = [
    "StateDef",
    "TransitionDef",
    "StatechartModel",
    "parse_statechart",
    "enumerate_elements",
    "pretty_print_statechart",
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
    def element_table(self) -> ElementTable:
        return _element_table(self.name, self.states, self.transitions)


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

    table = _element_table(name_tok.value, states, transitions)
    _check_transitions(transitions, table, report)
    model = StatechartModel(
        package=".".join(package_parts),
        name=name_tok.value,
        states=tuple(states),
        transitions=tuple(transitions),
        findings=tuple(findings),
        source_name=filename,
    )
    model.__dict__["element_table"] = table  # what the cached property would build
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


def _check_transitions(transitions: list[TransitionDef], table: ElementTable, report) -> None:
    """Report each endpoint that names no state, and each repeated transition."""

    seen: dict[tuple[tuple[str, ...], tuple[str, ...], str | None], TransitionDef] = {}
    for tr in transitions:
        for label, endpoint in (("source", tr.source), ("target", tr.target)):
            if endpoint not in table.named:
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
# Elements
# ---------------------------------------------------------------------------


def _element_table(
    name: str, states: Sequence[StateDef], transitions: Sequence[TransitionDef]
) -> ElementTable:
    """The chart's elements, by one iterative pre-order walk of its states."""

    table = ElementTable(ElementHandle(name, _CHART), _STATE)
    stack = [((st.name,), st) for st in reversed(states)]
    while stack:
        path, st = stack.pop()
        table.add_named(path)
        for inv in st.invariants_src:
            table.add_bracketed(_INVARIANT, path, inv)
        stack.extend((path + (sub.name,), sub) for sub in reversed(st.substates))
    for tr in transitions:
        text = f"{'.'.join(tr.source)} -> {'.'.join(tr.target)}"
        table.add_bracketed(_TRANSITION, (), text, {"source": tr.source, "target": tr.target})
    return table


def enumerate_elements(model: StatechartModel) -> tuple[ElementHandle, ...]:
    """All addressable elements in a stable pre-order.

    Order: the chart itself, then each state in source order (each followed
    by its invariants, then its substates, recursively), then transitions
    in source order.
    """

    return tuple(model.element_table.handles)


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
