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
dotted) name and may carry opaque event text after ``:``.  One loop reads
the chart body and every state body: transitions belong to the chart body
only, invariants to a state body only.  A state may be named ``state``,
``initial`` or ``final``; in either body such a word before ``->`` or
``.`` does not start a state.  A bare ``...`` inside a body is accepted as
an elision marker and ignored.

A chart reader reads the common case from the text, one body item per
match; any other text goes whole to the token parser, the reference.
Either only reads: one walk over the records it returns builds the
model's element table (see :mod:`tagweaver.elements`) and reports every
finding, so a chart is judged alike whichever reader read it.

The table holds the chart, its states by path, each invariant under its
state, and each transition with its ``source`` and ``target`` paths,
labelled as in its production.  An element is reported with the grammar
production it comes from, never with a scope keyword: the derived
language profile names those, and it decides, through its bracket forms,
how a reference reads as an element.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from functools import cache, cached_property

from .diagnostics import Condition, Diagnostic, Severity, reporter
from .elements import ElementHandle, ElementTable
from .errors import ParseError
from .parsing import _ID, ARROW, BRACKET, ELLIPSIS, EOF, IDENT, MAX_NESTING, TokenCursor
from .parsing import dotted, placer, skip_for, tokenize
from .records import field, record

__all__ = [
    "PRODUCTIONS",
    "StateDef",
    "TransitionDef",
    "StatechartModel",
    "parse_statechart",
    "enumerate_elements",
    "pretty_print_statechart",
]

# What the parser files, by grammar production (``samples/statechart.glang``):
# the labels of a bracketed production's parts, or None for a named one.
PRODUCTIONS = dict(SCDefinition=None, State=None, Transition=("source", "target"), Invariant=())
_CHART, _STATE, _TRANSITION, _INVARIANT = PRODUCTIONS
_STATE_WORDS = ("state", "initial", "final")


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
        # A model built by hand: its findings are its own, not the walk's.
        return _element_table(self.name, self.states, self.transitions, reporter([], None))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def parse_statechart(text: str, filename: str | None = None) -> StatechartModel:
    """Parse ``.sc`` source text into a :class:`StatechartModel`.

    Raises :class:`~tagweaver.errors.ParseError` on syntax errors.  Sibling
    states that share a name, transition endpoints that name no state and
    repeated transitions are kept as ``findings``.  Text the chart reader
    does not read goes whole to the token parser, whose errors these are.
    """

    return _read_chart(text, filename) or _parse_tokens(text, filename)


# The chart reader.  One match reads one body item: a transition, ``PATH ->
# PATH (: EVENT)? ;`` (lastindex 2, or 3 with an event); a state, ``(initial |
# final)? state NAME`` and its ``;`` (6) or ``{`` (7); an invariant ``[text];``
# (8); ``}`` (9); or ``...`` (10).  The pieces are the tokenizer's, as in
# ``tagmodel``'s reader, so a match reads the tokens that ``tokenize`` reads.
# An event is read only where its text is the token parser's slice: tokens
# with spaces or tabs between them, whitespace only before them.  A transition
# and a state never match the same text: a state's second token is a name, a
# transition's ``.`` or ``->``.  The pattern is built for the skip that
# ``parsing.skip_for`` picks for the text.
_EVENT_TOKEN = rf"(?:{_ID}|->|[(),.])"


@cache
def _body(skip: str):
    """The matcher of one body item over the skip ``skip``."""

    path = rf"{_ID}(?:{skip}\.{skip}{_ID})*"
    return re.compile(
        rf"{skip}(?:({path}){skip}->{skip}({path}){skip}"
        rf"(?::[ \t\r\n]*({_EVENT_TOKEN}(?:[ \t]*{_EVENT_TOKEN})*){skip})?;"
        rf"|(?:(initial|final)\b{skip})?state\b{skip}({_ID}){skip}(?:(;)|(\{{))"
        rf"|\[([^\[\]]*)\]{skip};|(\}})|(\.\.\.))?"
    ).match


def _read_chart(text: str, filename: str | None) -> StatechartModel | None:
    """The model of ``text`` if the chart reader reads all of it, else ``None``."""

    try:  # the header up to its '{', by the token parser's own code
        cur = TokenCursor(tokenize(text[: text.find("{") + 1], raw_brackets=True), filename)
        package, name = _parse_header(cur)
        brace = cur.expect(EOF)
    except ParseError:
        return None
    item, place, pos = _body(skip_for(text)), placer(text, brace), brace.start
    states, invariants, transitions = [], [], []
    outer = []  # the open states: (name and modifiers, place, enclosing body's lists)
    while True:
        m = item(text, pos)
        pos, kind = m.end(), m.lastindex
        if (kind is None or (kind <= 3 and outer) or (kind == 7 and len(outer) == MAX_NESTING)
                or (kind == 8 and not outer)):
            return None
        if kind <= 3:
            transitions.append(TransitionDef(dotted(m[1]), dotted(m[2]), m[3], *place(m.start(1))))
        elif kind <= 7:
            state, modifier, where = m.group(5), m.group(4), place(m.start(5))
            head = (state, modifier == "initial", modifier == "final")
            if kind == 6:
                states.append(StateDef(*head, (), (), *where))
            else:
                outer.append((head, where, states, invariants))
                states, invariants = [], []
        elif kind == 8:
            invariants.append(m.group(8).strip())
        elif kind == 9 and outer:
            head, where, enclosing, invariants_out = outer.pop()
            enclosing.append(StateDef(*head, tuple(states), tuple(invariants), *where))
            states, invariants = enclosing, invariants_out
        elif kind == 9:
            break  # the chart's '}'; ``...`` (10) reads nothing
    rest = item(text, pos)
    if rest.lastindex is not None or rest.end() < len(text):
        return None
    return _model(package, name, states, transitions, filename)


def _parse_tokens(text: str, filename: str | None) -> StatechartModel:
    """The token parser: the reference for every chart, and the one that reports errors."""

    cur = TokenCursor(tokenize(text, raw_brackets=True, filename=filename), filename)
    package, name = _parse_header(cur)
    states, transitions, _ = _parse_body(cur, text, "statechart")
    cur.expect(EOF)
    return _model(package, name, states, transitions, filename)


def _parse_header(cur: TokenCursor) -> tuple[str, str]:
    """Read up to the body's ``{``; the chart's package and name."""

    package = cur.package()
    cur.expect_keyword("statechart")
    name = cur.expect(IDENT).value
    cur.expect("{")
    return package, name


def _model(package, name, states, transitions, filename) -> StatechartModel:
    """The model of a chart read: its element table and findings, from one walk of its records.

    Both readers only read; this is where either's records are judged.
    """

    table = _element_table(name, states, transitions, reporter(findings := [], filename))
    model = StatechartModel(package, name, tuple(states), tuple(transitions), tuple(findings), filename)
    model.__dict__["element_table"] = table  # what the cached property would build
    return model


def _parse_body(cur: TokenCursor, text: str, kind: str):
    """Read a ``statechart`` or ``state`` body through its ``}``.

    Returns its (states, transitions, invariants): transitions are read in
    a chart body only, invariants in a state body only.
    """

    states: list[StateDef] = []
    transitions: list[TransitionDef] = []
    invariants: list[str] = []
    while not cur.match("}"):
        if cur.match(ELLIPSIS):
            continue
        tok = cur.peek()
        # A state may be named ``state``, ``initial`` or ``final``: such a
        # word before ``->`` or ``.`` leads a transition, so it starts no state.
        if tok.kind == IDENT and tok.value in _STATE_WORDS and cur.peek(1).kind not in (ARROW, "."):
            states.append(_parse_state(cur, text))
        elif tok.kind == IDENT and kind == "statechart":
            transitions.append(_parse_transition(cur, text))
        elif tok.kind == BRACKET and kind == "state":
            cur.advance()
            cur.expect(";")
            invariants.append(tok.value.strip())
        elif tok.kind == BRACKET:
            raise cur.error("invariants are only allowed inside a state body")
        elif tok.kind == EOF:
            raise cur.error("unexpected end of input: missing '}'")
        else:
            raise cur.error(f"unexpected '{tok.value}' in {kind} body")
    return states, transitions, invariants


def _parse_state(cur: TokenCursor, text: str) -> StateDef:
    first = cur.peek()
    modifiers: list[str] = []
    while cur.peek().kind == IDENT and cur.peek().value in ("initial", "final"):
        word = cur.advance().value
        if word in modifiers:
            raise cur.error(f"duplicate '{word}' modifier", first)
        modifiers.append(word)
    if len(modifiers) == 2:
        raise cur.error("a state cannot be both initial and final", first)
    cur.expect_keyword("state")
    name_tok = cur.expect(IDENT)
    if cur.at("{"):
        cur.enter(cur.advance())
        substates, _, invariants = _parse_body(cur, text, "state")
        cur.leave()
    else:
        cur.expect(";")
        substates = invariants = ()

    return StateDef(
        name_tok.value, "initial" in modifiers, "final" in modifiers,
        tuple(substates), tuple(invariants), name_tok.line, name_tok.col,
    )


def _parse_transition(cur: TokenCursor, text: str) -> TransitionDef:
    source, first = cur.qualified_name()
    cur.expect(ARROW)
    target, _ = cur.qualified_name()
    event: str | None = None
    if cur.at(":"):
        colon = last = cur.advance()
        # Event text is opaque: the raw source slice through its last token
        # before ';', so a trailing comment is not part of it.
        while not cur.at(";") and not cur.at(EOF):
            last = cur.advance()
        if cur.at(EOF):
            raise cur.error("unterminated transition: missing ';'")
        event = text[colon.end : last.end].strip()
    cur.expect(";")
    return TransitionDef(source, target, event, first.line, first.col)


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


def _element_table(
    name: str, states: Sequence[StateDef], transitions: Sequence[TransitionDef], report
) -> ElementTable:
    """The chart's elements, by one iterative pre-order walk of its states, and its findings.

    In source order, it reports each state whose name an earlier sibling in
    the same body has, each transition endpoint that names no state, and
    each repeated transition.
    """

    def body(path: tuple[str, ...], substates: Sequence[StateDef]) -> list:
        siblings: set[str] = set()  # the names seen so far in this body
        return [(path + (sub.name,), sub, siblings) for sub in reversed(substates)]

    table = ElementTable(ElementHandle(name, _CHART))
    stack = body((), states)
    while stack:
        path, st, siblings = stack.pop()
        if st.name in siblings:
            report(Condition.DUPLICATE_SIBLING_STATE, f"duplicate sibling state '{st.name}'", st.line, st.col)
        siblings.add(st.name)
        table.add_named(path, _STATE)
        for inv in st.invariants_src:
            table.add_bracketed(_INVARIANT, path, inv)
        stack += body(path, st.substates)
    seen: dict[tuple[tuple[str, ...], tuple[str, ...], str | None], TransitionDef] = {}
    for tr in transitions:
        src, tgt = ".".join(tr.source), ".".join(tr.target)
        parts = dict(zip(PRODUCTIONS[_TRANSITION], (tr.source, tr.target)))
        for label, endpoint in parts.items():
            if endpoint not in table.named:
                report(Condition.UNRESOLVED_TRANSITION_ENDPOINT,
                       f"transition {label} '{'.'.join(endpoint)}' does not name a state", tr.line, tr.col)
        key = (tr.source, tr.target, tr.event)
        if key in seen:
            event = f" : {tr.event}" if tr.event is not None else ""
            report(Condition.DUPLICATE_TRANSITION,
                   f"duplicate transition {src} -> {tgt}{event} (lines {seen[key].line} and {tr.line})",
                   tr.line, tr.col, Severity.WARNING)
        else:
            seen[key] = tr
        table.add_bracketed(_TRANSITION, (), f"{src} -> {tgt}", parts)
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
    """Render a model back to canonical ``.sc`` text (round-trip safe).

    An invariant or event whose text would not re-parse raises ``ValueError``.
    """

    lines = [f"package {model.package};", "", f"statechart {model.name} {{"]

    def emit_state(st: StateDef, path: str, depth: int) -> None:
        pad = "    " * depth
        mods = ("initial " if st.initial else "") + ("final " if st.final else "")
        if not st.substates and not st.invariants_src:
            lines.append(f"{pad}{mods}state {st.name};")
            return
        lines.append(f"{pad}{mods}state {st.name} {{")
        for inv in st.invariants_src:
            if _token_kinds(f"[{inv}]") != [BRACKET, EOF]:
                raise ValueError(f"state '{path}': invariant {inv!r} would not re-parse")
            lines.append(f"{pad}    [{inv}];")
        for sub in st.substates:
            emit_state(sub, f"{path}.{sub.name}", depth + 1)
        lines.append(f"{pad}}}")

    for st in model.states:
        emit_state(st, st.name, 1)
    if model.transitions:
        lines.append("")
    for tr in model.transitions:
        src, tgt = ".".join(tr.source), ".".join(tr.target)
        if tr.event is not None:
            kinds = _token_kinds(f"{tr.event};")  # the parser reads an event up to its first ';'
            if kinds[-2:] != [";", EOF] or kinds.count(";") > 1:
                raise ValueError(f"transition {src} -> {tgt}: event {tr.event!r} would not re-parse")
            lines.append(f"    {src} -> {tgt} : {tr.event};")
        else:
            lines.append(f"    {src} -> {tgt};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _token_kinds(text: str) -> list[str]:
    """The kinds of the tokens that the parser reads from ``text``, or none if it cannot."""

    try:
        return [tok.kind for tok in tokenize(text, raw_brackets=True)]
    except ParseError:
        return []
