"""Seeded synthetic workspaces for the benchmark.

Every workload is built from a plan drawn from ``random.Random(seed)``.
The plan is rendered to ``.glang``, ``.sc``, ``.tagschema`` and ``.tag``
files, and the expectations — the multiset of attachments, the number of
expanded (element, tag) pairs and the number of duplicate-tag warnings —
are computed from the same plan, never by calling ``tagweaver``.  Sizes
(states, statements, pairs) depend only on the workload and its scale;
the seed changes names, shapes of values, statement order and where the
planted duplicates go.
"""

from __future__ import annotations

import json
import random
import shutil
import string
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

MANIFEST = """\
grammar Statechart

external Name
external Expression

@named @alias Statechart production SCDefinition = Name State* Transition*
@named production State = Name State* Invariant?
@sketch "source -> target" production Transition = source:Name target:Name
production Invariant = Expression
@skip interface Element
"""

SCHEMA_NAME = "benchschema.BenchSchema"
SCHEMA = """\
package benchschema;
tagschema BenchSchema {
    tagtype Monitored for State, Invariant;
    tagtype Priority:int for +;
    tagtype Level:["low"|"mid"|"high"|"critical"] for State, Transition;
    tagtype Note:String for +;
    tagtype Enabled:Boolean for State, Statechart;
    private tagtype Endpoint { host:String, port:int, secure:Boolean?; }
    private tagtype Retry { attempts:int, backoff:String*; }
    tagtype Exception for State, Transition {
        type:String, msg:String, code:int?, retry:Retry?;
    }
    tagtype Handler for State, Transition, Statechart {
        name:String, target:Endpoint+, opts:String*;
    }
}
"""

LEVELS = ("low", "mid", "high", "critical")
WORDS = (
    "network", "timeout", "retry", "socket", "closed", "user", "call", "dial",
    "buffer", "overflow", "signal", "lost", "queue", "full", "audit", "trace",
)

# Scale of each workload: the full size is what the timed runs use, the
# quick size keeps a smoke run within seconds.
SCALES = {
    "flat-brackets": {"full": {"states": 400}, "quick": {"states": 40}},
    "nested-contexts": {
        "full": {"branching": 3, "depth": 6, "duplicates": 24},
        "quick": {"branching": 3, "depth": 3, "duplicates": 4},
    },
    "merged-export": {
        "full": {"branching": 7, "depth": 3, "files": 4, "brackets": 24},
        "quick": {"branching": 2, "depth": 3, "files": 3, "brackets": 4},
    },
}
COMMANDS = {"flat-brackets": "check", "nested-contexts": "check", "merged-export": "export"}
PROBE_DEPTH = 1500


# ---------------------------------------------------------------------------
# Values: one plan value renders both to .tag text and to its export JSON
# ---------------------------------------------------------------------------
#
# A value is ("flag",), ("scalar", kind, literal, python_value) or
# ("complex", ((subtag_name, value), ...)); kinds are the export kinds.


def _flag():
    return ("flag",)


def _scalar(kind: str, py) -> tuple:
    literal = ("true" if py else "false") if kind == "bool" else str(py)
    return ("scalar", kind, literal, py)


def _complex(*subtags) -> tuple:
    return ("complex", tuple(subtags))


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def render_use(name: str, value: tuple) -> str:
    if value[0] == "flag":
        return name
    if value[0] == "scalar":
        return f'{name} = "{_escape(value[2])}"'
    inner = ", ".join(render_use(sub, child) for sub, child in value[1])
    return f"{name} {{ {inner}; }}"


def value_json(value: tuple) -> dict:
    if value[0] == "flag":
        return {"kind": "flag"}
    if value[0] == "scalar":
        return {"kind": value[1], "value": value[3]}
    return {
        "kind": "complex",
        "subtags": [{"name": sub, "value": value_json(child)} for sub, child in value[1]],
    }


def canonical(value_as_json: dict) -> str:
    return json.dumps(value_as_json, sort_keys=True)


class Values:
    """Random values that satisfy each tag type of ``SCHEMA``."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def text(self) -> str:
        words = [self.rng.choice(WORDS) for _ in range(self.rng.randint(2, 6))]
        if self.rng.random() < 0.1:
            words.append('"quoted\\path"')
        return " ".join(words)

    def of(self, tag: str) -> tuple:
        rng = self.rng
        if tag == "Monitored":
            return _flag()
        if tag == "Priority":
            return _scalar("int", rng.randint(-10**6, 10**6))
        if tag == "Level":
            return _scalar("enum", rng.choice(LEVELS))
        if tag == "Note":
            return _scalar("string", self.text())
        if tag == "Enabled":
            return _scalar("bool", rng.random() < 0.5)
        if tag == "Exception":
            subs = [
                ("type", _scalar("string", rng.choice(WORDS).capitalize() + "Error")),
                ("msg", _scalar("string", self.text())),
            ]
            if rng.random() < 0.5:
                subs.append(("code", _scalar("int", rng.randint(1, 999))))
            if rng.random() < 0.5:
                retry = [("attempts", _scalar("int", rng.randint(1, 9)))]
                retry += [("backoff", _scalar("string", f"{rng.randint(1, 60)}s"))
                          for _ in range(rng.randint(0, 3))]
                subs.append(("retry", _complex(*retry)))
            return _complex(*subs)
        if tag == "Handler":
            subs = [("name", _scalar("string", rng.choice(WORDS) + "_handler"))]
            for _ in range(rng.randint(1, 3)):
                endpoint = [
                    ("host", _scalar("string", f"{rng.choice(WORDS)}.example")),
                    ("port", _scalar("int", rng.randint(1, 65535))),
                ]
                if rng.random() < 0.5:
                    endpoint.append(("secure", _scalar("bool", rng.random() < 0.5)))
                subs.append(("target", _complex(*endpoint)))
            subs += [("opts", _scalar("string", rng.choice(WORDS))) for _ in range(rng.randint(0, 2))]
            return _complex(*subs)
        raise ValueError(f"no value generator for tag type {tag}")


# ---------------------------------------------------------------------------
# Plans and expectations
# ---------------------------------------------------------------------------


@dataclass
class Expectations:
    """What a correct checker must report, counted from the plan."""

    attachments: Counter = field(default_factory=Counter)
    pairs: int = 0
    warnings: int = 0
    _seen: set = field(default_factory=set)

    def tag(self, file_key: str, path: str, element_type: str, tag: str, value: tuple) -> None:
        key = canonical(value_json(value))
        self.attachments[(path, element_type, tag, SCHEMA_NAME, key)] += 1
        self.pairs += 1
        # The checker warns when one tag model repeats (element, tag, value).
        seen_key = (file_key, path, tag, key)
        if seen_key in self._seen:
            self.warnings += 1
        self._seen.add(seen_key)


@dataclass
class GeneratedWorkspace:
    command: str  # the CLI subcommand the workload runs
    target: str  # qualified name of the chart
    manifest: Path
    model: Path
    schema: Path
    tag_files: list
    expected: Expectations

    def cli_args(self, tag_files=None) -> list:
        args = [self.command, "--manifest", str(self.manifest), "--model", str(self.model),
                "--schema", str(self.schema)]
        for path in tag_files if tag_files is not None else self.tag_files:
            args += ["--tags", str(path)]
        if self.command == "check":
            args += ["--format", "json"]
        return args


def _names(rng: random.Random, count: int) -> list:
    """``count`` distinct state names; the capital first letter keeps them
    apart from every lower-case keyword of the three languages."""

    names: set = set()
    while len(names) < count:
        names.add(rng.choice(string.ascii_uppercase)
                  + "".join(rng.choice(string.ascii_lowercase + string.digits) for _ in range(4)))
    out = sorted(names)
    rng.shuffle(out)
    return out


def _tree(rng: random.Random, branching: int, depth: int) -> list:
    """A full tree as nested lists of (name, children)."""

    if depth == 0:
        return []
    return [(name, _tree(rng, branching, depth - 1)) for name in _names(rng, branching)]


def _paths(tree: list, prefix: str = "") -> list:
    out = []
    for name, children in tree:
        path = f"{prefix}{name}"
        out.append(path)
        out.extend(_paths(children, f"{path}."))
    return out


def _render_states(tree: list, invariants: dict, lines: list, indent: str, prefix: str = "") -> None:
    for name, children in tree:
        path = f"{prefix}{name}"
        expr = invariants.get(path)
        if not children and expr is None:
            lines.append(f"{indent}state {name};")
            continue
        lines.append(f"{indent}state {name} {{")
        if expr is not None:
            lines.append(f"{indent}    [ {expr.replace(' ', '   ')} ];")
        _render_states(children, invariants, lines, indent + "    ", f"{path}.")
        lines.append(f"{indent}}}")


def _chart_text(package: str, chart: str, tree: list, invariants: dict, transitions: list) -> str:
    lines = [f"package {package};", f"statechart {chart} {{"]
    _render_states(tree, invariants, lines, "    ")
    for i, (src, tgt) in enumerate(transitions):
        event = f" : ev{i}()" if i % 2 else ""
        lines.append(f"    {src} -> {tgt}{event};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tag_header(package: str, name: str, chart: str) -> list:
    return [f"package {package};", f"conforms to {SCHEMA_NAME};", "", f"tags {name} for {chart} {{"]


def _statement(refs: list, uses: list, indent: str) -> str:
    tags = ", ".join(render_use(tag, value) for tag, value in uses)
    return f"{indent}tag {', '.join(refs)} with {tags};"


def _expression(rng: random.Random, index: int) -> str:
    op = rng.choice((">", "<", ">=", "<=", "==", "!="))
    return f"v{index}_{rng.randrange(10**6)} {op} {rng.randint(0, 999)}"


def _flat(rng: random.Random, states: int) -> tuple:
    """One flat chart: every state has one invariant and one outgoing
    transition.  One tag file tags every state with two tags, and every
    invariant and transition with one, addressing them by ``[...]``: four
    attachments per state, the make-up of the ROADMAP Baseline."""

    values = Values(rng)
    exp = Expectations()
    chart = "FlatChart"
    names = _names(rng, states)
    tree = [(name, []) for name in names]
    invariants = {name: _expression(rng, i) for i, name in enumerate(names)}
    transitions = []
    for i, name in enumerate(names):
        j = rng.randrange(states - 1)
        transitions.append((name, names[j if j < i else j + 1]))
    model = _chart_text("flat", chart, tree, invariants, transitions)

    statements = []
    for name in names:
        uses = [("Monitored", values.of("Monitored")), ("Priority", values.of("Priority"))]
        statements.append(_statement([name], uses, "    "))
        for tag, value in uses:
            exp.tag("t0", name, "State", tag, value)

        expr = invariants[name]
        uses = [("Note", values.of("Note"))]
        statements.append(_statement([f"[{expr}]"], uses, "    "))
        for tag, value in uses:
            exp.tag("t0", f"{name}.[{expr}]", "Invariant", tag, value)
    for src, tgt in transitions:
        uses = [("Level", values.of("Level"))]
        statements.append(_statement([f"[{src} -> {tgt}]"], uses, "    "))
        for tag, value in uses:
            exp.tag("t0", f"[{src} -> {tgt}]", "Transition", tag, value)
    rng.shuffle(statements)
    tags = "\n".join(_tag_header("flat", "FlatTags", chart) + statements + ["}"]) + "\n"
    return f"flat.{chart}", model, [tags], exp


def _nested(rng: random.Random, branching: int, depth: int, duplicates: int) -> tuple:
    """A bushy chart; the tag file mirrors it with nested ``within`` blocks
    and relative names, and repeats ``duplicates`` taggings verbatim."""

    values = Values(rng)
    exp = Expectations()
    chart = "NestChart"
    tree = _tree(rng, branching, depth)
    paths = _paths(tree)
    transitions = sorted({(rng.choice(paths), rng.choice(paths)) for _ in range(len(paths) // 8)})
    model = _chart_text("nest", chart, tree, {}, transitions)

    blocks = []  # (children, context path) of every level that holds states

    def collect(children: list, context: str) -> None:
        blocks.append((children, context))
        for name, grand in children:
            if grand:
                collect(grand, f"{context}.{name}" if context else name)

    collect(tree, "")
    planted = Counter(rng.randrange(len(blocks)) for _ in range(duplicates))

    def emit(block_index: int, lines: list, indent: str) -> None:
        children, context = blocks[block_index]
        names = [name for name, _ in children]
        half = max(1, len(names) // 2)
        groups = [
            (names, [("Monitored", _flag()), ("Handler", values.of("Handler"))]),
            (names[:half], [("Exception", values.of("Exception")), ("Priority", values.of("Priority"))]),
            (names[half:], [("Exception", values.of("Exception")), ("Level", values.of("Level"))]),
        ]
        for refs, uses in groups:
            if not refs:
                continue
            lines.append(_statement(refs, uses, indent))
            for ref in refs:
                for tag, value in uses:
                    exp.tag("t0", f"{context}.{ref}" if context else ref, "State", tag, value)
        for _ in range(planted[block_index]):
            ref = rng.choice(names)
            lines.append(_statement([ref], [("Monitored", _flag())], indent))
            exp.tag("t0", f"{context}.{ref}" if context else ref, "State", "Monitored", _flag())

    lines = _tag_header("nest", "NestTags", chart)
    uses = [("Enabled", values.of("Enabled")), ("Handler", values.of("Handler"))]
    lines.append(_statement([chart], uses, "    "))
    for tag, value in uses:
        exp.tag("t0", chart, "Statechart", tag, value)

    # Blocks are visited in pre-order, so each `within` opens right after
    # its parent's statements and closes after its own subtree.
    index = {context: i for i, (_, context) in enumerate(blocks)}

    def walk(context: str, indent: str) -> None:
        emit(index[context], lines, indent)
        for name, grand in blocks[index[context]][0]:
            if grand:
                lines.append(f"{indent}within {name} {{")
                walk(f"{context}.{name}" if context else name, indent + "    ")
                lines.append(f"{indent}}}")

    walk("", "    ")
    lines.append("}")
    assert exp.warnings == duplicates
    return f"nest.{chart}", model, ["\n".join(lines) + "\n"], exp


def _merged(rng: random.Random, branching: int, depth: int, files: int, brackets: int) -> tuple:
    """A bushy chart tagged across several tag files by root-level
    qualified names, with a few invariants and transitions by ``[...]``."""

    values = Values(rng)
    exp = Expectations()
    chart = "MergeChart"
    tree = _tree(rng, branching, depth)
    paths = _paths(tree)
    invariant_paths = paths[::4]
    invariants = {path: _expression(rng, i) for i, path in enumerate(invariant_paths)}
    transitions = sorted({(rng.choice(paths), rng.choice(paths)) for _ in range(len(paths) // 4)})
    model = _chart_text("merge", chart, tree, invariants, transitions)

    bodies = [[] for _ in range(files)]

    def put(refs: list, element_paths: list, element_type: str, uses: list) -> None:
        slot = rng.randrange(files)
        bodies[slot].append(_statement(refs, uses, "    "))
        for path in element_paths:
            for tag, value in uses:
                exp.tag(f"t{slot}", path, element_type, tag, value)

    order = list(paths)
    rng.shuffle(order)
    i = 0
    while i < len(order):
        group = order[i:i + rng.randint(1, 3)]
        i += len(group)
        put(group, group, "State", [("Exception", values.of("Exception")), ("Level", values.of("Level"))])
        put(group, group, "State", [("Handler", values.of("Handler")), ("Priority", values.of("Priority"))])
    for path in rng.sample(invariant_paths, brackets // 2):
        expr = invariants[path]
        put([f"[{expr}]"], [f"{path}.[{expr}]"], "Invariant", [("Note", values.of("Note"))])
    for src, tgt in rng.sample(transitions, brackets - brackets // 2):
        ref = f"[{src} -> {tgt}]"
        put([ref], [ref], "Transition", [("Exception", values.of("Exception"))])
    texts = []
    for slot, body in enumerate(bodies):
        rng.shuffle(body)
        texts.append("\n".join(_tag_header("merge", f"MergeTags{slot}", chart) + body + ["}"]) + "\n")
    return f"merge.{chart}", model, texts, exp


def _write(root: Path, command: str, target: str, model: str, tag_texts: list,
           expected: Expectations) -> GeneratedWorkspace:
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    files = {"grammar.glang": MANIFEST, "chart.sc": model, "schema.tagschema": SCHEMA}
    files.update({f"tags{i}.tag": text for i, text in enumerate(tag_texts)})
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return GeneratedWorkspace(
        command=command,
        target=target,
        manifest=root / "grammar.glang",
        model=root / "chart.sc",
        schema=root / "schema.tagschema",
        tag_files=[root / f"tags{i}.tag" for i in range(len(tag_texts))],
        expected=expected,
    )


def generate(workload: str, seed: int, root: Path, quick: bool = False,
             **scale_overrides) -> GeneratedWorkspace:
    """Write the workload's files under ``root`` (emptied first)."""

    rng = random.Random(f"{workload}:{seed}")
    scale = {**SCALES[workload]["quick" if quick else "full"], **scale_overrides}
    build = {"flat-brackets": _flat, "nested-contexts": _nested, "merged-export": _merged}
    return _write(root, COMMANDS[workload], *build[workload](rng, **scale))


def generate_probe(root: Path) -> GeneratedWorkspace:
    """A chart nested ``PROBE_DEPTH`` states deep and a tag file whose
    ``within`` blocks follow it to the bottom.  It does not depend on the
    seed."""

    depth = PROBE_DEPTH
    names = [f"D{i}" for i in range(depth)]
    model = ["package deep;", "statechart DeepChart {"]
    model += [f"state {name} {{" for name in names[:-1]] + [f"state {names[-1]};"]
    model += ["}"] * (depth - 1) + ["}"]
    tags = _tag_header("deep", "DeepTags", "DeepChart")
    tags += [f"within {name} {{" for name in names[:-1]]
    tags += [f"tag {names[-1]} with Monitored;"] + ["}"] * (depth - 1) + ["}"]
    exp = Expectations()
    exp.tag("t0", ".".join(names), "State", "Monitored", _flag())
    return _write(root, "check", "deep.DeepChart", "\n".join(model) + "\n",
                  ["\n".join(tags) + "\n"], exp)
