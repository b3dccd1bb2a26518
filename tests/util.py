"""Generators and independent oracles shared across the test modules.

The oracles here deliberately re-derive expected results from first
principles — flat path tables, plan-side counting, direct definition
checks — rather than calling back into the package's own logic, so they
can catch structural mistakes in the real implementations.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from hypothesis import strategies as st

from tagweaver import (
    ElementIdentifier,
    StatechartModel,
    TagModel,
    TagSchema,
    TagStatement,
    TagUse,
    TagValue,
)
from tagweaver.errors import ParseError
from tagweaver.tagmodel import Context
from tagweaver.tagschema import Cardinality, DomainSpec, TagTypeDef

# ---------------------------------------------------------------------------
# Random grammar manifests (plan -> text), with plan-side keyword counting
# ---------------------------------------------------------------------------


@dataclass
class RefPlan:
    nonterminal: str
    pi: str | None = None
    cardinality: str = ""


@dataclass
class ProductionPlan:
    name: str
    named: bool = False
    skipped: bool = False
    alias: str | None = None
    sketch: str | None = None
    refs: list[RefPlan] = field(default_factory=list)


@dataclass
class ManifestPlan:
    grammar: str
    externals: list[str]
    interfaces: list[str]
    productions: list[ProductionPlan]


_PI_POOL = ["alpha", "beta", "gamma", "delta", "src", "dst", "lhs", "rhs"]


def random_manifest_plan(rng: random.Random) -> ManifestPlan:
    n = rng.randint(1, 7)
    names = [f"P{i}" for i in range(n)]
    externals = [f"Ext{i}" for i in range(rng.randint(0, 2))]
    interfaces = [f"Iface{i}" for i in range(rng.randint(0, 2))]
    pool = names + externals + interfaces

    skip_flags = [rng.random() < 0.25 for _ in names]
    if all(skip_flags):
        skip_flags[rng.randrange(n)] = False

    productions = []
    for name, skipped in zip(names, skip_flags):
        refs: list[RefPlan] = []
        chosen = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        counts = Counter(chosen)
        used_pis: set[str] = set()
        for nt in chosen:
            pi = None
            if counts[nt] > 1 or rng.random() < 0.3:
                if rng.random() < 0.1 and name not in used_pis:
                    pi = rng.choice(names)  # collide with a production name
                else:
                    pi = rng.choice(_PI_POOL)
                if pi in used_pis:
                    pi = f"pi{len(used_pis)}"
                used_pis.add(pi)
            refs.append(RefPlan(nt, pi, rng.choice(["", "", "", "?", "*", "+"])))
        productions.append(
            ProductionPlan(
                name=name,
                named=rng.random() < 0.5,
                skipped=skipped,
                alias=f"{name}Alias" if rng.random() < 0.15 else None,
                sketch=rng.choice([None, None, None, "a -> b"]),
                refs=refs,
            )
        )
    return ManifestPlan("G", externals, interfaces, productions)


def render_manifest_plan(plan: ManifestPlan, rng: random.Random | None = None) -> str:
    rng = rng or random.Random(0)
    lines = [f"grammar {plan.grammar}", ""]
    for name in plan.externals:
        lines.append(f"external {name}")
    for name in plan.interfaces:
        lines.append(f"interface {name}")
    for prod in plan.productions:
        annotations = []
        if prod.named:
            annotations.append("@named")
        if prod.skipped:
            annotations.append("@skip")
        if prod.alias:
            annotations.append(f"@alias {prod.alias}")
        if prod.sketch:
            annotations.append(f'@sketch "{prod.sketch}"')
        rng.shuffle(annotations)
        head = " ".join(annotations + [f"production {prod.name}"])
        if prod.refs:
            refs = " ".join(
                (f"{r.pi}:{r.nonterminal}" if r.pi else r.nonterminal) + r.cardinality
                for r in prod.refs
            )
            lines.append(f"{head} = {refs}")
        else:
            lines.append(head)
        if rng.random() < 0.2:
            lines.append("# filler comment")
    return "\n".join(lines) + "\n"


def plan_keyword_count(plan: ManifestPlan) -> int:
    """Keyword counting law, computed straight from the plan."""

    active = [p for p in plan.productions if not p.skipped]
    count = len(active)
    for prod in active:
        nt_counts = Counter(r.nonterminal for r in prod.refs)
        count += sum(
            1 for r in prod.refs if r.pi is not None and nt_counts[r.nonterminal] > 1
        )
    return count


def plan_keywords(plan: ManifestPlan) -> list[str]:
    """Expected keyword spellings, computed straight from the plan."""

    active = [p for p in plan.productions if not p.skipped]
    plain = [p.alias or p.name for p in active]
    all_pis = Counter(
        r.pi for p in plan.productions for r in p.refs if r.pi is not None
    )
    production_names = {p.name for p in plan.productions}
    keywords = list(plain)
    for prod in active:
        nt_counts = Counter(r.nonterminal for r in prod.refs)
        for ref in prod.refs:
            if ref.pi is None or nt_counts[ref.nonterminal] <= 1:
                continue
            bare_ok = (
                all_pis[ref.pi] == 1
                and ref.pi not in production_names
                and ref.pi not in set(plain)
            )
            keywords.append(ref.pi if bare_ok else f"{prod.alias or prod.name}_{ref.pi}")
    return keywords


# ---------------------------------------------------------------------------
# Random tiny workspaces (statechart + schema) for conformance properties
# ---------------------------------------------------------------------------

_EXPRESSIONS = ["a > b", "x != y", "ready", "count = 0"]


def random_statechart_text(
    rng: random.Random, max_extra_elements: int = 4, unique_invariants: bool = True
) -> str:
    """A small chart whose total element count stays within bounds.

    ``max_extra_elements`` caps states + invariants + transitions (the
    chart itself comes on top).  A state carries at most one invariant;
    with ``unique_invariants`` no two states share an expression, so every
    invariant is addressable from the root.
    """

    budget = rng.randint(1, max_extra_elements)
    lines = ["package m;", "statechart Chart {"]
    state_paths: list[str] = []
    used_exprs: list[str] = []

    def emit_states(prefix: str, indent: str, depth: int) -> None:
        nonlocal budget
        index = 0
        while budget > 0 and rng.random() < (0.9 if not state_paths else 0.55):
            name = f"S{depth}{index}"
            index += 1
            path = f"{prefix}{name}"
            state_paths.append(path)
            budget -= 1
            if budget > 0 and depth < 2 and rng.random() < 0.4:
                lines.append(f"{indent}state {name} {{")
                if budget > 0 and rng.random() < 0.5:
                    expr = rng.choice(_EXPRESSIONS)
                    if not unique_invariants or expr not in used_exprs:
                        used_exprs.append(expr)
                        lines.append(f"{indent}    [{expr}];")
                        budget -= 1
                emit_states(f"{path}.", indent + "    ", depth + 1)
                lines.append(f"{indent}}}")
            else:
                lines.append(f"{indent}state {name};")

    emit_states("", "    ", 0)
    if not state_paths:
        lines.append("    state S00;")
        state_paths.append("S00")
        budget -= 1
    while budget > 0 and len(state_paths) >= 2 and rng.random() < 0.5:
        src, tgt = rng.choice(state_paths), rng.choice(state_paths)
        event = rng.choice(["", " : go()", " : tick"])
        lines.append(f"    {src} -> {tgt}{event};")
        budget -= 1
    lines.append("}")
    return "\n".join(lines) + "\n"


_SCOPE_KEYWORDS = ["Statechart", "State", "Transition", "Invariant"]


def random_schema_text(rng: random.Random, max_types: int = 3) -> str:
    """A well-formed schema with 1..max_types tag types, acyclic by construction."""

    count = rng.randint(1, max_types)
    lines = ["package s;", "tagschema Types {"]
    defined: list[str] = []
    for i in range(count):
        name = f"T{i}"
        private = "private " if rng.random() < 0.15 and i < count - 1 else ""
        scope = ""
        roll = rng.random()
        if roll < 0.4:
            chosen = rng.sample(_SCOPE_KEYWORDS, rng.randint(1, 2))
            scope = f" for {', '.join(chosen)}"
        elif roll < 0.5:
            scope = " for +"
        kind = rng.choice(["simple", "native", "enum", "complex" if defined or True else "simple"])
        if kind == "simple":
            lines.append(f"    {private}tagtype {name}{scope};")
        elif kind == "native":
            native = rng.choice(["int", "String", "Boolean"])
            lines.append(f"    {private}tagtype {name}:{native}{scope};")
        elif kind == "enum":
            values = rng.sample(["red", "green", "blue", "amber"], rng.randint(1, 3))
            body = "|".join(f'"{v}"' for v in values)
            lines.append(f"    {private}tagtype {name}:[{body}]{scope};")
        else:
            refs = []
            for j in range(rng.randint(1, 3)):
                target = (
                    rng.choice(defined)
                    if defined and rng.random() < 0.4
                    else rng.choice(["int", "String", "Boolean"])
                )
                mark = rng.choice(["", "?", "*", "+"])
                refs.append(f"r{j}:{target}{mark}")
            joined = ", ".join(refs)
            lines.append(f"    {private}tagtype {name}{scope} {{ {joined}; }}")
        defined.append(name)
    lines.append("}")
    return "\n".join(lines) + "\n"


def required_chain_schema_text(length: int, closed: bool = False) -> str:
    """``T0 { next:T1; } ... T<length>``, one tag type per line from line 3.

    Every reference is required; ``closed`` makes the last type point back
    to ``T0``, so all ``length + 1`` types form one required cycle.
    """

    lines = ["package chain;", "tagschema Chain {"]
    lines += [f"    tagtype T{i} {{ next:T{i + 1}; }}" for i in range(length)]
    lines.append(f"    tagtype T{length} {{ next:T0; }}" if closed else f"    tagtype T{length};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Brute-force conformance oracle
# ---------------------------------------------------------------------------


# The scope keyword of each statechart production under the sample
# manifest (``samples/statechart.glang``), which aliases SCDefinition.
SAMPLE_KEYWORDS = {
    "SCDefinition": "Statechart",
    "State": "State",
    "Transition": "Transition",
    "Invariant": "Invariant",
}


def flat_elements(target: StatechartModel) -> dict[tuple[str, str], None]:
    """Every element but the transitions as a (path, production) key.

    An ordered set: the chart first, then the states in pre-order, each
    followed by its invariants.  A state named after the chart shares the
    chart's path, so the production is part of the key.
    """

    table = {(target.name, "SCDefinition"): None}

    def walk(states, prefix: str) -> None:
        for st in states:
            path = f"{prefix}{st.name}"
            table[(path, "State")] = None
            for inv in st.invariants_src:
                norm = " ".join(inv.split())
                table[(f"{path}.[{norm}]", "Invariant")] = None
            walk(st.substates, f"{path}.")

    walk(target.states, "")
    return table


def oracle_chart_findings(target: StatechartModel) -> list[tuple]:
    """The findings of a chart, re-derived from its records.

    Each is a (condition, severity, message, line, col) tuple.  Body by
    body, recursively and in source order: each state whose name an
    earlier state of the same body has.  Then, transition by transition:
    each endpoint that is not the dotted path of a state, and each
    transition whose source, target and event an earlier one has.
    """

    found: list[tuple] = []
    paths: set[str] = set()

    def walk(states, prefix: str) -> None:
        names: list[str] = []
        for st in states:
            if st.name in names:
                message = f"duplicate sibling state '{st.name}'"
                found.append(("DuplicateSiblingState", "error", message, st.line, st.col))
            names.append(st.name)
            paths.add(prefix + st.name)
            walk(st.substates, f"{prefix}{st.name}.")

    walk(target.states, "")
    earlier: list = []
    for tr in target.transitions:
        src, tgt = ".".join(tr.source), ".".join(tr.target)
        for label, path in (("source", src), ("target", tgt)):
            if path not in paths:
                message = f"transition {label} '{path}' does not name a state"
                found.append(("UnresolvedTransitionEndpoint", "error", message, tr.line, tr.col))
        same = [e for e in earlier if (e.source, e.target, e.event) == (tr.source, tr.target, tr.event)]
        if same:
            event = "" if tr.event is None else f" : {tr.event}"
            message = f"duplicate transition {src} -> {tgt}{event} (lines {same[0].line} and {tr.line})"
            found.append(("DuplicateTransition", "warning", message, tr.line, tr.col))
        earlier.append(tr)
    return found


def transition_counts(target: StatechartModel) -> Counter:
    counts: Counter = Counter()
    for tr in target.transitions:
        counts[f"[{'.'.join(tr.source)} -> {'.'.join(tr.target)}]"] += 1
    return counts


def _oracle_identifier(text: str) -> bool:
    """The tokenizer's identifier rule, spelled out character by character."""

    first = text[:1]
    return (first.isalpha() or first == "_") and all(c.isalnum() or c == "_" for c in text)


def _oracle_sketch_steps(sketch: str) -> list[tuple[str, bool]]:
    """The sketch's steps: each literal ("" for the end) and whether a slot comes before it."""

    steps: list[tuple[str, bool]] = []
    in_slot = False
    for tok in sketch.split():
        if not _oracle_identifier(tok):
            steps.append((tok, in_slot))
            in_slot = False
        else:
            in_slot = True
    return [*steps, ("", in_slot)]


def oracle_slot_values(sketch: str, raw: str) -> tuple[tuple[str, ...], ...] | None:
    """Read ``raw`` by ``sketch`` the first-occurrence way: each literal where ``str.find`` finds it.

    A gap before a literal that the sketch fills with words is a slot and
    needs a dotted name; any other gap must be blank.  A sketch without
    literals reads any text, with no slots.
    """

    steps = _oracle_sketch_steps(sketch)
    if len(steps) == 1:
        return ()
    slots: list[tuple[str, ...]] = []
    pos = 0
    for literal, after_slot in steps:
        end = raw.find(literal, pos) if literal else len(raw)
        if end < 0:
            return None
        gap = raw[pos:end]
        if after_slot:
            path = tuple(part.strip() for part in gap.split("."))
            if not all(map(_oracle_identifier, path)):
                return None
            slots.append(path)
        elif gap.strip():
            return None
        pos = end + len(literal)
    return tuple(slots)


def oracle_render_slots(sketch: str, slots: tuple[tuple[str, ...], ...]) -> str:
    """The slot values between the sketch's literals, one blank apart."""

    values = iter(slots)
    words: list[str] = []
    for literal, after_slot in _oracle_sketch_steps(sketch):
        if after_slot:
            words.append(".".join(next(values)))
        if literal:
            words.append(literal)
    return " ".join(words)


def oracle_resolve(
    ref: ElementIdentifier,
    ctx: tuple[str, str] | None,
    target: StatechartModel,
    elements: dict[tuple[str, str], None],
    transitions: Counter,
) -> tuple[str, str] | None:
    """Resolve ``ref`` under the typed context ``ctx`` by string paths alone.

    ``ctx`` is a (path, production) pair, or None at the root.
    ``elements`` and ``transitions`` are ``flat_elements(target)`` and
    ``transition_counts(target)``.  Returns (path, production), or None
    when the reference is unresolved or ambiguous.
    """

    state = ctx[0] if ctx in elements and ctx[1] == "State" else None
    if ref.is_bracket:
        raw = " ".join(ref.raw.split())
        if "->" in raw:
            left, _, right = raw.partition("->")
            src_parts = [p.strip() for p in left.strip().split(".")]
            tgt_parts = [p.strip() for p in right.strip().split(".")]
            if all(_oracle_identifier(p) for p in src_parts + tgt_parts):
                src, tgt = ".".join(src_parts), ".".join(tgt_parts)
                key = f"[{src} -> {tgt}]"
                if (
                    (src, "State") in elements
                    and (tgt, "State") in elements
                    and transitions.get(key, 0) == 1
                ):
                    return key, "Transition"
                return None
        # Invariant matching: context subtree first, then the whole chart.
        needle = f".[{raw}]"
        anywhere = [
            path
            for path, kind in elements
            if kind == "Invariant" and path.endswith(needle)
        ]
        in_context = (
            [path for path in anywhere if path.startswith(f"{state}.")]
            if state is not None
            else []
        )
        pool = in_context or anywhere
        if len(pool) == 1:
            return pool[0], "Invariant"
        return None

    dotted = ".".join(ref.path)
    if state is not None:
        candidate = f"{state}.{dotted}"
        if (candidate, "State") in elements:
            return candidate, "State"
    if dotted == target.name:
        return target.name, "SCDefinition"
    if ref.path[0] == target.name:
        rest = ".".join(ref.path[1:])
        if (rest, "State") in elements:
            return rest, "State"
        return None
    if (dotted, "State") in elements:
        return dotted, "State"
    return None


def oracle_check(
    tag_model: TagModel, target: StatechartModel, schemas: tuple[TagSchema, ...]
) -> tuple[list[tuple[str, str]], int | None]:
    """Definition-level re-check: ((severity, condition) list, attachments).

    The attachment count is ``None`` when any error condition fired,
    mirroring the checker's contract of withholding resolved taggings.
    """

    elements = flat_elements(target)
    transitions = transition_counts(target)
    findings: list[tuple[str, str]] = []

    union: dict[str, tuple[TagSchema, object]] = {}
    for schema in schemas:
        for tt in schema.tag_types:
            if tt.name in union:
                findings.append(("error", "E2"))
            else:
                union[tt.name] = (schema, tt)

    def fingerprint(value: TagValue, tt, schema: TagSchema) -> tuple | None:
        """Typed value per the domain definitions; None on any violation."""

        ok = True

        def scalar(kind: str, raw: str):
            nonlocal ok
            if kind == "String":
                return ("string", raw)
            if kind == "Boolean":
                if raw in ("true", "false"):
                    return ("bool", raw == "true")
                findings.append(("error", "E3_3"))
                ok = False
                return None
            body = raw[1:] if raw.startswith("-") else raw
            if body.isascii() and body.isdigit() and -(2**63) <= int(raw) <= 2**63 - 1:
                return ("int", int(raw))
            findings.append(("error", "E3_3"))
            ok = False
            return None

        def visit(value: TagValue, tt) -> tuple | None:
            nonlocal ok
            domain = tt.domain
            if domain.kind == DomainSpec.SIMPLE:
                if value.kind != TagValue.SIMPLE:
                    findings.append(("error", "E3_3"))
                    ok = False
                    return None
                return ("flag",)
            if domain.kind == DomainSpec.NATIVE:
                if value.kind != TagValue.VALUED:
                    findings.append(("error", "E3_3"))
                    ok = False
                    return None
                return scalar(domain.native, value.raw)
            if domain.kind == DomainSpec.ENUM:
                if value.kind != TagValue.VALUED or value.raw not in domain.values:
                    findings.append(("error", "E3_3"))
                    ok = False
                    return None
                return ("enum", value.raw)
            if value.kind != TagValue.COMPLEX:
                findings.append(("error", "E3_3"))
                ok = False
                return None
            children = []
            for sub in value.subtags:
                ref = next((r for r in domain.references if r.name == sub.name), None)
                if ref is None:
                    findings.append(("error", "UnknownSubtagName"))
                    ok = False
                    continue
                if ref.is_native:
                    if sub.value.kind != TagValue.VALUED:
                        findings.append(("error", "E3_3"))
                        ok = False
                        continue
                    child = scalar(ref.type_name, sub.value.raw)
                else:
                    child = visit(sub.value, schema.tag_type(ref.type_name))
                if child is not None:
                    children.append((sub.name, child))
            for ref in domain.references:
                count = sum(1 for sub in value.subtags if sub.name == ref.name)
                satisfied = {
                    Cardinality.REQUIRED: count == 1,
                    Cardinality.OPTIONAL: count <= 1,
                    Cardinality.AT_LEAST_ONE: count >= 1,
                    Cardinality.MANY: True,
                }[ref.cardinality]
                if not satisfied:
                    findings.append(("error", "CardinalityViolation"))
                    ok = False
            if not ok:
                return None
            return ("complex", tuple(children))

        result = visit(value, tt)
        return result if ok else None

    # Expansion with context accumulation.
    pairs: list[tuple] = []

    def walk(body, ctx: tuple[str, str] | None) -> None:
        for item in body:
            if isinstance(item, Context):
                resolved = oracle_resolve(item.identifier, ctx, target, elements, transitions)
                if resolved is None:
                    findings.append(("error", "E1"))
                    continue
                walk(item.body, resolved)
            elif isinstance(item, TagStatement):
                for element_ref in item.element_refs:
                    for tag in item.tag_refs:
                        pairs.append((element_ref, ctx, tag))

    walk(tag_model.body, None)

    attachments = 0
    seen: set[tuple] = set()
    for element_ref, ctx, tag in pairs:
        resolved = oracle_resolve(element_ref, ctx, target, elements, transitions)
        if resolved is None:
            findings.append(("error", "E1"))
            continue
        path, production = resolved
        element_type = SAMPLE_KEYWORDS[production]
        entry = union.get(tag.name)
        if entry is None:
            findings.append(("error", "E3_1"))
            continue
        schema, tt = entry
        if tt.is_private:
            findings.append(("error", "PrivateTopLevelUse"))
        if not tt.scope.is_any and element_type not in tt.scope.keywords:
            findings.append(("error", "E3_2"))
        fp = fingerprint(tag.value, tt, schema)
        if fp is None:
            continue
        key = (path, element_type, tt.name, fp)
        if key in seen:
            findings.append(("warning", "DuplicateTagWarning"))
        seen.add(key)
        attachments += 1

    has_error = any(severity == "error" for severity, _ in findings)
    return findings, (None if has_error else attachments)


# ---------------------------------------------------------------------------
# Random tag models over a chart + schemas
# ---------------------------------------------------------------------------


def addressable_refs(target: StatechartModel) -> list[tuple[ElementIdentifier, str]]:
    """Every uniquely addressable element as (root-level reference, scope keyword).

    A state path that starts with the chart's name is written with the
    chart's name in front, since that bare name denotes the chart.
    """

    refs: list[tuple[ElementIdentifier, str]] = [
        (ElementIdentifier.qualified(target.name), "Statechart")
    ]
    for path, kind in flat_elements(target):
        if kind == "State":
            segments = path.split(".")
            if segments[0] == target.name:
                segments.insert(0, target.name)
            refs.append((ElementIdentifier.qualified(*segments), "State"))
        elif kind == "Invariant":
            expr = path.split(".[", 1)[1][:-1]
            refs.append((ElementIdentifier.bracket(expr), "Invariant"))
    for key, count in transition_counts(target).items():
        if count == 1:
            refs.append((ElementIdentifier.bracket(key[1:-1]), "Transition"))
    return refs


_WILD_STRINGS = [
    "true",
    "false",
    "0",
    "3",
    "-1",
    "abc",
    "",
    "red",
    "green",
    "9223372036854775808",
    "12.5",
]


def _valid_scalar(rng: random.Random, kind: str) -> TagValue:
    if kind == "int":
        return TagValue.valued(
            str(rng.choice([0, 1, -7, 42, 2**63 - 1, -(2**63)]))
        )
    if kind == "Boolean":
        return TagValue.valued(rng.choice(["true", "false"]))
    return TagValue.valued(rng.choice(["hello", "x y z", ""]))


def random_valid_value(rng: random.Random, tt: TagTypeDef, schema: TagSchema) -> TagValue:
    """A value guaranteed to satisfy the tag type's domain."""

    domain = tt.domain
    if domain.kind == DomainSpec.SIMPLE:
        return TagValue.simple()
    if domain.kind == DomainSpec.NATIVE:
        return _valid_scalar(rng, domain.native)
    if domain.kind == DomainSpec.ENUM:
        return TagValue.valued(rng.choice(domain.values))
    subtags: list[TagUse] = []
    for ref in domain.references:
        count = {
            Cardinality.REQUIRED: 1,
            Cardinality.OPTIONAL: rng.randint(0, 1),
            Cardinality.MANY: rng.randint(0, 2),
            Cardinality.AT_LEAST_ONE: rng.randint(1, 2),
        }[ref.cardinality]
        for _ in range(count):
            if ref.is_native:
                child = _valid_scalar(rng, ref.type_name)
            else:
                child = random_valid_value(rng, schema.tag_type(ref.type_name), schema)
            subtags.append(TagUse(ref.name, child))
    return TagValue.complex_of(*subtags)


def random_wild_value(
    rng: random.Random, tt: TagTypeDef, schema: TagSchema, depth: int = 0
) -> TagValue:
    """An arbitrary value: sometimes conformant, usually not."""

    roll = rng.random()
    if roll < 0.25:
        return TagValue.simple()
    if roll < 0.6 or depth >= 2:
        return TagValue.valued(rng.choice(_WILD_STRINGS))
    refs = list(tt.domain.references)
    subtags: list[TagUse] = []
    for _ in range(rng.randint(0, 3)):
        if refs and rng.random() < 0.7:
            ref = rng.choice(refs)
            if ref.is_native:
                child = TagValue.valued(rng.choice(_WILD_STRINGS))
            else:
                child = random_wild_value(rng, schema.tag_type(ref.type_name), schema, depth + 1)
            subtags.append(TagUse(ref.name, child))
        else:
            subtags.append(TagUse(rng.choice(["bogus", "extra"]), TagValue.valued("x")))
    return TagValue.complex_of(*subtags)


def bogus_refs(target: StatechartModel) -> list[ElementIdentifier]:
    return [
        ElementIdentifier.qualified("Ghost"),
        ElementIdentifier.qualified(target.name, "Ghost"),
        ElementIdentifier.bracket("zz > 1"),
        ElementIdentifier.bracket("S00 -> Ghost"),
    ]


def random_tag_model(
    rng: random.Random,
    target: StatechartModel,
    schemas: tuple[TagSchema, ...],
    include_faults: bool = True,
) -> TagModel:
    """A random tag model mixing valid and (optionally) faulty constructs."""

    ref_pool = [ref for ref, _ in addressable_refs(target)]
    state_refs = [
        ref for ref, kind in addressable_refs(target) if kind in ("State", "Statechart")
    ]
    if include_faults:
        ref_pool += bogus_refs(target)

    union: dict[str, tuple[TagSchema, TagTypeDef]] = {}
    for schema in schemas:
        for tt in schema.tag_types:
            union.setdefault(tt.name, (schema, tt))
    type_names = list(union) + (["Unknown"] if include_faults else [])

    def make_tag() -> TagUse:
        name = rng.choice(type_names)
        entry = union.get(name)
        if entry is None:
            return TagUse(name, TagValue.simple())
        schema, tt = entry
        if rng.random() < 0.6:
            return TagUse(name, random_valid_value(rng, tt, schema))
        return TagUse(name, random_wild_value(rng, tt, schema))

    def make_body(depth: int) -> tuple:
        items = []
        for _ in range(rng.randint(1, 4 if depth else 6)):
            if depth < 2 and rng.random() < 0.2:
                ident = rng.choice(state_refs + (bogus_refs(target) if include_faults else []))
                items.append(Context(identifier=ident, body=make_body(depth + 1)))
            else:
                refs = tuple(rng.choice(ref_pool) for _ in range(rng.randint(1, 2)))
                tags = tuple(make_tag() for _ in range(rng.randint(1, 2)))
                items.append(TagStatement(element_refs=refs, tag_refs=tags))
        return tuple(items)

    return TagModel(
        package="m",
        conforms_to=tuple(s.qualified_name for s in schemas),
        name="Tags",
        target_model=target.qualified_name,
        body=make_body(0),
    )


def flatten_statements(body: tuple) -> tuple:
    """Rewrite every statement into its single-element single-tag expansion."""

    items = []
    for item in body:
        if isinstance(item, Context):
            items.append(
                Context(identifier=item.identifier, body=flatten_statements(item.body))
            )
        else:
            for ref in item.element_refs:
                for tag in item.tag_refs:
                    items.append(TagStatement(element_refs=(ref,), tag_refs=(tag,)))
    return tuple(items)


def load_workloads():
    """``perfbench/workloads.py``, the benchmark's seeded workspace generator."""

    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# Text mutations for the fuzz properties
# ---------------------------------------------------------------------------

# What an insert puts in: the keywords and punctuation of the four languages,
# a comment opener, a byte-order mark, letters no identifier may start with
# when they are not ASCII, and an integer too long for any native domain.
FUZZ_INSERTS = (
    "grammar", "external", "production", "interface", "@named", "@alias", "@sketch", "@skip",
    "package", "statechart", "initial", "final", "state", "tagschema", "tagtype", "private",
    "for", "conforms", "to", "tags", "tag", "with", "within", "String", "int", "Boolean",
    "{", "}", "[", "]", "(", ")", ";", ",", ".", "...", "->", "=", ":", "|", "+", "*", "?",
    '"', "\\", "\n", " ", "/*", "//", "\ufeff", "é", "Ωmega", "9" * 40,
)
MUTATIONS = ("insert", "delete", "duplicate", "move")


def mutations() -> st.SearchStrategy:
    """One to three edits for :func:`mutate`; offsets are taken modulo the text's length."""

    offset = st.integers(0, 1 << 20)
    edit = st.tuples(
        st.sampled_from(MUTATIONS), offset, offset, st.integers(1, 40), st.sampled_from(FUZZ_INSERTS)
    )
    return st.lists(edit, min_size=1, max_size=3)


def mutate(text: str, edits) -> str:
    """Apply ``edits``: insert a piece, or delete, duplicate or move a span of up to 40 characters."""

    for kind, at, to, length, piece in edits:
        at %= len(text) + 1
        if kind == "insert":
            text = text[:at] + piece + text[at:]
            continue
        span, rest = text[at : at + length], text[:at] + text[at + length :]
        if kind == "delete":
            text = rest
        elif kind == "duplicate":
            text = text[:at] + span + text[at:]
        else:
            to %= len(rest) + 1
            text = rest[:to] + span + rest[to:]
    return text


# ---------------------------------------------------------------------------
# Character-at-a-time tokenizer oracle
# ---------------------------------------------------------------------------


def oracle_tokenize(text: str, *, raw_brackets: bool) -> list[tuple]:
    """Tokenize one character at a time, tracking line and col as it goes.

    Returns (kind, value, line, col, start, end) tuples and raises the
    same ``ParseError`` messages and positions as ``parsing.tokenize``.
    """

    tokens: list[tuple] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    while i < n:
        ch = text[i]

        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue

        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if text.startswith("/*", i):
            start_line, start_col = line, col
            i += 2
            col += 2
            while i < n and not text.startswith("*/", i):
                if text[i] == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
                i += 1
            if i >= n:
                raise ParseError("unterminated block comment", start_line, start_col)
            i += 2
            col += 2
            continue

        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(("ident", text[start:i], line, start_col, start, i))
            continue

        if ch == '"':
            start_line, start_col = line, col
            lit_start = i
            i += 1
            col += 1
            out: list[str] = []
            while True:
                if i >= n or text[i] == "\n":
                    raise ParseError("unterminated string literal", start_line, start_col)
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n or text[i + 1] not in ('"', "\\"):
                        raise ParseError(
                            "unsupported escape sequence (only \\\" and \\\\ are allowed)",
                            line,
                            col,
                        )
                    out.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                out.append(c)
                i += 1
                col += 1
            tokens.append(("string", "".join(out), start_line, start_col, lit_start, i))
            continue

        if ch == "[" and raw_brackets:
            start_line, start_col = line, col
            depth = 1
            i += 1
            col += 1
            start = i
            while i < n and depth > 0:
                c = text[i]
                if c == "[":
                    depth += 1
                elif c == "]":
                    depth -= 1
                if c == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
                i += 1
            if depth > 0:
                raise ParseError("unterminated '[' expression", start_line, start_col)
            tokens.append(("bracket", text[start : i - 1], start_line, start_col, start - 1, i))
            continue

        if text.startswith("...", i):
            tokens.append(("...", "...", line, col, i, i + 3))
            i += 3
            col += 3
            continue
        if text.startswith("->", i):
            tokens.append(("->", "->", line, col, i, i + 2))
            i += 2
            col += 2
            continue

        if ch in "{};,=:.|+*?()[]":
            tokens.append((ch, ch, line, col, i, i + 1))
            i += 1
            col += 1
            continue

        raise ParseError(f"unexpected character {ch!r}", line, col)

    tokens.append(("eof", "", line, col, n, n))
    return tokens


# ---------------------------------------------------------------------------
# Character-at-a-time manifest line scanner oracle
# ---------------------------------------------------------------------------


def oracle_scan_manifest_line(line: str, lineno: int, filename: str | None) -> list[tuple]:
    """Split one manifest line one character at a time.

    Returns (kind, value, line, col) tuples, the kinds being ``word``,
    ``string`` and ``=``, then an ``eof`` one past the end of the line, and
    raises the same ``ParseError`` message and position as the manifest's
    own scanner.
    """

    words: list[tuple] = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        if ch == '"':
            i += 1
            out: list[str] = []
            while i < n and line[i] != '"':
                if line[i] == "\\" and i + 1 < n and line[i + 1] in ('"', "\\"):
                    out.append(line[i + 1])
                    i += 2
                    continue
                out.append(line[i])
                i += 1
            if i >= n:
                raise ParseError("unterminated string", lineno, col, filename)
            i += 1
            words.append(("string", "".join(out), lineno, col))
            continue
        if ch == "=":
            words.append(("=", "=", lineno, col))
            i += 1
            continue
        start = i
        while i < n and line[i] not in ' \t#"' and line[i] != "=":
            i += 1
        words.append(("word", line[start:i], lineno, col))
    words.append(("eof", "", lineno, n + 1))
    return words
