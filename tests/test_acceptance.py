"""End-to-end acceptance gate.

Every test here prints exactly one ``[PASS]``/``[FAIL]`` line naming the
behavior it guards, so a verbose test run doubles as an acceptance
report.  The checks lean on the independent oracles in ``util`` rather
than on the package's own logic wherever a second opinion is possible.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter

import pytest

from tagweaver import (
    CheckInput,
    ElementIdentifier,
    IdentifierKind,
    TagModel,
    TagStatement,
    TagUse,
    Workspace,
    build_export_report,
    check,
    check_workspace,
    derive_profile,
    load_workspace,
    parse_manifest,
    parse_statechart,
    parse_tag_model,
    parse_tag_schema,
    pretty_print_manifest,
    pretty_print_statechart,
    pretty_print_tag_model,
    pretty_print_tag_schema,
)
from tagweaver import records
from tagweaver.cli import run_cli
from tagweaver.diagnostics import Severity
from tagweaver.tagmodel import Context

from util import (
    addressable_refs,
    flat_elements,
    flatten_statements,
    oracle_check,
    plan_keyword_count,
    plan_keywords,
    random_manifest_plan,
    random_schema_text,
    random_statechart_text,
    random_tag_model,
    random_valid_value,
    random_wild_value,
    render_manifest_plan,
)


def emit(request, label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line(line)
    else:
        print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Golden corpus: verbatim parse + structural round-trip, fast
# ---------------------------------------------------------------------------


def test_acceptance_1_golden_round_trips(
    request, profile, manifest_text, chart_text, schema_text,
    golden_tags_text, full_tags_text,
):
    start = time.monotonic()
    manifest = parse_manifest(manifest_text)
    chart = parse_statechart(chart_text)
    schema = parse_tag_schema(schema_text, profile)
    golden = parse_tag_model(golden_tags_text, profile)
    full = parse_tag_model(full_tags_text, profile)

    stable = [
        parse_manifest(pretty_print_manifest(manifest)) == manifest,
        parse_statechart(pretty_print_statechart(chart)) == chart,
        parse_tag_schema(pretty_print_tag_schema(schema), profile) == schema,
        parse_tag_model(pretty_print_tag_model(golden), profile) == golden,
        parse_tag_model(pretty_print_tag_model(full), profile) == full,
    ]
    elapsed = time.monotonic() - start
    ok = all(stable) and elapsed < 1.0
    emit(
        request,
        "acceptance 1 (golden corpus)",
        ok,
        f"5/5 sample artifacts parse and round-trip structurally equal in {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. Sample workspace: clean check, exact export content
# ---------------------------------------------------------------------------


def test_acceptance_2_sample_workspace_export(request, samples_dir):
    loaded = load_workspace(
        Workspace(
            manifest_file=samples_dir / "statechart.glang",
            model_files=(samples_dir / "mobile.sc",),
            schema_files=(samples_dir / "logging_schema.tagschema",),
            tag_files=(samples_dir / "mobile_tags.tag",),
        )
    )
    diags, _ = check_workspace(loaded)
    _, report = build_export_report(loaded)
    got = [(a["elementPath"], a["tagType"]) for a in report["attachments"]]
    expected = [
        ("Active", "Monitored"),
        ("Active.Busy", "Monitored"),
        ("Active.Call", "Monitored"),
        ("ConnectionProblems", "Exception"),
        ("Mobile", "Method"),
    ]
    ok = diags == [] and got == expected
    emit(
        request,
        "acceptance 2 (sample workspace)",
        ok,
        "checks clean; export is exactly Monitored×3 + Exception×1 + Method×1",
    )


# ---------------------------------------------------------------------------
# 3. Derivation: exact profile for the sample grammar + counting law
# ---------------------------------------------------------------------------


def test_acceptance_3_derivation(request, profile):
    keywords = [kw.keyword for kw in profile.scope_keywords]
    kinds = Counter(rule.kind for rule in profile.identifier_rules)
    exact = (
        sorted(keywords)
        == sorted(["Statechart", "State", "Transition", "Invariant", "source", "target"])
        and kinds[IdentifierKind.QUALIFIED_NAME] == 2
        and kinds[IdentifierKind.BRACKET_SYNTAX] == 2
    )

    trials = 200
    law_failures = 0
    for seed in range(trials):
        rng = random.Random(3_000 + seed)
        plan = random_manifest_plan(rng)
        derived = derive_profile(parse_manifest(render_manifest_plan(plan, rng)))
        if (
            len(derived.scope_keywords) != plan_keyword_count(plan)
            or [kw.keyword for kw in derived.scope_keywords] != plan_keywords(plan)
        ):
            law_failures += 1
    ok = exact and law_failures == 0
    emit(
        request,
        "acceptance 3 (derivation)",
        ok,
        f"6 keywords with 2+2 identifier rules; keyword-counting law held on "
        f"{trials - law_failures}/{trials} random grammars",
    )


# ---------------------------------------------------------------------------
# 4. Single-fault mutations: each yields exactly one expected error, exit 1
# ---------------------------------------------------------------------------

RETRIES_SCHEMA = "package testing;\ntagschema ExtraSchema {\n    tagtype Retries:int for State;\n}\n"
AUDIT_SCHEMA = "package testing;\ntagschema ExtraSchema {\n    tagtype Audit for State;\n}\n"
CLASH_SCHEMA = "package testing;\ntagschema ExtraSchema {\n    tagtype Monitored for State;\n}\n"

# (label, statement, auxiliary schema, expected condition or None for clean)
MUTATIONS = [
    ("baseline", "tag Active with Monitored;", None, None),
    ("unknown element", "tag Ghost with Monitored;", None, "E1"),
    ("unknown tag type", "tag Active with Mystery;", None, "E3_1"),
    ("scope mismatch", 'tag Start with Log = "timestamp";', None, "E3_2"),
    ("enum outside domain", 'tag [Start -> Active] with Log = "nonsense";', None, "E3_3"),
    ("int baseline", 'tag Start with Retries = "3";', RETRIES_SCHEMA, None),
    ("non-integer for int", 'tag Start with Retries = "lots";', RETRIES_SCHEMA, "E3_3"),
    (
        "missing required subtag",
        'tag ConnectionProblems with Exception { type = "t"; };',
        None,
        "CardinalityViolation",
    ),
    (
        "extra subtag",
        'tag ConnectionProblems with Exception { type = "t", msg = "m", severity = "high"; };',
        None,
        "UnknownSubtagName",
    ),
    ("second schema baseline", "tag Active with Audit;", AUDIT_SCHEMA, None),
    ("duplicate tag type name", "tag Active with Monitored;", CLASH_SCHEMA, "E2"),
]


def test_acceptance_4_single_fault_mutations(request, samples_dir, tmp_path, capsys):
    failures = []
    mutation_total = sum(1 for _, _, _, expected in MUTATIONS if expected)
    for index, (label, statement, aux_schema, expected) in enumerate(MUTATIONS):
        conforms = ["loggingschema.StatechartTagSchema"]
        argv = [
            "check",
            "--manifest", str(samples_dir / "statechart.glang"),
            "--model", str(samples_dir / "mobile.sc"),
            "--schema", str(samples_dir / "logging_schema.tagschema"),
            "--tags", str(samples_dir / "mobile_tags.tag"),
            "--format", "json",
        ]
        if aux_schema is not None:
            aux_path = tmp_path / f"extra{index}.tagschema"
            aux_path.write_text(aux_schema)
            argv += ["--schema", str(aux_path)]
            conforms.append("testing.ExtraSchema")
        tag_path = tmp_path / f"mutation{index}.tag"
        tag_path.write_text(
            "package mobile;\n"
            f"conforms to {', '.join(conforms)};\n"
            "tags Mutation for Mobile {\n"
            f"    {statement}\n"
            "}\n"
        )
        argv += ["--tags", str(tag_path)]

        code = run_cli(argv)
        payload = json.loads(capsys.readouterr().out)
        errors = [
            d["condition"] for d in payload["diagnostics"] if d["severity"] == "error"
        ]
        if expected is None:
            if code != 0 or errors:
                failures.append(f"{label}: expected clean, got exit {code} {errors}")
        elif code != 1 or errors != [expected]:
            failures.append(f"{label}: expected one {expected}, got exit {code} {errors}")

    emit(
        request,
        "acceptance 4 (fault mutations)",
        not failures,
        "; ".join(failures)
        or f"{mutation_total}/{mutation_total} single-fault mutations each raised "
        "exactly the expected error with exit 1 (baselines clean)",
    )


# ---------------------------------------------------------------------------
# 5. Property suites
# ---------------------------------------------------------------------------


def _random_workspace(rng, profile):
    chart = parse_statechart(random_statechart_text(rng))
    schema = parse_tag_schema(random_schema_text(rng), profile)
    return chart, schema


def _outcome(diags, resolved):
    attachments = None if resolved is None else Counter(resolved.attachments)
    return Counter((d.severity.value, d.condition) for d in diags), attachments


def test_acceptance_5a_expansion_and_context_equivalence(request, profile):
    trials = 500
    start = time.monotonic()
    failures = 0
    hoist_checks = 0
    for seed in range(trials):
        rng = random.Random(51_000 + seed)
        chart, schema = _random_workspace(rng, profile)
        model = random_tag_model(rng, chart, (schema,))

        baseline = _outcome(*check(CheckInput(model, chart, (schema,), profile)))
        flattened = records.replace(model, body=flatten_statements(model.body))
        if _outcome(*check(CheckInput(flattened, chart, (schema,), profile))) != baseline:
            failures += 1

        # A `within parent { tag child ... }` block must behave exactly like
        # the hoisted `tag parent.child ...` statement.
        nested = [p for p, k in flat_elements(chart) if k == "State" and "." in p]
        if nested:
            hoist_checks += 1
            path = rng.choice(nested)
            parent, child = path.rsplit(".", 1)
            tt = rng.choice(schema.tag_types)
            value = (
                random_valid_value(rng, tt, schema)
                if rng.random() < 0.6
                else random_wild_value(rng, tt, schema)
            )
            tag = TagUse(tt.name, value)

            def variant(body) -> TagModel:
                return TagModel(
                    package="m",
                    conforms_to=(schema.qualified_name,),
                    name="Tags",
                    target_model=chart.qualified_name,
                    body=body,
                )

            scoped = variant((
                Context(
                    identifier=ElementIdentifier.qualified(*parent.split(".")),
                    body=(TagStatement((ElementIdentifier.qualified(child),), (tag,)),),
                ),
            ))
            hoisted = variant(
                (TagStatement((ElementIdentifier.qualified(*path.split(".")),), (tag,)),)
            )
            scoped_out = _outcome(*check(CheckInput(scoped, chart, (schema,), profile)))
            hoisted_out = _outcome(*check(CheckInput(hoisted, chart, (schema,), profile)))
            if scoped_out != hoisted_out:
                failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 60.0
    emit(
        request,
        "acceptance 5a (equivalence properties)",
        ok,
        f"{trials} generated models: singleton expansion agreed everywhere, "
        f"context hoisting agreed on {hoist_checks} nested charts ({elapsed:.1f}s)",
    )


def test_acceptance_5b_generator_checker_soundness(request, profile):
    trials = 300
    start = time.monotonic()
    failures = 0
    statements_total = 0
    for seed in range(trials):
        rng = random.Random(52_000 + seed)
        chart, schema = _random_workspace(rng, profile)

        statements = []
        for ref, kind in addressable_refs(chart):
            admissible = [
                tt
                for tt in schema.tag_types
                if not tt.is_private and tt.scope.admits(kind)
            ]
            if admissible:
                tt = rng.choice(admissible)
                statements.append(
                    TagStatement((ref,), (TagUse(tt.name, random_valid_value(rng, tt, schema)),))
                )
        model = TagModel(
            package="m",
            conforms_to=(schema.qualified_name,),
            name="Tags",
            target_model=chart.qualified_name,
            body=tuple(statements),
        )
        diags, resolved = check(CheckInput(model, chart, (schema,), profile))
        statements_total += len(statements)
        if diags or resolved is None or len(resolved.attachments) != len(statements):
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 60.0
    emit(
        request,
        "acceptance 5b (generator soundness)",
        ok,
        f"{trials} schema-driven models ({statements_total} tag statements) "
        f"all checked clean with every attachment resolved ({elapsed:.1f}s)",
    )


def test_acceptance_5c_brute_force_oracle(request, profile):
    trials = 400
    start = time.monotonic()
    failures = 0
    for seed in range(trials):
        rng = random.Random(53_000 + seed)
        chart, schema = _random_workspace(rng, profile)
        model = random_tag_model(rng, chart, (schema,))

        diags, resolved = check(CheckInput(model, chart, (schema,), profile))
        expected_findings, expected_count = oracle_check(model, chart, (schema,))

        verdicts_match = Counter(
            (d.severity.value, d.condition) for d in diags
        ) == Counter(expected_findings)
        if resolved is None:
            outcome_match = expected_count is None
        else:
            outcome_match = expected_count == len(resolved.attachments)
        if not (verdicts_match and outcome_match):
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 60.0
    emit(
        request,
        "acceptance 5c (definitional oracle)",
        ok,
        f"{trials} small workspaces: checker verdicts and attachment counts "
        f"matched the flat-table oracle ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 6. Determinism of derive and export
# ---------------------------------------------------------------------------


def test_acceptance_6_deterministic_outputs(request, samples_dir, tmp_path, capsys):
    derive_argv = [
        "derive",
        "--manifest", str(samples_dir / "statechart.glang"),
        "--out", str(tmp_path),
    ]
    export_argv = [
        "export",
        "--manifest", str(samples_dir / "statechart.glang"),
        "--model", str(samples_dir / "mobile.sc"),
        "--schema", str(samples_dir / "logging_schema.tagschema"),
        "--tags", str(samples_dir / "mobile_tags.tag"),
    ]

    def snapshot(argv):
        code = run_cli(argv)
        out = capsys.readouterr().out
        profile_file = tmp_path / "Statechart.profile.json"
        return code, out, profile_file.read_bytes() if profile_file.exists() else b""

    ok = (
        snapshot(derive_argv) == snapshot(derive_argv)
        and snapshot(export_argv) == snapshot(export_argv)
        and snapshot(derive_argv)[0] == 0
        and snapshot(export_argv)[0] == 0
    )
    emit(
        request,
        "acceptance 6 (determinism)",
        ok,
        "repeated derive and export runs are byte-identical",
    )
