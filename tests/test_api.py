"""The public surface: what ``__all__`` and the README promise exists and runs."""

from __future__ import annotations

import ast
import importlib
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tagweaver

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(tagweaver.__path__))
KEPT_EXCEPTIONS = {
    "errors": {"TagweaverError", "ParseError", "ResolutionError", "WorkspaceError"},
    "derivation": {"DerivationError"},
}


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"tagweaver.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", [name for name in MODULES if name != "cli"])
def test_only_the_cli_writes_to_a_stream(name):
    # Every finding leaves the library as a ``Diagnostic``; the CLI alone
    # decides where and in which format it is printed.
    tree = ast.parse((ROOT / "src" / "tagweaver" / f"{name}.py").read_text())
    writes = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print")
        or (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
            and isinstance(node.value, ast.Name) and node.value.id == "sys")
    ]
    assert writes == []


@pytest.mark.parametrize("name", [name for name in MODULES if name != "diagnostics"])
def test_condition_ids_come_from_the_catalogue(name):
    # Every condition ID is a ``diagnostics.Condition`` member: no ``report``
    # or ``Diagnostic`` call takes a string literal as its condition.
    tree = ast.parse((ROOT / "src" / "tagweaver" / f"{name}.py").read_text())

    def is_str(node) -> bool:
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    literals = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("report", "Diagnostic") and node.args and is_str(node.args[0])
    ]
    assert literals == []


@pytest.mark.parametrize("name", MODULES)
def test_only_errors_and_derivation_define_exceptions(name):
    # A condition a parser can read past is a ``Condition`` member kept as a
    # finding, never an exception class of its own.
    tree = ast.parse((ROOT / "src" / "tagweaver" / f"{name}.py").read_text())
    classes = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(
            (base.id if isinstance(base, ast.Name) else getattr(base, "attr", ""))
            .endswith(("Error", "Exception"))
            for base in node.bases
        )
    }
    assert classes == KEPT_EXCEPTIONS.get(name, set())


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_dataclasses(name):
    # Records come from ``tagweaver.records``: building them with
    # ``dataclasses`` (and the ``inspect`` import it brings) cost about a
    # quarter of the import time every ``tagweaver`` process pays.
    tree = ast.parse((ROOT / "src" / "tagweaver" / f"{name}.py").read_text())
    imports = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses")
    ]
    assert imports == []


def test_only_workspace_imports_statechart_at_run_time():
    # Resolution (``elements``) and checking (``conformance``) know no model
    # language; the workspace alone picks the model parser.  An import under
    # ``if TYPE_CHECKING:`` serves annotations only and does not count.
    importers = set()
    for name in MODULES:
        tree = ast.parse((ROOT / "src" / "tagweaver" / f"{name}.py").read_text())
        type_only = {
            id(node)
            for guard in ast.walk(tree)
            if isinstance(guard, ast.If) and ast.unparse(guard.test).endswith("TYPE_CHECKING")
            for node in ast.walk(guard)
        }
        for node in ast.walk(tree):
            if id(node) in type_only:
                continue
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").removeprefix("tagweaver")
                targets = {module.lstrip(".")} | {alias.name for alias in node.names if not module}
            elif isinstance(node, ast.Import):
                targets = {alias.name.removeprefix("tagweaver.") for alias in node.names}
            else:
                continue
            if "statechart" in targets:
                importers.add(name)
    assert importers == {"workspace"}


def test_condition_has_one_definition():
    from tagweaver import conformance, diagnostics

    assert tagweaver.Condition is diagnostics.Condition is conformance.Condition
    assert len({c.value for c in diagnostics.Condition}) == len(diagnostics.Condition) == 23


def test_readme_conditions_table_lists_every_condition():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Conformance conditions", 1)[1].split("\n## ", 1)[0]
    ids = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
    assert len(ids) == len(set(ids))
    assert set(ids) == {c.value for c in tagweaver.Condition}


def test_every_name_the_package_imports_exists():
    assert tagweaver._EXPORTS
    for module_name, names in tagweaver._EXPORTS.items():
        module = importlib.import_module(f"tagweaver.{module_name}")
        assert [name for name in names if not hasattr(module, name)] == []
        assert all(hasattr(tagweaver, name) for name in names)


def test_the_public_names():
    # Adding or removing a public name is a change to this list, on purpose.
    assert sorted(tagweaver.__all__) == [
        "Attachment", "Cardinality", "CheckInput", "Condition", "Context",
        "DerivationError", "Diagnostic", "DomainSpec", "ElementHandle",
        "ElementIdentifier", "GrammarManifest", "IdentifierKind", "IdentifierRule",
        "LanguageProfile", "LoadedWorkspace", "NormalizedValue", "ParseError",
        "Production", "Reference", "ResolutionError", "RhsRef", "ScopeKeyword",
        "ScopeSpec", "Severity", "StatechartModel", "TagModel", "TagSchema",
        "TagStatement", "TagTypeDef", "TagUse", "TagValue", "TagweaverError",
        "Workspace", "WorkspaceError", "build_export_report", "check",
        "check_workspace", "derive_profile", "enumerate_elements", "format_diagnostic",
        "has_errors", "load_workspace", "normalize_expression", "parse_manifest",
        "parse_statechart", "parse_tag_model", "parse_tag_schema", "pretty_print_manifest",
        "pretty_print_statechart", "pretty_print_tag_model", "pretty_print_tag_schema",
        "profile_to_json", "render_derived_grammar", "render_export_report",
        "resolve_element",
    ]


@pytest.mark.parametrize("name", sorted(tagweaver.__all__))
def test_exported_name_is_its_module_attribute(name):
    module = importlib.import_module(f"tagweaver.{tagweaver._MODULE_OF[name]}")
    assert getattr(tagweaver, name) is getattr(module, name)


def test_bare_import_loads_no_module_and_dir_lists_every_exported_name():
    script = (
        "import json, sys, tagweaver\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('tagweaver'))\n"
        "print(json.dumps([dir(tagweaver), loaded]))\n"
    )
    names, loaded = json.loads(subprocess.check_output([sys.executable, "-c", script]))
    assert set(tagweaver.__all__) <= set(names)
    assert loaded == ["tagweaver"]


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from tagweaver import *", namespace)
    assert set(tagweaver.__all__) <= set(namespace)
    assert namespace["check_workspace"] is tagweaver.workspace.check_workspace


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tagweaver.no_such_name  # noqa: B018
    assert not hasattr(tagweaver, "no_such_name")


def test_module_names_resolve_to_submodules():
    assert tagweaver.statechart is importlib.import_module("tagweaver.statechart")


def test_workspace_error_has_one_definition():
    from tagweaver import errors, workspace

    assert workspace.WorkspaceError is errors.WorkspaceError is tagweaver.WorkspaceError


def test_readme_library_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Mobile Statechart Method"
    assert len(lines) == 5
