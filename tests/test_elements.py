"""The shared resolver serves a model language other than statecharts.

A small component language, with components, their named ports and
connectors written ``[a.out -> b.in]``, is derived from its own manifest.
Its element table is filled by hand, as its parser would fill it, and
:func:`~tagweaver.resolve_element` reads it with no statechart code.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from tagweaver import (
    ElementIdentifier,
    ResolutionError,
    derive_profile,
    parse_manifest,
    parse_statechart,
    resolve_element,
)
from tagweaver.elements import ElementHandle, ElementTable

COMPONENTS = """\
grammar Components

external Name

@named production System = Name Component* Connector*
@named production Component = Name Port*
@named production Port = Name
@sketch "source -> target" production Connector = source:Name target:Name
"""


@pytest.fixture(scope="module")
def components_profile():
    return derive_profile(parse_manifest(COMPONENTS))


@pytest.fixture(scope="module")
def system():
    table = ElementTable(ElementHandle("Sys", "System"))
    for path, production in [
        (("a",), "Component"),
        (("a", "out"), "Port"),
        (("b",), "Component"),
        (("b", "in"), "Port"),
    ]:
        table.add_named(path, production)
    parts = {"source": ("a", "out"), "target": ("b", "in")}
    table.add_bracketed("Connector", (), "a.out -> b.in", parts)
    return SimpleNamespace(element_table=table)


def resolved(model, ident, profile) -> tuple[str, str]:
    handle = resolve_element(model, ident, profile=profile)
    return handle.path, handle.element_type


def test_each_named_element_keeps_its_production(system, components_profile):
    assert resolved(system, ElementIdentifier.qualified("a"), components_profile) == (
        "a",
        "Component",
    )
    assert resolved(system, ElementIdentifier.qualified("a", "out"), components_profile) == (
        "a.out",
        "Port",
    )
    assert resolved(system, ElementIdentifier.qualified("Sys"), components_profile) == (
        "Sys",
        "System",
    )


def test_a_connector_is_named_by_its_endpoints(system, components_profile):
    ident = ElementIdentifier.bracket("a.out -> b.in")
    assert resolved(system, ident, components_profile) == ("[a.out -> b.in]", "Connector")
    with pytest.raises(ResolutionError) as exc:
        resolved(system, ElementIdentifier.bracket("b.in -> a.out"), components_profile)
    assert str(exc.value) == "no connector b.in -> a.out in 'Sys'"


def test_a_missing_endpoint_names_the_models_named_productions(system, components_profile):
    with pytest.raises(ResolutionError) as exc:
        resolved(system, ElementIdentifier.bracket("a.out -> c.in"), components_profile)
    assert str(exc.value) == (
        "'[a.out -> c.in]' endpoints do not name components or ports of 'Sys'"
    )


def test_a_model_with_no_named_element_says_elements(profile):
    chart = parse_statechart("package p;\nstatechart C {\n}\n")
    with pytest.raises(ResolutionError) as exc:
        resolved(chart, ElementIdentifier.bracket("A -> B"), profile)
    assert str(exc.value) == "'[A -> B]' endpoints do not name elements of 'C'"


def test_the_miss_noun_follows_a_table_filled_after_a_lookup(components_profile):
    table = ElementTable(ElementHandle("Sys", "System"))
    model = SimpleNamespace(element_table=table)
    ident = ElementIdentifier.bracket("a.out -> c.in")
    nouns = []
    for path, production in [(("a",), "Component"), (("a", "out"), "Port"), (("b",), "Component")]:
        with pytest.raises(ResolutionError) as exc:
            resolved(model, ident, components_profile)
        nouns.append(str(exc.value).split(" name ")[1])
        table.add_named(path, production)
    with pytest.raises(ResolutionError) as exc:
        resolved(model, ident, components_profile)
    nouns.append(str(exc.value).split(" name ")[1])
    assert nouns == [
        "elements of 'Sys'",
        "components of 'Sys'",
        "components or ports of 'Sys'",
        "components or ports of 'Sys'",
    ]
