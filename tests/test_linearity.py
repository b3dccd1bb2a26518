"""``check`` scales linearly: its inner operations per expanded pair do not grow with size.

A workload is generated at two sizes and loaded and checked under counting
wrappers.  Each count divided by the generator's expected (element, tag)
pairs must be the same at both sizes; a lookup that walked the whole model
for each reference would make the per-pair count grow with the model.
Clocks are not used: counts repeat exactly, timings on a shared machine do not.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from tagweaver import conformance, elements, tagmodel
from tagweaver.derivation import IdentifierRule
from tagweaver.workspace import Workspace, check_workspace, load_workspace
from util import load_workloads

# On ``nested-contexts`` the planted duplicates and the chart's root add a
# few operations that do not scale with the pairs.  This is the most any
# count per pair may differ between the two depths.
NESTED_SLACK = Fraction(1, 20)


@pytest.fixture
def counted(monkeypatch) -> Counter:
    """Count the calls of the inner operations of load and check, by name."""

    counts: Counter = Counter()

    def counting(name, call):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return call(*args, **kwargs)
        return wrapper

    for owner, attribute, name in (
        (tagmodel, "TagStatement", "statements"),
        (elements, "normalize_expression", "normalize_expression"),
        (IdentifierRule, "slot_values", "slot_values"),
        (conformance, "resolve_element", "resolve_element"),
        (conformance, "_check_value", "value_checks"),
    ):
        monkeypatch.setattr(owner, attribute, counting(name, getattr(owner, attribute)))
    return counts


def per_pair(counted: Counter, workload: str, root: Path, **scale) -> dict[str, Fraction]:
    """Load and check ``workload`` at ``scale``; each count over the expected pairs."""

    generated = load_workloads().generate(workload, 4242, root, quick=True, **scale)
    counted.clear()
    diags, resolved = check_workspace(load_workspace(Workspace(
        manifest_file=generated.manifest,
        model_files=(generated.model,),
        schema_files=(generated.schema,),
        tag_files=tuple(generated.tag_files),
    )))
    pairs = generated.expected.pairs
    assert sum(len(r.attachments) for r in resolved) == pairs, diags
    return {name: Fraction(count, pairs) for name, count in counted.items()}


def test_flat_brackets_counts_per_pair_do_not_grow(counted, tmp_path):
    small = per_pair(counted, "flat-brackets", tmp_path / "small", states=60)
    large = per_pair(counted, "flat-brackets", tmp_path / "large", states=240)
    assert len(small) == 5  # every wrapper was reached
    assert small == large


def test_nested_contexts_counts_per_pair_do_not_grow(counted, tmp_path):
    small = per_pair(counted, "nested-contexts", tmp_path / "small", depth=3)
    large = per_pair(counted, "nested-contexts", tmp_path / "large", depth=5)
    assert small.keys() == large.keys()
    for name in small:
        assert abs(small[name] - large[name]) <= NESTED_SLACK, (name, small[name], large[name])
