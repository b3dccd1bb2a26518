"""Tests of the benchmark itself: its expectations and its output checks.

Run from the root of the repository with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
import workloads  # noqa: E402
from tagweaver import (  # noqa: E402
    derive_profile,
    parse_manifest,
    parse_statechart,
    parse_tag_model,
    parse_tag_schema,
)
from tagweaver.workspace import (  # noqa: E402
    Workspace,
    build_export_report,
    load_workspace,
    render_export_report,
)
from util import oracle_check  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(workloads.SCALES))
def test_expectations_agree_with_the_brute_force_oracle(tmp_path, workload, seed):
    ws = workloads.generate(workload, seed, tmp_path / "ws", quick=True)
    profile = derive_profile(parse_manifest(ws.manifest.read_text(encoding="utf-8")))
    chart = parse_statechart(ws.model.read_text(encoding="utf-8"))
    schema = parse_tag_schema(ws.schema.read_text(encoding="utf-8"), profile)
    findings: Counter = Counter()
    attachments = 0
    for path in ws.tag_files:
        tags = parse_tag_model(path.read_text(encoding="utf-8"), profile)
        found, count = oracle_check(tags, chart, (schema,))
        assert count is not None, found
        findings.update(found)
        attachments += count
    expected_findings = Counter({("warning", "DuplicateTagWarning"): ws.expected.warnings})
    assert findings == +expected_findings
    assert attachments == ws.expected.pairs == sum(ws.expected.attachments.values())


def test_same_seed_same_inputs(tmp_path):
    first = workloads.generate("merged-export", 7, tmp_path / "a", quick=True)
    second = workloads.generate("merged-export", 7, tmp_path / "b", quick=True)
    for a, b in zip(sorted(first.model.parent.iterdir()), sorted(second.model.parent.iterdir())):
        assert a.read_bytes() == b.read_bytes()
    other = workloads.generate("merged-export", 8, tmp_path / "c", quick=True)
    assert other.model.read_bytes() != first.model.read_bytes()


def test_export_check_rejects_wrong_exports(tmp_path):
    ws = workloads.generate("merged-export", 1, tmp_path / "ws", quick=True)
    loaded = load_workspace(Workspace(ws.manifest, (ws.model,), tuple(ws.tag_files), (ws.schema,)))
    _, report = build_export_report(loaded)
    text = render_export_report(report).encode("utf-8")
    assert run.export_problem(text, ws)[0] is None

    records = report["attachments"]
    i = next(i for i in range(len(records) - 1)
             if run.sort_key(records[i]) < run.sort_key(records[i + 1]))
    swapped = dict(report, attachments=[*records[:i], records[i + 1], records[i], *records[i + 2:]])
    assert "order" in run.export_problem(json.dumps(swapped).encode(), ws)[0]
    dropped = dict(report, attachments=records[1:])
    assert "multiset" in run.export_problem(json.dumps(dropped).encode(), ws)[0]


def test_quick_mode_runs_every_workload_correctly():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert {(r["workload"], r["trace"]) for r in results} == {
        (name, trace) for name in workloads.SCALES for trace in (0, 1)
    }
    for result in results:
        assert result["correct"], result
        assert result["attempted"] >= 1
        if result["trace"]:
            assert result["metrics"]["conformance.pairs"]["value"] > 0
        else:
            assert set(result["metrics"]) == {"setup_s", "cli_s", "pairs_per_s", "peak_rss_mb"}


def test_cli_peak_memory_is_the_childs_own(tmp_path):
    ws = workloads.generate("flat-brackets", 1, tmp_path / "ws", quick=True)
    ballast = bytearray(128 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(range(0, len(ballast), 4096))  # make it resident
    code, _, peak_mb, _, _ = run.tagweaver_cli(ws.cli_args(), tmp_path, "cli")
    del ballast
    assert code == 0
    assert 5 < peak_mb < 64
