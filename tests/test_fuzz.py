"""No input crashes the CLI: mutated sample files give a verdict or a parse error.

Each case mutates one sample file (the manifest, the chart, the schema or a
tag model) with one to three inserts, deletes, duplicates or moves, and runs
``check``, ``check --format json`` and ``export --out`` on the workspace in
process.  Exit code 3 is an internal error, a crash; it must never occur.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tagweaver.cli import run_cli
from util import mutate, mutations

FILES = ("statechart.glang", "mobile.sc", "logging_schema.tagschema", "mobile_tags_full.tag")


@pytest.fixture(scope="module")
def workspace(samples_dir, tmp_path_factory):
    """A copy of the sample workspace, and the text of each of its files."""

    root = tmp_path_factory.mktemp("fuzz")
    texts = {name: (samples_dir / name).read_text(encoding="utf-8") for name in FILES}
    for name, text in texts.items():
        (root / name).write_text(text, encoding="utf-8")
    return root, texts


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=400,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(name=st.sampled_from(FILES), edits=mutations())
def test_a_mutated_file_gives_a_verdict_or_an_error(workspace, name, edits):
    root, texts = workspace
    for other, text in texts.items():
        # ``newline=""`` keeps a mutated ``\r`` as written; the reader must cope with it.
        (root / other).write_text(mutate(text, edits) if other == name else text,
                                  encoding="utf-8", newline="")
    out_file = root / "export.json"
    out_file.unlink(missing_ok=True)
    files = [
        "--manifest", str(root / "statechart.glang"),
        "--model", str(root / "mobile.sc"),
        "--schema", str(root / "logging_schema.tagschema"),
        "--tags", str(root / "mobile_tags_full.tag"),
    ]

    for argv in (["check", *files], ["check", *files, "--format", "json"],
                 ["export", *files, "--out", str(out_file)]):
        code, stdout, stderr = run(argv)
        assert code in (0, 1, 2), (argv[0], stderr)
        if code == 2:
            assert stderr.startswith("error: "), stderr
        if "json" in argv and (stdout or code != 2):  # a parse error prints no payload
            payload = json.loads(stdout)
            if code == 1:
                assert any(d["severity"] == "error" for d in payload["diagnostics"])
        elif code == 1:
            assert "error[" in (stderr if argv[0] == "export" else stdout)
        if argv[0] == "export":
            written = out_file.read_text(encoding="utf-8") if out_file.exists() else None
            if code == 0:
                assert written == json.dumps(json.loads(written), indent=2) + "\n"
            elif code == 1:
                assert written is None
