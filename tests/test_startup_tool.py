"""``tools/startup.py`` reports where one ``tagweaver`` process spends its time."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECK = ["check", "--manifest", "samples/statechart.glang", "--model", "samples/mobile.sc",
         "--schema", "samples/logging_schema.tagschema", "--tags", "samples/mobile_tags.tag"]


def startup(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tools" / "startup.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("bytecode", [False, True], ids=["source", "bytecode"])
def test_a_check_of_the_samples_is_measured(bytecode):
    done = startup("--format", "json", *(["--bytecode"] if bytecode else []), "--", *CHECK)
    assert (done.returncode, done.stderr) == (0, "")
    result = json.loads(done.stdout)
    assert result["command"] == CHECK and result["bytecode"] is bytecode and result["exit"] == 0
    ms, counts = result["ms"], result["counts"]
    assert list(ms) == ["compile", "records", "re", "rest", "wall"]
    assert all(ms[key] >= 0 for key in ms) and ms["rest"] < ms["wall"]
    assert (ms["compile"] == 0) is bytecode and (counts["compile"] == 0) is bytecode
    assert counts["records"] == 28 and counts["re"] > 0


def test_the_command_exit_code_is_the_tools():
    done = startup("--", *CHECK, "--tags", "samples/no_such_file.tag")
    assert done.returncode == 2
    assert done.stdout.splitlines()[-1] == "exit 2"
