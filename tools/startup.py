"""Where one ``tagweaver`` process spends its time: start-up, measured in a fresh child.

Run from the directory the command's paths are relative to::

    python tools/startup.py [--src DIR] [--bytecode] [--runs N] [--format text|json] \\
        -- check --manifest samples/statechart.glang --model samples/mobile.sc ...

The ``tagweaver`` package of ``--src`` (by default this repository's ``src``)
is copied to a temporary directory without its ``__pycache__``.  Each run
starts a fresh interpreter that writes no bytecode and runs ``tagweaver
COMMAND ...`` from that copy, with its output discarded.  Without
``--bytecode`` every run compiles the package from source, as the
benchmark's children do; with it, the copy is compiled once beforehand, so
the runs load bytecode, as an installed tool does.  A run reports, in ms:

* ``compile``: compiling ``tagweaver``'s source (0 with ``--bytecode``);
* ``records``: building the record classes (``tagweaver.records.record``);
* ``re``: compiling regular expressions anywhere in the process, cache
  misses only (a pattern that ``re`` has cached costs nothing to look up);
* ``rest``: the rest of the run's wall time, interpreter start-up included;

and ``wall``, the time from starting the child to its exit.  With
``--runs N`` each figure is the median of ``N`` runs.  The tool exits with
the command's exit code.  It uses the standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FIGURES = ("compile", "records", "re")

# The child: time the three figures through the functions that do the work,
# run the command, and write the sums to the file named by its first argument.
_CHILD = r"""
import re, sys, time
from importlib import import_module
from importlib._bootstrap_external import SourceLoader

report, package, *argv = sys.argv[1:]
sums = {"compile": [0.0, 0], "records": [0.0, 0], "re": [0.0, 0]}

def timed(figure, function, counted=lambda *args: True):
    def wrapper(*args, **kwargs):
        if not counted(*args):
            return function(*args, **kwargs)
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            sums[figure][0] += time.perf_counter() - start
            sums[figure][1] += 1
    return wrapper

SourceLoader.source_to_code = timed(
    "compile", SourceLoader.source_to_code, lambda loader, data, path, *_: str(path).startswith(package))
compiler = getattr(re, "_compiler", None) or import_module("sre_compile")  # before 3.11: sre_compile
compiler.compile = timed("re", compiler.compile)
sys.path.insert(0, package.rpartition("/")[0])
records = import_module("tagweaver.records")
records.record = timed("records", records.record)
from tagweaver.cli import main
try:
    status = main(argv)
except SystemExit as exc:
    status = exc.code if isinstance(exc.code, int) else 1
import json
with open(report, "w", encoding="utf-8") as out:
    json.dump({"sums": sums, "exit": status}, out)
"""


def run_once(package: Path, command: list[str], report: Path) -> dict:
    """One child run: the ms and counts of each figure, its wall time and exit code."""

    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(report), package.as_posix(), *command],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    wall = (time.perf_counter() - start) * 1000
    try:
        measured = json.loads(report.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        raise SystemExit(f"the child wrote no report (exit {done.returncode}):\n{done.stderr}") from None
    report.unlink()
    ms = {figure: measured["sums"][figure][0] * 1000 for figure in FIGURES}
    ms["rest"] = wall - sum(ms.values())
    ms["wall"] = wall
    counts = {figure: measured["sums"][figure][1] for figure in FIGURES}
    return {"ms": ms, "counts": counts, "exit": measured["exit"]}


def measure(src: Path, command: list[str], *, bytecode: bool, runs: int) -> dict:
    """The median figures of ``runs`` children running ``command`` from a copy of ``src``."""

    with tempfile.TemporaryDirectory(prefix="tagweaver-startup-") as scratch:
        package = Path(scratch) / "tagweaver"
        shutil.copytree(src / "tagweaver", package, ignore=shutil.ignore_patterns("__pycache__"))
        if bytecode and not compileall.compile_dir(package, quiet=1):
            raise SystemExit(f"cannot compile {package}")
        done = [run_once(package, command, Path(scratch) / "report.json") for _ in range(runs)]
    return {
        "command": command,
        "bytecode": bytecode,
        "runs": runs,
        "exit": done[-1]["exit"],
        "ms": {key: round(statistics.median(run["ms"][key] for run in done), 2) for key in done[0]["ms"]},
        "counts": {key: statistics.median_low(run["counts"][key] for run in done) for key in FIGURES},
    }


def format_text(result: dict) -> str:
    runs = "one run" if result["runs"] == 1 else f"median of {result['runs']} runs"
    lines = [f"tagweaver {' '.join(result['command'])}",
             f"{'with' if result['bytecode'] else 'without'} bytecode, {runs}, in ms:"]
    units = {"compile": "modules", "records": "classes", "re": "patterns"}
    for key, value in result["ms"].items():
        count = f"  ({result['counts'][key]} {units[key]})" if key in units else ""
        lines.append(f"  {key:<8} {value:>8.2f}{count}")
    lines.append(f"exit {result['exit']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=SRC, help="the directory that holds the tagweaver package")
    parser.add_argument("--bytecode", action="store_true", help="compile the package before the runs")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="the tagweaver command and its arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no tagweaver command given")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if not (args.src / "tagweaver" / "__init__.py").is_file():
        parser.error(f"{args.src} holds no tagweaver package")
    result = measure(args.src.resolve(), command, bytecode=args.bytecode, runs=args.runs)
    print(json.dumps(result, indent=2) if args.format == "json" else format_text(result))
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main())
