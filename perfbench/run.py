"""tagweaver benchmark: time to a verdict and to an export on seeded workspaces.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload flat-brackets --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick       # every workload at small scale
    python3 perfbench/run.py --scaling     # the flat-chart scaling table

One run generates the workload's files from ``--seed`` under
``.perfbench_work/``, then runs whole rounds until ``--seconds`` have
passed.  A round is one fresh ``derive`` process (the set-up sample), the
calibration process ``calibrate.py`` (untraced runs only), the
workload's CLI command as a child process, one
warm in-process pass over the same library path and, on
``nested-contexts``, the deep-nesting probe.  Every output is checked
against the generator's expectations.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Load comes from this one process, with at most one
child process at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

KIB_PER_MB = 1024.0
# Wall time of one calibrate.py process at the speed that the timings are
# scaled to: its median on the machine where the benchmark was built.
CAL_PROCESS_S = 0.18

sys.path.insert(0, str(SRC))
try:
    import tracing  # wraps tagweaver's modules, so it needs them importable
    from tagweaver import (CheckInput, check, derive_profile, parse_manifest, parse_statechart,
                           parse_tag_model, parse_tag_schema)
    from tagweaver import workspace as wsmod
    from tagweaver.diagnostics import format_diagnostic
    from tagweaver.statechart import enumerate_elements
    from tagweaver.tagmodel import Context
except ImportError as exc:
    sys.exit(f"perfbench: cannot import tagweaver from {SRC} ({exc}); "
             "run this from the root of a checkout of the repository")
import workloads


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def spawn(argv: list, out_path: Path, err_path: Path) -> tuple:
    """Run ``python3 argv`` with stdout and stderr captured to files.

    Returns (exit code, wall seconds from spawn to exit).
    """

    env = dict(os.environ, PYTHONPATH=str(SRC), TAGWEAVER_COLOR="0")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    try:
        _, status = os.waitpid(pid, 0)
    except BaseException:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise
    elapsed = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), elapsed


def tagweaver_cli(args: list, work: Path, tag: str) -> tuple:
    """(exit code, seconds, peak MB or None, stdout bytes, stderr text) of
    one CLI run, with the peak resident memory that the CLI process reports
    through peak_rss.py."""

    out, err, peak = work / f"{tag}.out", work / f"{tag}.err", work / f"{tag}.peak"
    peak.unlink(missing_ok=True)
    code, elapsed = spawn([str(HERE / "peak_rss.py"), str(peak), "tagweaver.cli", *args], out, err)
    rss = int(peak.read_text()) / KIB_PER_MB if peak.exists() else None
    return code, elapsed, rss, out.read_bytes(), err.read_text(encoding="utf-8", errors="replace")


# ---------------------------------------------------------------------------
# Checking outputs against the generator's expectations
# ---------------------------------------------------------------------------


def normalized_json(value) -> dict:
    """Export form of a checker's normalized value, written out here."""

    if value.kind == "flag":
        return {"kind": "flag"}
    if value.kind == "complex":
        return {
            "kind": "complex",
            "subtags": [{"name": name, "value": normalized_json(child)}
                        for name, child in value.children],
        }
    return {"kind": value.kind, "value": value.value}


def diagnostics_problem(diags: list, expected_warnings: int) -> str | None:
    """``diags`` as (severity, condition) pairs: zero errors and exactly the
    planted number of duplicate-tag warnings."""

    wrong = [d for d in diags if d != ("warning", "DuplicateTagWarning")]
    if wrong:
        return f"unexpected diagnostics: {Counter(wrong).most_common(3)}"
    if len(diags) != expected_warnings:
        return f"{len(diags)} warnings, expected {expected_warnings}"
    return None


def check_payload_problem(stdout: bytes, expected_warnings: int) -> str | None:
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    diags = [(d["severity"], d["condition"]) for d in payload["diagnostics"]]
    if payload["errors"] != 0 or payload["warnings"] != expected_warnings:
        return f"verdict {payload['errors']} errors / {payload['warnings']} warnings"
    return diagnostics_problem(diags, expected_warnings)


def record_key(record: dict) -> tuple:
    return (record["elementPath"], record["elementType"], record["tagType"],
            record["schema"], json.dumps(record["value"], sort_keys=True))


def sort_key(record: dict) -> tuple:
    # The documented order: element path, tag type, then the rest of the record.
    return (record["elementPath"], record["tagType"], record["schema"],
            json.dumps(record["value"], sort_keys=True))


def export_problem(text: bytes, ws) -> tuple:
    """(problem or None, attachment records) for one export document."""

    try:
        report = json.loads(text)
    except ValueError:
        return "export is not JSON", []
    records = report["attachments"]
    if report["targetModel"] != ws.target:
        return f"targetModel {report['targetModel']!r}", records
    if any(set(r) != {"elementPath", "elementType", "tagType", "schema", "value"} for r in records):
        return "attachment records carry unexpected keys", records
    if Counter(map(record_key, records)) != ws.expected.attachments:
        return "exported attachments differ from the expected multiset", records
    keys = [sort_key(r) for r in records]
    if any(a > b for a, b in zip(keys, keys[1:])):
        return "exported attachments are not in the documented order", records
    return None, records


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, ws, work: Path):
        self.ws = ws
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.probe_failures = 0
        self.problems: list = []
        self.setup_seconds: list = []
        self.import_seconds: list = []
        self.cal_process: list = []
        self.calibration = None  # this round's calibration time
        self.scaled = {"setup": [], "cli": [], "inproc": []}  # over the calibration
        self.cli_seconds: list = []
        self.cli_rss: list = []
        self.inproc_seconds: list = []
        self.traced_seconds: list = []
        self.reference: bytes | None = None
        self.traces: list = []  # one Tracer per traced pass
        self.export_traces: list = []  # check workloads: the extra traced export
        self.last = None  # (loaded, diags, resolved, text) of the last traced pass

    def scale(self, kind: str, seconds: float) -> None:
        """Keep ``seconds`` over this round's calibration time too."""

        if self.calibration is not None:
            self.scaled[kind].append(seconds / self.calibration)

    def wrong(self, what: str, problem: str | None) -> bool:
        if problem is not None:
            self.problems.append(f"{what}: {problem}")
            print(f"perfbench: {what}: {problem}", file=sys.stderr)
        return problem is not None

    # -- set-up: a fresh process up to a derived profile ------------------------

    def setup_sample(self) -> None:
        """Wall time of one `tagweaver derive` process.  One sample per
        round, so that set-up is sampled across the whole run."""

        out = self.work / "profile"
        code, elapsed, _, _, err = tagweaver_cli(
            ["derive", "--manifest", str(self.ws.manifest), "--out", str(out)], self.work, "derive")
        if code != 0 or not (out / "Statechart.profile.json").is_file():
            self.wrong("derive", f"exit code {code}: {err.strip()}")
            return
        self.setup_seconds.append(elapsed)
        self.scale("setup", elapsed)

    def import_sample(self) -> None:
        """Seconds to import tagweaver.cli in a fresh process."""

        code = ("import time; t = time.perf_counter(); import tagweaver.cli; "
                "print(time.perf_counter() - t)")
        out = self.work / "import.out"
        if spawn(["-c", code], out, self.work / "import.err")[0] != 0:
            self.wrong("import", "importing tagweaver.cli failed")
            return
        self.import_seconds.append(float(out.read_text()))

    def calibrate(self) -> None:
        """Wall time of one calibrate.py process, the round's calibration."""

        code, elapsed = spawn([str(HERE / "calibrate.py")], self.work / "calibrate.out",
                              self.work / "calibrate.err")
        self.calibration = elapsed if code == 0 else None
        if self.wrong("calibration", None if code == 0 else f"exit code {code}"):
            return
        self.cal_process.append(elapsed)

    # -- the workload's CLI command ------------------------------------------

    def cli_problem(self, code: int, stdout: bytes, err: str) -> str | None:
        if code != 0:
            last = err.strip().splitlines()[-1:] or [""]
            return f"exit code {code}: {last[0]}"
        if self.ws.command == "check":
            return check_payload_problem(stdout, self.ws.expected.warnings)
        problem, _ = export_problem(stdout, self.ws)
        if problem is None and self.reference is not None and stdout != self.reference:
            problem = "export is not byte-identical to the first invocation"
        return problem

    def cli_op(self) -> None:
        self.attempted += 1
        code, elapsed, rss, stdout, err = tagweaver_cli(self.ws.cli_args(), self.work, "cli")
        if code != 0:
            self.failed += 1
        problem = self.cli_problem(code, stdout, err)
        if problem is None and rss is None:
            problem = "the CLI process wrote no peak memory"
        if self.wrong("cli", problem):
            return
        self.cli_seconds.append(elapsed)
        self.scale("cli", elapsed)
        self.cli_rss.append(rss)

    # -- the same library path, in this process --------------------------------

    def inproc_op(self, tracer=None) -> None:
        """load_workspace, then check_workspace — or, for the export,
        build_export_report and render_export_report — as the CLI does."""

        self.attempted += 1
        spec = wsmod.Workspace(
            manifest_file=self.ws.manifest,
            model_files=(self.ws.model,),
            schema_files=(self.ws.schema,),
            tag_files=tuple(self.ws.tag_files),
        )
        text = resolved = None
        gc.collect()
        try:
            with tracing.instrument(tracer) if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                loaded = wsmod.load_workspace(spec)
                if self.ws.command == "check":
                    diags, resolved = wsmod.check_workspace(loaded)
                else:
                    diags, report = wsmod.build_export_report(loaded)
                    text = wsmod.render_export_report(report)
                elapsed = time.perf_counter() - start
                if tracer:
                    with tracer.span("diagnostics.format"):
                        for diag in diags:
                            format_diagnostic(diag)
        except Exception as exc:  # a crash is a failed operation, not a verdict
            self.failed += 1
            self.wrong("in-process", f"{type(exc).__name__}: {exc}")
            return
        problem = diagnostics_problem(
            [(d.severity.value, d.condition) for d in diags], self.ws.expected.warnings)
        if problem is None and resolved is not None:
            got = Counter(
                (a.element.path, a.element.element_type, a.tag_type, a.schema,
                 json.dumps(normalized_json(a.value), sort_keys=True))
                for tagging in resolved for a in tagging.attachments
            )
            if got != self.ws.expected.attachments:
                problem = "attachments differ from the expected multiset"
        elif problem is None and text.encode("utf-8") != self.reference:
            problem = "rendered export differs from the CLI's export"
        if self.wrong("in-process", problem):
            return
        if not tracer:
            self.inproc_seconds.append(elapsed)
            self.scale("inproc", elapsed)
            return
        self.traced_seconds.append(elapsed)
        self.traces.append(tracer)
        if text is None:
            # `check` never exports.  Export the same workspace once more,
            # traced apart, so that the export layers read a measured time
            # on every workload without touching the other layers.
            exporter = tracing.Tracer()
            with tracing.instrument(exporter):
                _, report = wsmod.build_export_report(loaded)
                text = wsmod.render_export_report(report)
            if self.wrong("traced export", export_problem(text.encode("utf-8"), self.ws)[0]):
                return
            self.export_traces.append(exporter)
        self.last = (loaded, diags, resolved, text)

    # -- the deep-nesting probe ------------------------------------------------

    def probe_op(self, probe) -> None:
        """Passes on exit 0 with the right verdict or exit 2 with a one-line
        error; a traceback or exit 1 (a crash that looks like a verdict)
        counts as a failed operation."""

        self.attempted += 1
        code, _, _, stdout, err = tagweaver_cli(probe.cli_args(), self.work, "probe")
        if code == 2 and len(err.strip().splitlines()) == 1:
            return
        if code == 0:
            self.wrong("probe", check_payload_problem(stdout, 0))
            return
        self.failed += 1
        self.probe_failures += 1


def check_references(run: Run) -> None:
    """One untimed invocation that warms the file cache; for the export it
    also fixes the bytes every later export must repeat, and is compared
    with the re-sorted concatenation of per-file exports."""

    ws = run.ws
    code, _, _, stdout, err = tagweaver_cli(ws.cli_args(), run.work, "reference")
    if run.wrong("reference", run.cli_problem(code, stdout, err)) or ws.command != "export":
        return
    run.reference = stdout
    records = json.loads(stdout)["attachments"]
    merged = []
    for i, path in enumerate(ws.tag_files):
        code, _, _, part, _ = tagweaver_cli(ws.cli_args([path]), run.work, f"part{i}")
        if run.wrong(f"per-file export {i}", None if code == 0 else f"exit code {code}"):
            return
        merged.extend(json.loads(part)["attachments"])
    merged.sort(key=sort_key)
    if [record_key(r) for r in merged] != [record_key(r) for r in records]:
        run.wrong("merge", "the export differs from the re-sorted per-file exports")


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> tuple:
    """One run; returns (the result object, the Run with its samples)."""

    work = WORK / f"{'quick-' if quick else ''}{name}{'-trace' if trace else ''}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    ws = workloads.generate(name, seed, work / "ws", quick=quick)
    probe = workloads.generate_probe(work / "probe") if name == "nested-contexts" else None
    run = Run(ws, work)

    run.setup_sample()  # may compile bytecode; not counted
    run.setup_seconds.clear()
    check_references(run)

    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < (2 if trace else 1) or time.perf_counter() < deadline:
        if trace:
            run.import_sample()
        else:
            run.calibrate()
        run.setup_sample()
        run.cli_op()
        # A traced run alternates traced and untraced passes; the
        # difference of their fastest is the tracing overhead.
        run.inproc_op(tracing.Tracer() if trace and rounds % 2 else None)
        if probe is not None:
            run.probe_op(probe)
        rounds += 1
    print(f"perfbench: {name} seed {seed}: {rounds} rounds, {run.attempted} operations, "
          f"{run.failed} failed ({run.probe_failures} of them the deep-nesting probe)",
          file=sys.stderr)
    samples = {"setup": run.setup_seconds, "cli": run.cli_seconds,
               "inproc": run.inproc_seconds, "traced": run.traced_seconds,
               "calibration": run.cal_process}
    print("perfbench: samples " + json.dumps({k: [round(x, 4) for x in v] for k, v in samples.items()}),
          file=sys.stderr)

    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
              "metrics": {}}
    if trace and run.traces and run.inproc_seconds and run.import_seconds:
        result["metrics"] = layer_metrics(run)
    elif not trace and all(run.scaled.values()):
        # Each timing is taken over the calibration of its own round, and
        # the median ratio is turned back into seconds at the speed at
        # which a calibration process takes CAL_PROCESS_S.  This machine
        # runs 20-45 % slower for minutes at a time; raw timings of two
        # sets of runs of the same code then differ by more than the
        # bounds, while their ratios to the calibration hardly move.
        setup, cli, inproc = (statistics.median(run.scaled[kind]) * CAL_PROCESS_S
                              for kind in ("setup", "cli", "inproc"))
        result["metrics"] = {
            "setup_s": {"value": setup, "unit": "s"},
            "cli_s": {"value": cli, "unit": "s"},
            "pairs_per_s": {"value": ws.expected.pairs / inproc, "unit": "pairs/s"},
            "peak_rss_mb": {"value": statistics.median(run.cli_rss), "unit": "MB"},
        }
    return result, run


def layer_metrics(run: Run) -> dict:
    """Per-layer metrics: self times are the fastest over the traced
    passes, counts come from the last traced pass."""

    per_pass = [tracer.self_times() for tracer in run.traces]
    for times, exporter in zip(per_pass, run.export_traces):
        extra = exporter.self_times()
        for span in ("workspace.export_self", "workspace.render"):
            times[span] = extra[span]
    metrics = {name: (min(t.get(span, 0.0) for t in per_pass), "s")
               for name, span in tracing.TIME_LAYERS}
    metrics["cli.import_s"] = (min(run.import_seconds), "s")

    tracer = run.traces[-1]
    loaded, diags, resolved, text = run.last
    statements = pairs = 0
    stack = [item for tag_model in loaded.tag_models for item in tag_model.body]
    while stack:
        item = stack.pop()
        if isinstance(item, Context):
            stack.extend(item.body)
        else:
            statements += 1
            pairs += len(item.element_refs) * len(item.tag_refs)
    calls = tracer.counts["statechart.resolve_calls"]
    if resolved is not None:
        attachments = sum(len(tagging.attachments) for tagging in resolved)
    else:
        attachments = len(json.loads(text)["attachments"])
    metrics.update({
        "parsing.tokens": (tracer.counts["parsing.tokens"], "count"),
        "statechart.elements": (sum(len(enumerate_elements(m)) for m in loaded.models), "count"),
        "statechart.resolve_calls": (calls, "count"),
        "tagmodel.statements": (statements, "count"),
        "conformance.pairs": (pairs, "count"),
        "conformance.attachments": (attachments, "count"),
        "conformance.distinct_ref_ratio": (len(tracer.distinct_refs) / calls if calls else 0.0, "ratio"),
        "workspace.export_bytes": (len(text.encode("utf-8")) if text is not None else 0, "bytes"),
        "diagnostics.warnings": (sum(1 for d in diags if d.severity.value == "warning"), "count"),
        "trace.overhead_s": (min(run.traced_seconds) - min(run.inproc_seconds), "s"),
    })
    spans_path = run.work / "spans.json"
    spans_path.write_text(json.dumps(tracer.span_records()), encoding="utf-8")
    print(f"perfbench: spans of the last traced pass in {spans_path}", file=sys.stderr)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# ---------------------------------------------------------------------------
# Reference modes
# ---------------------------------------------------------------------------


def scaling_table() -> None:
    """The ROADMAP Baseline table: flat charts of 1 000 and 2 000 states,
    timing parse .sc, parse .tag and check, with the attachment count.
    The time of `check` grows with the square of the chart size."""

    profile = derive_profile(parse_manifest(workloads.MANIFEST))
    schema = parse_tag_schema(workloads.SCHEMA, profile)
    print("| n | parse `.sc` | parse `.tag` | `check` | attachments |")
    print("| --- | --- | --- | --- | --- |")
    for n in (1000, 2000):
        ws = workloads.generate("flat-brackets", 1, WORK / f"scaling-{n}", states=n)
        start = time.perf_counter()
        chart = parse_statechart(ws.model.read_text(encoding="utf-8"))
        parsed_sc = time.perf_counter()
        tags = parse_tag_model(ws.tag_files[0].read_text(encoding="utf-8"), profile)
        parsed_tag = time.perf_counter()
        diags, resolved = check(CheckInput(tags, chart, (schema,), profile))
        checked = time.perf_counter()
        if diags or len(resolved.attachments) != ws.expected.pairs:
            raise RuntimeError(f"flat chart of {n} states did not check cleanly")
        print(f"| {n} | {parsed_sc - start:.2f} s | {parsed_tag - parsed_sc:.2f} s "
              f"| {checked - parsed_tag:.2f} s | {len(resolved.attachments)} |")


def quick() -> int:
    """Every workload at small scale, untraced and traced, one round each."""

    ok = True
    for name in workloads.SCALES:
        for trace in (False, True):
            result, run = run_workload(name, 1, 0, trace, quick=True)
            ok &= result["correct"] and result["failed"] == run.probe_failures
            print(json.dumps({"workload": name, "trace": int(trace), **result}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.SCALES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="every workload at small scale")
    parser.add_argument("--scaling", action="store_true", help="print the flat-chart scaling table")
    args = parser.parse_args(argv)
    if args.quick:
        return quick()
    if args.scaling:
        scaling_table()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
