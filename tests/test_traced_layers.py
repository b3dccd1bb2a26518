"""The benchmark's traced layers stay reachable.

``perfbench/tracing.py`` times a layer by replacing the module attribute
through which the pipeline calls it.  A call that bypasses that attribute
leaves the layer's metric at 0 without any error, so this runs the library
path on ``samples/`` inside ``tracing.instrument`` and names the spans it
never opens.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from tagweaver import workspace

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_but_two_is_reached(samples_dir):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    spec = workspace.Workspace(
        manifest_file=samples_dir / "statechart.glang",
        model_files=(samples_dir / "mobile.sc",),
        schema_files=(samples_dir / "logging_schema.tagschema",),
        tag_files=(samples_dir / "mobile_tags.tag", samples_dir / "mobile_tags_full.tag"),
    )
    with tracing.instrument(tracer):
        loaded = workspace.load_workspace(spec)
        diags, _ = workspace.check_workspace(loaded)
        _, report = workspace.build_export_report(loaded)
        workspace.render_export_report(report)
    assert diags == []
    reached = {name for name, *_ in tracer.spans}
    unreached = {span for _, span in tracing.TIME_LAYERS} - reached
    # Schemas are judged by their parser's findings, so the separate
    # validation entry point is never called; the benchmark opens the
    # diagnostics span itself, around its own formatting.
    assert unreached == {"tagschema.validate", "diagnostics.format"}
