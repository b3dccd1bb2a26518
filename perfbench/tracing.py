"""Spans around calls into tagweaver's modules, for the traced layer run.

The benchmark does not change the program: for the length of one traced
iteration it replaces the module attributes through which the pipeline
calls its layers (``workspace.parse_statechart``,
``conformance.resolve_element``, ...) with wrappers that record a span —
name, start, end, parent — and a few counts, and restores them after.
Spans are kept in memory; a layer's self time is its spans' durations
minus the part covered by their child spans.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import tagweaver.conformance as conformance
import tagweaver.statechart as statechart
import tagweaver.tagmodel as tagmodel
import tagweaver.tagschema as tagschema
import tagweaver.workspace as workspace

# (per-layer metric in seconds, the span whose self times it sums).
TIME_LAYERS = (
    ("parsing.tokenize_s", "parsing.tokenize"),
    ("manifest.parse_s", "manifest.parse"),
    ("derivation.derive_s", "derivation.derive"),
    ("statechart.parse_s", "statechart.parse"),
    ("statechart.resolve_s", "statechart.resolve"),
    ("tagschema.parse_s", "tagschema.parse"),
    ("tagschema.validate_s", "tagschema.validate"),
    ("tagmodel.parse_s", "tagmodel.parse"),
    ("conformance.check_s", "conformance.check"),
    ("conformance.value_s", "conformance.value"),
    ("workspace.load_s", "workspace.load"),
    ("workspace.check_s", "workspace.check"),
    ("workspace.export_self_s", "workspace.export_self"),
    ("workspace.render_s", "workspace.render"),
    ("diagnostics.format_s", "diagnostics.format"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.distinct_refs: set = set()
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(result, args, kwargs)
            return result

        return traced

    def self_times(self) -> dict:
        child_time: dict = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return totals

    def span_records(self) -> list:
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
            for name, start, end, parent in self.spans
        ]


@contextmanager
def instrument(tracer: Tracer):
    """Route the pipeline's calls into each layer through ``tracer``."""

    def count_tokens(result, args, kwargs):
        tracer.counts["parsing.tokens"] += len(result)

    def count_resolve(result, args, kwargs):
        ident = args[1]
        context = args[2] if len(args) > 2 else kwargs.get("context_path", "")
        tracer.counts["statechart.resolve_calls"] += 1
        tracer.distinct_refs.add((id(args[0]), ident.text, context))

    patches = [
        (workspace, "load_workspace", "workspace.load", None),
        (workspace, "check_workspace", "workspace.check", None),
        (workspace, "build_export_report", "workspace.export_self", None),
        (workspace, "render_export_report", "workspace.render", None),
        (workspace, "parse_manifest", "manifest.parse", None),
        (workspace, "derive_profile", "derivation.derive", None),
        (workspace, "parse_statechart", "statechart.parse", None),
        (workspace, "parse_tag_schema", "tagschema.parse", None),
        (workspace, "validate_schema_well_formedness", "tagschema.validate", None),
        (workspace, "parse_tag_model", "tagmodel.parse", None),
        (workspace, "check", "conformance.check", None),
        (statechart, "tokenize", "parsing.tokenize", count_tokens),
        (tagmodel, "tokenize", "parsing.tokenize", count_tokens),
        (tagschema, "tokenize", "parsing.tokenize", count_tokens),
        (conformance, "resolve_element", "statechart.resolve", count_resolve),
        # The per-use value check behind the public check_value_domain.
        (conformance, "_check_value", "conformance.value", None),
    ]
    saved = []
    try:
        for module, attr, name, hook in patches:
            original = getattr(module, attr, None)
            if original is None:
                continue  # the layer was restructured; its metric reads 0
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, hook))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
