"""Spans and counts at the package's layer boundaries, for the traced run.

The traced run swaps the package functions that one layer calls in another
(for example ``airisk.report.evaluate_rules`` or
``airisk.documents.validate_profile``) for wrappers that record a span, so
spans nest the way the calls do and a layer's self time is its span's
duration minus that of its child spans.  The benchmark's own calls go
through the same wrappers.  Timed runs never install them.

Each span records its operation, its id, its parent's id, its name, and its
start and end in nanoseconds.  Totals per name are kept for the whole run;
the full spans are kept for the first ``SPAN_LIMIT`` spans and written out
when the run ends.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from types import SimpleNamespace

import airisk
import airisk.cli
import airisk.documents
import airisk.report
import airisk.rules
from airisk import AssessmentDocumentError, ReportFormat

SPAN_LIMIT = 100_000


class Tracer:
    """Collects spans and counts; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.totals: list[list[int]] = []  # per name: [calls, total ns, self ns]
        self.counts: dict[str, int] = {}
        self.spans = array("q")  # op, id, parent, name, start, end
        self.op = 0
        self._next_id = 1
        self._stack: list[list[int]] = []  # per open span: [id, child ns]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.totals.append([0, 0, 0])
        return self._ids[name]

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, fn, error_types: tuple = ()):
        """Wrap fn so that each call records a span called name.

        A call that raises one of error_types is recorded as ``name_error``,
        one that raises anything else as ``name_fault``.
        """
        ok_id = self._name_id(name)
        error_id = self._name_id(name + "_error")
        fault_id = self._name_id(name + "_fault")
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        totals = self.totals

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0]
            stack.append(frame)
            name_id = fault_id
            start = clock()
            try:
                result = fn(*args, **kwargs)
                name_id = ok_id
                return result
            except error_types:
                name_id = error_id
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = 0
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                agg = totals[name_id]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if len(spans) < 6 * SPAN_LIMIT:
                    spans.extend((self.op, sid, parent, name_id, start, end))

        return traced

    def counted(self, name: str, fn):
        """Wrap fn so that each call adds one to the count called name."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def calls(self, name: str) -> int:
        return self.totals[self._ids[name]][0] if name in self._ids else 0

    def mean_us(self, name: str, self_time: bool = False) -> float:
        """Mean time per call in microseconds; 0.0 when there was no call."""
        if name not in self._ids:
            return 0.0
        calls, total, own = self.totals[self._ids[name]]
        return (own if self_time else total) / calls / 1000 if calls else 0.0

    def write(self, path) -> None:
        spans = [list(self.spans[i : i + 6]) for i in range(0, len(self.spans), 6)]
        doc = {
            "span_fields": ["op", "id", "parent", "name", "start_ns", "end_ns"],
            "names": self.names,
            "totals": {n: dict(zip(("calls", "total_ns", "self_ns"), t)) for n, t in zip(self.names, self.totals)},
            "counts": self.counts,
            "spans": spans,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def plain_api() -> SimpleNamespace:
    """The package functions a workload calls, untraced."""
    return SimpleNamespace(
        parse_assessment=airisk.parse_assessment,
        serialize_assessment=airisk.serialize_assessment,
        evaluate_rules=airisk.evaluate_rules,
        build_report=airisk.build_report,
        render_report=airisk.render_report,
        cli_main=airisk.cli.main,
    )


@contextmanager
def traced_api(tracer: Tracer):
    """Install span and count wrappers at every layer boundary; yield the traced API.

    The module attributes are put back when the block ends.
    """
    validate = tracer.span("model.validate", airisk.validate_profile)
    targets_name = "tables.targets_evaluated"

    def evaluate_rules(profile, *args, **kwargs):
        tracer.count(targets_name, len(profile.targets))
        return airisk.evaluate_rules(profile, *args, **kwargs)

    decide = tracer.span("rules.decide", evaluate_rules)
    parse = tracer.span("documents.parse", airisk.parse_assessment, (AssessmentDocumentError,))
    build = tracer.span("report.build", airisk.build_report)
    read_findings = tracer.span("rules.explain", lambda report: report.rule_findings.findings)
    renders = {f.value: tracer.span(f"report.render_{f.value}", airisk.render_report) for f in ReportFormat}

    def build_and_explain(*args, **kwargs):
        # The first read of findings writes the rationale text; doing it here
        # keeps that cost in rules.explain rather than in the render spans.
        report = build(*args, **kwargs)
        read_findings(report)
        return report

    def render(report, format, **kwargs):
        return renders[ReportFormat(format).value](report, format, **kwargs)

    patches = [
        (airisk.documents, "validate_profile", validate),
        (airisk.rules, "validate_profile", validate),
        (airisk.cli, "validate_profile", validate),
        (airisk.report, "evaluate_rules", decide),
        (airisk.cli, "parse_assessment", parse),
        (airisk.cli, "build_report", build_and_explain),
        (airisk.cli, "render_report", render),
    ]
    for module in (airisk.rules, airisk.report):
        for fn_name in ("target_accident_risk", "target_damage_party"):
            patches.append((module, fn_name, tracer.counted("tables.lookups", getattr(module, fn_name))))
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    for module, name, wrapper in patches:
        setattr(module, name, wrapper)
    try:
        yield SimpleNamespace(
            parse_assessment=parse,
            serialize_assessment=tracer.span("documents.serialize", airisk.serialize_assessment),
            evaluate_rules=decide,
            build_report=build_and_explain,
            render_report=render,
            cli_main=_cli_main_spans(tracer),
        )
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def _cli_main_spans(tracer: Tracer):
    spans = {cmd: tracer.span(f"cli.main_{cmd}", airisk.cli.main) for cmd in ("assess", "validate")}

    def main(argv):
        return spans[argv[0]](argv)

    return main


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as name -> (value, unit).

    Times are means per call; a layer that made no call reads 0.
    """
    lookups = tracer.counts.get("tables.lookups", 0)
    targets = tracer.counts.get("tables.targets_evaluated", 0)
    metrics = {
        "documents.parse_us": (tracer.mean_us("documents.parse", self_time=True), "us"),
        "documents.parse_error_us": (tracer.mean_us("documents.parse_error"), "us"),
        "documents.serialize_us": (tracer.mean_us("documents.serialize"), "us"),
        "model.validate_us": (tracer.mean_us("model.validate"), "us"),
        "model.validate_calls_per_op": (tracer.calls("model.validate") / ops, "count"),
        # Two tables per target: 1 means each table was looked up once per target.
        "tables.target_lookups_per_target": (lookups / (2 * targets) if targets else 0.0, "count"),
        "rules.decide_us": (tracer.mean_us("rules.decide", self_time=True), "us"),
        "rules.explain_us": (tracer.mean_us("rules.explain"), "us"),
        "report.build_us": (tracer.mean_us("report.build", self_time=True), "us"),
    }
    for f in ReportFormat:
        metrics[f"report.render_{f.value}_us"] = (tracer.mean_us(f"report.render_{f.value}"), "us")
    metrics["cli.main_ms"] = (tracer.mean_us("cli.main_assess") / 1000, "ms")
    return metrics
