"""The names the benchmark's traced run patches, and the count it reads from them.

perfbench/tracing.py wraps package functions at the layer boundaries by
module attribute.  This test imports it read-only and runs the report path
once under it, so a renamed or removed patch point, or a second table
lookup per target, fails here as well as in a traced benchmark run.  The
machine reader runs under it too, and must look no table up.
"""

import sys

from airisk import parse_machine_report
from conftest import FIXTURES, PKG_ROOT

sys.path.insert(0, str(PKG_ROOT / "perfbench"))

from tracing import Tracer, layer_metrics, traced_api  # noqa: E402


def test_a_traced_report_looks_each_table_up_once_per_target():
    tracer = Tracer()
    with traced_api(tracer) as api:
        report = api.build_report(api.parse_assessment((FIXTURES / "hal9000.json").read_bytes()))
        for fmt in ("text", "markdown", "machine"):
            api.render_report(report, fmt)
    metrics = layer_metrics(tracer, 1)
    assert metrics["tables.target_lookups_per_target"] == (1.0, "count")
    assert tracer.calls("rules.decide") == 1


def test_the_machine_reader_looks_no_table_up():
    """The reader derives the findings again from the report's own cells."""
    tracer = Tracer()
    with traced_api(tracer) as api:
        report = api.build_report(api.parse_assessment((FIXTURES / "hal9000.json").read_bytes()))
        data = api.render_report(report, "machine")
        lookups = tracer.counts["tables.lookups"]
        assert parse_machine_report(data) == report
    assert lookups == 6 and tracer.counts["tables.lookups"] == lookups
