"""Building reports from one decision pass, and rendering them.

The text and markdown formats present the same content in the same order:
profile header, intervention table, target table, safety levels, the seven
findings, and a calibration footer listing every invented cutoff in effect.
The machine format is the report's canonical JSON document; ``documents``
writes it and parses it back to an equal RiskReport.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum

from .documents import canonical_json_bytes, parse_machine_report  # the reader is exported here too
from .model import (
    ATTENTION_RANK,
    AssessmentProfile,
    AttentionInterval,
    HumanAttention,
    InterventionIndicators,
    MaxDamage,
    Reputational,
    SafetyProfile,
)
from .rules import MEASURE_LABELS, Finding, Measure, evaluate_rules
from .rules import Calibration, RiskReport, TargetResult  # defined with the rules; exported here too
from .tables import DEFAULT_DAMAGE_THRESHOLDS, DamageThresholds, quadrant
from .tables import target_accident_risk, target_damage_party  # unused; perfbench/tracing.py patches both


class ReportFormat(str, Enum):
    TEXT = "text"
    MARKDOWN = "markdown"
    MACHINE = "machine"


_MARKDOWN, _MACHINE = ReportFormat.MARKDOWN, ReportFormat.MACHINE
_NO_REPUTATION, _DAYS_RANK = Reputational.NONE, ATTENTION_RANK[AttentionInterval.DAYS]


def format_usd(amount: float) -> str:
    """Dollar text: exact billions/millions humanized, otherwise separators."""
    if isinstance(amount, float) and amount.is_integer():
        amount = int(amount)
    if isinstance(amount, int):
        if amount and amount % 1_000_000_000 == 0:
            return f"${amount // 1_000_000_000:,} billion"
        if amount and amount % 1_000_000 == 0:
            return f"${amount // 1_000_000:,} million"
        return f"${amount:,}"
    return f"${amount:,.2f}"


def format_max_damage(d: MaxDamage) -> str:
    """Cell text for a max-damage estimate, e.g. "$10 billion + 4 lives"."""
    parts = []
    if d.monetary_usd is not None:
        parts.append(format_usd(d.monetary_usd))
    if d.lives_at_risk:
        parts.append("1 life" if d.lives_at_risk == 1 else f"{d.lives_at_risk} lives")
    if parts:
        return " + ".join(parts)
    if d.reputational is not None and d.reputational is not _NO_REPUTATION:
        return "Reputation loss"
    return "none"


def format_attention(att: HumanAttention) -> str:
    """Attention cell text: "N times per day", "intermittent, weeks", or "minutes"."""
    if att.checks_per_day is not None:
        n = att.checks_per_day
        return "1 time per day" if n == 1 else f"{n} times per day"
    interval = att.interval
    # Gaps of a day or more get the explicit "intermittent" marker.
    if ATTENTION_RANK[interval] >= _DAYS_RANK:
        return f"intermittent, {interval._value_}"
    return interval._value_


def build_report(
    profile: AssessmentProfile,
    thresholds: DamageThresholds = DEFAULT_DAMAGE_THRESHOLDS,
) -> RiskReport:
    """Assemble the full report for a valid profile.

    Raises:
        InvalidProfileError: if the profile fails validation.
    """
    findings = evaluate_rules(profile, thresholds)
    facts = findings._facts  # the decision pass's lookups and calibration
    results = []
    for target, cls, risk, party in zip(profile.targets, facts.classes, facts.risks, facts.parties):
        q = None
        if target.position is not None:
            q = quadrant(target.position.gap, target.position.energy)
        results.append(
            TargetResult(
                name=target.name,
                max_damage_text=format_max_damage(target.max_damage),
                damage_class=cls,
                accident_risk=risk,
                damage_party=party,
                quadrant=q,
            )
        )
    return RiskReport(
        profile_name=profile.name,
        intervention=profile.intervention,
        target_results=tuple(results),
        safety=profile.safety,
        rule_findings=findings,
        calibration=facts.cal,
    )


def _two_column(rows: list[tuple[str, str]]) -> list[str]:
    width = max(len(label) for label, _ in rows)
    return [f"{label:<{width}} | {value}" for label, value in rows]


def _aligned_table(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    def line(cells: list[str]) -> str:
        return " | ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()
    return [line(header)] + [line(row) for row in rows]


def _intervention_rows(ind: InterventionIndicators) -> list[tuple[str, str]]:
    return [
        ("Time Delay", ind.time_delay._value_),
        ("Observability", str(ind.observability)),
        ("Human Attention", format_attention(ind.attention)),
        ("Correctability", str(ind.correctability)),
    ]


def render_intervention_table(ind: InterventionIndicators) -> str:
    """The four timely-intervention indicators as an aligned two-column table."""
    return "\n".join(_two_column(_intervention_rows(ind)))


def _target_rows(results: tuple[TargetResult, ...]) -> tuple[list[str], list[list[str]]]:
    header = ["Targets", "Max Damage", "System Accident Risk", "Potential Damage to Other Parties"]
    rows = [
        [r.name, r.max_damage_text, r.accident_risk.letter, r.damage_party.code]
        for r in results
    ]
    if any(r.quadrant is not None for r in results):
        header.append("Quadrant")
        for row, r in zip(rows, results):
            row.append("-" if r.quadrant is None else str(r.quadrant))
    return header, rows


def render_target_table(results: tuple[TargetResult, ...]) -> str:
    """Per-target risk results as an aligned table, one row per target."""
    header, rows = _target_rows(results)
    return "\n".join(_aligned_table(header, rows))


def _safety_rows(safety: SafetyProfile) -> list[tuple[str, str]]:
    rows = []
    for name, dim in safety.dimensions():
        value = str(dim.level)
        if dim.projected != dim.level:
            value += f" (projected {dim.projected})"
        rows.append((name.replace("_", " "), value))
    return rows


def _calibration_rows(cal: Calibration) -> list[tuple[str, str]]:
    t = cal.damage_thresholds
    bands = (
        f"minor at {format_usd(t.minor)}, major at {format_usd(t.major)}, "
        f"severe at {format_usd(t.severe)}, catastrophic at {format_usd(t.catastrophic)}; "
        "any lives at risk are catastrophic"
    )
    return [
        ("very small time delay", ", ".join([d._value_ for d in cal.very_small_time_delays])),
        ("poor observability", f"at most {cal.poor_observability_max} (scale 0-5)"),
        ("poor attention", f"gaps of {cal.poor_attention_min._value_} or more"),
        ("low correctability", f"at most {cal.low_correctability_max} (scale 0-5)"),
        ("accident risk floor", f"{cal.accident_risk_min._value_.lower()} or higher (R3)"),
        (
            "other-party significance",
            f"damage {cal.significant_damage_min._value_.lower()} or above at party degree "
            f"{cal.significant_party_min}+ (R4)",
        ),
        ("high damage potential", f"class {cal.high_damage_min._value_.lower()} or worse (R5)"),
        ("safety review level", f"{cal.safety_review_level} or higher, current (R6)"),
        ("safety critical level", f"{cal.safety_critical_level}, current or projected (R7)"),
        ("damage class bands", bands),
        ("quadrant labels", cal.quadrant_convention),
    ]


def _finding_status(finding: Finding) -> str:
    marker = "[X]" if finding.triggered else "[ ]"
    status = "triggered" if finding.triggered else "not triggered"
    return f"{marker} {finding.rule._value_} {status}"


def _measures_text(measures: tuple[Measure, ...]) -> str:
    return "; ".join(MEASURE_LABELS[m] for m in measures)


def _render_text(report: RiskReport, color: bool) -> str:
    def paint(s: str, code: str) -> str:
        return f"\x1b[{code}m{s}\x1b[0m" if color else s

    def section(title: str) -> list[str]:
        return ["", paint(title, "1"), "-" * len(title)]

    title = f"Risk Assessment: {report.profile_name}"
    lines = [paint(title, "1"), "=" * len(title)]
    lines += section("Intervention Indicators")
    lines += _two_column(_intervention_rows(report.intervention))
    lines.append(f"Can take offline: {'yes' if report.intervention.can_take_offline else 'no'}")
    lines += section("Targets")
    lines += _aligned_table(*_target_rows(report.target_results))
    lines += section("Safety Levels")
    lines += _two_column(_safety_rows(report.safety))
    lines += section("Findings")
    for finding in report.rule_findings.findings:
        status = _finding_status(finding)
        lines.append(paint(status, "31") if finding.triggered else status)
        if finding.measures:
            lines.append(f"    measures: {_measures_text(finding.measures)}")
        if finding.targets_involved:
            lines.append(f"    targets: {', '.join(finding.targets_involved)}")
        lines.append(f"    because: {finding.rationale}")
    lines += section("Calibration")
    lines += _two_column(_calibration_rows(report.calibration))
    return "\n".join(lines) + "\n"


def _md_escape(s: str) -> str:
    return s.replace("|", "\\|")


def _md_table(header: list[str], rows: Sequence[Sequence[str]]) -> list[str]:
    out = [
        "| " + " | ".join(_md_escape(h) for h in header) + " |",
        "|" + "|".join(" --- " for _ in header) + "|",
    ]
    for row in rows:
        out.append("| " + " | ".join(_md_escape(c) for c in row) + " |")
    return out


def _render_markdown(report: RiskReport) -> str:
    lines = [f"# Risk Assessment: {report.profile_name}"]
    ind = report.intervention
    lines += ["", "## Intervention Indicators", ""]
    lines += _md_table(["Indicator", "Value"], _intervention_rows(ind))
    lines += ["", f"Can take offline: {'yes' if ind.can_take_offline else 'no'}"]
    header, rows = _target_rows(report.target_results)
    lines += ["", "## Targets", ""]
    lines += _md_table(header, rows)
    lines += ["", "## Safety Levels", ""]
    lines += _md_table(["Dimension", "Level"], _safety_rows(report.safety))
    lines += ["", "## Findings", ""]
    for finding in report.rule_findings.findings:
        status = "triggered" if finding.triggered else "not triggered"
        parts = [f"**{finding.rule._value_}: {status}.**"]
        if finding.measures:
            parts.append(f"Measures: {_measures_text(finding.measures)}.")
        if finding.targets_involved:
            parts.append(f"Targets: {', '.join(finding.targets_involved)}.")
        parts.append(f"Because: {finding.rationale}")
        lines.append("- " + " ".join(parts))
    lines += ["", "## Calibration", ""]
    for label, value in _calibration_rows(report.calibration):
        lines.append(f"- {label}: {value}")
    return "\n".join(lines) + "\n"


def render_report(report: RiskReport, format: ReportFormat | str, *, color: bool = False) -> bytes:
    """Render a report in the requested format as UTF-8 bytes."""
    fmt = ReportFormat(format)
    if fmt is _MACHINE:
        return canonical_json_bytes(report)
    if fmt is _MARKDOWN:
        return _render_markdown(report).encode("utf-8")
    return _render_text(report, color).encode("utf-8")
