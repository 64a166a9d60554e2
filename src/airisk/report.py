"""Building reports from one decision pass, and laying out every output:
the report, and the rule and decision-table catalogs, each in the three
formats that one dispatch, ``_render``, picks between.

The text and markdown reports present the same content in the same order:
profile header, intervention table, target table, safety levels, the seven
findings, and a calibration footer listing every invented cutoff in effect.
The machine report is the report's canonical JSON document; ``documents``
writes it and parses it back to an equal RiskReport.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from enum import Enum
from functools import partial
from typing import Any

from .documents import SCHEMA_VERSION, canonical_json_bytes
from .documents import parse_machine_report  # the reader is exported here too
from .model import (
    ATTENTION_RANK,
    AssessmentProfile,
    AttentionInterval,
    EnergyLevel,
    HumanAttention,
    InterventionIndicators,
    KnowledgeGap,
    MaxDamage,
    Reputational,
    SafetyProfile,
)
from .rules import MEASURE_LABELS, RULES, Finding, Measure, RuleDefinition, calibration_for, evaluate_rules
from .rules import Calibration, RiskReport, TargetResult  # defined with the rules; exported here too
from .tables import DEFAULT_DAMAGE_THRESHOLDS, CouplingCategory, DamageThresholds, InteractionCategory, quadrant
from .tables import accident_risk, damage_and_party  # the catalogs' lookups
from .tables import target_accident_risk, target_damage_party  # unused; perfbench/tracing.py patches both


class ReportFormat(str, Enum):
    TEXT = "text"
    MARKDOWN = "markdown"
    MACHINE = "machine"


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
    facts = findings._facts  # the decision pass's lookups
    results = []
    for target, (cls, risk, party) in zip(profile.targets, facts.cells):
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
        calibration=calibration_for(thresholds),
    )


def _aligned_table(rows: Sequence[Sequence[str]]) -> list[str]:
    """Text lines of equal-length rows, cells joined by " | ", each column
    but the last padded to its widest cell."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    widths[-1] = 0  # so no line ends in padding
    return [" | ".join(map(str.ljust, row, widths)) for row in rows]


def _intervention_rows(ind: InterventionIndicators) -> list[tuple[str, str]]:
    return [
        ("Time Delay", ind.time_delay._value_),
        ("Observability", str(ind.observability)),
        ("Human Attention", format_attention(ind.attention)),
        ("Correctability", str(ind.correctability)),
    ]


def render_intervention_table(ind: InterventionIndicators) -> str:
    """The four timely-intervention indicators as an aligned two-column table."""
    return "\n".join(_aligned_table(_intervention_rows(ind)))


def _target_rows(results: tuple[TargetResult, ...]) -> list[list[str]]:
    header = ["Targets", "Max Damage", "System Accident Risk", "Potential Damage to Other Parties"]
    rows = [
        [r.name, r.max_damage_text, r.accident_risk.letter, r.damage_party.code]
        for r in results
    ]
    if any(r.quadrant is not None for r in results):
        header.append("Quadrant")
        for row, r in zip(rows, results):
            row.append("-" if r.quadrant is None else str(r.quadrant))
    return [header, *rows]


def render_target_table(results: tuple[TargetResult, ...]) -> str:
    """Per-target risk results as an aligned table, one row per target."""
    return "\n".join(_aligned_table(_target_rows(results)))


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


def _render_text(report: RiskReport, color: bool = False) -> str:
    def paint(s: str, code: str) -> str:
        return f"\x1b[{code}m{s}\x1b[0m" if color else s

    def section(title: str) -> list[str]:
        return ["", paint(title, "1"), "-" * len(title)]

    title = f"Risk Assessment: {report.profile_name}"
    lines = [paint(title, "1"), "=" * len(title)]
    lines += section("Intervention Indicators")
    lines += _aligned_table(_intervention_rows(report.intervention))
    lines.append(f"Can take offline: {'yes' if report.intervention.can_take_offline else 'no'}")
    lines += section("Targets")
    lines += _aligned_table(_target_rows(report.target_results))
    lines += section("Safety Levels")
    lines += _aligned_table(_safety_rows(report.safety))
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
    lines += _aligned_table(_calibration_rows(report.calibration))
    return "\n".join(lines) + "\n"


def _md_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace("|", "\\|")


def _md_table(rows: Sequence[Sequence[str]]) -> list[str]:
    """A markdown table of equal-length rows, the header first."""
    out = ["| " + " | ".join(_md_escape(c) for c in row) + " |" for row in rows]
    out.insert(1, "|" + "|".join(" --- " for _ in rows[0]) + "|")
    return out


def _render_markdown(report: RiskReport) -> str:
    lines = [f"# Risk Assessment: {report.profile_name}"]
    ind = report.intervention
    lines += ["", "## Intervention Indicators", ""]
    lines += _md_table([("Indicator", "Value"), *_intervention_rows(ind)])
    lines += ["", f"Can take offline: {'yes' if ind.can_take_offline else 'no'}"]
    lines += ["", "## Targets", ""]
    lines += _md_table(_target_rows(report.target_results))
    lines += ["", "## Safety Levels", ""]
    lines += _md_table([("Dimension", "Level"), *_safety_rows(report.safety)])
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


def _rules_text(rules: tuple[RuleDefinition, ...]) -> str:
    blocks = [
        f"{rule.id.value}  {rule.text}\n    when: {rule.condition}\n    measures: {_measures_text(rule.measures)}"
        for rule in rules
    ]
    return "\n\n".join(blocks) + "\n"


def _rules_markdown(rules: tuple[RuleDefinition, ...]) -> str:
    lines = ["# Recommendation Rules"]
    for rule in rules:
        lines += ["", f"## {rule.id.value}", "", rule.text, ""]
        lines += [f"- When: {rule.condition}", f"- Measures: {_measures_text(rule.measures)}"]
    return "\n".join(lines) + "\n"


def _rules_machine(rules: tuple[RuleDefinition, ...]) -> bytes:
    return canonical_json_bytes({"schema_version": SCHEMA_VERSION, "rules": rules})


def _coupling_rows() -> list[list[str]]:
    rows = [["Coupling"] + [c.value for c in InteractionCategory]]
    for coupling in reversed(CouplingCategory):
        cells = [accident_risk(coupling, interaction).letter for interaction in InteractionCategory]
        rows.append([coupling.value] + cells)
    return rows


def _energy_rows() -> list[list[str]]:
    rows = [["Energy"] + [g.value.capitalize() for g in KnowledgeGap]]
    for energy in reversed(EnergyLevel):
        cells = [damage_and_party(energy, gap).code for gap in KnowledgeGap]
        rows.append([energy.value.capitalize()] + cells)
    return rows


def _damage_band_rows(t: DamageThresholds) -> list[tuple[str, str]]:
    return [
        ("negligible", "below every band"),
        ("minor", f"at least {format_usd(t.minor)}, or minor reputational damage"),
        ("major", f"at least {format_usd(t.major)}"),
        ("severe", f"at least {format_usd(t.severe)}, or major reputational damage"),
        ("catastrophic", f"at least {format_usd(t.catastrophic)}, or any lives at risk"),
    ]


def _tables_text(t: DamageThresholds) -> str:
    # Cells join with " | " and no padding so rows stay stable grep targets.
    lines = ["System Accident Risk (coupling x interaction complexity)", ""]
    lines += [" | ".join(row) for row in _coupling_rows()]
    lines += ["", "Damage and Affected Parties (energy level x knowledge gap)", ""]
    lines += [" | ".join(row) for row in _energy_rows()]
    lines += ["", "Damage Classes (max-damage calibration)", ""]
    lines += [" | ".join(row) for row in _damage_band_rows(t)]
    return "\n".join(lines) + "\n"


def _tables_markdown(t: DamageThresholds) -> str:
    lines = ["# Decision Tables", "", "## System Accident Risk", ""]
    lines += _md_table(_coupling_rows())
    lines += ["", "## Damage and Affected Parties", ""]
    lines += _md_table(_energy_rows())
    lines += ["", "## Damage Classes", ""]
    lines += [f"- {name}: {band}" for name, band in _damage_band_rows(t)]
    return "\n".join(lines) + "\n"


def _tables_machine(t: DamageThresholds) -> bytes:
    accident = {
        c.value: {x.value: accident_risk(c, x).value for x in InteractionCategory} for c in reversed(CouplingCategory)
    }
    damage = {e.value: {g.value: damage_and_party(e, g) for g in KnowledgeGap} for e in reversed(EnergyLevel)}
    doc = {"schema_version": SCHEMA_VERSION, "accident_risk": accident, "damage_party": damage, "damage_thresholds": t}
    return canonical_json_bytes(doc)


# A format, as a member or as its text (a str member hashes and compares as
# it), to its place in ReportFormat: built once, so a render calls no enum code.
_FORMAT_INDEX = {f: i for i, f in enumerate(ReportFormat)}
_MACHINE_INDEX = _FORMAT_INDEX[ReportFormat.MACHINE]


def _render(format: ReportFormat | str, subject: Any, *layouts: Callable[[Any], Any]) -> bytes:
    """The one format dispatch: ``subject`` as UTF-8 bytes, laid out by the
    text, markdown or machine layout, given in ReportFormat's order; the
    first two return text, the machine layout bytes."""
    try:
        i = _FORMAT_INDEX[format]
    except (KeyError, TypeError):  # anything else ReportFormat takes, or its ValueError
        i = _FORMAT_INDEX[ReportFormat(format)]
    out = layouts[i](subject)
    return out if i == _MACHINE_INDEX else out.encode("utf-8")


def render_report(report: RiskReport, format: ReportFormat | str, *, color: bool = False) -> bytes:
    """Render a report in the requested format as UTF-8 bytes; color styles the text format."""
    text = partial(_render_text, color=True) if color else _render_text
    return _render(format, report, text, _render_markdown, canonical_json_bytes)


def render_rules(format: ReportFormat | str) -> bytes:
    """The catalog of the seven rules in the requested format, as UTF-8 bytes."""
    return _render(format, RULES, _rules_text, _rules_markdown, _rules_machine)


def render_tables(thresholds: DamageThresholds, format: ReportFormat | str) -> bytes:
    """The two decision tables and the damage-class bands for the thresholds
    in the requested format, as UTF-8 bytes."""
    return _render(format, thresholds, _tables_text, _tables_markdown, _tables_machine)
