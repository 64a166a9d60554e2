"""The seven recommendation rules and their evaluation.

Each rule is an independent predicate over an assessment profile; no rule
suppresses another.  Evaluation always produces exactly seven findings, in
rule order, with a rationale naming the field values that decided the
outcome whether or not the rule fired.

Evaluation runs in two steps.  The decision pass is one object: it reads
each target's damage class, accident risk and damage/party profile, finds
the worst class and the targets that qualify for R3, R4 and R5 in one loop
over them, and holds ``outcomes``, which rules fire and on what.  The
rationale text is written from that object only when a report's findings
are first read, so callers that need just the triggered rules never pay
for the prose.

The cutoffs that sharpen qualitative phrases like "very small" or "poor"
into decidable predicates live in one frozen ``Calibration``.  The rules
compare against ``DEFAULT_CALIBRATION``, bound once at import; only
``damage_thresholds`` varies from report to report, and each report
prints the calibration in effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import (
    ATTENTION_RANK,
    AssessmentProfile,
    AttentionInterval,
    InterventionIndicators,
    InvalidProfileError,
    SafetyDimension,
    SafetyProfile,
    TimeDelay,
    attention_magnitude,
    validate_profile,
)
from .tables import (
    DAMAGE_CLASS_RANK,
    DEFAULT_DAMAGE_THRESHOLDS,
    RISK_RANK,
    DamageClass,
    DamagePartyProfile,
    DamageThresholds,
    RiskLevel,
    damage_class,
    target_accident_risk,
    target_damage_party,
)


class RuleId(str, Enum):
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"
    R5 = "R5"
    R6 = "R6"
    R7 = "R7"


class Measure(str, Enum):
    """Machine identifiers for the recommended safety measures."""

    OVERSIGHT_COMPONENT = "oversight_component"
    MONITORING_PROTOCOL = "monitoring_protocol"
    NON_AI_BACKUP_SYSTEM = "non_ai_backup_system"
    REDUCE_COMPLEXITY_ADD_CENTRAL_CONTROL = "reduce_complexity_add_central_control"
    ETHICS_COMMITTEE = "ethics_committee"
    CONVENTIONAL_SAFEGUARDS_HUMAN_OVERSIGHT = "conventional_safeguards_human_oversight"
    CYBERSECURITY_AS_WEAK_ADVERSARY = "cybersecurity_as_weak_adversary"
    PERSONNEL_SAFETY_EDUCATION = "personnel_safety_education"
    ETHICS_BOARD = "ethics_board"
    AIR_GAP_STRICT_PROTOCOLS = "air_gap_strict_protocols"
    AI_SAFETY_EXPERT_CONSULTATION = "ai_safety_expert_consultation"


MEASURE_LABELS: dict[Measure, str] = {
    Measure.OVERSIGHT_COMPONENT: "oversight component",
    Measure.MONITORING_PROTOCOL: "monitoring protocol",
    Measure.NON_AI_BACKUP_SYSTEM: "non-AI backup system",
    Measure.REDUCE_COMPLEXITY_ADD_CENTRAL_CONTROL: "reduce complexity and add centralized control around the AI component",
    Measure.ETHICS_COMMITTEE: "ethics committee",
    Measure.CONVENTIONAL_SAFEGUARDS_HUMAN_OVERSIGHT: "conventional (non-AI) safeguards and human oversight",
    Measure.CYBERSECURITY_AS_WEAK_ADVERSARY: "standard cybersecurity treating the AI as a weak human adversary",
    Measure.PERSONNEL_SAFETY_EDUCATION: "personnel education on AI safety hazards",
    Measure.ETHICS_BOARD: "ethics board",
    Measure.AIR_GAP_STRICT_PROTOCOLS: "air gapping and strict interaction protocols",
    Measure.AI_SAFETY_EXPERT_CONSULTATION: "consultation with AI safety experts",
}


@dataclass(frozen=True)
class Calibration:
    """The cutoffs behind the rules' qualitative phrases, as evaluated: the rules compare
    against ``DEFAULT_CALIBRATION``, and only ``damage_thresholds`` varies from report to report."""

    very_small_time_delays: tuple[TimeDelay, ...] = (TimeDelay.MILLISECONDS, TimeDelay.SECONDS)
    poor_observability_max: int = 2
    poor_attention_min: AttentionInterval = AttentionInterval.DAYS
    low_correctability_max: int = 2
    accident_risk_min: RiskLevel = RiskLevel.MEDIUM
    significant_damage_min: RiskLevel = RiskLevel.MEDIUM
    significant_party_min: int = 3
    high_damage_min: DamageClass = DamageClass.SEVERE
    safety_review_level: int = 2
    safety_critical_level: int = 3
    damage_thresholds: DamageThresholds = DEFAULT_DAMAGE_THRESHOLDS
    quadrant_convention: str = "1 upper-left, 2 upper-right, 3 lower-left, 4 lower-right (gap x energy)"


DEFAULT_CALIBRATION = Calibration()


def calibration_for(thresholds: DamageThresholds) -> Calibration:
    """The calibration in effect: ``DEFAULT_CALIBRATION`` for the default
    thresholds object, else one holding the thresholds exactly as given."""
    if thresholds is DEFAULT_DAMAGE_THRESHOLDS:
        return DEFAULT_CALIBRATION
    return Calibration(damage_thresholds=thresholds)


@dataclass(frozen=True)
class Finding:
    """Outcome of one rule against one profile."""

    rule: RuleId
    triggered: bool
    measures: tuple[Measure, ...]
    rationale: str
    targets_involved: tuple[str, ...] = ()


class RuleReport:
    """All seven findings, in rule order.

    A report built from explicit findings holds them as given.  One from
    evaluate_rules holds the decision pass, with its ``outcomes``, and writes
    the findings, rationales included, the first time ``findings`` is read.
    Equality, hashing and repr go through ``findings``, so both kinds
    compare equal when their findings are.
    """

    __slots__ = ("_findings", "_facts")

    def __init__(self, findings: tuple[Finding, ...]):
        self._findings = tuple(findings)
        self._facts = None

    @classmethod
    def _decided(cls, facts: _Facts) -> RuleReport:
        report = cls.__new__(cls)
        report._findings = None
        report._facts = facts
        return report

    @property
    def findings(self) -> tuple[Finding, ...]:
        if self._findings is None:
            self._findings = _explain(self._facts)
        return self._findings

    def triggered_rules(self) -> tuple[RuleId, ...]:
        if self._findings is None:
            return tuple([rule for rule, outcome in zip(_RULE_IDS, self._facts.outcomes) if outcome])
        return tuple(f.rule for f in self._findings if f.triggered)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.findings == other.findings

    def __hash__(self) -> int:
        return hash((self.findings,))

    def __repr__(self) -> str:
        return f"RuleReport(findings={self.findings!r})"


@dataclass(frozen=True)
class TargetResult:
    """Derived risk results for one target."""

    name: str
    max_damage_text: str
    damage_class: DamageClass
    accident_risk: RiskLevel
    damage_party: DamagePartyProfile
    quadrant: int | None = None


@dataclass(frozen=True)
class RiskReport:
    """Everything a rendered report contains, in rendering order."""

    profile_name: str
    intervention: InterventionIndicators
    target_results: tuple[TargetResult, ...]
    safety: SafetyProfile
    rule_findings: RuleReport
    calibration: Calibration


@dataclass(frozen=True)
class RuleDefinition:
    """Catalog entry: the recommendation sentence plus its decidable form."""

    id: RuleId
    text: str
    condition: str
    measures: tuple[Measure, ...]


def _prose_join(items: list[str], conjunction: str = "and") -> str:
    if len(items) <= 2:
        return f" {conjunction} ".join(items)
    return ", ".join(items[:-1]) + f", {conjunction} " + items[-1]


def _party_degrees(cutoff: int, form: str = "{}") -> str:
    """The party degrees from cutoff up to the table's 4th, joined by "or"; form gets each n and its ending."""
    ends = {1: "st", 2: "nd", 3: "rd"}
    return _prose_join([form.format(n, ends.get(n, "th")) for n in range(cutoff, 5)], "or")


_DC = DEFAULT_CALIBRATION  # the cutoffs every rule compares against
_NEGLIGIBLE = DamageClass.NEGLIGIBLE  # bound once, as model.py explains
# From those cutoffs, bound once: the floors the decision pass compares with,
# and the rationale's phrases for R3's levels below its floor and R4's party reach.
_RISK_FLOOR, _DAMAGE_FLOOR = RISK_RANK[_DC.accident_risk_min], RISK_RANK[_DC.significant_damage_min]
_CLASS_FLOOR, _ATTENTION_FLOOR = DAMAGE_CLASS_RANK[_DC.high_damage_min], ATTENTION_RANK[_DC.poor_attention_min]
_PARTY_FLOOR = _DC.significant_party_min
_REVIEW_LEVEL, _CRITICAL_LEVEL = _DC.safety_review_level, _DC.safety_critical_level
_RISKS_BELOW = " or ".join([risk._value_.lower() for risk in RISK_RANK][:_RISK_FLOOR])
_PARTY_REACH, _PARTY_REACH_ADJECTIVE = (_party_degrees(_PARTY_FLOOR, form) for form in ("{}{}", "{}{}-"))

RULES: tuple[RuleDefinition, ...] = (
    RuleDefinition(
        RuleId.R1,
        "If time delay is very small and there is poor observability or attention, then an "
        "oversight component or monitoring protocol is recommended (unless the effects of the "
        "system are trivial).",
        f"time delay is {' or '.join(d.value for d in _DC.very_small_time_delays)}; "
        f"observability is at most {_DC.poor_observability_max} or attention gaps "
        f"are {_DC.poor_attention_min.value} or longer; at least one target's damage class is above negligible",
        (Measure.OVERSIGHT_COMPONENT, Measure.MONITORING_PROTOCOL),
    ),
    RuleDefinition(
        RuleId.R2,
        "If correctability is low and the system can't be taken offline, then a (non-AI) "
        "backup system should be implemented and maintained.",
        f"correctability is at most {_DC.low_correctability_max} and the system cannot be taken offline",
        (Measure.NON_AI_BACKUP_SYSTEM,),
    ),
    RuleDefinition(
        RuleId.R3,
        "If the system accident risk is medium or higher, then the system should be analyzed "
        "for ways to reduce complexity around the AI component, and add centralized control "
        "in and around that component.",
        f"any target's accident risk is {_DC.accident_risk_min.value.lower()} or higher",
        (Measure.REDUCE_COMPLEXITY_ADD_CENTRAL_CONTROL,),
    ),
    RuleDefinition(
        RuleId.R4,
        "If there is significant damage possible to 3rd and 4th parties, then an ethics "
        "committee is absolutely necessary for continued operation.",
        f"any target's damage/party profile pairs damage at {_DC.significant_damage_min.value.lower()} or "
        f"above with party degree {_party_degrees(_DC.significant_party_min)}",
        (Measure.ETHICS_COMMITTEE,),
    ),
    RuleDefinition(
        RuleId.R5,
        "Targets of the AI's control which have high amounts of damage potential should have "
        "conventional (non-AI) safeguards and human oversight.",
        f"any target's damage class is {_DC.high_damage_min.value.lower()} or worse",
        (Measure.CONVENTIONAL_SAFEGUARDS_HUMAN_OVERSIGHT,),
    ),
    RuleDefinition(
        RuleId.R6,
        "If any of the AI safety levels are level 2 or higher, then standard cybersecurity "
        "measures should be enacted as if the AI is a weak human adversary, and personnel "
        "education regarding AI safety hazards should be done within the organization. An "
        "ethics board should also be created.",
        f"any safety dimension's current level is {_DC.safety_review_level} or higher",
        (Measure.CYBERSECURITY_AS_WEAK_ADVERSARY, Measure.PERSONNEL_SAFETY_EDUCATION, Measure.ETHICS_BOARD),
    ),
    RuleDefinition(
        RuleId.R7,
        "If any of the AI safety levels are at or may reach level 3, then air gapping and "
        "strict protocols around interaction with the AI should be implemented. An ethics "
        "board and consultation with AI safety experts is required.",
        f"any safety dimension's current or projected level is {_DC.safety_critical_level}",
        (Measure.AIR_GAP_STRICT_PROTOCOLS, Measure.ETHICS_BOARD, Measure.AI_SAFETY_EXPERT_CONSULTATION),
    ),
)
_RULE_IDS = tuple([rule.id for rule in RULES])  # bound once for triggered_rules()


def _sentence(parts: list[str], tail: str = "") -> str:
    body = _prose_join(parts) + tail
    return body[0].upper() + body[1:] + "."


def _display(dimension_name: str) -> str:
    return dimension_name.replace("_", " ")


class _Facts:
    """The decision pass, over a profile or a report (``source``) and its targets
    or target results, which give the names.  ``cells`` holds each target's
    (damage class, accident risk, damage/party profile); one loop over them finds
    the worst class and the R3, R4 and R5 targets.  ``outcomes`` holds one outcome
    per rule, in rule order, truthy iff it fires: R1 and R2 a bool, R3-R5 a list
    of the qualifying targets' indices, R6 and R7 one of the qualifying
    (name, dimension) safety pairs."""

    __slots__ = ("intervention", "safety", "targets", "magnitude", "cells", "worst", "r1", "outcomes")

    def __init__(self, source, targets: tuple, cells: list):
        ind = self.intervention = source.intervention
        self.safety, self.targets, self.cells = source.safety, targets, cells
        self.magnitude = attention_magnitude(ind.attention)
        r3, r4, r5, review, critical = [], [], [], [], []
        worst_rank = -1
        for i, (cls, risk, dp) in enumerate(cells):
            rank = DAMAGE_CLASS_RANK[cls]
            if rank > worst_rank:  # the first of the worst, as max() gives
                worst_rank, self.worst = rank, cls
            if RISK_RANK[risk] >= _RISK_FLOOR:
                r3.append(i)
            if dp.party_degree >= _PARTY_FLOOR and RISK_RANK[dp.damage] >= _DAMAGE_FLOOR:
                r4.append(i)
            if rank >= _CLASS_FLOOR:
                r5.append(i)
        for name, dim in source.safety.dimensions():
            if dim.level >= _REVIEW_LEVEL:
                review.append((name, dim))
            if dim.level >= _CRITICAL_LEVEL or dim.projected >= _CRITICAL_LEVEL:
                critical.append((name, dim))
        delay_small, obs_poor, att_poor, trivial = self.r1 = (  # R1's inputs, kept for its explainer
            ind.time_delay in _DC.very_small_time_delays,
            ind.observability <= _DC.poor_observability_max,
            ATTENTION_RANK[self.magnitude] >= _ATTENTION_FLOOR,
            self.worst is _NEGLIGIBLE,
        )
        r1_fires = delay_small and (obs_poor or att_poor) and not trivial
        r2_fires = ind.correctability <= _DC.low_correctability_max and not ind.can_take_offline
        self.outcomes = (r1_fires, r2_fires, r3, r4, r5, review, critical)


# -- rationale text: each explainer turns one rule's outcome into prose --


def _explain_r1(facts: _Facts, fired: bool) -> str:
    ind, (delay_small, obs_poor, att_poor, trivial) = facts.intervention, facts.r1
    if fired:
        parts = [f"time delay is {ind.time_delay._value_}"]
        if obs_poor:
            parts.append(f"observability is {ind.observability} (at most {_DC.poor_observability_max})")
        if att_poor:
            parts.append(f"attention gaps reach {facts.magnitude._value_}")
        worst = facts.worst._value_.lower()
        return _sentence(parts, f"; effects are not trivial (worst target damage class {worst})")
    parts = []
    if not delay_small:
        parts.append(f"time delay is {ind.time_delay._value_} (not sub-minute)")
    if not (obs_poor or att_poor):
        parts.append(
            f"observability is {ind.observability} (above {_DC.poor_observability_max}) and "
            f"attention gaps are {facts.magnitude._value_} (under {_DC.poor_attention_min._value_})"
        )
    if trivial:
        parts.append("every target's damage class is negligible")
    return _sentence(parts)


def _explain_r2(facts: _Facts, fired: bool) -> str:
    ind, low = facts.intervention, _DC.low_correctability_max
    if fired:
        return _sentence(
            [
                f"correctability is {ind.correctability} (at most {low})",
                "the system cannot be taken offline",
            ]
        )
    parts = []
    if ind.correctability > low:
        parts.append(f"correctability is {ind.correctability} (above {low})")
    if ind.can_take_offline:
        parts.append("the system can be taken offline")
    return _sentence(parts)


def _target_listing(facts: _Facts, indices, codes: list[str]) -> str:
    """"name (code)" for each listed target, codes giving every target's code."""
    return _prose_join([f"{facts.targets[i].name} ({codes[i]})" for i in indices])


def _explain_r3(facts: _Facts, hits: list[int]) -> str:
    floor, letters = _DC.accident_risk_min._value_.lower(), [risk.letter for _, risk, _ in facts.cells]
    if hits:
        return f"Accident risk reaches {floor} or higher for {_target_listing(facts, hits, letters)}."
    everyone = _target_listing(facts, range(len(letters)), letters)
    return f"Every target's accident risk is {_RISKS_BELOW}: {everyone}."


def _explain_r4(facts: _Facts, hits: list[int]) -> str:
    floor, codes = _DC.significant_damage_min._value_.lower(), [dp.code for _, _, dp in facts.cells]
    if hits:
        return f"Damage at {floor} or above can reach {_PARTY_REACH} parties: {_target_listing(facts, hits, codes)}."
    everyone = _target_listing(facts, range(len(codes)), codes)
    return f"No target combines damage at {floor} or above with {_PARTY_REACH_ADJECTIVE}party reach: {everyone}."


def _explain_r5(facts: _Facts, hits: list[int]) -> str:
    classes = [cls._value_.lower() for cls, _, _ in facts.cells]
    if hits:
        return f"Damage potential is high for {_target_listing(facts, hits, classes)}."
    everyone = _target_listing(facts, range(len(classes)), classes)
    return f"No target's damage class reaches {_DC.high_damage_min._value_.lower()}: {everyone}."


def _explain_r6(facts: _Facts, hits: list[tuple[str, SafetyDimension]]) -> str:
    review = _DC.safety_review_level
    if hits:
        items = [f"{_display(name)} ({dim.level})" for name, dim in hits]
        return f"Safety levels at {review} or higher: {_prose_join(items)}."
    name, dim = max(facts.safety.dimensions(), key=lambda item: item[1].level)  # the first if tied
    return f"All safety levels are at most {review - 1} (highest is {_display(name)} at {dim.level})."


def _explain_r7(facts: _Facts, hits: list[tuple[str, SafetyDimension]]) -> str:
    critical = _DC.safety_critical_level
    if hits:
        items = []
        for name, dim in hits:
            if dim.projected != dim.level:
                items.append(f"{_display(name)} ({dim.level}, projected {dim.projected})")
            else:
                items.append(f"{_display(name)} ({dim.level})")
        return f"Safety levels at or projected to reach {critical}: {_prose_join(items)}."
    reach = {name: max(dim.level, dim.projected) for name, dim in facts.safety.dimensions()}
    name = max(reach, key=reach.__getitem__)  # the first if tied
    return f"No safety level is at or projected to reach {critical} (highest is {_display(name)} at {reach[name]})."


_EXPLAINERS = (_explain_r1, _explain_r2, _explain_r3, _explain_r4, _explain_r5, _explain_r6, _explain_r7)
_TARGET_RULES = frozenset({RuleId.R3, RuleId.R4, RuleId.R5})


def _explain(facts: _Facts) -> tuple[Finding, ...]:
    """Turn the decision pass's ``outcomes`` into the seven findings, with rationales."""
    findings = []
    for definition, outcome, explain in zip(RULES, facts.outcomes, _EXPLAINERS):
        rationale = explain(facts, outcome)
        if not outcome:
            findings.append(Finding(definition.id, False, (), rationale))
            continue
        names = ()
        if definition.id in _TARGET_RULES:
            names = tuple(facts.targets[i].name for i in outcome)
        findings.append(Finding(definition.id, True, definition.measures, rationale, names))
    return tuple(findings)


def evaluate_rules(
    profile: AssessmentProfile,
    thresholds: DamageThresholds = DEFAULT_DAMAGE_THRESHOLDS,
) -> RuleReport:
    """Evaluate all seven rules against a valid profile.

    Only the decision pass runs here: the report's triggered_rules() is
    ready at once, while the findings' rationale text is written the
    first time the report's ``findings`` is read.

    Args:
        profile: the assessment; must pass validate_profile.
        thresholds: monetary calibration for the damage classes.

    Returns:
        A report with exactly seven findings in R1..R7 order.

    Raises:
        InvalidProfileError: if the profile violates any invariant; raised
            by this call, before any finding is read.
    """
    violations = validate_profile(profile)
    if violations:
        raise InvalidProfileError(violations)
    targets = profile.targets
    cells = [(damage_class(t.max_damage, thresholds), target_accident_risk(t), target_damage_party(t)) for t in targets]
    return RuleReport._decided(_Facts(profile, targets, cells))
