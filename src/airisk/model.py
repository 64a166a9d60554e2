"""Domain model for AI-system risk assessments.

An assessment profile describes one AI system: the indicators that govern
whether a human can intervene before an incident becomes an accident, the
targets the AI's outputs affect, and the four AI-safety levels.

Constructors accept out-of-range values on purpose.  ``validate_profile``
is the single authority on invariants and reports every violation at once,
so callers can surface all problems in one pass instead of fixing them one
at a time.

Every diagnostic, the validator's and the document decoder's alike, is a
``DocumentError`` (kind, path, message, line); ``format_document_error`` prints it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import inf
from typing import Callable


class TimeDelay(str, Enum):
    """How long the system's actions take to produce their effects."""

    MILLISECONDS = "milliseconds"
    SECONDS = "seconds"
    MINUTES = "minutes"
    HOURS = "hours"
    DAYS = "days"
    WEEKS = "weeks"
    MONTHS = "months"


class AttentionInterval(str, Enum):
    """Typical gap between one human check on the system and the next."""

    MINUTES = "minutes"
    HOURS = "hours"
    DAYS = "days"
    WEEKS = "weeks"
    MONTHS = "months"


class AttentionMode(str, Enum):
    PERIODIC = "periodic"
    INTERMITTENT = "intermittent"


class Reputational(str, Enum):
    NONE = "none"
    MINOR = "minor"
    MAJOR = "major"


class EnergyLevel(str, Enum):
    """Magnitude of energy (or an analogue) the enclosing system commands."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class KnowledgeGap(str, Enum):
    """Distance between how well the technology is understood and its deployment scale."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


# Ordinal positions for the enums whose declaration order is meaningful.
ATTENTION_RANK = {v: i for i, v in enumerate(AttentionInterval)}

# Per-operation code reads enum members through names bound once, as below, and
# their text through ``_value_``: ``Enum.MEMBER`` costs about 100 ns on Python
# 3.10 and 3.11 (the metaclass's __getattr__; a plain class attribute, 14 ns),
# and ``.value`` or ``.name`` 110-170 ns on 3.10-3.13, against 15-22 ns for ``_value_``.
_PERIODIC, _INTERMITTENT = AttentionMode
_HOURS = AttentionInterval.HOURS


@dataclass(frozen=True)
class HumanAttention:
    """How often a human looks at the system: periodic checks or intermittent gaps."""

    mode: AttentionMode
    checks_per_day: int | None = None
    interval: AttentionInterval | None = None


@dataclass(frozen=True)
class InterventionIndicators:
    """The four timely-intervention factors plus whether the system can be shut down."""

    time_delay: TimeDelay
    observability: int
    attention: HumanAttention
    correctability: int
    can_take_offline: bool


@dataclass(frozen=True)
class MaxDamage:
    """Worst-case harm estimate, imagined as an adversary in full control.

    A field that is None was not declared by the assessor; an explicit zero
    is a declared judgment that the harm is nil.  At least one of the three
    quantified fields must be declared for the estimate to be valid.
    """

    monetary_usd: float | None = None
    lives_at_risk: int | None = None
    reputational: Reputational | None = None
    notes: str = ""


@dataclass(frozen=True)
class Position:
    """Continuous knowledge-gap / energy coordinates on the unit square."""

    gap: float
    energy: float


@dataclass(frozen=True)
class TargetAssessment:
    """One thing the AI's outputs affect, with its system-risk factors."""

    name: str
    max_damage: MaxDamage
    coupling: int
    interaction_complexity: int
    energy_level: EnergyLevel
    knowledge_gap: KnowledgeGap
    position: Position | None = None


@dataclass(frozen=True)
class SafetyDimension:
    """Current level 0-3 plus the level the system may reach as deployed."""

    level: int
    projected: int | None = None

    def __post_init__(self) -> None:
        # Omitted projection means "no growth expected".
        if self.projected is None:
            object.__setattr__(self, "projected", self.level)


@dataclass(frozen=True)
class SafetyProfile:
    """The four AI-safety dimensions, each a current and a projected level."""

    autonomy: SafetyDimension
    goal_complexity: SafetyDimension
    escape_potential: SafetyDimension
    anthropomorphization: SafetyDimension

    def dimensions(self) -> tuple[tuple[str, SafetyDimension], ...]:
        """All four dimensions as (name, dimension), in declaration order."""
        return (
            ("autonomy", self.autonomy),
            ("goal_complexity", self.goal_complexity),
            ("escape_potential", self.escape_potential),
            ("anthropomorphization", self.anthropomorphization),
        )


@dataclass(frozen=True)
class AssessmentProfile:
    """The full description of one AI system under assessment."""

    name: str
    ai_component: str
    intervention: InterventionIndicators
    targets: tuple[TargetAssessment, ...]
    safety: SafetyProfile


class ErrorKind(str, Enum):
    SYNTAX = "syntax"
    UNKNOWN_FIELD = "unknown_field"
    MISSING_FIELD = "missing_field"
    TYPE_MISMATCH = "type_mismatch"
    INVARIANT_VIOLATION = "invariant_violation"


@dataclass(frozen=True)
class DocumentError:
    """One problem found in a document or a profile: its kind, where, and why."""

    kind: ErrorKind
    path: str
    message: str
    line: int | None = None


def format_document_error(err: DocumentError) -> str:
    """One-line diagnostic, e.g. "intervention.observability: must be an integer"."""
    body = err.message if err.path in ("", "$") else f"{err.path}: {err.message}"
    if err.line is not None:
        return f"line {err.line}: {body}"
    return body


class InvalidProfileError(ValueError):
    """Raised when an operation requires a profile that passes validation."""

    def __init__(self, violations: list[DocumentError]):
        self.violations = list(violations)
        detail = "; ".join(map(format_document_error, self.violations))
        super().__init__(f"invalid assessment profile: {detail}")


_INVARIANT = ErrorKind.INVARIANT_VIOLATION
_SCORES = frozenset(range(1, 6))  # a coupling or interaction score is one of these: 2.5, None and "3" are not


def _violation(path: str, message: str) -> DocumentError:
    return DocumentError(_INVARIANT, path, message)


# Each check compares inline, and builds its path and message only on failure.
def _out_of_range(path: str, value: float, lo: int, hi: int) -> DocumentError:
    return _violation(path, f"must be between {lo} and {hi}, got {value!r}")


def _validate_attention(out: list[DocumentError], att: HumanAttention) -> None:
    prefix = "intervention.attention"
    if att.mode is _PERIODIC:
        if att.checks_per_day is None:
            out.append(_violation(f"{prefix}.checks_per_day", "required when mode is periodic"))
        elif att.checks_per_day < 1:
            out.append(_violation(f"{prefix}.checks_per_day", f"must be at least 1, got {att.checks_per_day!r}"))
        if att.interval is not None:
            out.append(_violation(f"{prefix}.interval", "not allowed when mode is periodic"))
    else:
        if att.interval is None:
            out.append(_violation(f"{prefix}.interval", "required when mode is intermittent"))
        if att.checks_per_day is not None:
            out.append(_violation(f"{prefix}.checks_per_day", "not allowed when mode is intermittent"))


def _validate_intervention(out: list[DocumentError], ind: InterventionIndicators) -> None:
    if not 0 <= ind.observability <= 5:
        out.append(_out_of_range("intervention.observability", ind.observability, 0, 5))
    _validate_attention(out, ind.attention)
    if not 0 <= ind.correctability <= 5:
        out.append(_out_of_range("intervention.correctability", ind.correctability, 0, 5))


def _validate_safety(out: list[DocumentError], safety: SafetyProfile) -> None:
    for name, dim in safety.dimensions():
        if not 0 <= dim.level <= 3:
            out.append(_out_of_range(f"safety.{name}.level", dim.level, 0, 3))
        if not 0 <= dim.projected <= 3:
            out.append(_out_of_range(f"safety.{name}.projected", dim.projected, 0, 3))
        if dim.level > dim.projected:
            out.append(_violation(f"safety.{name}.projected", f"must be at least the current level {dim.level}"))


def _validate_targets(out: list[DocumentError], targets: tuple, check: Callable) -> None:
    """The target list's own checks, with ``check(out, i, target)`` run on
    each target after its name; a profile's and a machine report's share them."""
    if not targets:
        out.append(_violation("targets", "at least one target is required"))
    seen: set[str] = set()
    for i, target in enumerate(targets):
        if target.name in seen:
            out.append(_violation(f"targets[{i}].name", f"duplicate target name {target.name!r}"))
        seen.add(target.name)
        check(out, i, target)


def _validate_target(out: list[DocumentError], i: int, target: TargetAssessment) -> None:
    d = target.max_damage
    if d.monetary_usd is None and d.lives_at_risk is None and d.reputational is None:
        message = "at least one of monetary_usd, lives_at_risk, reputational must be declared"
        out.append(_violation(f"targets[{i}].max_damage", message))
    if d.monetary_usd is not None and not 0 <= d.monetary_usd < inf:  # NaN fails both
        bound = "be a finite number" if d.monetary_usd == inf else "be non-negative"
        out.append(_violation(f"targets[{i}].max_damage.monetary_usd", f"must {bound}, got {d.monetary_usd!r}"))
    if d.lives_at_risk is not None and d.lives_at_risk < 0:
        out.append(_violation(f"targets[{i}].max_damage.lives_at_risk", f"must be non-negative, got {d.lives_at_risk!r}"))
    if target.coupling not in _SCORES:
        out.append(_out_of_range(f"targets[{i}].coupling", target.coupling, 1, 5))
    if target.interaction_complexity not in _SCORES:
        out.append(_out_of_range(f"targets[{i}].interaction_complexity", target.interaction_complexity, 1, 5))
    position = target.position
    if position is not None:
        if not 0 <= position.gap <= 1:
            out.append(_out_of_range(f"targets[{i}].position.gap", position.gap, 0, 1))
        if not 0 <= position.energy <= 1:
            out.append(_out_of_range(f"targets[{i}].position.energy", position.energy, 0, 1))


def validate_profile(profile: AssessmentProfile) -> list[DocumentError]:
    """Check every invariant of the profile and report all violations.

    Args:
        profile: any structurally well-formed profile, valid or not.

    Returns:
        All violations as INVARIANT_VIOLATION DocumentErrors in deterministic
        field order; empty iff the profile satisfies every invariant.
    """
    out: list[DocumentError] = []
    _validate_intervention(out, profile.intervention)
    _validate_targets(out, profile.targets, _validate_target)
    _validate_safety(out, profile.safety)
    return out


def attention_magnitude(attention: HumanAttention) -> AttentionInterval:
    """Collapse an attention spec to the typical gap between human checks.

    Intermittent attention keeps its interval; periodic attention (one or
    more checks per day) means gaps of at most hours.
    """
    if attention.mode is _INTERMITTENT:
        if attention.interval is None:
            raise ValueError("intermittent attention requires an interval")
        return attention.interval
    if attention.checks_per_day is None or attention.checks_per_day < 1:
        raise ValueError("periodic attention requires checks_per_day >= 1")
    return _HOURS
