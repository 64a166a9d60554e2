"""Decision tables mapping schema factors to risk results.

Two exact 3x3 tables, each held as one grid that every lookup indexes,
drive the recommendation rules: coupling x interaction complexity, both
banded here from 1-5 scores, yields the accident-risk level, and energy
level x knowledge gap yields the damage magnitude together with the party
degree, i.e. how far from the system its victims sit (1st parties operate
it, 2nd parties work alongside or use it, 3rd parties are bystanders, 4th
parties are future generations).

A five-class damage ordinal classifies max-damage estimates so the rules
can speak of "trivial" and "high damage potential" targets; its monetary
cutoffs are calibration constants, not lookups, and can be overridden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import EnergyLevel, KnowledgeGap, MaxDamage, Reputational, TargetAssessment


class CouplingCategory(str, Enum):
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"


class InteractionCategory(str, Enum):
    LINEAR = "Linear"
    MODERATE = "Moderate"
    COMPLEX = "Complex"


class RiskLevel(str, Enum):
    """Severity scale shared by accident risk and damage magnitude."""

    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"
    CATASTROPHIC = "Catastrophic"

    @property
    def letter(self) -> str:
        """Single-letter table code (L/M/H/C)."""
        return self._value_[0]


class DamageClass(str, Enum):
    """How bad a max-damage estimate is, from nothing to worst imaginable."""

    NEGLIGIBLE = "Negligible"
    MINOR = "Minor"
    MAJOR = "Major"
    SEVERE = "Severe"
    CATASTROPHIC = "Catastrophic"


RISK_RANK = {v: i for i, v in enumerate(RiskLevel)}
DAMAGE_CLASS_RANK = {v: i for i, v in enumerate(DamageClass)}


@dataclass(frozen=True)
class DamagePartyProfile:
    """Damage magnitude plus the most distant party it can reach."""

    damage: RiskLevel
    party_degree: int

    @property
    def code(self) -> str:
        """Compact table code, e.g. "M4"."""
        return f"{self.damage.letter}{self.party_degree}"


_L, _M, _H, _C = RiskLevel.LOW, RiskLevel.MEDIUM, RiskLevel.HIGH, RiskLevel.CATASTROPHIC
_NEGLIGIBLE, _MINOR, _MAJOR, _SEVERE, _CATASTROPHIC = DamageClass
_REPUTATION_MINOR, _REPUTATION_MAJOR = Reputational.MINOR, Reputational.MAJOR


def _band(score: int, what: str) -> int:
    # Scores 1-5 fold into three bands: 1-2 low, 3 middle, 4-5 high.
    if not 1 <= score <= 5:
        raise ValueError(f"{what} must be between 1 and 5, got {score!r}")
    return 0 if score <= 2 else 1 if score == 3 else 2


_COUPLING_BANDS = tuple(CouplingCategory)
_INTERACTION_BANDS = tuple(InteractionCategory)


def coupling_category(score: int) -> CouplingCategory:
    """Band a 1-5 coupling score into the accident-risk table's row labels."""
    return _COUPLING_BANDS[_band(score, "coupling score")]


def interaction_category(score: int) -> InteractionCategory:
    """Band a 1-5 interaction-complexity score into the table's column labels."""
    return _INTERACTION_BANDS[_band(score, "interaction complexity score")]


# Rows and columns run from low to high, in the enums' order: accident severity by coupling (rows)
# and interaction complexity (columns); damage/party by energy level (rows) and knowledge gap (columns).
_ACCIDENT_RISK_GRID = (
    (_L, _L, _M),
    (_L, _M, _H),
    (_M, _H, _C),
)
_DAMAGE_PARTY_GRID = (
    (DamagePartyProfile(_L, 2), DamagePartyProfile(_L, 2), DamagePartyProfile(_M, 4)),
    (DamagePartyProfile(_M, 3), DamagePartyProfile(_M, 3), DamagePartyProfile(_H, 4)),
    (DamagePartyProfile(_H, 3), DamagePartyProfile(_H, 3), DamagePartyProfile(_C, 4)),
)
_ENERGY_AT, _GAP_AT = ({member: i for i, member in enumerate(enum)} for enum in (EnergyLevel, KnowledgeGap))


def accident_risk(coupling: CouplingCategory, interaction: InteractionCategory) -> RiskLevel:
    """Look up the accident severity for a coupling/interaction pair."""
    row = _COUPLING_BANDS.index(CouplingCategory(coupling))
    return _ACCIDENT_RISK_GRID[row][_INTERACTION_BANDS.index(InteractionCategory(interaction))]


def damage_and_party(energy: EnergyLevel, gap: KnowledgeGap) -> DamagePartyProfile:
    """Look up damage magnitude and party degree for an energy/gap pair."""
    return _DAMAGE_PARTY_GRID[_ENERGY_AT[EnergyLevel(energy)]][_GAP_AT[KnowledgeGap(gap)]]


def target_accident_risk(target: TargetAssessment) -> RiskLevel:
    """Accident risk for one target, banding its raw 1-5 scores first."""
    row = _band(target.coupling, "coupling score")
    return _ACCIDENT_RISK_GRID[row][_band(target.interaction_complexity, "interaction complexity score")]


def target_damage_party(target: TargetAssessment) -> DamagePartyProfile:
    """Damage/party profile for one target; its energy and gap are already enums."""
    return _DAMAGE_PARTY_GRID[_ENERGY_AT[target.energy_level]][_GAP_AT[target.knowledge_gap]]


def quadrant(gap: float, energy: float) -> int:
    """Locate continuous gap/energy coordinates on the four-quadrant grid.

    Quadrants are numbered 1 upper-left, 2 upper-right, 3 lower-left,
    4 lower-right, with gap increasing rightward and energy upward.
    Values of exactly 0.5 fall to the low side of their axis.
    """
    for axis, value in (("gap", gap), ("energy", energy)):
        if not 0 <= value <= 1:
            raise ValueError(f"{axis} must be between 0 and 1, got {value!r}")
    if energy > 0.5:
        return 2 if gap > 0.5 else 1
    return 4 if gap > 0.5 else 3


@dataclass(frozen=True)
class DamageThresholds:
    """Monetary cutoffs (USD) at which a max-damage estimate enters each class."""

    minor: float = 100.0
    major: float = 100_000.0
    severe: float = 10_000_000.0
    catastrophic: float = 1_000_000_000.0

    def __post_init__(self) -> None:
        amounts = self.minor, self.major, self.severe, self.catastrophic
        if not all(-math.inf < v < math.inf for v in amounts):  # isfinite overflows on a huge integer
            raise ValueError("damage thresholds must be finite amounts")
        if not self.minor <= self.major <= self.severe <= self.catastrophic:
            raise ValueError("damage thresholds must be non-decreasing")


DEFAULT_DAMAGE_THRESHOLDS = DamageThresholds()


def damage_class(d: MaxDamage, thresholds: DamageThresholds = DEFAULT_DAMAGE_THRESHOLDS) -> DamageClass:
    """Classify a max-damage estimate; undeclared fields count as no harm.

    Any lives at risk force Catastrophic: there is no exchange rate between
    money and lives, so the classification stays conservative.  Major
    reputational damage alone reaches Severe, minor alone reaches Minor.
    """
    monetary, reputational = d.monetary_usd or 0, d.reputational
    if (d.lives_at_risk or 0) > 0 or monetary >= thresholds.catastrophic:
        return _CATASTROPHIC
    if monetary >= thresholds.severe or reputational is _REPUTATION_MAJOR:
        return _SEVERE
    if monetary >= thresholds.major:
        return _MAJOR
    if monetary >= thresholds.minor or reputational is _REPUTATION_MINOR:
        return _MINOR
    return _NEGLIGIBLE
