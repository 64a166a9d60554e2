"""Score banding, decision-table lookups, quadrant placement, and damage classes."""

import math
import re

import pytest

from airisk import (
    CouplingCategory,
    DamageClass,
    DamageThresholds,
    EnergyLevel,
    InteractionCategory,
    KnowledgeGap,
    MaxDamage,
    Reputational,
    RiskLevel,
    TargetAssessment,
    accident_risk,
    coupling_category,
    damage_and_party,
    damage_class,
    interaction_category,
    quadrant,
)
from airisk.tables import target_accident_risk

LOW, MED, HIGH = CouplingCategory.LOW, CouplingCategory.MEDIUM, CouplingCategory.HIGH
LIN, MOD, CPX = InteractionCategory.LINEAR, InteractionCategory.MODERATE, InteractionCategory.COMPLEX


@pytest.mark.parametrize(
    "coupling,interaction,expected",
    [
        (HIGH, LIN, "M"), (HIGH, MOD, "H"), (HIGH, CPX, "C"),
        (MED, LIN, "L"), (MED, MOD, "M"), (MED, CPX, "H"),
        (LOW, LIN, "L"), (LOW, MOD, "L"), (LOW, CPX, "M"),
    ],
)
def test_accident_risk_cells(coupling, interaction, expected):
    assert accident_risk(coupling, interaction).letter == expected


# Score banding: 1-2 low, 3 middle, 4-5 high.
@pytest.mark.parametrize(
    "score,expected",
    [
        (1, CouplingCategory.LOW),
        (2, CouplingCategory.LOW),
        (3, CouplingCategory.MEDIUM),
        (4, CouplingCategory.HIGH),
        (5, CouplingCategory.HIGH),
    ],
)
def test_coupling_banding(score, expected):
    assert coupling_category(score) is expected


@pytest.mark.parametrize(
    "score,expected",
    [
        (1, InteractionCategory.LINEAR),
        (2, InteractionCategory.LINEAR),
        (3, InteractionCategory.MODERATE),
        (4, InteractionCategory.COMPLEX),
        (5, InteractionCategory.COMPLEX),
    ],
)
def test_interaction_banding(score, expected):
    assert interaction_category(score) is expected


def _scored(coupling, interaction):
    return TargetAssessment(
        name="t",
        max_damage=MaxDamage(monetary_usd=0),
        coupling=coupling,
        interaction_complexity=interaction,
        energy_level=EnergyLevel.LOW,
        knowledge_gap=KnowledgeGap.LOW,
    )


def test_target_accident_risk_bands_then_looks_up():
    for c in range(1, 6):
        for x in range(1, 6):
            expected = accident_risk(coupling_category(c), interaction_category(x))
            assert target_accident_risk(_scored(c, x)) is expected


@pytest.mark.parametrize("score", [0, 6, -1])
def test_target_accident_risk_rejects_scores_as_the_banding_does(score):
    with pytest.raises(ValueError) as banding:
        coupling_category(score)
    with pytest.raises(ValueError, match=f"^{re.escape(str(banding.value))}$"):
        target_accident_risk(_scored(score, 3))
    with pytest.raises(ValueError) as banding:
        interaction_category(score)
    with pytest.raises(ValueError, match=f"^{re.escape(str(banding.value))}$"):
        target_accident_risk(_scored(3, score))


@pytest.mark.parametrize(
    "energy,gap,expected",
    [
        ("high", "low", "H3"), ("high", "medium", "H3"), ("high", "high", "C4"),
        ("medium", "low", "M3"), ("medium", "medium", "M3"), ("medium", "high", "H4"),
        ("low", "low", "L2"), ("low", "medium", "L2"), ("low", "high", "M4"),
    ],
)
def test_damage_party_cells(energy, gap, expected):
    assert damage_and_party(EnergyLevel(energy), KnowledgeGap(gap)).code == expected


def test_lookup_accepts_raw_enum_values():
    assert accident_risk("High", "Complex") is RiskLevel.CATASTROPHIC
    assert damage_and_party("low", "high").code == "M4"
    # Unknown labels are refused by the enums, before any grid is indexed.
    with pytest.raises(ValueError):
        accident_risk("Bogus", "Linear")
    with pytest.raises(ValueError):
        damage_and_party("low", "huge")


def test_risk_level_letters():
    assert [level.letter for level in RiskLevel] == ["L", "M", "H", "C"]


@pytest.mark.parametrize(
    "gap,energy,expected",
    [
        (0.25, 0.75, 1),
        (0.75, 0.75, 2),
        (0.25, 0.25, 3),
        (0.75, 0.25, 4),
        (0.5, 0.5, 3),    # exact center falls to the low side of both axes
        (0.5, 0.9, 1),
        (0.9, 0.5, 4),
        (0.0, 1.0, 1),
        (1.0, 1.0, 2),
        (0.0, 0.0, 3),
        (1.0, 0.0, 4),
    ],
)
def test_quadrant_placement(gap, energy, expected):
    assert quadrant(gap, energy) == expected


@pytest.mark.parametrize("gap,energy", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.01), (0.5, 2.0)])
def test_quadrant_rejects_points_off_the_unit_square(gap, energy):
    with pytest.raises(ValueError):
        quadrant(gap, energy)


def test_damage_thresholds_must_be_non_decreasing():
    with pytest.raises(ValueError):
        DamageThresholds(minor=100, major=50, severe=10, catastrophic=5)


@pytest.mark.parametrize("bound", [{"catastrophic": math.inf}, {"minor": -math.inf}, {"major": math.nan}])
def test_damage_thresholds_must_be_finite_amounts(bound):
    with pytest.raises(ValueError, match="damage thresholds must be finite amounts"):
        DamageThresholds(**bound)


@pytest.mark.parametrize(
    "damage,expected",
    [
        (MaxDamage(monetary_usd=0), DamageClass.NEGLIGIBLE),
        (MaxDamage(monetary_usd=99), DamageClass.NEGLIGIBLE),
        (MaxDamage(monetary_usd=100), DamageClass.MINOR),
        (MaxDamage(monetary_usd=99_999), DamageClass.MINOR),
        (MaxDamage(monetary_usd=100_000), DamageClass.MAJOR),
        (MaxDamage(monetary_usd=9_999_999), DamageClass.MAJOR),
        (MaxDamage(monetary_usd=10_000_000), DamageClass.SEVERE),
        (MaxDamage(monetary_usd=999_999_999), DamageClass.SEVERE),
        (MaxDamage(monetary_usd=1_000_000_000), DamageClass.CATASTROPHIC),
        (MaxDamage(lives_at_risk=1), DamageClass.CATASTROPHIC),
        (MaxDamage(monetary_usd=5, lives_at_risk=1), DamageClass.CATASTROPHIC),
        (MaxDamage(lives_at_risk=0, monetary_usd=0), DamageClass.NEGLIGIBLE),
        (MaxDamage(reputational=Reputational.NONE), DamageClass.NEGLIGIBLE),
        (MaxDamage(reputational=Reputational.MINOR), DamageClass.MINOR),
        (MaxDamage(reputational=Reputational.MAJOR), DamageClass.SEVERE),
        (MaxDamage(monetary_usd=200, reputational=Reputational.MAJOR), DamageClass.SEVERE),
        (MaxDamage(monetary_usd=500_000, reputational=Reputational.MINOR), DamageClass.MAJOR),
    ],
)
def test_damage_class_bands(damage, expected):
    assert damage_class(damage) is expected


def test_damage_class_honors_custom_thresholds():
    tight = DamageThresholds(minor=1, major=10, severe=100, catastrophic=1000)
    assert damage_class(MaxDamage(monetary_usd=150), tight) is DamageClass.SEVERE
    assert damage_class(MaxDamage(monetary_usd=150)) is DamageClass.MINOR
    # Lives still dominate whatever the monetary bands say.
    assert damage_class(MaxDamage(monetary_usd=0, lives_at_risk=2), tight) is DamageClass.CATASTROPHIC
