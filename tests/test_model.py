"""Invariant checks and attention collapsing."""

import dataclasses
import hashlib
import json
import random

import pytest

from airisk import (
    AssessmentDocumentError,
    AttentionInterval,
    AttentionMode,
    DocumentError,
    ErrorKind,
    HumanAttention,
    InvalidProfileError,
    MaxDamage,
    Position,
    SafetyDimension,
    SafetyProfile,
    attention_magnitude,
    build_report,
    parse_assessment,
    validate_profile,
)
from airisk.tables import target_accident_risk

from conftest import BROKEN_HAL_VIOLATIONS
from genprofiles import choice, randint, random_profile


def test_fixture_profiles_are_valid(roomba, hal9000, tay):
    for profile in (roomba, hal9000, tay):
        assert validate_profile(profile) == []


def violation_paths(profile):
    return [v.path for v in validate_profile(profile)]


def test_observability_and_correctability_ranges(roomba):
    ind = dataclasses.replace(roomba.intervention, observability=6, correctability=-1)
    paths = violation_paths(dataclasses.replace(roomba, intervention=ind))
    assert "intervention.observability" in paths
    assert "intervention.correctability" in paths


def test_periodic_attention_requires_checks_and_forbids_interval(roomba):
    att = HumanAttention(mode=AttentionMode.PERIODIC, interval=AttentionInterval.DAYS)
    ind = dataclasses.replace(roomba.intervention, attention=att)
    paths = violation_paths(dataclasses.replace(roomba, intervention=ind))
    assert "intervention.attention.checks_per_day" in paths
    assert "intervention.attention.interval" in paths


def test_periodic_attention_rejects_zero_checks(roomba):
    att = HumanAttention(mode=AttentionMode.PERIODIC, checks_per_day=0)
    ind = dataclasses.replace(roomba.intervention, attention=att)
    assert violation_paths(dataclasses.replace(roomba, intervention=ind)) == [
        "intervention.attention.checks_per_day"
    ]


def test_intermittent_attention_requires_interval(roomba):
    att = HumanAttention(mode=AttentionMode.INTERMITTENT, checks_per_day=3)
    ind = dataclasses.replace(roomba.intervention, attention=att)
    paths = violation_paths(dataclasses.replace(roomba, intervention=ind))
    assert "intervention.attention.interval" in paths
    assert "intervention.attention.checks_per_day" in paths


def test_at_least_one_target_required(roomba):
    assert violation_paths(dataclasses.replace(roomba, targets=())) == ["targets"]


def test_duplicate_target_names_rejected(roomba):
    clone = dataclasses.replace(roomba.targets[1], name=roomba.targets[0].name)
    profile = dataclasses.replace(roomba, targets=(roomba.targets[0], clone))
    assert "targets[1].name" in violation_paths(profile)


def test_max_damage_needs_at_least_one_declared_field(roomba):
    bare = dataclasses.replace(roomba.targets[0], max_damage=MaxDamage())
    profile = dataclasses.replace(roomba, targets=(bare, roomba.targets[1]))
    assert "targets[0].max_damage" in violation_paths(profile)


def test_explicit_zero_monetary_damage_is_a_declared_estimate(roomba):
    zero = dataclasses.replace(roomba.targets[0], max_damage=MaxDamage(monetary_usd=0))
    profile = dataclasses.replace(roomba, targets=(zero, roomba.targets[1]))
    assert validate_profile(profile) == []


def test_negative_monetary_and_lives_rejected(roomba):
    bad = dataclasses.replace(
        roomba.targets[0], max_damage=MaxDamage(monetary_usd=-5, lives_at_risk=-1)
    )
    paths = violation_paths(dataclasses.replace(roomba, targets=(bad, roomba.targets[1])))
    assert "targets[0].max_damage.monetary_usd" in paths
    assert "targets[0].max_damage.lives_at_risk" in paths


@pytest.mark.parametrize(
    "amount,message",
    [
        (float("inf"), "must be a finite number, got inf"),
        (-5.0, "must be non-negative, got -5.0"),
        (float("nan"), "must be non-negative, got nan"),
        (-float("inf"), "must be non-negative, got -inf"),
    ],
)
def test_infinite_nan_and_negative_amounts_rejected(roomba, amount, message):
    bad = dataclasses.replace(roomba.targets[0], max_damage=MaxDamage(monetary_usd=amount))
    profile = dataclasses.replace(roomba, targets=(bad, roomba.targets[1]))
    assert [(v.path, v.message) for v in validate_profile(profile)] == [
        ("targets[0].max_damage.monetary_usd", message)
    ]
    with pytest.raises(InvalidProfileError):
        build_report(profile)


def test_huge_integer_amount_is_valid(roomba):
    huge = dataclasses.replace(roomba.targets[0], max_damage=MaxDamage(monetary_usd=10**400))
    assert validate_profile(dataclasses.replace(roomba, targets=(huge, roomba.targets[1]))) == []


def test_coupling_and_complexity_score_ranges(roomba):
    bad = dataclasses.replace(roomba.targets[0], coupling=0, interaction_complexity=6)
    paths = violation_paths(dataclasses.replace(roomba, targets=(bad, roomba.targets[1])))
    assert "targets[0].coupling" in paths
    assert "targets[0].interaction_complexity" in paths


def test_position_must_stay_on_unit_square(roomba):
    bad = dataclasses.replace(roomba.targets[0], position=Position(gap=1.2, energy=-0.1))
    paths = violation_paths(dataclasses.replace(roomba, targets=(bad, roomba.targets[1])))
    assert "targets[0].position.gap" in paths
    assert "targets[0].position.energy" in paths


def test_safety_level_ranges_and_projection_ordering(roomba):
    safety = SafetyProfile(
        autonomy=SafetyDimension(level=4),
        goal_complexity=SafetyDimension(level=-1),
        escape_potential=SafetyDimension(level=2, projected=1),
        anthropomorphization=SafetyDimension(level=1, projected=5),
    )
    paths = violation_paths(dataclasses.replace(roomba, safety=safety))
    assert "safety.autonomy.level" in paths
    assert "safety.goal_complexity.level" in paths
    assert "safety.escape_potential.projected" in paths
    assert "safety.anthropomorphization.projected" in paths


def test_all_violations_reported_at_once(roomba):
    ind = dataclasses.replace(roomba.intervention, observability=9, correctability=9)
    profile = dataclasses.replace(roomba, intervention=ind, targets=())
    assert len(validate_profile(profile)) == 3


def test_invalid_profile_error_joins_every_violation_in_order(broken_hal_doc):
    profile = parse_assessment(json.dumps(broken_hal_doc), validate=False)
    with pytest.raises(InvalidProfileError) as exc:
        build_report(profile)
    assert str(exc.value) == "invalid assessment profile: " + "; ".join(BROKEN_HAL_VIOLATIONS)


def test_violations_are_invariant_document_errors(broken_hal_doc):
    data = json.dumps(broken_hal_doc)
    violations = validate_profile(parse_assessment(data, validate=False))
    assert len(violations) == len(BROKEN_HAL_VIOLATIONS)
    for v in violations:
        assert type(v) is DocumentError
        assert (v.kind, v.line) == (ErrorKind.INVARIANT_VIOLATION, None)
    with pytest.raises(InvalidProfileError) as exc:
        build_report(parse_assessment(data, validate=False))
    assert exc.value.violations == violations
    with pytest.raises(AssessmentDocumentError) as exc:
        parse_assessment(data)
    assert list(exc.value.errors) == violations


def test_omitted_projection_defaults_to_current_level():
    assert SafetyDimension(level=2).projected == 2
    assert SafetyDimension(level=2, projected=3).projected == 3


def test_attention_magnitude_keeps_intermittent_interval():
    att = HumanAttention(mode=AttentionMode.INTERMITTENT, interval=AttentionInterval.MONTHS)
    assert attention_magnitude(att) is AttentionInterval.MONTHS


def test_attention_magnitude_for_periodic_checks_is_hours():
    att = HumanAttention(mode=AttentionMode.PERIODIC, checks_per_day=24)
    assert attention_magnitude(att) is AttentionInterval.HOURS


def test_attention_magnitude_rejects_incomplete_specs():
    with pytest.raises(ValueError):
        attention_magnitude(HumanAttention(mode=AttentionMode.INTERMITTENT))
    with pytest.raises(ValueError):
        attention_magnitude(HumanAttention(mode=AttentionMode.PERIODIC, checks_per_day=0))


# Values at and beyond each range's ends, and of the other types a hand-built
# profile can carry: a non-integral float, NaN, infinities, a bool and an
# integer too wide for a float.
EDGE_VALUES = (-1, 0, 1, 2, 3, 4, 5, 6, 2.5, float("nan"), float("inf"), float("-inf"), True, 10**30)


def _mutated_profile(rng):
    """A generated profile with up to three fields set to edge values."""
    profile = random_profile(rng)
    for _ in range(randint(rng, 0, 3)):
        if not profile.targets:
            break
        value = choice(rng, EDGE_VALUES)
        ind, safety, targets = profile.intervention, profile.safety, list(profile.targets)
        i = randint(rng, 0, len(targets) - 1)
        target = targets[i]
        match randint(rng, 0, 9):
            case 0:
                ind = dataclasses.replace(ind, observability=value)
            case 1:
                ind = dataclasses.replace(ind, correctability=value)
            case 2:
                mode = choice(rng, tuple(AttentionMode))
                interval = choice(rng, (None, AttentionInterval.DAYS))
                checks = choice(rng, (None, value))
                ind = dataclasses.replace(ind, attention=HumanAttention(mode, checks, interval))
            case 3:
                targets[i] = dataclasses.replace(target, coupling=value)
            case 4:
                targets[i] = dataclasses.replace(target, interaction_complexity=value)
            case 5:
                name, dim = choice(rng, safety.dimensions())
                field = choice(rng, ("level", "projected"))
                safety = dataclasses.replace(safety, **{name: dataclasses.replace(dim, **{field: value})})
            case 6:
                damage = choice(
                    rng,
                    (
                        MaxDamage(),
                        MaxDamage(monetary_usd=value),
                        MaxDamage(monetary_usd=-value),
                        MaxDamage(lives_at_risk=value),
                        MaxDamage(monetary_usd=value * 1e300),
                    ),
                )
                targets[i] = dataclasses.replace(target, max_damage=damage)
            case 7:
                axis = choice(rng, ("gap", "energy"))
                position = target.position or Position(gap=0.5, energy=0.5)
                edge = value / 4 if type(value) is int else value
                targets[i] = dataclasses.replace(target, position=dataclasses.replace(position, **{axis: edge}))
            case 8:
                targets.append(dataclasses.replace(target, coupling=value))
            case 9:
                targets = targets[: randint(rng, 0, len(targets) - 1)]
        profile = dataclasses.replace(profile, intervention=ind, safety=safety, targets=tuple(targets))
    return profile


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as e:
        return f"{type(e).__name__}: {e}"


def test_diagnostics_and_accident_risks_match_their_pinned_digest():
    """Every diagnostic validate_profile writes, and every accident risk or
    error target_accident_risk gives, over seeded edge-value mutations of
    generated profiles and a grid of scores, hashed against a fixed digest."""
    rng = random.Random(1100)
    lines = []
    for _ in range(1500):
        errors = validate_profile(_mutated_profile(rng))
        lines.append(repr([(e.kind.value, e.path, e.message, e.line) for e in errors]))
    target = random_profile(rng).targets[0]
    for coupling in EDGE_VALUES:
        for interaction in EDGE_VALUES:
            scored = dataclasses.replace(target, coupling=coupling, interaction_complexity=interaction)
            lines.append(_outcome(target_accident_risk, scored))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "c3c656024fbd45135a10a8db030d5d1c11f46cb87c86cdbbe04db0413f18eaee"
