"""Seeded random generators for property tests, and hand-made profiles.

Everything random here is driven by a caller-supplied random.Random so
failures reproduce from the seed printed in the assertion message.
Generated profiles always satisfy validate_profile; the mutators preserve
validity.  ``profile`` and ``target`` build one profile from keyword
overrides of a quiet default, for boundary tests.
"""

from __future__ import annotations

import dataclasses
import functools
import random

from airisk import (
    AssessmentProfile,
    AttentionInterval,
    AttentionMode,
    EnergyLevel,
    HumanAttention,
    InterventionIndicators,
    KnowledgeGap,
    MaxDamage,
    Position,
    Reputational,
    SafetyDimension,
    SafetyProfile,
    TargetAssessment,
    TimeDelay,
)

_MONETARY_CHOICES = (
    0,
    50,
    99,
    100,
    200,
    5_000,
    99_999,
    100_000,
    2_000_000,
    9_999_999,
    10_000_000,
    500_000_000,
    1_000_000_000,
    5_000_000_000,
    10_000_000_000,
)

# Enum members as tuples, built once per module rather than once per draw.
_REPUTATIONAL = tuple(Reputational)
_ENERGY_LEVELS = tuple(EnergyLevel)
_KNOWLEDGE_GAPS = tuple(KnowledgeGap)
_ATTENTION_INTERVALS = tuple(AttentionInterval)
_TIME_DELAYS = tuple(TimeDelay)


# random.Random draws randint(a, b) as a + below(b - a + 1) and choice(seq) as
# seq[below(len(seq))], where below(n) takes n.bit_length() random bits until
# they fall under n.  Doing those draws here, in one call each instead of three,
# gives every seed the same profiles faster.
def randint(rng: random.Random, a: int, b: int) -> int:
    n = b - a + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


def choice(rng: random.Random, seq):
    n = len(seq)
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return seq[r]


# Model records are frozen values, so equal draws may share one instance.
# Building each distinct record once keeps the frozen-dataclass constructors,
# the dearest part of a profile, out of the draw loop.
_max_damage = functools.cache(MaxDamage)
_attention = functools.cache(HumanAttention)
_dimension = functools.cache(SafetyDimension)


def random_max_damage(rng: random.Random) -> MaxDamage:
    monetary = choice(rng, _MONETARY_CHOICES) if rng.random() < 0.7 else None
    lives = choice(rng, (0, 0, 1, 4, 120)) if rng.random() < 0.3 else None
    reputational = choice(rng, _REPUTATIONAL) if rng.random() < 0.4 else None
    if monetary is None and lives is None and reputational is None:
        monetary = choice(rng, _MONETARY_CHOICES)
    notes = choice(rng, ("", "", "adversary assumed to hold full control"))
    return _max_damage(monetary_usd=monetary, lives_at_risk=lives, reputational=reputational, notes=notes)


def random_target(rng: random.Random, name: str) -> TargetAssessment:
    position = None
    if rng.random() < 0.3:
        position = Position(gap=round(rng.random(), 3), energy=round(rng.random(), 3))
    return TargetAssessment(
        name=name,
        max_damage=random_max_damage(rng),
        coupling=randint(rng, 1, 5),
        interaction_complexity=randint(rng, 1, 5),
        energy_level=choice(rng, _ENERGY_LEVELS),
        knowledge_gap=choice(rng, _KNOWLEDGE_GAPS),
        position=position,
    )


def random_attention(rng: random.Random) -> HumanAttention:
    if rng.random() < 0.5:
        return _attention(mode=AttentionMode.PERIODIC, checks_per_day=randint(rng, 1, 96))
    return _attention(mode=AttentionMode.INTERMITTENT, interval=choice(rng, _ATTENTION_INTERVALS))


def random_dimension(rng: random.Random) -> SafetyDimension:
    level = randint(rng, 0, 3)
    projected = None if rng.random() < 0.5 else randint(rng, level, 3)
    return _dimension(level=level, projected=projected)


def random_profile(rng: random.Random) -> AssessmentProfile:
    targets = tuple(random_target(rng, f"target-{i}") for i in range(randint(rng, 1, 4)))
    return AssessmentProfile(
        name=f"Generated system {randint(rng, 0, 10**6 - 1)}",
        ai_component=choice(rng, ("planner", "controller", "classifier", "chat model")),
        intervention=InterventionIndicators(
            time_delay=choice(rng, _TIME_DELAYS),
            observability=randint(rng, 0, 5),
            attention=random_attention(rng),
            correctability=randint(rng, 0, 5),
            can_take_offline=rng.random() < 0.5,
        ),
        targets=targets,
        safety=SafetyProfile(
            autonomy=random_dimension(rng),
            goal_complexity=random_dimension(rng),
            escape_potential=random_dimension(rng),
            anthropomorphization=random_dimension(rng),
        ),
    )


def raise_one_safety_level(rng: random.Random, profile: AssessmentProfile) -> AssessmentProfile:
    """Bump one dimension's current level by one; validity is preserved."""
    names = [name for name, dim in profile.safety.dimensions() if dim.level < 3]
    if not names:
        return profile
    name = choice(rng, names)
    dim = getattr(profile.safety, name)
    bumped = SafetyDimension(level=dim.level + 1, projected=max(dim.projected, dim.level + 1))
    safety = dataclasses.replace(profile.safety, **{name: bumped})
    return dataclasses.replace(profile, safety=safety)


def raise_observability(profile: AssessmentProfile) -> AssessmentProfile:
    ind = profile.intervention
    if ind.observability >= 5:
        return profile
    return dataclasses.replace(
        profile, intervention=dataclasses.replace(ind, observability=ind.observability + 1)
    )


def append_target(rng: random.Random, profile: AssessmentProfile) -> AssessmentProfile:
    extra = random_target(rng, f"extra-{len(profile.targets)}")
    return dataclasses.replace(profile, targets=profile.targets + (extra,))


HOURLY = HumanAttention(mode=AttentionMode.PERIODIC, checks_per_day=24)


def gap_of(interval: AttentionInterval) -> HumanAttention:
    return HumanAttention(mode=AttentionMode.INTERMITTENT, interval=interval)


def target(
    name="T",
    monetary=50_000.0,
    lives=None,
    coupling=1,
    complexity=1,
    energy=EnergyLevel.LOW,
    gap=KnowledgeGap.LOW,
):
    return TargetAssessment(
        name=name,
        max_damage=MaxDamage(monetary_usd=monetary, lives_at_risk=lives),
        coupling=coupling,
        interaction_complexity=complexity,
        energy_level=energy,
        knowledge_gap=gap,
    )


def profile(
    delay=TimeDelay.MONTHS,
    observability=5,
    attention=HOURLY,
    correctability=5,
    offline=True,
    targets=(target(),),
    levels=(0, 0, 0, 0),
    projected=(None, None, None, None),
):
    dims = [SafetyDimension(level=l, projected=p) for l, p in zip(levels, projected)]
    return AssessmentProfile(
        name="probe",
        ai_component="unit",
        intervention=InterventionIndicators(
            time_delay=delay,
            observability=observability,
            attention=attention,
            correctability=correctability,
            can_take_offline=offline,
        ),
        targets=tuple(targets),
        safety=SafetyProfile(*dims),
    )
