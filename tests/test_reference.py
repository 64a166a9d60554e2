"""The decision space, checked against the benchmark's independent reference.

perfbench/reference.py restates the two tables and the seven rule
conditions from the documentation and shares no code with the package.
This test imports it read-only and compares the triggered rules and each
target's two table cells on every profile of three slabs of the decision
space, and at every damage-class boundary.  Each slab varies one group of
the facts the rules read and holds the rest at roomba's values:

* the intervention facts x target A's damage class, the worst (15,120);
* target A's scores, energy and knowledge gap x its damage class (1,125);
* every combination of the four (level, projected) safety pairs (10,000).

Each profile and its document object are built directly, without JSON.
"""

import itertools
import json
import math
import sys

from airisk import (
    AssessmentProfile,
    AttentionInterval,
    AttentionMode,
    DamageThresholds,
    EnergyLevel,
    HumanAttention,
    InterventionIndicators,
    KnowledgeGap,
    MaxDamage,
    Reputational,
    SafetyDimension,
    SafetyProfile,
    TargetAssessment,
    TimeDelay,
    damage_class,
    evaluate_rules,
)
from airisk.tables import target_accident_risk, target_damage_party

from conftest import FIXTURES, PKG_ROOT, load_fixture

sys.path.insert(0, str(PKG_ROOT / "perfbench"))

import reference  # noqa: E402

ROOMBA = load_fixture("roomba")
ROOMBA_DOC = json.loads((FIXTURES / "roomba.json").read_bytes())
DEFAULT = (DamageThresholds(), reference.DEFAULT_THRESHOLDS)
CUSTOM = (DamageThresholds(1, 2.5, 3, 4), (1.0, 2.5, 3.0, 4.0))

# One max_damage document per damage class, negligible to catastrophic.
CLASS_DAMAGES = (
    {"monetary_usd": 0},
    {"monetary_usd": 100},
    {"monetary_usd": 100_000},
    {"monetary_usd": 10_000_000},
    {"lives_at_risk": 1},
)

# Each part of a profile below is an (object, document object) pair.


def _target_a(max_damage: dict, coupling=3, complexity=3, energy="low", gap="low"):
    fields = {key: Reputational(v) if key == "reputational" else v for key, v in max_damage.items()}
    target = TargetAssessment(
        ROOMBA.targets[0].name, MaxDamage(**fields), coupling, complexity, EnergyLevel(energy), KnowledgeGap(gap)
    )
    doc = {
        "max_damage": max_damage,
        "coupling": coupling,
        "interaction_complexity": complexity,
        "energy_level": energy,
        "knowledge_gap": gap,
    }
    return target, doc


def _intervention(delay: TimeDelay, observability: int, attention, correctability: int, offline: bool):
    ind = InterventionIndicators(delay, observability, attention[0], correctability, offline)
    doc = {
        "time_delay": delay.value,
        "observability": observability,
        "attention": attention[1],
        "correctability": correctability,
        "can_take_offline": offline,
    }
    return ind, doc


def _safety(pairs):
    dims = [SafetyDimension(level, projected) for level, projected in pairs]
    doc = dict(zip(reference.SAFETY_DIMENSIONS, ({"level": l, "projected": p} for l, p in pairs)))
    return SafetyProfile(*dims), doc


ROOMBA_INTERVENTION = (ROOMBA.intervention, ROOMBA_DOC["intervention"])
ROOMBA_TARGET_A = _target_a(ROOMBA_DOC["targets"][0]["max_damage"])
ROOMBA_SAFETY = (ROOMBA.safety, ROOMBA_DOC["safety"])


def _case(intervention=ROOMBA_INTERVENTION, target_a=ROOMBA_TARGET_A, safety=ROOMBA_SAFETY):
    """A profile, and its document object, with roomba's second target."""
    (ind, ind_doc), (a, a_doc), (dims, dims_doc) = intervention, target_a, safety
    profile = AssessmentProfile(ROOMBA.name, ROOMBA.ai_component, ind, (a, ROOMBA.targets[1]), dims)
    return profile, {"intervention": ind_doc, "targets": [a_doc, ROOMBA_DOC["targets"][1]], "safety": dims_doc}


def _slabs():
    periodic = HumanAttention(AttentionMode.PERIODIC, checks_per_day=24)
    attentions = [(periodic, {"mode": "periodic", "checks_per_day": 24})]
    for interval in AttentionInterval:
        intermittent = HumanAttention(AttentionMode.INTERMITTENT, interval=interval)
        attentions.append((intermittent, {"mode": "intermittent", "interval": interval.value}))
    worst = [_target_a(damage) for damage in CLASS_DAMAGES]
    for facts in itertools.product(TimeDelay, range(6), attentions, range(6), (False, True), worst):
        yield _case(intervention=_intervention(*facts[:5]), target_a=facts[5])
    scores = range(1, 6)
    levels = [level.value for level in EnergyLevel]  # the knowledge gap's levels too
    for facts in itertools.product(scores, scores, levels, levels, CLASS_DAMAGES):
        yield _case(target_a=_target_a(facts[4], *facts[:4]))
    pairs = [(level, projected) for level in range(4) for projected in range(level, 4)]
    for combination in itertools.product(pairs, repeat=4):
        yield _case(safety=_safety(combination))


def _disagreements(cases, thresholds) -> tuple[int, list[str]]:
    """How many cases there were, and the first disagreements with the reference."""
    ours, theirs = thresholds
    count, found = 0, []
    for profile, doc in cases:
        count += 1
        rules = {rule.value for rule in evaluate_rules(profile, ours).triggered_rules()}
        cells = tuple((target_accident_risk(t).letter, target_damage_party(t).code) for t in profile.targets)
        if (rules, cells) != reference.evaluate(doc, theirs) and len(found) < 5:
            found.append(f"{doc}: {sorted(rules)} {cells}, reference {reference.evaluate(doc, theirs)}")
    return count, found


def test_every_profile_of_the_three_slabs_agrees_with_the_reference():
    count, found = _disagreements(_slabs(), DEFAULT)
    assert not found, "\n".join(found)
    assert count == 26_245


def test_damage_classes_agree_with_the_reference_at_every_boundary():
    """Each monetary cutoff, at and just below it, with and without lives or
    reputational damage, under the default and a custom set of thresholds."""
    for thresholds in (DEFAULT, CUSTOM):
        amounts = [None, 0]
        for cutoff in thresholds[1]:
            amounts += [math.nextafter(cutoff, 0), cutoff]
        damages = []
        for money, lives, reputation in itertools.product(amounts, (None, 0, 1), (None, "none", "minor", "major")):
            declared = {"monetary_usd": money, "lives_at_risk": lives, "reputational": reputation}
            damages.append({key: value for key, value in declared.items() if value is not None})
        cases = [_case(target_a=_target_a(damage)) for damage in damages if damage]  # one declared, at least
        for profile, doc in cases:
            want = reference.damage_class(doc["targets"][0]["max_damage"], thresholds[1])
            assert damage_class(profile.targets[0].max_damage, thresholds[0]).value.lower() == want, doc
        count, found = _disagreements(cases, thresholds)
        assert not found, "\n".join(found)
        assert count == 10 * 3 * 4 - 1
