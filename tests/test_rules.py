"""Boundary behavior of the seven recommendation rules."""

import dataclasses
import random

import pytest

from airisk import (
    AssessmentProfile,
    AttentionInterval,
    AttentionMode,
    DamageThresholds,
    EnergyLevel,
    HumanAttention,
    InvalidProfileError,
    KnowledgeGap,
    RuleId,
    RULES,
    TimeDelay,
    evaluate_rules,
)
from airisk.rules import RuleReport

import digests
from genprofiles import gap_of, profile, random_profile, target

def triggered(p: AssessmentProfile, thresholds=None) -> set[RuleId]:
    report = evaluate_rules(p, thresholds) if thresholds else evaluate_rules(p)
    return set(report.triggered_rules())


def finding(p: AssessmentProfile, rule: RuleId):
    return next(f for f in evaluate_rules(p).findings if f.rule is rule)


# -- R1: tiny time delay plus poor observability or attention --

def test_r1_fires_on_poor_observability():
    p = profile(delay=TimeDelay.SECONDS, observability=2)
    assert RuleId.R1 in triggered(p)


def test_r1_fires_on_sparse_attention():
    p = profile(delay=TimeDelay.MILLISECONDS, observability=5, attention=gap_of(AttentionInterval.DAYS))
    assert RuleId.R1 in triggered(p)


def test_r1_needs_a_small_time_delay():
    p = profile(delay=TimeDelay.MINUTES, observability=0, attention=gap_of(AttentionInterval.MONTHS))
    assert RuleId.R1 not in triggered(p)


def test_r1_quiet_when_watched_closely():
    p = profile(delay=TimeDelay.SECONDS, observability=3, attention=gap_of(AttentionInterval.HOURS))
    assert RuleId.R1 not in triggered(p)


def test_r1_suppressed_when_every_target_is_negligible():
    p = profile(delay=TimeDelay.SECONDS, observability=0, targets=(target(monetary=0),))
    assert RuleId.R1 not in triggered(p)
    assert "negligible" in finding(p, RuleId.R1).rationale


def test_r1_periodic_checks_count_as_close_attention():
    # Even one check a day keeps gaps under the "days or more" cutoff.
    daily = HumanAttention(mode=AttentionMode.PERIODIC, checks_per_day=1)
    p = profile(delay=TimeDelay.SECONDS, observability=5, attention=daily)
    assert RuleId.R1 not in triggered(p)


# -- R2: low correctability on a system that cannot be shut down --

def test_r2_fires_at_the_correctability_boundary():
    assert RuleId.R2 in triggered(profile(correctability=2, offline=False))
    assert RuleId.R2 not in triggered(profile(correctability=3, offline=False))


def test_r2_quiet_when_the_system_can_go_offline():
    assert RuleId.R2 not in triggered(profile(correctability=0, offline=True))


# -- R3: any target at medium-or-higher accident risk --

def test_r3_quiet_when_all_targets_low():
    assert RuleId.R3 not in triggered(profile(targets=(target(coupling=2, complexity=2),)))


def test_r3_fires_and_names_the_risky_targets():
    p = profile(targets=(target("calm"), target("edgy", coupling=3, complexity=3)))
    f = finding(p, RuleId.R3)
    assert f.triggered
    assert f.targets_involved == ("edgy",)
    assert "edgy" in f.rationale


def test_the_rationale_names_the_calibrations_cutoff():
    p = profile(targets=(target("calm"), target("edgy", coupling=3, complexity=3)))
    assert evaluate_rules(p).findings[2].rationale == "Accident risk reaches medium or higher for edgy (M)."


def test_r4_names_the_calibrations_party_cutoff(hal9000, roomba):
    assert RULES[3].condition.endswith(" above with party degree 3 or 4")
    reach = "Damage at medium or above can reach 3rd or 4th parties: Navigation (M3) and Social interactions (M4)."
    assert evaluate_rules(hal9000).findings[3].rationale == reach
    none = "No target combines damage at medium or above with 3rd- or 4th-party reach: " + (
        "Robot Movement (L2) and Cleanliness of Floor (L2)."
    )
    assert evaluate_rules(roomba).findings[3].rationale == none


# -- R4: significant damage reaching 3rd or 4th parties --

@pytest.mark.parametrize(
    "energy,gap,expect",
    [
        (EnergyLevel.LOW, KnowledgeGap.LOW, False),       # L2: neither condition
        (EnergyLevel.LOW, KnowledgeGap.HIGH, True),       # M4
        (EnergyLevel.MEDIUM, KnowledgeGap.LOW, True),     # M3
        (EnergyLevel.HIGH, KnowledgeGap.LOW, True),       # H3
        (EnergyLevel.HIGH, KnowledgeGap.HIGH, True),      # C4
    ],
)
def test_r4_needs_medium_damage_at_third_party_reach(energy, gap, expect):
    p = profile(targets=(target(energy=energy, gap=gap),))
    assert (RuleId.R4 in triggered(p)) is expect


# -- R5: high damage potential per target --

def test_r5_fires_at_the_severe_band():
    assert RuleId.R5 in triggered(profile(targets=(target(monetary=10_000_000),)))
    assert RuleId.R5 not in triggered(profile(targets=(target(monetary=9_999_999),)))


def test_r5_lists_every_high_damage_target():
    p = profile(targets=(target("a", monetary=10_000_000), target("b", lives=2, monetary=None)))
    f = finding(p, RuleId.R5)
    assert f.targets_involved == ("a", "b")


def test_r5_respects_custom_thresholds():
    tight = DamageThresholds(minor=1, major=10, severe=100, catastrophic=10_000)
    p = profile(targets=(target(monetary=500),))
    assert RuleId.R5 in triggered(p, tight)
    assert RuleId.R5 not in triggered(p)


# -- R6 and R7: the AI safety levels --

def test_r6_fires_at_level_two():
    assert RuleId.R6 in triggered(profile(levels=(0, 0, 2, 0)))
    assert RuleId.R6 not in triggered(profile(levels=(1, 1, 1, 1)))


def test_r6_ignores_projections():
    p = profile(levels=(1, 0, 0, 0), projected=(3, None, None, None))
    assert RuleId.R6 not in triggered(p)


def test_r7_counts_current_and_projected_levels():
    assert RuleId.R7 in triggered(profile(levels=(3, 0, 0, 0)))
    assert RuleId.R7 in triggered(profile(levels=(1, 0, 0, 0), projected=(3, None, None, None)))
    assert RuleId.R7 not in triggered(profile(levels=(2, 2, 2, 2)))


def test_r7_rationale_shows_the_projection():
    p = profile(levels=(1, 0, 0, 0), projected=(3, None, None, None))
    assert "projected 3" in finding(p, RuleId.R7).rationale


# -- structural guarantees --

def test_every_evaluation_yields_seven_findings_in_order():
    report = evaluate_rules(profile())
    assert [f.rule for f in report.findings] == list(RuleId)


def test_measures_accompany_exactly_the_triggered_findings():
    p = profile(
        delay=TimeDelay.MILLISECONDS,
        observability=0,
        correctability=0,
        offline=False,
        targets=(target(coupling=5, complexity=5, energy=EnergyLevel.HIGH, gap=KnowledgeGap.HIGH, lives=3),),
        levels=(3, 2, 1, 0),
    )
    for f in evaluate_rules(p).findings:
        assert bool(f.measures) == f.triggered
        assert f.rationale


def test_rationales_present_even_when_nothing_fires():
    for f in evaluate_rules(profile()).findings:
        assert not f.triggered
        assert f.measures == ()
        assert f.rationale.endswith(".")


def test_invalid_profiles_are_refused():
    with pytest.raises(InvalidProfileError) as exc:
        evaluate_rules(profile(observability=17))
    assert any(v.path == "intervention.observability" for v in exc.value.violations)


def test_a_fractional_score_is_refused_not_banded():
    with pytest.raises(InvalidProfileError) as exc:
        evaluate_rules(profile(targets=(target(coupling=2.5, complexity=5),)))
    assert [v.path for v in exc.value.violations] == ["targets[0].coupling"]


def test_rule_catalog_is_complete():
    assert [r.id for r in RULES] == list(RuleId)
    for r in RULES:
        assert r.text.endswith(".")
        assert r.condition
        assert r.measures


def test_decision_pass_agrees_with_the_rationale_text():
    """The triggered rules known before any text is written match the findings."""
    rng = random.Random(404)
    target_rules = (RuleId.R3, RuleId.R4, RuleId.R5)
    for i in range(300):
        p = random_profile(rng)
        decided = evaluate_rules(p).triggered_rules()
        report = evaluate_rules(p)
        findings = report.findings
        assert decided == tuple(f.rule for f in findings if f.triggered), f"case {i}"
        assert report.triggered_rules() == decided, f"case {i}"
        for f in findings:
            expect_targets = f.triggered and f.rule in target_rules
            assert bool(f.targets_involved) == expect_targets, f"{f.rule.value}, case {i}"
        assert report == RuleReport(findings) and hash(report) == hash(RuleReport(findings))

        invalid = dataclasses.replace(p, targets=())
        with pytest.raises(InvalidProfileError):
            evaluate_rules(invalid)


def test_a_report_equals_only_reports_and_shows_its_findings(roomba):
    report = evaluate_rules(roomba)
    assert report.__eq__(report.findings) is NotImplemented
    assert report != report.findings
    assert repr(report) == f"RuleReport(findings={report.findings!r})"


def test_findings_match_their_pinned_digest():
    digest = digests.findings_digest()
    assert digest == "dc7996ddfdf6a96eddb2f4ab6d6a38dfb2770be2c916da17402e08d6a0f6781d"
