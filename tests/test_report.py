"""Report assembly and the three output formats."""

import copy
import dataclasses
import json
import random
import re

import pytest

from airisk import (
    AttentionInterval,
    AttentionMode,
    DamageThresholds,
    HumanAttention,
    MaxDamage,
    Position,
    Reputational,
    RiskLevel,
    RiskReport,
    RuleId,
    build_report,
    parse_machine_report,
    render_intervention_table,
    render_report,
    render_target_table,
)
from airisk.report import format_attention, format_max_damage, format_usd
from airisk.rules import DEFAULT_CALIBRATION, calibration_for
from airisk.tables import DEFAULT_DAMAGE_THRESHOLDS

import digests
from conftest import GOLDEN
from genprofiles import random_profile
from propchecks import mutated_report, walk_document


@pytest.mark.parametrize(
    "amount,expected",
    [
        (0, "$0"),
        (200, "$200"),
        (1234, "$1,234"),
        (100_000.0, "$100,000"),
        (2_000_000, "$2 million"),
        (10_000_000, "$10 million"),
        (1_000_000_000.0, "$1 billion"),
        (5_000_000_000, "$5 billion"),
        (2_500_000_000, "$2,500 million"),
        (12.5, "$12.50"),
    ],
)
def test_usd_formatting(amount, expected):
    assert format_usd(amount) == expected


def test_max_damage_cell_text():
    assert format_max_damage(MaxDamage(monetary_usd=200)) == "$200"
    assert format_max_damage(MaxDamage(monetary_usd=10_000_000_000, lives_at_risk=4)) == "$10 billion + 4 lives"
    assert format_max_damage(MaxDamage(lives_at_risk=1)) == "1 life"
    assert format_max_damage(MaxDamage(reputational=Reputational.MAJOR)) == "Reputation loss"
    assert format_max_damage(MaxDamage(reputational=Reputational.NONE)) == "none"
    assert format_max_damage(MaxDamage(monetary_usd=0, reputational=Reputational.MINOR)) == "$0"


def test_attention_cell_text():
    periodic = lambda n: HumanAttention(mode=AttentionMode.PERIODIC, checks_per_day=n)
    gap = lambda i: HumanAttention(mode=AttentionMode.INTERMITTENT, interval=i)
    assert format_attention(periodic(24)) == "24 times per day"
    assert format_attention(periodic(1)) == "1 time per day"
    assert format_attention(gap(AttentionInterval.MINUTES)) == "minutes"
    assert format_attention(gap(AttentionInterval.HOURS)) == "hours"
    assert format_attention(gap(AttentionInterval.DAYS)) == "intermittent, days"
    assert format_attention(gap(AttentionInterval.WEEKS)) == "intermittent, weeks"


def test_intervention_table_layout(roomba):
    table = render_intervention_table(roomba.intervention)
    lines = table.splitlines()
    assert lines == [
        "Time Delay      | seconds",
        "Observability   | 3",
        "Human Attention | intermittent, weeks",
        "Correctability  | 5",
    ]
    # All four label cells share one width.
    assert len({line.index("|") for line in lines}) == 1


def test_target_table_has_no_quadrant_column_without_positions(roomba):
    table = render_target_table(build_report(roomba).target_results)
    assert "Quadrant" not in table
    assert "Robot Movement" in table and "Cleanliness of Floor" in table


def test_target_table_grows_a_quadrant_column_when_positions_exist(roomba):
    placed = dataclasses.replace(roomba.targets[0], position=Position(gap=0.1, energy=0.9))
    profile = dataclasses.replace(roomba, targets=(placed, roomba.targets[1]))
    table = render_target_table(build_report(profile).target_results)
    lines = table.splitlines()
    assert lines[0].endswith("| Quadrant")
    assert lines[1].rstrip().endswith("| 1")
    assert lines[2].rstrip().endswith("| -")  # unplaced target gets a dash


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_a_line_separator_in_a_target_name_stays_in_its_row(roomba, separator):
    name = f"Robot{separator}Movement"
    renamed = dataclasses.replace(roomba.targets[0], name=name)
    profile = dataclasses.replace(roomba, targets=(renamed, roomba.targets[1]))
    lines = render_report(build_report(profile), "text").decode().split("\n")
    row = next(line for line in lines if line.startswith(name))
    assert row.split(" | ")[:2] == [name.ljust(len("Cleanliness of Floor")), "$200      "]
    assert f"    targets: {name}" in lines  # R3's finding keeps it whole too


def test_report_carries_derived_results(hal9000):
    report = build_report(hal9000)
    assert [r.damage_party.code for r in report.target_results] == ["L2", "M3", "M4"]
    assert [r.accident_risk for r in report.target_results] == [
        RiskLevel.HIGH,
        RiskLevel.LOW,
        RiskLevel.HIGH,
    ]
    assert report.calibration.damage_thresholds == DamageThresholds()


def test_report_honors_threshold_overrides(roomba):
    loose = DamageThresholds(minor=1e6, major=1e7, severe=1e8, catastrophic=1e9)
    report = build_report(roomba, loose)
    rules = set(report.rule_findings.triggered_rules())
    assert RuleId.R1 not in rules  # $200 is negligible under the loose bands
    assert report.calibration.damage_thresholds == loose


def test_text_render_is_plain_unless_color_requested(roomba):
    report = build_report(roomba)
    plain = render_report(report, "text")
    assert b"\x1b[" not in plain
    colored = render_report(report, "text", color=True)
    assert b"\x1b[1m" in colored and b"\x1b[31m" in colored
    # Stripping the escapes recovers the plain rendering.
    stripped = colored.replace(b"\x1b[1m", b"").replace(b"\x1b[31m", b"").replace(b"\x1b[0m", b"")
    assert stripped == plain


def test_markdown_render_escapes_pipes(roomba):
    spiky = dataclasses.replace(roomba.targets[0], name="a|b")
    profile = dataclasses.replace(roomba, targets=(spiky, roomba.targets[1]))
    out = render_report(build_report(profile), "markdown").decode("utf-8")
    assert "a\\|b" in out


def test_markdown_render_escapes_backslashes_before_pipes(roomba):
    """A cell reads back as the name: ``Arm\\|Base`` is written ``Arm\\\\\\|Base``."""
    spiky = dataclasses.replace(roomba.targets[0], name="Arm\\|Base")
    profile = dataclasses.replace(roomba, targets=(spiky, roomba.targets[1]))
    out = render_report(build_report(profile), "markdown").decode("utf-8")
    assert "\n| Arm\\\\\\|Base | " in out


def test_machine_render_round_trips(roomba, hal9000, tay):
    for profile in (roomba, hal9000, tay):
        for thresholds in (DEFAULT_DAMAGE_THRESHOLDS, DamageThresholds(1, 2.5, 3, 4)):
            report = build_report(profile, thresholds)
            data = render_report(report, "machine")
            assert parse_machine_report(data) == report
    rng = random.Random(4242)
    for i in range(300):
        thresholds = DamageThresholds(1, 2.5, 3, 4) if i % 4 == 0 else DEFAULT_DAMAGE_THRESHOLDS
        report = build_report(random_profile(rng), thresholds)
        assert parse_machine_report(render_report(report, "machine")) == report, f"case {i}"


def test_machine_render_is_deterministic(tay):
    report = build_report(tay)
    assert render_report(report, "machine") == render_report(report, "machine")


def test_machine_parser_rejects_garbage():
    with pytest.raises(ValueError):
        parse_machine_report(b"not json")
    with pytest.raises(ValueError):
        parse_machine_report(b'{"schema_version": 1}')
    with pytest.raises(ValueError):
        parse_machine_report(b'{"schema_version": 9}')


def test_default_thresholds_give_the_default_calibration(roomba):
    assert calibration_for(DEFAULT_DAMAGE_THRESHOLDS) is DEFAULT_CALIBRATION
    assert build_report(roomba).calibration is DEFAULT_CALIBRATION
    # Equal thresholds written as integers are reported as written.
    ints = DamageThresholds(100, 100_000, 10_000_000, 1_000_000_000)
    assert calibration_for(ints).damage_thresholds is ints
    assert b'"minor": 100,' in render_report(build_report(roomba, ints), "machine")


# -- the machine parser is strict: every field, every level --


def _report_object() -> dict:
    """The roomba golden report, with a quadrant on its first target.

    Its R3 finding names a target, so every optional field is present.
    """
    doc = json.loads((GOLDEN / "roomba.json").read_bytes())
    doc["targets"][0]["quadrant"] = 1
    return doc


def _dotted(path) -> str:
    out = ""
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else f".{part}" if out else part
    return out


def _with(doc: dict, path, value) -> bytes:
    doc = copy.deepcopy(doc)
    node = doc
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value
    return json.dumps(doc, indent=2, ensure_ascii=False).encode("utf-8") + b"\n"


_WRONG_TYPE = {str: 5, bool: "yes", int: "3", float: "x", list: "Robot Movement", dict: []}
_REPORT_PATHS = [path for path, _ in walk_document(_report_object()) if path]


def test_the_strictness_table_covers_a_report_that_parses_back_to_its_bytes():
    doc = _report_object()
    data = json.dumps(doc, indent=2, ensure_ascii=False).encode("utf-8") + b"\n"
    report = parse_machine_report(data)
    assert report.target_results[0].quadrant == 1
    assert render_report(report, "machine") == data
    assert len(_REPORT_PATHS) > 80


@pytest.mark.parametrize("path", _REPORT_PATHS, ids=_dotted)
def test_a_wrong_typed_value_names_its_path(path):
    doc = _report_object()
    node = doc
    for part in path:
        node = node[part]
    with pytest.raises(ValueError, match=re.escape(f" {_dotted(path)}: ")):
        parse_machine_report(_with(doc, path, _WRONG_TYPE[type(node)]))


@pytest.mark.parametrize(
    "path", [path for path, node in walk_document(_report_object()) if isinstance(node, dict)], ids=_dotted
)
def test_an_unknown_key_is_rejected_at_every_level(path):
    named = _dotted(path + ("bogus",))
    with pytest.raises(ValueError, match=re.escape(f" {named}: unknown field")):
        parse_machine_report(_with(_report_object(), path + ("bogus",), 1))


@pytest.mark.parametrize(
    "path,value",
    [
        (("targets", 0, "party_degree"), "3"),
        (("targets", 0, "quadrant"), "x"),
        (("findings", 0, "triggered"), "yes"),
        (("findings", 2, "targets"), "Robot Movement"),
        (("findings", 0, "measures", 1), "monitoring"),
        (("calibration", "very_small_time_delays", 0), "instant"),
        # Well typed, but outside the field's range.
        (("targets", 0, "quadrant"), 7),
        (("targets", 0, "quadrant"), 0),
        (("targets", 1, "party_degree"), -3),
        (("targets", 0, "party_degree"), 5),
        (("intervention", "observability"), 99),
        (("intervention", "correctability"), -1),
        (("safety", "autonomy", "level"), 5),
        (("safety", "escape_potential", "projected"), 4),
        # Well typed, but not what the rules decide or evaluate.
        (("findings", 1, "measures"), ["ethics_board"]),
        (("findings", 0, "measures"), ["oversight_component"]),
        (("findings", 3, "rule"), "R5"),
        (("findings", 2, "targets"), []),
        (("findings", 0, "targets"), ["Robot Movement"]),
        (("findings", 2, "targets", 0), "Nobody"),
        (("calibration", "poor_observability_max"), -5),
        (("calibration", "poor_observability_max"), 99),
        (("calibration", "safety_critical_level"), 99),
        (("calibration", "very_small_time_delays"), ["seconds"]),
        (("calibration", "poor_attention_min"), "weeks"),
        (("calibration", "high_damage_min"), "Major"),
        (("calibration", "quadrant_convention"), "x"),
        (("findings", 1, "triggered"), True),
        (("findings", 5, "rationale"), "Safety levels were not reviewed."),
    ],
)
def test_plausible_but_wrong_values_are_rejected(path, value):
    with pytest.raises(ValueError, match=re.escape(f" {_dotted(path)}: ")):
        parse_machine_report(_with(_report_object(), path, value))


@pytest.mark.parametrize("path", [("profile_name",), ("targets", 0, "name")], ids=_dotted)
@pytest.mark.parametrize("name", ["Roomba\n\x1b[2J", "Robot\nMovement"])
def test_the_printed_names_refuse_control_characters(path, name):
    """The report's two printed names follow the profile document's rule."""
    with pytest.raises(ValueError) as exc:
        parse_machine_report(_with(_report_object(), path, name))
    assert str(exc.value) == f"not a machine report: {_dotted(path)}: must not contain control characters"


def test_range_problems_carry_the_validators_messages_first_in_document_order():
    doc = _report_object()
    doc["safety"]["autonomy"]["level"] = 5
    doc["targets"][0]["quadrant"] = 7
    with pytest.raises(ValueError) as exc:
        parse_machine_report(json.dumps(doc))
    assert str(exc.value) == "not a machine report: targets[0].quadrant: must be between 1 and 4, got 7"
    doc["intervention"]["observability"] = 99
    with pytest.raises(ValueError) as exc:
        parse_machine_report(json.dumps(doc))
    assert str(exc.value) == "not a machine report: intervention.observability: must be between 0 and 5, got 99"
    del doc["intervention"]["observability"]  # a decode error comes before any range
    with pytest.raises(ValueError, match=re.escape(" intervention.observability: required field is missing")):
        parse_machine_report(json.dumps(doc))
    doc = _report_object()
    del doc["intervention"]["attention"]["interval"]
    with pytest.raises(ValueError) as exc:
        parse_machine_report(json.dumps(doc))
    assert str(exc.value) == "not a machine report: intervention.attention.interval: required when mode is intermittent"


def _rejection(doc: dict) -> str:
    with pytest.raises(ValueError) as exc:
        parse_machine_report(json.dumps(doc))
    return str(exc.value).removeprefix("not a machine report: ")


def test_findings_must_be_the_seven_rules_as_decided():
    doc = _report_object()
    doc["findings"].reverse()
    assert _rejection(doc) == 'findings[0].rule: must be "R1", the value the rules evaluate'
    doc = _report_object()
    del doc["findings"][2:]
    assert _rejection(doc) == "findings: must hold 7 entries, the number the rules evaluate"
    doc = _report_object()
    doc["findings"][1]["measures"] = ["ethics_board"]
    assert _rejection(doc) == "findings[1].measures: must be [], the value the rules evaluate"
    doc["findings"][1]["triggered"] = True
    del doc["findings"][1]["measures"]
    assert _rejection(doc) == "findings[1].triggered: must be false, the value the rules evaluate"
    doc = _report_object()
    doc["findings"][2]["targets"] = ["Robot Movement", "Kitchen"]
    assert _rejection(doc) == 'findings[2].targets: must be ["Robot Movement"], the value the rules evaluate'
    doc["findings"][4].update(triggered=True, measures=["conventional_safeguards_human_oversight"])
    assert _rejection(doc) == 'findings[2].targets: must be ["Robot Movement"], the value the rules evaluate'
    doc["findings"][2]["targets"] = ["Robot Movement"]
    assert _rejection(doc) == "findings[4].triggered: must be false, the value the rules evaluate"


def test_the_calibration_must_be_the_one_the_rules_evaluate(roomba):
    doc = _report_object()
    doc["calibration"]["poor_observability_max"] = -5
    doc["calibration"]["safety_critical_level"] = 99
    assert _rejection(doc) == "calibration.poor_observability_max: must be 2, the value the rules evaluate"
    doc["findings"][1]["triggered"] = True  # findings come first, in document order
    assert _rejection(doc) == "findings[1].triggered: must be false, the value the rules evaluate"
    doc["intervention"]["observability"] = 99  # and the existing ranges before them
    assert _rejection(doc) == "intervention.observability: must be between 0 and 5, got 99"
    doc = _report_object()
    doc["calibration"]["very_small_time_delays"] = ["seconds"]
    expected = 'calibration.very_small_time_delays: must be ["milliseconds", "seconds"], the value the rules evaluate'
    assert _rejection(doc) == expected
    doc["calibration"]["very_small_time_delays"] = ["seconds", "milliseconds"]
    assert _rejection(doc) == expected
    # Custom thresholds carry the default cutoffs with them.
    thresholds = DamageThresholds(1, 2, 3, 4)
    data = render_report(build_report(roomba, thresholds), "machine")
    assert parse_machine_report(data).calibration == calibration_for(thresholds)
    doc = json.loads(data)
    doc["calibration"]["significant_party_min"] = 4
    assert _rejection(doc) == "calibration.significant_party_min: must be 3, the value the rules evaluate"


def test_a_damage_class_the_findings_contradict_is_rejected():
    # R1's text names the worst damage class, so it is the first field to change.
    doc = _report_object()
    assert doc["targets"][0]["name"] == "Robot Movement"
    doc["targets"][0]["damage_class"] = "Severe"
    assert _rejection(doc) == (
        'findings[0].rationale: must be "Time delay is seconds and attention gaps reach weeks; effects are '
        'not trivial (worst target damage class severe).", the value the rules evaluate'
    )


def test_the_target_list_gets_the_profiles_own_checks():
    doc = _report_object()
    doc["targets"].append(copy.deepcopy(doc["targets"][0]))
    assert _rejection(doc) == "targets[2].name: duplicate target name 'Robot Movement'"
    doc = _report_object()
    doc["findings"][2].update(triggered=False, measures=[], targets=[])
    doc["targets"] = []
    assert _rejection(doc) == "targets: at least one target is required"


def test_out_of_order_thresholds_name_their_object():
    path = ("calibration", "damage_thresholds", "minor")
    with pytest.raises(ValueError, match=re.escape(" calibration.damage_thresholds: damage thresholds")):
        parse_machine_report(_with(_report_object(), path, 1e12))


@pytest.mark.parametrize(
    "data",
    [b"[" * 50_000, b'{"a":' * 20_000, b"\xff", b"[]", b"1e400"],
    ids=["deep-arrays", "deep-objects", "not-utf8", "array", "huge-float"],
)
def test_non_json_and_deep_nesting_raise_value_error(data):
    with pytest.raises(ValueError):
        parse_machine_report(data)


def test_machine_parser_gives_a_report_or_value_error_on_mutated_reports():
    rng = random.Random(606)
    profiles = [random_profile(rng) for _ in range(25)]
    reports = [render_report(build_report(profile), "machine") for profile in profiles]
    outcomes = {RiskReport: 0, ValueError: 0}
    # An edit to a finding, the calibration or a cell the findings read
    # makes a report that contradicts itself, which the parser rejects; the
    # variants' reports keep more than 50 of the 4000 cases parsing.
    for i in range(4000):
        data = mutated_report(rng, profiles, reports)
        try:
            parsed = parse_machine_report(data)
        except ValueError:
            outcomes[ValueError] += 1
            continue
        except Exception as e:  # noqa: BLE001 - the point is that nothing else escapes
            raise AssertionError(f"case {i} raised {e!r}") from e
        assert isinstance(parsed, RiskReport), f"case {i}"
        outcomes[RiskReport] += 1
    # Both outcomes occur, so the mutations reach past the JSON layer.
    assert outcomes[RiskReport] > 50 and outcomes[ValueError] > 2000, outcomes


def test_readers_and_writers_match_their_pinned_digest():
    digest = digests.readers_and_writers_digest()
    assert digest == "131f3b3fd73c83fd1a0939d241884c33456fa9d1f2ab1645a4dd8ab3689b00c9"


def test_unknown_format_is_rejected(roomba):
    with pytest.raises(ValueError):
        render_report(build_report(roomba), "yaml")
