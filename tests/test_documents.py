"""Document decoding, error accumulation, and canonical serialization."""

import dataclasses
import json
import random

import pytest

from airisk import (
    AssessmentDocumentError,
    AssessmentProfile,
    ErrorKind,
    MaxDamage,
    RuleId,
    build_report,
    parse_assessment,
    render_report,
    serialize_assessment,
    validate_profile,
)
from airisk import documents
from airisk.documents import canonical_json_bytes, format_document_error

from conftest import FIXTURES
from genprofiles import random_profile


def parse_errors(data, **kwargs):
    with pytest.raises(AssessmentDocumentError) as exc:
        parse_assessment(data, **kwargs)
    return exc.value.errors


def dump(obj) -> str:
    return json.dumps(obj)


def test_fixture_documents_round_trip_byte_for_byte():
    for name in ("roomba", "hal9000", "tay"):
        data = (FIXTURES / f"{name}.json").read_bytes()
        assert serialize_assessment(parse_assessment(data)) == data


def test_serialized_profiles_parse_back_equal(roomba, hal9000, tay):
    for profile in (roomba, hal9000, tay):
        assert parse_assessment(serialize_assessment(profile)) == profile


def test_decoded_fixture_values(roomba):
    assert roomba.intervention.observability == 3
    assert roomba.intervention.correctability == 5
    assert len(roomba.targets) == 2


def test_target_order_is_semantic(roomba):
    import dataclasses

    flipped = dataclasses.replace(roomba, targets=roomba.targets[::-1])
    assert serialize_assessment(flipped) != serialize_assessment(roomba)
    assert parse_assessment(serialize_assessment(flipped)).targets[0].name == roomba.targets[1].name


def test_omitted_targets_is_a_missing_field(roomba_doc):
    del roomba_doc["targets"]
    (err,) = parse_errors(dump(roomba_doc))
    assert err.kind is ErrorKind.MISSING_FIELD
    assert err.path == "targets"


def test_syntax_error_reports_the_line():
    errors = parse_errors(b'{\n  "name": }')
    assert len(errors) == 1
    assert errors[0].kind is ErrorKind.SYNTAX
    assert errors[0].line == 2
    assert format_document_error(errors[0]).startswith("line 2: ")


def test_non_utf8_input_is_a_syntax_error():
    errors = parse_errors(b"\xff\xfe{}")
    assert errors[0].kind is ErrorKind.SYNTAX
    assert "UTF-8" in errors[0].message


def test_non_object_document_rejected():
    errors = parse_errors(b"[1, 2, 3]")
    assert errors[0].message == "document must be a JSON object"


def test_every_error_carries_a_path_except_syntax():
    bad_docs = [b"not json at all", b'{"schema_version": true}', b'{"targets": 5}']
    for doc in bad_docs:
        for err in parse_errors(doc):
            if err.kind is not ErrorKind.SYNTAX:
                assert err.path


def test_missing_fields_are_each_reported(roomba_doc):
    del roomba_doc["intervention"]["time_delay"]
    del roomba_doc["safety"]["autonomy"]
    paths = {e.path for e in parse_errors(dump(roomba_doc))}
    assert "intervention.time_delay" in paths
    assert "safety.autonomy" in paths


def test_type_mismatches_accumulate(roomba_doc):
    roomba_doc["intervention"]["observability"] = "three"
    roomba_doc["intervention"]["can_take_offline"] = "yes"
    roomba_doc["targets"][0]["coupling"] = 3.5
    errors = parse_errors(dump(roomba_doc))
    by_path = {e.path: e for e in errors}
    assert by_path["intervention.observability"].kind is ErrorKind.TYPE_MISMATCH
    assert by_path["intervention.can_take_offline"].message == "must be true or false"
    assert by_path["targets[0].coupling"].message == "must be an integer"


def test_booleans_do_not_pass_as_numbers(roomba_doc):
    roomba_doc["intervention"]["observability"] = True
    roomba_doc["targets"][0]["max_damage"]["monetary_usd"] = False
    paths = {e.path for e in parse_errors(dump(roomba_doc))}
    assert "intervention.observability" in paths
    assert "targets[0].max_damage.monetary_usd" in paths


def test_non_finite_numbers_rejected(roomba_doc):
    # json.loads accepts these literals; the decoder must not.
    text = dump(roomba_doc).replace("200", "NaN", 1)
    errors = parse_errors(text)
    assert any("finite" in e.message for e in errors)


def test_bad_enum_value_lists_the_choices(roomba_doc):
    roomba_doc["intervention"]["time_delay"] = "fortnights"
    (err,) = parse_errors(dump(roomba_doc))
    assert err.path == "intervention.time_delay"
    assert "milliseconds" in err.message and "months" in err.message


def test_unknown_fields_warn_by_default(roomba_doc):
    roomba_doc["intervention"]["observabillity"] = 3
    warnings = []
    profile = parse_assessment(dump(roomba_doc), warnings=warnings)
    assert validate_profile(profile) == []
    assert [w.path for w in warnings] == ["intervention.observabillity"]
    assert warnings[0].kind is ErrorKind.UNKNOWN_FIELD


def test_unknown_fields_fail_in_strict_mode(roomba_doc):
    roomba_doc["extra"] = 1
    (err,) = parse_errors(dump(roomba_doc), strict=True)
    assert err.path == "extra"
    assert err.kind is ErrorKind.UNKNOWN_FIELD


def test_annotation_keys_are_ignored_even_in_strict_mode(roomba_doc):
    roomba_doc["//"] = "document note"
    roomba_doc["intervention"]["//"] = "section note"
    roomba_doc["targets"][0]["//"] = "row note"
    warnings = []
    profile = parse_assessment(dump(roomba_doc), strict=True, warnings=warnings)
    assert warnings == []
    # The serializer never writes them back either.
    assert b'"//"' not in serialize_assessment(profile)


def test_newer_schema_versions_are_refused(roomba_doc):
    roomba_doc["schema_version"] = 2
    (err,) = parse_errors(dump(roomba_doc))
    assert err.kind is ErrorKind.INVARIANT_VIOLATION
    assert "newer" in err.message


def test_older_schema_versions_are_refused(roomba_doc):
    roomba_doc["schema_version"] = 0
    (err,) = parse_errors(dump(roomba_doc))
    assert "unsupported" in err.message


def test_invariant_checks_run_after_decoding(roomba_doc):
    roomba_doc["intervention"]["observability"] = 11
    errors = parse_errors(dump(roomba_doc))
    assert [e.kind for e in errors] == [ErrorKind.INVARIANT_VIOLATION]
    assert errors[0].path == "intervention.observability"


def test_validation_can_be_deferred(roomba_doc):
    roomba_doc["intervention"]["observability"] = 11
    profile = parse_assessment(dump(roomba_doc), validate=False)
    assert [v.path for v in validate_profile(profile)] == ["intervention.observability"]


def test_decoding_never_partially_succeeds(roomba_doc):
    roomba_doc["name"] = 7
    roomba_doc["targets"][1]["knowledge_gap"] = "enormous"
    roomba_doc["safety"]["autonomy"]["level"] = "zero"
    errors = parse_errors(dump(roomba_doc))
    assert {e.path for e in errors} == {"name", "targets[1].knowledge_gap", "safety.autonomy.level"}


def test_error_summary_truncates_long_lists(roomba_doc):
    for key in ("name", "ai_component", "intervention", "targets", "safety"):
        del roomba_doc[key]
    with pytest.raises(AssessmentDocumentError) as exc:
        parse_assessment(dump(roomba_doc))
    assert "+2 more" in str(exc.value)


def test_error_summary_names_the_first_three_errors(roomba_doc):
    del roomba_doc["name"]
    with pytest.raises(AssessmentDocumentError) as exc:
        parse_assessment(dump(roomba_doc))
    assert str(exc.value) == "name: required field is missing"
    del roomba_doc["ai_component"], roomba_doc["safety"]
    with pytest.raises(AssessmentDocumentError) as exc:
        parse_assessment(dump(roomba_doc))
    assert str(exc.value) == (
        "name: required field is missing; ai_component: required field is missing; "
        "safety: required field is missing"
    )
    del roomba_doc["intervention"], roomba_doc["targets"]
    with pytest.raises(AssessmentDocumentError) as exc:
        parse_assessment(dump(roomba_doc))
    assert str(exc.value) == (
        "name: required field is missing; ai_component: required field is missing; "
        "intervention: required field is missing (+2 more)"
    )


def test_canonical_output_shape(roomba):
    data = serialize_assessment(roomba)
    assert data.endswith(b"}\n")
    text = data.decode("utf-8")
    # Two-space indentation, fixed top-level key order, no suppressed defaults.
    assert text.splitlines()[1].startswith('  "schema_version"')
    order = [k for k in ("schema_version", "name", "ai_component", "intervention", "targets", "safety")]
    positions = [text.index(f'"{k}"') for k in order]
    assert positions == sorted(positions)
    assert '"projected"' not in text  # roomba projects no growth
    assert '"position"' not in text


def test_a_document_with_every_field_at_its_default_is_an_empty_object():
    assert canonical_json_bytes(MaxDamage()) == b"{}\n"


def test_the_schema_version_belongs_to_the_document_not_the_profile(roomba):
    parts = dict(intervention=roomba.intervention, targets=roomba.targets, safety=roomba.safety)
    with pytest.raises(TypeError):
        AssessmentProfile("Probe", "unit", **parts, schema_version=2)
    built = AssessmentProfile("Probe", "unit", **parts)
    data = serialize_assessment(built)
    assert parse_assessment(data) == built
    assert list(json.loads(data).items())[0] == ("schema_version", 1)


def test_integer_literal_over_the_digit_limit_is_a_syntax_error(roomba_doc):
    text = dump(roomba_doc).replace('"observability": 3', '"observability": 1' + "0" * 4300, 1)
    (err,) = parse_errors(text)
    assert (err.kind, err.path, err.message) == (ErrorKind.SYNTAX, "", "a number has too many digits")


def test_huge_integer_amounts_are_kept_exactly(roomba_doc):
    roomba_doc["targets"][0]["max_damage"] = {"monetary_usd": 10**399, "lives_at_risk": 10**399}
    profile = parse_assessment(dump(roomba_doc))
    assert profile.targets[0].max_damage.monetary_usd == 10**399
    assert parse_assessment(serialize_assessment(profile)) == profile
    for fmt in ("text", "markdown", "machine"):
        render_report(build_report(profile), fmt)


@pytest.mark.parametrize("axis", ["gap", "energy"])
def test_position_overflowing_a_float_is_not_finite(roomba_doc, axis):
    roomba_doc["targets"][1]["position"] = {"gap": 0.5, "energy": 0.5, axis: 10**399}
    errors = [(e.kind, e.path, e.message) for e in parse_errors(dump(roomba_doc))]
    assert errors == [(ErrorKind.TYPE_MISMATCH, f"targets[1].position.{axis}", "must be a finite number")]


@pytest.mark.parametrize(
    "path", ["name", "ai_component", "targets[0].name", "targets[1].max_damage.notes"]
)
def test_lone_surrogates_are_rejected_where_they_would_be_written(roomba_doc, path):
    node, key = locate(roomba_doc, path)
    node[key] = "ok \ud800 not"
    data = json.dumps(roomba_doc).encode("ascii")
    for validate in (True, False):
        errors = [(e.kind, e.path, e.message) for e in parse_errors(data, validate=validate)]
        assert errors == [(ErrorKind.TYPE_MISMATCH, path, "must not contain a lone surrogate")]
    # Paired surrogates are one ordinary character.
    node[key] = "ok \U0001f600"
    written = serialize_assessment(parse_assessment(json.dumps(roomba_doc).encode("ascii")))
    assert "ok \U0001f600" in written.decode("utf-8")


@pytest.mark.parametrize("path", ["name", "targets[1].name"])
@pytest.mark.parametrize("control", ["\n", "\r", "\t", "\x00", "\x1b[2J", "\x7f"])
def test_the_names_the_reports_print_refuse_control_characters(roomba_doc, path, control):
    node, key = locate(roomba_doc, path)
    node[key] = f"Robot{control}| x |"
    for validate in (True, False):
        errors = [(e.kind, e.path, e.message) for e in parse_errors(dump(roomba_doc), validate=validate)]
        assert errors == [(ErrorKind.TYPE_MISMATCH, path, "must not contain control characters")]


def test_other_text_and_other_unprintable_characters_are_kept(roomba_doc):
    """Only the two printed names refuse C0 controls and DEL; the component
    and the notes keep them, and a name keeps what is unprintable but no
    C0 control, such as a line separator or a C1 control."""
    roomba_doc["ai_component"] = "planner\n\x1b[2J"
    roomba_doc["targets"][0]["max_damage"]["notes"] = "line one\nline two"
    roomba_doc["targets"][1]["name"] = "Floor\u2028\x85\u00a0"
    profile = parse_assessment(dump(roomba_doc))
    assert profile.ai_component == "planner\n\x1b[2J"
    assert profile.targets[1].name == "Floor\u2028\x85\u00a0"


def test_deeply_nested_input_does_not_crash():
    errors = parse_errors(b"[" * 200_000)
    assert errors[0].kind is ErrorKind.SYNTAX


def json_dumps_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False) + "\n").encode("utf-8")


def test_canonical_bytes_equal_json_dumps(roomba, hal9000, tay):
    rng = random.Random(505)
    objs = []
    for _ in range(300):
        written = serialize_assessment(random_profile(rng))
        objs.append(json.loads(written))
        assert written == json_dumps_bytes(objs[-1])
    objs += [json.loads(render_report(build_report(p), "machine")) for p in (roomba, hal9000, tay)]
    objs.append(
        {
            "": "empty key",
            "empty": [{}, [], [[]], {"a": {}}],
            "scalars": [None, True, False, 0, -1, 10**30, 0.1, -2.5e-7, 1e22, 1.0, 123456789.125],
            "text": 'quote " backslash \\ tab \t newline \n control \x01 \x7f é 漢 😀',
            "enum": RuleId.R1,
            "tuple": (1, "two"),
        }
    )
    objs.append({1: "int key", 2.5: "float key", None: "null key", True: "bool key"})
    for obj in objs:
        assert canonical_json_bytes(obj) == json_dumps_bytes(obj)


@pytest.mark.parametrize(
    "obj",
    [[object()], {(1, 2): 1}, {float("nan"): 1}, {"x": -float("inf")}],
    ids=["unknown-type", "tuple-key", "nan-key", "negative-infinity"],
)
def test_canonical_bytes_raise_what_json_dumps_raises(obj):
    with pytest.raises(Exception) as expected:
        json_dumps_bytes(obj)
    with pytest.raises(expected.type) as raised:
        canonical_json_bytes(obj)
    assert type(raised.value) is expected.type
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_canonical_bytes_refuse_non_finite_numbers(bad):
    with pytest.raises(ValueError):
        canonical_json_bytes({"x": [bad]})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_serializing_a_non_finite_amount_raises_value_error(roomba, bad):
    # validate_profile rejects both; the writer must too, even without it.
    target = dataclasses.replace(roomba.targets[0], max_damage=MaxDamage(monetary_usd=bad))
    with pytest.raises(ValueError, match="not JSON compliant"):
        serialize_assessment(dataclasses.replace(roomba, targets=(target,)))


def test_canonical_bytes_refuse_lone_surrogates():
    with pytest.raises(UnicodeEncodeError):
        canonical_json_bytes({"name": "\ud800"})


# -- every field's diagnostics, pinned one field at a time --

_TIME_DELAYS = "milliseconds, seconds, minutes, hours, days, weeks, months"
_INTERVALS = "minutes, hours, days, weeks, months"
_LEVELS = "low, medium, high"

# (path, kind, required); an enum's kind is its "must be one of" message.
DOCUMENT_FIELDS = [
    ("schema_version", "int", True),
    ("name", "str", True),
    ("ai_component", "str", True),
    ("intervention", "object", True),
    ("intervention.time_delay", f"must be one of: {_TIME_DELAYS}", True),
    ("intervention.observability", "int", True),
    ("intervention.attention", "object", True),
    ("intervention.attention.mode", "must be one of: periodic, intermittent", True),
    ("intervention.attention.checks_per_day", "int", False),
    ("intervention.attention.interval", f"must be one of: {_INTERVALS}", False),
    ("intervention.correctability", "int", True),
    ("intervention.can_take_offline", "bool", True),
    ("targets", "array", True),
    ("targets[0]", "object", True),
    ("targets[0].name", "str", True),
    ("targets[0].max_damage", "object", True),
    ("targets[0].max_damage.monetary_usd", "number", False),
    ("targets[0].max_damage.lives_at_risk", "int", False),
    ("targets[0].max_damage.reputational", "must be one of: none, minor, major", False),
    ("targets[0].max_damage.notes", "str", False),
    ("targets[0].coupling", "int", True),
    ("targets[0].interaction_complexity", "int", True),
    ("targets[0].energy_level", f"must be one of: {_LEVELS}", True),
    ("targets[0].knowledge_gap", f"must be one of: {_LEVELS}", True),
    ("targets[0].position", "object", False),
    ("targets[0].position.gap", "number", True),
    ("targets[0].position.energy", "number", True),
    ("targets[1]", "object", True),
    ("targets[1].name", "str", True),
    ("targets[1].max_damage.monetary_usd", "number", False),
    ("safety", "object", True),
] + [
    (f"safety.{dim}{leaf}", kind, required)
    for dim in ("autonomy", "goal_complexity", "escape_potential", "anthropomorphization")
    for leaf, kind, required in (("", "object", True), (".level", "int", True), (".projected", "int", False))
]

# Wrong-typed values for each kind, with the message each one earns.
WRONG_VALUES = {
    "int": [("3", "must be an integer"), (3.0, "must be an integer"), (True, "must be an integer"),
            (None, "must be an integer"), ([3], "must be an integer")],
    "str": [(3, "must be a string"), (None, "must be a string"), (False, "must be a string"),
            (["x"], "must be a string")],
    "bool": [(1, "must be true or false"), ("true", "must be true or false"), (None, "must be true or false")],
    "number": [("1", "must be a number"), (True, "must be a number"), (None, "must be a number"),
               ({}, "must be a number"), (float("nan"), "must be a finite number"),
               (float("-inf"), "must be a finite number")],
    "object": [(3, "must be an object"), ("x", "must be an object"), ([], "must be an object"),
               (None, "must be an object"), (True, "must be an object")],
    "array": [({}, "must be an array"), ("x", "must be an array"), (None, "must be an array"), (3, "must be an array")],
}


def every_field_document(roomba_doc) -> dict:
    """Roomba with every optional field present, so each one can be broken."""
    doc = roomba_doc
    doc["intervention"]["attention"]["checks_per_day"] = 2
    doc["targets"][0]["max_damage"].update(lives_at_risk=0, reputational="minor", notes="adversary")
    doc["targets"][0]["position"] = {"gap": 0.25, "energy": 0.75}
    for dim in doc["safety"].values():
        dim["projected"] = 1
    return doc


def locate(doc, path: str):
    """The container and key that a path such as targets[0].position.gap names."""
    keys: list = []
    for part in path.split("."):
        name, _, index = part.partition("[")
        keys.append(name)
        if index:
            keys.append(int(index[:-1]))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    return node, keys[-1]


def diagnostics(doc, **kwargs) -> list[tuple]:
    return [(e.kind, e.path, e.message) for e in parse_errors(json.dumps(doc), **kwargs)]


def test_every_field_reports_its_own_type_mismatch(roomba_doc):
    base = json.dumps(every_field_document(roomba_doc))
    for path, kind, _ in DOCUMENT_FIELDS:
        wrong = WRONG_VALUES.get(kind) or [(3, "must be a string"), (None, "must be a string"), ("bogus", kind)]
        for value, message in wrong:
            doc = json.loads(base)
            node, key = locate(doc, path)
            node[key] = value
            assert diagnostics(doc) == [(ErrorKind.TYPE_MISMATCH, path, message)], (path, value)


def test_every_required_field_reports_itself_missing(roomba_doc):
    base = json.dumps(every_field_document(roomba_doc))
    for path, _, required in DOCUMENT_FIELDS:
        if not required or path.endswith("]"):
            continue
        doc = json.loads(base)
        node, key = locate(doc, path)
        del node[key]
        assert diagnostics(doc) == [(ErrorKind.MISSING_FIELD, path, "required field is missing")], path


def test_diagnostics_come_in_document_order(roomba_doc):
    doc = every_field_document(roomba_doc)
    doc["zz_extra"] = 1
    expected = [(ErrorKind.UNKNOWN_FIELD, "zz_extra", "unknown field")]
    # DOCUMENT_FIELDS lists each object before its own fields, so an
    # object's unknown keys come before its fields' errors.
    for path, kind, _ in DOCUMENT_FIELDS:
        node, key = locate(doc, path)
        if kind == "object":
            node[key]["zz_extra"] = 1
            expected.append((ErrorKind.UNKNOWN_FIELD, f"{path}.zz_extra", "unknown field"))
        elif kind != "array":
            value, message = WRONG_VALUES.get(kind, [(0, "must be a string")])[0]
            node[key] = value
            expected.append((ErrorKind.TYPE_MISMATCH, path, message))
    assert diagnostics(doc, strict=True) == expected
    warnings = []
    errors = parse_errors(json.dumps(doc), warnings=warnings)
    assert [(e.kind, e.path, e.message) for e in errors] == [e for e in expected if e[0] is ErrorKind.TYPE_MISMATCH]
    assert warnings == []


def test_a_schema_attribute_the_type_does_not_take_fails_when_planned(monkeypatch):
    @dataclasses.dataclass(frozen=True)
    class Pair:
        left: int
        right: int

    fields = (("left", documents._int), (("right", "rihgt"), documents._int))
    monkeypatch.setitem(documents.SCHEMA, Pair, fields)
    with pytest.raises(TypeError, match="'rihgt' is not a constructor argument"):
        documents._plan(Pair)


def test_the_compare_step_reads_inlined_fields_and_passes_over_the_version(roomba):
    report = build_report(roomba)
    result = report.target_results[0]
    moved = dataclasses.replace(result, damage_party=dataclasses.replace(result.damage_party, party_degree=4))
    renamed = dataclasses.replace(report, profile_name="Other")
    out = []
    documents._expect(out, "targets[0]", moved, result)
    documents._expect(out, "report", renamed, report)
    assert [format_document_error(e) for e in out] == [
        "targets[0].party_degree: must be 2, the value the rules evaluate",
        'report.profile_name: must be "Roomba", the value the rules evaluate',
    ]
