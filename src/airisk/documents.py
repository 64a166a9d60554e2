"""Reading and writing assessment documents and machine reports.

The on-disk format is a single UTF-8 JSON document whose fields mirror the
model types one for one; all enum values are lowercase strings.  ``SCHEMA``
lists every field of every type once, for both documents.  One read step,
``json.loads`` and then one decoder walk, serves ``parse_assessment`` and
``parse_machine_report``.  One canonical writer serves both documents and
raises json.dumps's own errors itself.  Its output has a fixed key order,
two-space indentation, a trailing newline, and no optional fields at their
default values, so equal profiles always produce identical bytes.

Object keys equal to ``//`` are annotations for human readers; parsers
skip them in both modes and the serializer never emits them.

Parsing never partially succeeds.  Every problem is a ``DocumentError``
(defined in ``model``, which ``validate_profile`` shares): the decoder's, then,
for a document that decodes, its invariant violations, all in one list.
``parse_assessment`` raises the full list and ``parse_machine_report`` the
first problem.  A machine report must also be one the engine could have
written: the decision pass rerun on its own fields, each target's damage
class and table cells included, must give its findings, and its calibration
must be the one the rules evaluate for its damage thresholds.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from operator import attrgetter
from typing import Any, Callable

from .model import (
    AssessmentProfile,
    AttentionInterval,
    AttentionMode,
    DocumentError,
    EnergyLevel,
    ErrorKind,
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
    _out_of_range,
    _validate_intervention,
    _validate_safety,
    _validate_targets,
    _violation,
    format_document_error,
    validate_profile,
)
from .rules import (
    Calibration,
    Finding,
    Measure,
    RiskReport,
    RuleDefinition,
    RuleId,
    RuleReport,
    TargetResult,
    _decide,
    _explain,
    _Facts,
    calibration_for,
)
from .tables import DamageClass, DamagePartyProfile, DamageThresholds, RiskLevel

COMMENT_KEY = "//"
SCHEMA_VERSION = 1

_MISSING = object()
_SYNTAX, _UNKNOWN_FIELD, _MISSING_FIELD, _TYPE_MISMATCH, _INVARIANT = ErrorKind  # bound once, as model.py explains


class AssessmentDocumentError(Exception):
    """Raised when document bytes cannot become a valid profile."""

    def __init__(self, errors: list[DocumentError]):
        self.errors = tuple(errors)

    def __str__(self) -> str:  # built only when shown: most rejections are never printed
        summary = "; ".join(map(format_document_error, self.errors[:3]))
        if len(self.errors) > 3:
            summary += f" (+{len(self.errors) - 3} more)"
        return summary


# -- the schema: each document type's fields in document order --
#
# An entry is (key, kind) for a required field or (key, kind, default) for
# an optional one.  A key names the attribute too, unless given as (key,
# attribute); (None, attribute) inlines the attribute's type, whose fields
# then sit in this object; (key, None) with kind _version is a schema_version
# the type does not store: written as SCHEMA_VERSION, and checked when read.
# Any other attribute must be a constructor argument.  A kind is a scalar
# decoder below, an enum, another document type, or [kind] for an array of
# that kind.  ``_plan`` walks each type's entry once, and that one plan
# serves the decoder, the writer and the machine reader's ``_expect``.

_LEVEL = object()  # default of ``projected``: the dimension's current level


class _Reject(Exception):
    """Raised by a scalar decoder; the walk records it at the field's path."""

    def __init__(self, message: str, kind: ErrorKind = _TYPE_MISMATCH):
        self.message = message
        self.kind = kind


# Type tests compare exact classes: json.loads makes no subclasses, and
# bool must not pass as int.

def _str(value: Any) -> str:
    if type(value) is not str:
        raise _Reject("must be a string")
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise _Reject("must not contain a lone surrogate") from None
    return value


_CONTROLS = frozenset(map(chr, [*range(32), 127]))  # C0 and DEL


def _name(value: Any) -> str:
    """A name the reports print: a string with no control character."""
    value = _str(value)
    if not value.isprintable() and not _CONTROLS.isdisjoint(value):  # one C call for most names
        raise _Reject("must not contain control characters")
    return value


def _int(value: Any) -> int:
    if type(value) is not int:
        raise _Reject("must be an integer")
    return value


def _bool(value: Any) -> bool:
    if type(value) is not bool:
        raise _Reject("must be true or false")
    return value


def _number(value: Any) -> int | float:
    """A number kept as written: integers stay integers."""
    if type(value) is int:
        return value
    if type(value) is not float:
        raise _Reject("must be a number")
    if not math.isfinite(value):
        raise _Reject("must be a finite number")
    return value


def _float(value: Any) -> float:
    try:
        return float(_number(value))
    except OverflowError:
        raise _Reject("must be a finite number") from None


def _version(value: Any) -> int:
    version = _int(value)
    if version == SCHEMA_VERSION:
        return version
    if version > SCHEMA_VERSION:
        message = (
            f"document version {version} is newer than this tool supports "
            f"(expected schema_version {SCHEMA_VERSION})"
        )
    else:
        message = f"unsupported schema_version {version} (expected {SCHEMA_VERSION})"
    raise _Reject(message, _INVARIANT)


SCHEMA: dict[type, tuple[tuple, ...]] = {
    HumanAttention: (
        ("mode", AttentionMode),
        ("checks_per_day", _int, None),
        ("interval", AttentionInterval, None),
    ),
    InterventionIndicators: (
        ("time_delay", TimeDelay),
        ("observability", _int),
        ("attention", HumanAttention),
        ("correctability", _int),
        ("can_take_offline", _bool),
    ),
    MaxDamage: (
        ("monetary_usd", _number, None),
        ("lives_at_risk", _int, None),
        ("reputational", Reputational, None),
        ("notes", _str, ""),
    ),
    Position: (("gap", _float), ("energy", _float)),
    TargetAssessment: (
        ("name", _name),
        ("max_damage", MaxDamage),
        ("coupling", _int),
        ("interaction_complexity", _int),
        ("energy_level", EnergyLevel),
        ("knowledge_gap", KnowledgeGap),
        ("position", Position, None),
    ),
    SafetyDimension: (("level", _int), ("projected", _int, _LEVEL)),
    SafetyProfile: (
        ("autonomy", SafetyDimension),
        ("goal_complexity", SafetyDimension),
        ("escape_potential", SafetyDimension),
        ("anthropomorphization", SafetyDimension),
    ),
    AssessmentProfile: (
        (("schema_version", None), _version),
        ("name", _name),
        ("ai_component", _str),
        ("intervention", InterventionIndicators),
        ("targets", [TargetAssessment]),
        ("safety", SafetyProfile),
    ),
    # The machine report.
    DamagePartyProfile: (("damage", RiskLevel), ("party_degree", _int)),
    TargetResult: (
        ("name", _str),
        (("max_damage", "max_damage_text"), _str),
        ("damage_class", DamageClass),
        ("accident_risk", RiskLevel),
        ((None, "damage_party"), DamagePartyProfile),
        ("quadrant", _int, None),
    ),
    Finding: (
        ("rule", RuleId),
        ("triggered", _bool),
        ("measures", [Measure], ()),
        (("targets", "targets_involved"), [_str], ()),
        ("rationale", _str),
    ),
    RuleReport: (("findings", [Finding]),),
    DamageThresholds: (
        ("minor", _number),
        ("major", _number),
        ("severe", _number),
        ("catastrophic", _number),
    ),
    Calibration: (
        ("very_small_time_delays", [TimeDelay]),
        ("poor_observability_max", _int),
        ("poor_attention_min", AttentionInterval),
        ("low_correctability_max", _int),
        ("accident_risk_min", RiskLevel),
        ("significant_damage_min", RiskLevel),
        ("significant_party_min", _int),
        ("high_damage_min", DamageClass),
        ("safety_review_level", _int),
        ("safety_critical_level", _int),
        ("damage_thresholds", DamageThresholds),
        ("quadrant_convention", _str),
    ),
    RiskReport: (
        (("schema_version", None), _version),
        ("profile_name", _str),
        ("intervention", InterventionIndicators),
        (("targets", "target_results"), [TargetResult]),
        ("safety", SafetyProfile),
        ((None, "rule_findings"), RuleReport),
        ("calibration", Calibration),
    ),
    # The rule catalog of ``airisk rules --format machine``.
    RuleDefinition: (
        ("id", RuleId),
        ("text", _str),
        ("condition", _str),
        ("measures", [Measure]),
    ),
}


def _enum_decoder(enum_cls: type[Enum]) -> Callable[[Any], Enum]:
    members = {member.value: member for member in enum_cls}
    choices = "must be one of: " + ", ".join(members)

    def decode(value: Any) -> Enum:
        if type(value) is not str:
            raise _Reject("must be a string")
        member = members.get(value)
        if member is None:
            raise _Reject(choices)
        return member

    return decode


# How the decoder reads each field's value: one scalar, one object, an
# array of objects, or an array of scalars.  In the plans below, a default
# of _MISSING marks a required field.
_SCALAR, _OBJECT, _ARRAY, _SCALARS = range(4)


def _plan(cls: type) -> tuple[frozenset, tuple, tuple, Callable[..., Any], tuple]:
    """The one plan for cls that the decoder, the writer and ``_expect`` read,
    from one walk of SCHEMA[cls] with inlined types spliced in: the allowed
    keys; the decoder's steps (key, shape, reader, default); the writer's
    steps (key text, getter, default, writer); what the decoder builds cls
    with from the fields by key, which is cls itself unless the schema
    renames, inlines or writes a version cls does not store; and the fields
    as (key, attribute path), with a path of None for such a version."""
    takes = cls.__init__.__annotations__  # the parameters; inspect.signature costs ms of import time
    fields, reads, named, inline = [], [], [], []
    for key, kind, *default in SCHEMA[cls]:
        key, attr = key if isinstance(key, tuple) else (key, key)
        if attr is None and kind is _version:
            pass  # a version cls does not store: read and written, never built
        elif attr not in takes:
            raise TypeError(f"SCHEMA[{cls.__name__}]: {attr!r} is not a constructor argument")
        elif key is None:
            _, inner_reads, _, build, inner_fields = _plan(kind)
            fields += [(k, f"{attr}.{path}") for k, path in inner_fields]
            reads += inner_reads
            inline.append((attr, build, [k for k, _ in inner_fields]))
            continue
        else:
            named.append((key, attr))
        array = isinstance(kind, list)
        kind = kind[0] if array else kind
        if kind in SCHEMA:
            shape = _ARRAY if array else _OBJECT
        else:
            shape = _SCALARS if array else _SCALAR
            if isinstance(kind, type):
                kind = _enum_decoder(kind)
        fields.append((key, attr))
        reads.append((key, shape, kind, default[0] if default else _MISSING))
    writes = tuple(
        (
            _encode_str(key) + ": ",
            attrgetter(path) if path else (lambda obj: SCHEMA_VERSION),
            default,
            _write_document if shape == _OBJECT else _dump,
        )
        for (key, path), (_, shape, _, default) in zip(fields, reads)
    )

    def make(**values: Any) -> Any:
        kwargs = {attr: values[key] for key, attr in named}
        for attr, build, keys in inline:
            kwargs[attr] = build(**{k: values[k] for k in keys})
        return cls(**kwargs)

    if len(named) == len(SCHEMA[cls]) and all(key == attr for key, attr in named):
        make = cls
    return frozenset(key for key, _ in fields) | {COMMENT_KEY}, tuple(reads), writes, make, tuple(fields)


def _join(prefix: str, key: str) -> str:
    return f"{prefix}.{key}" if prefix else key


class _Decoder:
    """Accumulates errors and warnings while walking the document tree."""

    def __init__(self, strict: bool):
        self.strict = strict
        self.errors: list[DocumentError] = []
        self.warnings: list[DocumentError] = []

    def error(self, kind: ErrorKind, path: str, message: str) -> None:
        self.errors.append(DocumentError(kind, path, message))

    def decode(self, cls: type, obj: Any, path: str) -> Any:
        """The ``cls`` that ``obj`` describes, or None after recording why not."""
        if not isinstance(obj, dict):
            message = "must be an object" if path else "document must be a JSON object"
            self.error(_TYPE_MISMATCH, path or "$", message)
            return None
        allowed, steps, _, make, _ = _PLANS[cls]
        if not obj.keys() <= allowed:
            unknown = self.errors if self.strict else self.warnings
            for key in obj:
                if key not in allowed:
                    unknown.append(DocumentError(_UNKNOWN_FIELD, _join(path, key), "unknown field"))
        errors_before = len(self.errors)
        values = {}
        for key, shape, kind, default in steps:
            value = obj.get(key, _MISSING)
            if value is _MISSING:
                if default is _MISSING:
                    self.error(_MISSING_FIELD, _join(path, key), "required field is missing")
                elif default is not _LEVEL:  # SafetyDimension copies the level itself
                    values[key] = default
            elif shape == _SCALAR:
                try:
                    values[key] = kind(value)
                except _Reject as e:
                    self.error(e.kind, _join(path, key), e.message)
            elif shape == _OBJECT:
                values[key] = self.decode(kind, value, _join(path, key))
            elif type(value) is not list:
                self.error(_TYPE_MISMATCH, _join(path, key), "must be an array")
            elif shape == _ARRAY:
                prefix = _join(path, key)
                values[key] = tuple([self.decode(kind, el, f"{prefix}[{i}]") for i, el in enumerate(value)])
            else:
                prefix, items = _join(path, key), []
                for i, el in enumerate(value):
                    try:
                        items.append(kind(el))
                    except _Reject as e:
                        self.error(e.kind, f"{prefix}[{i}]", e.message)
                values[key] = tuple(items)
        if len(self.errors) != errors_before:
            return None
        try:
            return make(**values)
        except ValueError as e:  # a type's own check, such as DamageThresholds' order
            self.error(_INVARIANT, path or "$", str(e))
            return None


def _load_json(data: bytes | str, dec: _Decoder) -> Any:
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            dec.error(_SYNTAX, "", f"not valid UTF-8 ({e.reason} at byte {e.start})")
            return None
    else:
        text = data
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        dec.errors.append(DocumentError(_SYNTAX, "", e.msg, e.lineno))
    except ValueError:  # an integer literal longer than int_max_str_digits
        dec.error(_SYNTAX, "", "a number has too many digits")
    except RecursionError:
        dec.error(_SYNTAX, "", "document nesting is too deep")
    return None


def _read(cls: type, data: bytes | str, strict: bool) -> tuple[Any, _Decoder]:
    """The read step of both documents: bytes to JSON to ``cls``, or to None after errors."""
    dec = _Decoder(strict)
    obj = _load_json(data, dec)
    return (None if dec.errors else dec.decode(cls, obj, "")), dec


def parse_assessment(
    data: bytes | str,
    *,
    strict: bool = False,
    validate: bool = True,
    warnings: list[DocumentError] | None = None,
) -> AssessmentProfile:
    """Decode an assessment document.

    Args:
        data: document bytes or text.
        strict: treat unknown fields as errors instead of warnings.
        validate: also enforce profile invariants (range checks, required
            combinations); disable to inspect structurally sound but
            invalid documents.
        warnings: optional list that collects non-strict warnings.

    Returns:
        The decoded profile.

    Raises:
        AssessmentDocumentError: carrying every DocumentError found.
    """
    profile, dec = _read(AssessmentProfile, data, strict)
    if warnings is not None and not dec.errors:
        warnings.extend(dec.warnings)
    errors = dec.errors or (validate_profile(profile) if validate else [])
    if errors:
        raise AssessmentDocumentError(errors)
    return profile


def parse_machine_report(data: bytes | str) -> RiskReport:
    """Rebuild a RiskReport from machine-format bytes or text.

    ValueError names the first problem and its path: bytes that are not JSON,
    a missing, unknown or wrong-typed field, a value outside its range, an
    empty target list or a repeated target name; then findings other than
    those the rules decide from the report's own fields, target cells and
    damage classes included, or a calibration the rules do not evaluate.
    """
    report, dec = _read(RiskReport, data, True)
    errors = dec.errors
    if report is not None:  # decoded; now its invariants, in document order
        _validate_intervention(errors, report.intervention)
        _validate_targets(errors, report.target_results, _check_target_result)
        _validate_safety(errors, report.safety)
    if not errors:  # decoded and in range, so the rules can read it
        results, cal = report.target_results, calibration_for(report.calibration.damage_thresholds)
        cells = [r.damage_class for r in results], [r.accident_risk for r in results], [r.damage_party for r in results]
        facts = _Facts(report, results, cal, *cells)  # the report's own cells: no table is looked up
        _expect(errors, "findings", report.rule_findings.findings, _explain(facts, _decide(facts)))
        _expect(errors, "calibration", report.calibration, cal)
    if errors:
        raise ValueError(f"not a machine report: {format_document_error(errors[0])}")
    return report


def _check_target_result(out: list[DocumentError], i: int, result: TargetResult) -> None:
    if not 1 <= result.damage_party.party_degree <= 4:
        out.append(_out_of_range(f"targets[{i}].party_degree", result.damage_party.party_degree, 1, 4))
    if result.quadrant is not None and not 1 <= result.quadrant <= 4:
        out.append(_out_of_range(f"targets[{i}].quadrant", result.quadrant, 1, 4))


def _expect(out: list[DocumentError], path: str, got: Any, want: Any) -> None:
    """Record where got first differs from want, the value the rules evaluate:
    a document type field by field as written, an array of documents or
    names item by item when the lengths agree, and any other value whole."""
    if got == want:
        return
    if type(want) in SCHEMA:
        _, _, writes, _, fields = _PLANS[type(want)]
        key, get = next((k, step[1]) for (k, _), step in zip(fields, writes) if step[1](got) != step[1](want))
        return _expect(out, f"{path}.{key}", get(got), get(want))
    if type(want) is tuple and len(got) == len(want) and not isinstance(want[0], Enum):
        i = next(i for i, item in enumerate(want) if got[i] != item)
        return _expect(out, f"{path}[{i}]", got[i], want[i])
    if type(want) is tuple and want and type(want[0]) in SCHEMA:
        message = f"must hold {len(want)} entries, the number the rules evaluate"
    else:
        message = f"must be {json.dumps(want, ensure_ascii=False)}, the value the rules evaluate"
    out.append(_violation(path, message))


_encode_str = json.encoder.encode_basestring
_INFINITY = float("inf")


def _dump(obj: Any, newline: str) -> str:
    # Type checks, key conversions and errors follow json's own encoder, so
    # subclasses (str and int enums) and refused values come out as json's do.
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj or obj == _INFINITY or obj == -_INFINITY:
            raise ValueError("Out of range float values are not JSON compliant: " + repr(obj))
        return float.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_dump(v, inner) for v in obj]) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                if key is not None and not isinstance(key, (int, float)):
                    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
                key = _dump(key, newline)
            items.append(_encode_str(key) + ": " + _dump(value, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if type(obj) in _PLANS:
        return _write_document(obj, newline)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _write_document(obj: Any, newline: str) -> str:
    # Optional fields are left out at their default, and ``projected``
    # when it equals ``level``.
    inner = newline + "  "
    items = []
    for key_text, get, default, write in _PLANS[type(obj)][2]:
        value = get(obj)
        if default is _MISSING or value != (obj.level if default is _LEVEL else default):
            items.append(key_text + write(value, inner))
    if not items:
        return "{}"
    return "{" + inner + ("," + inner).join(items) + newline + "}"


# One plan per document type, built once the writer it names exists.
_PLANS = {cls: _plan(cls) for cls in SCHEMA}


def canonical_json_bytes(obj: Any) -> bytes:
    """Serialize any JSON-ready structure in the canonical document style.

    Document types (a profile, a report, and each of their parts) are
    written as their document objects.  The bytes are identical to
    ``(json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False) + "\n")``
    encoded as UTF-8, and so are the errors, which this one writer raises
    itself: NaN and infinities raise ValueError, a key or value of any
    other type TypeError, and a lone surrogate UnicodeEncodeError.  Nesting
    deeper than the recursion limit raises RecursionError, as json.dumps
    with an indent does.
    """
    return (_dump(obj, "\n") + "\n").encode("utf-8")


def serialize_assessment(profile: AssessmentProfile) -> bytes:
    """Write a valid profile as canonical document bytes."""
    return canonical_json_bytes(profile)
