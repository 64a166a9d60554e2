"""Seeded assessment documents and the ingest workload's inputs.

Documents are plain JSON objects built in the documented key order with
optional fields left out at their defaults, so ``canonical_bytes`` of a
generated document is the form ``serialize_assessment`` must write back.
Every ingest input carries the verdict it was generated with.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass

DELAYS = ("milliseconds", "seconds", "minutes", "hours", "days", "weeks", "months")
INTERVALS = ("minutes", "hours", "days", "weeks", "months")
LEVELS = ("low", "medium", "high")
REPUTATIONAL = ("none", "minor", "major")
SAFETY_DIMENSIONS = ("autonomy", "goal_complexity", "escape_potential", "anthropomorphization")

# Amounts on both sides of each default damage-class cutoff, plus two non-integers.
MONETARY = (
    0, 50, 99, 100, 200, 5_000, 99_999, 100_000, 2_000_000, 9_999_999, 10_000_000,
    500_000_000, 1_000_000_000, 5_000_000_000, 10_000_000_000, 1234.5, 7_500_000.25,
)
TARGET_WORDS = (
    "Life support", "Navigation", "Tweet creation", "Floor cleaning", "Payments",
    "Zürich grid", "Paiement sécurisé", "Сеть доставки", "配送ルート", "Dosage pump",
)


def canonical_bytes(doc: dict) -> bytes:
    """The canonical document form: two-space indent, UTF-8, trailing newline."""
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _max_damage(rng: random.Random) -> dict:
    out = {}
    if rng.random() < 0.7:
        out["monetary_usd"] = rng.choice(MONETARY)
    if rng.random() < 0.25:
        out["lives_at_risk"] = rng.choice((0, 1, 4, 120))
    if rng.random() < 0.4:
        out["reputational"] = rng.choice(REPUTATIONAL)
    if not out:
        out["monetary_usd"] = rng.choice(MONETARY)
    if rng.random() < 0.3:
        out["notes"] = "adversary assumed to hold full control"
    return out


def make_target(rng: random.Random, index: int) -> dict:
    target = {
        "name": f"{rng.choice(TARGET_WORDS)} {index}",
        "max_damage": _max_damage(rng),
        "coupling": rng.randint(1, 5),
        "interaction_complexity": rng.randint(1, 5),
        "energy_level": rng.choice(LEVELS),
        "knowledge_gap": rng.choice(LEVELS),
    }
    if rng.random() < 0.3:
        target["position"] = {"gap": round(rng.uniform(0.001, 1), 3), "energy": round(rng.uniform(0.001, 1), 3)}
    return target


def make_document(rng: random.Random, n_targets: int) -> dict:
    """A valid document with n_targets targets, in canonical key order."""
    if rng.random() < 0.5:
        attention = {"mode": "periodic", "checks_per_day": rng.randint(1, 96)}
    else:
        attention = {"mode": "intermittent", "interval": rng.choice(INTERVALS)}
    safety = {}
    for name in SAFETY_DIMENSIONS:
        level = rng.randint(0, 3)
        dim = {"level": level}
        if rng.random() < 0.4:
            projected = rng.randint(level, 3)
            if projected != level:
                dim["projected"] = projected
        safety[name] = dim
    return {
        "schema_version": 1,
        "name": f"Generated system {rng.randrange(10**6)}",
        "ai_component": rng.choice(("planner", "controller", "classifier", "chat model")),
        "intervention": {
            "time_delay": rng.choice(DELAYS),
            "observability": rng.randint(0, 5),
            "attention": attention,
            "correctability": rng.randint(0, 5),
            "can_take_offline": rng.random() < 0.5,
        },
        "targets": [make_target(rng, i) for i in range(n_targets)],
        "safety": safety,
    }


def make_thresholds(rng: random.Random) -> tuple[float, float, float, float]:
    """Non-default, non-decreasing damage cutoffs (minor, major, severe, catastrophic)."""
    minor = float(rng.choice((10, 1_000, 50_000)))
    major = minor * rng.choice((10, 100, 1_000))
    severe = major * rng.choice((10, 100))
    return minor, major, severe, severe * rng.choice((10, 100))


# -- ingest inputs --

OK = "ok"
ERROR = "error"
FAULT = "fault"


@dataclass(frozen=True)
class IngestInput:
    """One ingest operation and the verdict decided when it was generated.

    verdict OK: ``expected`` is the canonical bytes serialize_assessment must write.
    verdict ERROR: ``expected`` is the (ErrorKind value, path) the error list must hold.
    verdict FAULT: a known fault; ``expected`` names it.
    """

    kind: str
    data: bytes
    strict: bool
    verdict: str
    expected: object


def _commented(doc: dict) -> dict:
    out = {"//": "generated for the ingest workload", **doc}
    out["intervention"] = {"//": "indicators", **doc["intervention"]}
    out["targets"] = [{"//": f"target {i}", **t} for i, t in enumerate(doc["targets"])]
    return out


def _reordered(rng: random.Random, obj):
    """Shuffle key order everywhere and spell out optional fields at their defaults."""
    if isinstance(obj, list):
        return [_reordered(rng, v) for v in obj]
    if not isinstance(obj, dict):
        return obj
    obj = dict(obj)
    if "level" in obj and "projected" not in obj:
        obj["projected"] = obj["level"]
    if "max_damage" in obj and "notes" not in obj["max_damage"]:
        obj["max_damage"] = {**obj["max_damage"], "notes": ""}
    keys = list(obj)
    rng.shuffle(keys)
    return {k: _reordered(rng, obj[k]) for k in keys}


def _with_unknown_fields(doc: dict) -> dict:
    out = copy.deepcopy(doc)
    out["owner"] = "risk office"
    out["targets"][0]["colour"] = "red"
    return out


def valid_input(rng: random.Random, doc: dict, style: str) -> IngestInput:
    expected = canonical_bytes(doc)
    if style == "canonical":
        return IngestInput("valid-canonical", expected, True, OK, expected)
    if style == "commented":
        data = json.dumps(_commented(doc), indent=2, ensure_ascii=False).encode("utf-8")
        return IngestInput("valid-commented", data, True, OK, expected)
    if style == "reordered":
        data = json.dumps(_reordered(rng, doc), ensure_ascii=True).encode("utf-8")
        return IngestInput("valid-reordered", data, True, OK, expected)
    data = json.dumps(_with_unknown_fields(doc), indent=1, ensure_ascii=False).encode("utf-8")
    return IngestInput("valid-unknown-fields", data, False, OK, expected)


def _break_invariant(rng: random.Random, doc: dict) -> tuple[str, str]:
    """Break exactly one invariant of a valid document in place; return (kind, path)."""
    ind = doc["intervention"]
    targets = doc["targets"]
    i = rng.randrange(len(targets))
    t = targets[i]
    choice = rng.randrange(11)
    if choice == 0:
        ind["observability"] = rng.choice((-1, 6, 9))
        return "invariant_violation", "intervention.observability"
    if choice == 1:
        ind["correctability"] = rng.choice((-2, 6))
        return "invariant_violation", "intervention.correctability"
    if choice == 2:
        t["coupling"] = rng.choice((0, 6))
        return "invariant_violation", f"targets[{i}].coupling"
    if choice == 3:
        t["interaction_complexity"] = rng.choice((0, 7))
        return "invariant_violation", f"targets[{i}].interaction_complexity"
    if choice == 4:
        name = rng.choice(SAFETY_DIMENSIONS)
        doc["safety"][name] = {"level": 4}
        return "invariant_violation", f"safety.{name}.level"
    if choice == 5:
        name = rng.choice(SAFETY_DIMENSIONS)
        doc["safety"][name] = {"level": 2, "projected": 1}
        return "invariant_violation", f"safety.{name}.projected"
    if choice == 6 and len(targets) > 1:
        targets[-1]["name"] = targets[0]["name"]
        return "invariant_violation", f"targets[{len(targets) - 1}].name"
    if choice == 7:
        ind["attention"] = {"mode": "periodic"}
        return "invariant_violation", "intervention.attention.checks_per_day"
    if choice == 8:
        t["max_damage"] = {"notes": "no estimate yet"}
        return "invariant_violation", f"targets[{i}].max_damage"
    if choice == 9:
        t["max_damage"] = {"monetary_usd": -5}
        return "invariant_violation", f"targets[{i}].max_damage.monetary_usd"
    t["position"] = {"gap": 1.5, "energy": 0.25}
    return "invariant_violation", f"targets[{i}].position.gap"


def _missing_field(rng: random.Random, doc: dict) -> tuple[str, str]:
    i = rng.randrange(len(doc["targets"]))
    choice = rng.randrange(5)
    if choice == 0:
        del doc["ai_component"]
        return "missing_field", "ai_component"
    if choice == 1:
        del doc["intervention"]["correctability"]
        return "missing_field", "intervention.correctability"
    if choice == 2:
        del doc["targets"][i]["energy_level"]
        return "missing_field", f"targets[{i}].energy_level"
    if choice == 3:
        del doc["safety"]["escape_potential"]["level"]
        return "missing_field", "safety.escape_potential.level"
    del doc["intervention"]["attention"]["mode"]
    return "missing_field", "intervention.attention.mode"


def _wrong_type(rng: random.Random, doc: dict) -> tuple[str, str]:
    i = rng.randrange(len(doc["targets"]))
    choice = rng.randrange(5)
    if choice == 0:
        doc["intervention"]["observability"] = str(doc["intervention"]["observability"])
        return "type_mismatch", "intervention.observability"
    if choice == 1:
        doc["intervention"]["can_take_offline"] = 1
        return "type_mismatch", "intervention.can_take_offline"
    if choice == 2:
        doc["targets"][i]["coupling"] = 2.5
        return "type_mismatch", f"targets[{i}].coupling"
    if choice == 3:
        doc["targets"][i]["knowledge_gap"] = "extreme"
        return "type_mismatch", f"targets[{i}].knowledge_gap"
    doc["targets"][i]["max_damage"]["monetary_usd"] = "$5"
    return "type_mismatch", f"targets[{i}].max_damage.monetary_usd"


def _unknown_field(rng: random.Random, doc: dict) -> tuple[str, str]:
    i = rng.randrange(len(doc["targets"]))
    if rng.random() < 0.5:
        doc["targets"][i]["colour"] = "red"
        return "unknown_field", f"targets[{i}].colour"
    doc["intervention"]["latency_ms"] = 5
    return "unknown_field", "intervention.latency_ms"


def broken_input(rng: random.Random, doc: dict, kind: str) -> IngestInput:
    """A document that must be rejected, with the error kind and path it injects."""
    doc = copy.deepcopy(doc)
    if kind == "truncated":
        text = canonical_bytes(doc)
        cut = rng.randrange(1, text.rindex(b"}"))
        return IngestInput(kind, text[:cut], False, ERROR, ("syntax", ""))
    strict = kind == "unknown-field-strict"
    mutate = {
        "invariant": _break_invariant,
        "missing-field": _missing_field,
        "wrong-type": _wrong_type,
        "unknown-field-strict": _unknown_field,
    }[kind]
    expected = mutate(rng, doc)
    return IngestInput(kind, canonical_bytes(doc), strict, ERROR, expected)


def known_fault_inputs() -> list[IngestInput]:
    """The three known parser faults, on fixed inputs that no seed changes.

    Each fails today: a 4301-digit integer makes json.loads raise ValueError,
    a 400-digit monetary_usd makes math.isfinite raise OverflowError, and a
    lone surrogate in a name is accepted but cannot be serialized.
    """
    base = make_document(random.Random("known-faults"), 2)
    text = canonical_bytes(base).decode("utf-8")
    observability = f'"observability": {base["intervention"]["observability"]}'
    huge_literal = text.replace(observability, '"observability": 1' + "0" * 4300, 1)
    doc = copy.deepcopy(base)
    doc["targets"][0]["max_damage"] = {"monetary_usd": 10**399}
    huge_amount = canonical_bytes(doc)
    doc = copy.deepcopy(base)
    doc["targets"][1]["name"] = "\ud800"
    surrogate = json.dumps(doc, indent=2).encode("ascii")
    return [
        IngestInput("fault-int-digits", huge_literal.encode("utf-8"), False, FAULT, "int_max_str_digits"),
        IngestInput("fault-huge-number", huge_amount, False, FAULT, "overflow"),
        IngestInput("fault-lone-surrogate", surrogate, False, FAULT, "surrogate"),
    ]


# The make-up of one ingest round, in input counts, with the target counts
# of the documents behind each kind, used in turn.  Valid documents have 1,
# 4 and 16 targets in the ratio 1:4:1; broken ones have 1 or 16 (truncated
# ones 4).  The valid 4-target documents, the largest group, then hold the
# median operation, with cheaper and dearer operations on either side.
VALID_STYLES = {"canonical": 36, "commented": 28, "reordered": 28, "unknown-fields": 28}
VALID_TARGETS = (1, 4, 4, 4, 4, 16)
BROKEN_KINDS = {"invariant": 36, "truncated": 10, "missing-field": 10, "wrong-type": 10, "unknown-field-strict": 10}
BROKEN_TARGETS = {"truncated": (4,)}


def ingest_inputs(seed: int) -> list[IngestInput]:
    """One round of ingest inputs: 120 valid, 76 broken, and each known fault twice (202)."""
    rng = random.Random(f"ingest:{seed}")
    inputs = []
    n = 0
    for style, count in VALID_STYLES.items():
        for _ in range(count):
            doc = make_document(rng, VALID_TARGETS[n % len(VALID_TARGETS)])
            inputs.append(valid_input(rng, doc, style))
            n += 1
    for kind, count in BROKEN_KINDS.items():
        sizes = BROKEN_TARGETS.get(kind, (1, 16))
        for i in range(count):
            doc = make_document(rng, sizes[i % len(sizes)])
            inputs.append(broken_input(rng, doc, kind))
    rng.shuffle(inputs)
    faults = known_fault_inputs()
    # Fixed slots, so the faults sit at the same places in every round.
    for k, slot in enumerate((20, 55, 90, 125, 160, 195)):
        inputs.insert(slot, faults[k % len(faults)])
    return inputs
