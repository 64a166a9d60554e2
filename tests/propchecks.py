"""Reusable property checks, parameterized by seed and volume.

test_properties runs these at small volumes for quick failure localization;
test_acceptance reruns them at full volume under a time budget.  All
randomness flows from the seed so any failure message reproduces the case.
"""

from __future__ import annotations

import json
import random

from airisk import (
    AssessmentDocumentError,
    CouplingCategory,
    EnergyLevel,
    InteractionCategory,
    KnowledgeGap,
    RuleId,
    accident_risk,
    damage_and_party,
    evaluate_rules,
    parse_assessment,
    serialize_assessment,
)
from airisk.tables import RISK_RANK
from genprofiles import (
    append_target,
    raise_observability,
    raise_one_safety_level,
    random_profile,
)


def check_table_monotonicity() -> None:
    """More coupling, complexity, energy, or gap never lowers a table result."""
    couplings = list(CouplingCategory)
    interactions = list(InteractionCategory)
    for a, b in zip(couplings, couplings[1:]):
        for interaction in interactions:
            assert RISK_RANK[accident_risk(a, interaction)] <= RISK_RANK[accident_risk(b, interaction)]
    for coupling in couplings:
        for a, b in zip(interactions, interactions[1:]):
            assert RISK_RANK[accident_risk(coupling, a)] <= RISK_RANK[accident_risk(coupling, b)]

    energies = list(EnergyLevel)
    gaps = list(KnowledgeGap)
    for a, b in zip(energies, energies[1:]):
        for gap in gaps:
            lo, hi = damage_and_party(a, gap), damage_and_party(b, gap)
            assert RISK_RANK[lo.damage] <= RISK_RANK[hi.damage]
            assert lo.party_degree <= hi.party_degree
    for energy in energies:
        for a, b in zip(gaps, gaps[1:]):
            lo, hi = damage_and_party(energy, a), damage_and_party(energy, b)
            assert RISK_RANK[lo.damage] <= RISK_RANK[hi.damage]
            assert lo.party_degree <= hi.party_degree


def _triggered(profile) -> set[RuleId]:
    return set(evaluate_rules(profile).triggered_rules())


def check_rule_monotonicity(seed: int, count: int) -> None:
    """Risk-increasing edits never retract findings; safety-increasing edits never add R1."""
    rng = random.Random(seed)
    for i in range(count):
        profile = random_profile(rng)
        base = _triggered(profile)

        grown = _triggered(raise_one_safety_level(rng, profile))
        for rule in (RuleId.R6, RuleId.R7):
            assert rule in grown or rule not in base, (
                f"raising a safety level removed {rule.value} (seed {seed}, case {i})"
            )

        watched = _triggered(raise_observability(profile))
        assert RuleId.R1 in base or RuleId.R1 not in watched, (
            f"raising observability added R1 (seed {seed}, case {i})"
        )

        widened = _triggered(append_target(rng, profile))
        for rule in (RuleId.R3, RuleId.R4, RuleId.R5):
            assert rule in widened or rule not in base, (
                f"appending a target removed {rule.value} (seed {seed}, case {i})"
            )


def check_round_trip(seed: int, count: int) -> None:
    """serialize -> parse is the identity, and the bytes are a fixed point."""
    rng = random.Random(seed)
    for i in range(count):
        profile = random_profile(rng)
        data = serialize_assessment(profile)
        reparsed = parse_assessment(data)
        assert reparsed == profile, f"round trip changed the profile (seed {seed}, case {i})"
        assert serialize_assessment(reparsed) == data, (
            f"canonical bytes not idempotent (seed {seed}, case {i})"
        )


def walk_document(node, path=()):
    """Every (path, node) of a JSON object tree, the root first, with keys and indices as path parts."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from walk_document(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from walk_document(value, path + (i,))


def edit_document(rng: random.Random, doc: dict) -> None:
    """One structural edit: delete a member, add a key, or replace a value."""
    path, node = rng.choice(list(walk_document(doc)))
    if path and rng.random() < 0.2:
        parent = doc
        for part in path[:-1]:
            parent = parent[part]
        del parent[path[-1]]
    elif isinstance(node, dict) and rng.random() < 0.3:
        node[rng.choice(("bogus", "//", "name", "level"))] = rng.choice((1, "x", None))
    elif path:
        parent = doc
        for part in path[:-1]:
            parent = parent[part]
        parent[path[-1]] = rng.choice(
            (None, True, 0, -1, 3, 10**400, 1.5, float("nan"), float("inf"), "", "x", "\ud800",
             "Medium", "Severe", "R1", "seconds", "days", [], {}, [1, "a"], {"level": 0}, [[[]]])
        )


def fuzz_document(rng: random.Random, profiles: list) -> bytes:
    """Assessment bytes from one of the profiles: the valid document, the
    document after one structural edit or with one integer moved, often out
    of its range, a truncation, or else random bytes."""
    data = serialize_assessment(rng.choice(profiles))
    roll = rng.random()
    if roll < 0.3:
        return data
    if roll < 0.7:
        doc = json.loads(data)
        if roll < 0.5:
            edit_document(rng, doc)
        else:
            *parents, last = rng.choice([path for path, node in walk_document(doc) if type(node) is int])
            node = doc
            for part in parents:
                node = node[part]
            node[last] = rng.choice((-1, 0, 1, 4, 6, 99))
        return json.dumps(doc, indent=2).encode("utf-8")
    if roll < 0.85:
        return data[: rng.randrange(len(data))]
    return rng.randbytes(rng.randrange(0, 64))


_PATHOLOGICAL = (
    b"",
    b"\x00",
    b"[" * 50_000,
    b'{"a":' * 20_000,
    b'"\\ud800"',
    b"1e400",
    b'{"schema_version": 1e999}',
)


def check_parser_totality(seed: int, count: int) -> None:
    """The parser either returns a profile or raises its own error type."""
    rng = random.Random(seed)
    canonical = serialize_assessment(random_profile(rng))

    def attempt(data: bytes, label: str) -> None:
        try:
            parse_assessment(data)
        except AssessmentDocumentError:
            pass
        except Exception as e:  # noqa: BLE001 - the point is that nothing else escapes
            raise AssertionError(f"parser crashed on {label} (seed {seed}): {e!r}") from e

    for i, data in enumerate(_PATHOLOGICAL):
        attempt(data, f"pathological case {i}")
    for i in range(count):
        roll = rng.random()
        if roll < 0.90:
            data = rng.randbytes(rng.randrange(0, 64))
        elif roll < 0.97:
            data = canonical[: rng.randrange(len(canonical))]
        else:
            flipped = bytearray(canonical)
            for _ in range(rng.randint(1, 4)):
                flipped[rng.randrange(len(flipped))] = rng.randrange(256)
            data = bytes(flipped)
        attempt(data, f"fuzz case {i}")
