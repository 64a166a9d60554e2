"""The inputs and hashes of the pinned digests, in a plain module.

test_rules and test_report assert each digest against its pinned value, and
samebytes.py computes both without pytest, so any local Python can be
checked against them.  Each digest is computed once per process.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random

from airisk import (
    DEFAULT_DAMAGE_THRESHOLDS,
    AssessmentDocumentError,
    DamageThresholds,
    build_report,
    evaluate_rules,
    parse_assessment,
    parse_machine_report,
    render_report,
    serialize_assessment,
)
from genprofiles import profile, random_profile
from propchecks import edit_document, mutated_report


def _sha256(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@functools.cache
def findings_digest() -> str:
    """Every finding, rationale included, over seeded generated profiles
    (every fourth with custom thresholds) and hand-made safety levels where
    R6 and R7 tie at a later dimension or a projection decides R7's
    "highest is"."""
    rng = random.Random(1313)
    cases = []
    for i in range(1000):
        thresholds = DamageThresholds(1, 2.5, 3, 4) if i % 4 == 0 else None
        cases.append((random_profile(rng), thresholds))
    for levels, projected in (
        ((0, 1, 1, 0), (None, None, None, None)),
        ((0, 0, 1, 1), (None, None, None, None)),
        ((1, 0, 2, 2), (None, 2, None, None)),
        ((1, 1, 0, 0), (None, None, 2, None)),
        ((0, 1, 0, 1), (2, None, 2, None)),
        ((2, 1, 2, 2), (None, 2, None, None)),
    ):
        cases.append((profile(levels=levels, projected=projected), None))
    lines = []
    for p, thresholds in cases:
        report = evaluate_rules(p, thresholds) if thresholds else evaluate_rules(p)
        for f in report.findings:
            lines.append(repr((f.rule.value, f.triggered, [m.value for m in f.measures], f.targets_involved, f.rationale)))
    return _sha256(lines)


@functools.cache
def readers_and_writers_digest() -> str:
    """The profile and machine-report bytes of seeded profiles (every fourth
    with custom thresholds), the machine reader's outcome on mutated
    reports, and the strict profile reader's diagnostics on edited profile
    documents."""
    rng = random.Random(1717)
    profiles = [random_profile(rng) for _ in range(300)]
    reports = []
    for i, p in enumerate(profiles):
        thresholds = DamageThresholds(1, 2.5, 3, 4) if i % 4 == 0 else DEFAULT_DAMAGE_THRESHOLDS
        reports.append(render_report(build_report(p, thresholds), "machine"))
    lines = [serialize_assessment(p).decode() for p in profiles] + [r.decode() for r in reports]
    for _ in range(2000):
        try:
            parse_machine_report(mutated_report(rng, profiles[:25], reports[:25]))
            lines.append("ok")
        except ValueError as e:
            lines.append(str(e))
    for _ in range(1000):
        doc = json.loads(serialize_assessment(rng.choice(profiles)))
        edit_document(rng, doc)
        try:
            parse_assessment(json.dumps(doc), strict=True)
            lines.append("ok")
        except AssessmentDocumentError as e:
            lines.append(repr([(d.kind.value, d.path, d.message, d.line) for d in e.errors]))
    return _sha256(lines)
