"""Tests of the benchmark's reference and output checks.

Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import airisk  # noqa: E402

import docgen  # noqa: E402
import reference  # noqa: E402
from workloads import Assess, Ingest, Sweep, check_rendered  # noqa: E402


def _fixture(name: str) -> dict:
    return json.loads((ROOT / "fixtures" / f"{name}.json").read_text(encoding="utf-8"))


def test_reference_matches_the_hand_traced_examples():
    assert reference.evaluate(_fixture("roomba"))[0] == {"R1", "R3"}
    assert reference.evaluate(_fixture("hal9000"))[0] == {"R1", "R2", "R3", "R4", "R5", "R6", "R7"}
    assert reference.evaluate(_fixture("tay"))[0] == {"R1", "R3", "R5", "R6"}
    assert reference.evaluate(_fixture("hal9000"))[1] == (("H", "L2"), ("L", "M3"), ("H", "M4"))


def test_reference_table_cells_and_damage_bands():
    target = {"coupling": 5, "interaction_complexity": 5, "energy_level": "high", "knowledge_gap": "high"}
    assert (reference.accident_letter(target), reference.damage_party_code(target)) == ("C", "C4")
    target = {"coupling": 3, "interaction_complexity": 1, "energy_level": "low", "knowledge_gap": "medium"}
    assert (reference.accident_letter(target), reference.damage_party_code(target)) == ("L", "L2")
    assert reference.damage_class({"monetary_usd": 99}) == "negligible"
    assert reference.damage_class({"monetary_usd": 100}) == "minor"
    assert reference.damage_class({"reputational": "major"}) == "severe"
    assert reference.damage_class({"monetary_usd": 0, "lives_at_risk": 1}) == "catastrophic"
    assert reference.damage_class({"monetary_usd": 150}, (1_000, 10_000, 100_000, 1_000_000)) == "negligible"


def test_check_fails_on_a_planted_wrong_trigger_set():
    doc = _fixture("tay")
    rules, cells = reference.evaluate(doc)
    report = airisk.build_report(airisk.parse_assessment(json.dumps(doc)))
    for fmt in ("text", "markdown", "machine"):
        out = airisk.render_report(report, fmt)
        assert check_rendered(fmt, out, doc, rules, cells) == []
        planted = check_rendered(fmt, out, doc, rules | {"R2"}, cells)
        assert planted and "triggers" in planted[0]


def test_assess_check_fails_when_an_output_is_wrong():
    workload = Assess(seed=3, root=ROOT)
    op = workload.make_op(airisk)
    first = [op(item) for item in workload.items[:12]]
    workload.items = workload.items[:12]
    assert workload.check(first) == []
    report, _ = first[0]
    wrong = airisk.render_report(airisk.build_report(airisk.parse_assessment(json.dumps(_fixture("hal9000")))), "text")
    first[0] = (report, wrong)
    assert workload.check(first)


def test_sweep_check_agrees_with_the_program_on_one_base():
    workload = Sweep(seed=5, root=ROOT)
    workload.items = [item for item in workload.items if item.base == 0]
    op = workload.make_op(airisk)
    first = [op(item) for item in workload.items]
    assert workload.check(first) == []
    first[0] = first[0] + (airisk.RuleId.R7,) if airisk.RuleId.R7 not in first[0] else ()
    assert workload.check(first)


def test_ingest_verdicts_hold_except_for_the_known_faults():
    workload = Ingest(seed=7, root=ROOT)
    op = workload.make_op(airisk)
    first = []
    for item in workload.items:
        try:
            first.append(op(item))
        except Exception as e:  # the known faults, counted as failed by the benchmark
            assert item.verdict == docgen.FAULT, item.kind
            first.append(e)
    assert workload.check(first) == []
    assert sum(item.verdict == docgen.FAULT for item in workload.items) == 6
    planted = next(i for i, item in enumerate(workload.items) if item.verdict == docgen.ERROR)
    first[planted] = b"{}\n"
    assert workload.check(first)
