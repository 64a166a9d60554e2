"""End-to-end acceptance checks.

One test per contract item, in order: exact table cells, the three shipped
case studies against frozen reports and expected trigger sets, the property
suites at full volume under a time budget, quadrant placement, the CLI
exit-code contract, and a package that needs nothing beyond the standard
library.  Run with -v for one pass/fail line per item.
"""

import ast
import re
import sys
import time

from airisk import (
    CouplingCategory,
    EnergyLevel,
    InteractionCategory,
    KnowledgeGap,
    RuleId,
    accident_risk,
    build_report,
    damage_and_party,
    quadrant,
    render_report,
)
from airisk.report import format_attention

from conftest import FIXTURES, PKG_ROOT, GOLDEN, run_cli, write_doc
from propchecks import (
    check_parser_totality,
    check_round_trip,
    check_rule_monotonicity,
    check_table_monotonicity,
)


def test_decision_table_cells_exhaustive():
    """Every cell of both 3x3 tables, against hand-checked matrices."""
    started = time.perf_counter()
    accident_expected = {
        ("High", "Linear"): "M", ("High", "Moderate"): "H", ("High", "Complex"): "C",
        ("Medium", "Linear"): "L", ("Medium", "Moderate"): "M", ("Medium", "Complex"): "H",
        ("Low", "Linear"): "L", ("Low", "Moderate"): "L", ("Low", "Complex"): "M",
    }
    for coupling in CouplingCategory:
        for interaction in InteractionCategory:
            assert accident_risk(coupling, interaction).letter == accident_expected[
                (coupling.value, interaction.value)
            ], f"accident cell {coupling.value}/{interaction.value}"

    damage_expected = {
        ("high", "low"): "H3", ("high", "medium"): "H3", ("high", "high"): "C4",
        ("medium", "low"): "M3", ("medium", "medium"): "M3", ("medium", "high"): "H4",
        ("low", "low"): "L2", ("low", "medium"): "L2", ("low", "high"): "M4",
    }
    for energy in EnergyLevel:
        for gap in KnowledgeGap:
            assert damage_and_party(energy, gap).code == damage_expected[
                (energy.value, gap.value)
            ], f"damage cell {energy.value}/{gap.value}"
    assert time.perf_counter() - started < 1.0


def test_roomba_assessment_golden(roomba):
    """Roomba: expected cells, trigger set {R1, R3}, byte-exact reports."""
    report = build_report(roomba)
    ind = report.intervention
    assert (ind.time_delay.value, ind.observability, format_attention(ind.attention), ind.correctability) == (
        "seconds", 3, "intermittent, weeks", 5
    )
    rows = [(r.name, r.max_damage_text, r.accident_risk.letter, r.damage_party.code) for r in report.target_results]
    assert rows == [
        ("Robot Movement", "$200", "M", "L2"),
        ("Cleanliness of Floor", "$0", "L", "L2"),
    ]
    assert set(report.rule_findings.triggered_rules()) == {RuleId.R1, RuleId.R3}
    assert render_report(report, "text") == (GOLDEN / "roomba.txt").read_bytes()
    assert render_report(report, "markdown") == (GOLDEN / "roomba.md").read_bytes()
    assert render_report(report, "machine") == (GOLDEN / "roomba.json").read_bytes()


def test_hal9000_assessment_full_trigger_set(hal9000):
    """HAL-9000: expected cells and all seven rules firing.

    Hand trace of each predicate against the fixture:
      R1: delay milliseconds is sub-minute; observability 1 <= 2 (and the
          intermittent weeks gap >= days); worst damage class catastrophic,
          so not trivial -> fires.
      R2: correctability 0 <= 2 and can_take_offline false -> fires.
      R3: Life support couples at 4 (High) with complexity 3 (Moderate) -> H;
          Social interactions 3 (Medium) x 5 (Complex) -> H; H >= M -> fires.
      R4: Navigation medium energy x low gap -> M3 (damage M >= M at party 3);
          Social interactions low x high -> M4 -> fires.
      R5: Life support and Navigation put 4 lives at risk -> catastrophic;
          Social interactions $5e9 >= $1e9 -> catastrophic; >= severe -> fires.
      R6: every dimension sits at level 2 >= 2 -> fires.
      R7: autonomy and goal complexity project to 3 -> fires.
    """
    report = build_report(hal9000)
    ind = report.intervention
    assert (ind.time_delay.value, ind.observability, format_attention(ind.attention), ind.correctability) == (
        "milliseconds", 1, "intermittent, weeks", 0
    )
    rows = [(r.name, r.max_damage_text, r.accident_risk.letter, r.damage_party.code) for r in report.target_results]
    assert rows == [
        ("Life support", "$10 billion + 4 lives", "H", "L2"),
        ("Navigation", "$10 billion + 4 lives", "L", "M3"),
        ("Social interactions", "$5 billion", "H", "M4"),
    ]
    assert set(report.rule_findings.triggered_rules()) == set(RuleId)
    assert render_report(report, "text") == (GOLDEN / "hal9000.txt").read_bytes()


def test_tay_assessment(tay):
    """Tay: expected cells and trigger set {R1, R3, R5, R6}."""
    report = build_report(tay)
    ind = report.intervention
    assert (ind.time_delay.value, ind.observability, format_attention(ind.attention), ind.correctability) == (
        "seconds", 1, "minutes", 2
    )
    rows = [(r.name, r.max_damage_text, r.accident_risk.letter, r.damage_party.code) for r in report.target_results]
    assert rows == [("Tweet creation", "Reputation loss", "C", "L2")]
    assert set(report.rule_findings.triggered_rules()) == {
        RuleId.R1, RuleId.R3, RuleId.R5, RuleId.R6
    }
    assert render_report(report, "text") == (GOLDEN / "tay.txt").read_bytes()


def test_property_volume_under_time_budget():
    """Full-volume property suites: tables, rules, round trip, fuzz; < 5 s."""
    started = time.perf_counter()
    check_table_monotonicity()
    check_rule_monotonicity(seed=1, count=10_000)
    check_round_trip(seed=2, count=2_000)
    check_parser_totality(seed=3, count=100_000)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"property suites took {elapsed:.2f}s"


def test_quadrant_assignments():
    """Anchor points, one representative per quadrant, and the tie-break."""
    cases = [
        (0.1, 0.9, 1),      # well-understood, high-energy (hydroelectric dams)
        (0.96, 0.96, 2),    # poorly understood at scale and high-energy (nuclear plants)
        (0.25, 0.75, 1),
        (0.75, 0.75, 2),
        (0.25, 0.25, 3),
        (0.75, 0.25, 4),
        (0.5, 0.5, 3),      # boundary values fall to the low side
    ]
    for gap, energy, expected in cases:
        assert quadrant(gap, energy) == expected, f"({gap}, {energy})"


def test_cli_exit_code_contract(tmp_path, roomba_doc):
    """Exit codes 0/1/2/3 with clean stdout/stderr separation."""
    ok = run_cli("assess", str(FIXTURES / "roomba.json"))
    assert ok.returncode == 0
    assert ok.stdout and not ok.stderr

    roomba_doc["safety"]["autonomy"]["level"] = 9
    invalid = run_cli("assess", str(write_doc(tmp_path / "invalid.json", roomba_doc)))
    assert invalid.returncode == 1
    assert invalid.stderr and not invalid.stdout

    corrupt_path = tmp_path / "corrupt.json"
    corrupt_path.write_bytes(b'{"schema_version": ')
    corrupt = run_cli("assess", str(corrupt_path))
    assert corrupt.returncode == 2
    assert corrupt.stderr and not corrupt.stdout

    missing = run_cli("assess", str(tmp_path / "absent.json"))
    assert missing.returncode == 3
    assert missing.stderr and not missing.stdout


def test_the_package_needs_only_the_standard_library():
    """Every absolute import in the package names a standard-library module,
    and the project declares no dependencies."""
    for path in sorted((PKG_ROOT / "src" / "airisk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, f"{path.name}: import {name}"
    pyproject = (PKG_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", pyproject, re.MULTILINE)
