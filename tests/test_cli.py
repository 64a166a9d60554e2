"""Black-box CLI checks: exit codes, stream separation, file handling.

Every test here drives the installed entry point in a subprocess; nothing
reaches into the implementation.
"""

import json

import pytest

from airisk import accident_risk, damage_and_party

from conftest import BROKEN_HAL_VIOLATIONS, FIXTURES, GOLDEN, run_cli, write_doc


def test_assess_matches_the_frozen_reports():
    for name in ("roomba", "hal9000", "tay"):
        path = FIXTURES / f"{name}.json"
        before = path.read_bytes()
        result = run_cli("assess", str(path))
        assert result.returncode == 0
        assert result.stdout == (GOLDEN / f"{name}.txt").read_bytes()
        assert result.stderr == b""
        assert path.read_bytes() == before  # assessing never touches the input


def test_assess_markdown_and_machine_match_goldens():
    for fmt, suffix in (("markdown", "md"), ("machine", "json")):
        result = run_cli("assess", str(FIXTURES / "roomba.json"), "--format", fmt)
        assert result.returncode == 0
        assert result.stdout == (GOLDEN / f"roomba.{suffix}").read_bytes()


@pytest.mark.parametrize(
    "args,golden",
    [
        (("rules", "--format", "machine"), "rules.json"),
        (("tables", "--format", "machine"), "tables.json"),
        (("tables", "--format", "machine", "--damage-thresholds", "1,2,3,4"), "tables-1-2-3-4.json"),
        (("rules",), "rules.txt"),
        (("rules", "--format", "markdown"), "rules.md"),
        (("tables",), "tables.txt"),
        (("tables", "--format", "markdown"), "tables.md"),
    ],
)
def test_catalog_output_matches_goldens(args, golden):
    result = run_cli(*args)
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / golden).read_bytes()


def test_init_template_matches_golden(tmp_path):
    path = tmp_path / "new.json"
    assert run_cli("init", str(path)).returncode == 0
    assert path.read_bytes() == (GOLDEN / "init.json").read_bytes()


def test_validate_passes_silently_on_good_documents():
    result = run_cli("validate", str(FIXTURES / "roomba.json"))
    assert result.returncode == 0
    assert result.stdout == b""
    assert result.stderr == b""


def test_validate_reports_each_violation(tmp_path, roomba_doc):
    roomba_doc["intervention"]["observability"] = 9
    roomba_doc["safety"]["autonomy"]["level"] = 7
    path = write_doc(tmp_path / "bad.json", roomba_doc)
    result = run_cli("validate", str(path))
    assert result.returncode == 1
    assert result.stdout == b""
    stderr = result.stderr.decode("utf-8")
    assert "intervention.observability" in stderr
    assert "safety.autonomy.level" in stderr
    # Level 7 also drags the normalized projection out of range: three
    # violations, one diagnostic line each.
    assert "safety.autonomy.projected" in stderr
    assert len(stderr.splitlines()) == 3


def test_diagnostics_are_pinned_byte_for_byte(tmp_path, broken_hal_doc):
    path = write_doc(tmp_path / "bad.json", broken_hal_doc)
    unknown = f"{path}: zz_extra: unknown field\n".encode("utf-8")
    lines = ["warning: zz_extra: unknown field", *BROKEN_HAL_VIOLATIONS]
    relaxed = "".join(f"{path}: {line}\n" for line in lines).encode("utf-8")
    for command, flags, status, stderr in (
        ("validate", (), 2, unknown),
        ("validate", ("--no-strict",), 1, relaxed),
        ("assess", (), 1, relaxed),
        ("assess", ("--strict",), 2, unknown),
    ):
        result = run_cli(command, str(path), *flags)
        assert (result.returncode, result.stdout, result.stderr) == (status, b"", stderr), (command, flags)


def test_assess_refuses_invalid_profiles(tmp_path, roomba_doc):
    roomba_doc["targets"] = []
    path = write_doc(tmp_path / "empty.json", roomba_doc)
    result = run_cli("assess", str(path))
    assert result.returncode == 1
    assert result.stdout == b""
    assert b"at least one target" in result.stderr


def test_corrupt_documents_exit_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_bytes(b'{"schema_version": 1,,}')
    for command in ("validate", "assess"):
        result = run_cli(command, str(path))
        assert result.returncode == 2
        assert result.stdout == b""
        assert b"line 1" in result.stderr


@pytest.mark.parametrize(
    "old, new, status",
    [
        ('"observability": 3', '"observability": 1' + "0" * 4300, 2),
        ('"coupling": 3,', '"coupling": 3, "position": {"gap": 1' + "0" * 399 + ', "energy": 0.5},', 2),
        ('"name": "Roomba"', '"name": "\\ud800"', 2),
        ('"monetary_usd": 200', '"monetary_usd": 1' + "0" * 399, 0),
    ],
    ids=["long-integer", "overflowing-position", "lone-surrogate", "huge-amount"],
)
def test_oversized_numbers_and_lone_surrogates_fail_cleanly(tmp_path, old, new, status):
    text = (FIXTURES / "roomba.json").read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / "edge.json"
    path.write_text(text.replace(old, new, 1), encoding="ascii")
    for command in ("validate", "assess"):
        result = run_cli(command, str(path))
        assert result.returncode == status, result.stderr
        assert b"Traceback" not in result.stderr


def test_missing_paths_exit_three(tmp_path):
    result = run_cli("assess", str(tmp_path / "nope.json"))
    assert result.returncode == 3
    assert result.stdout == b""
    assert b"cannot read" in result.stderr


def test_usage_errors_exit_four():
    for argv in ([], ["frobnicate"], ["assess"], ["assess", "x.json", "--format", "pdf"]):
        result = run_cli(*argv)
        assert result.returncode == 4, argv
        assert result.stdout == b""
        assert b"usage" in result.stderr.lower()


def test_bad_threshold_argument_is_a_usage_error():
    result = run_cli("assess", str(FIXTURES / "roomba.json"), "--damage-thresholds", "1,2,3")
    assert result.returncode == 4
    result = run_cli("assess", str(FIXTURES / "roomba.json"), "--damage-thresholds", "9,2,3,4")
    assert result.returncode == 4
    assert b"non-decreasing" in result.stderr


@pytest.mark.parametrize("amount", ["inf", "1e400"])
def test_non_finite_thresholds_are_usage_errors(amount):
    thresholds = f"100,1e5,1e7,{amount}"
    for args in (
        ("assess", str(FIXTURES / "roomba.json"), "--format", "machine"),
        ("tables", "--format", "machine"),
        ("tables",),
    ):
        result = run_cli(*args, "--damage-thresholds", thresholds)
        assert result.returncode == 4, args
        assert result.stdout == b""
        assert b"Traceback" not in result.stderr


def test_threshold_override_changes_the_report():
    result = run_cli(
        "assess", str(FIXTURES / "roomba.json"), "--damage-thresholds", "1,50,100,1000"
    )
    assert result.returncode == 0
    out = result.stdout.decode("utf-8")
    assert "[X] R5 triggered" in out  # $200 clears the lowered severe band
    assert "severe at $100," in out


def test_out_writes_the_file_and_keeps_stdout_empty(tmp_path):
    dest = tmp_path / "report.md"
    result = run_cli("assess", str(FIXTURES / "tay.json"), "--format", "markdown", "--out", str(dest))
    assert result.returncode == 0
    assert result.stdout == b""
    assert dest.read_text(encoding="utf-8").startswith("# Risk Assessment: Tay")


def test_unwritable_out_path_exits_three(tmp_path):
    dest = tmp_path / "no" / "such" / "dir" / "report.txt"
    result = run_cli("assess", str(FIXTURES / "roomba.json"), "--out", str(dest))
    assert result.returncode == 3
    assert b"cannot write" in result.stderr


def test_piped_output_carries_no_color_codes():
    result = run_cli("assess", str(FIXTURES / "hal9000.json"))
    assert b"\x1b[" not in result.stdout


def test_strict_assess_rejects_unknown_fields(tmp_path, roomba_doc):
    roomba_doc["intervention"]["observabilty"] = 3
    path = write_doc(tmp_path / "typo.json", roomba_doc)
    strict = run_cli("assess", str(path), "--strict")
    assert strict.returncode == 2
    assert b"observabilty" in strict.stderr
    relaxed = run_cli("assess", str(path))
    assert relaxed.returncode == 0
    assert b"warning" in relaxed.stderr


def test_validate_strict_by_default(tmp_path, roomba_doc):
    roomba_doc["intervention"]["observabilty"] = 3
    path = write_doc(tmp_path / "typo.json", roomba_doc)
    assert run_cli("validate", str(path)).returncode == 2
    assert run_cli("validate", str(path), "--no-strict").returncode == 0


def test_init_template_is_valid_and_assessable(tmp_path):
    path = tmp_path / "new.json"
    created = run_cli("init", str(path))
    assert created.returncode == 0
    assert run_cli("validate", str(path)).returncode == 0

    template = json.loads(path.read_text(encoding="utf-8"))
    assert len(template["targets"]) == 1
    assert [d["level"] for d in template["safety"].values() if isinstance(d, dict)] == [0, 0, 0, 0]

    report = run_cli("assess", str(path))
    assert report.returncode == 0
    # The template describes a deliberately unremarkable system: every rule
    # still gets a findings entry, none of them triggered.
    assert b"[X]" not in report.stdout
    assert report.stdout.count(b"[ ] R") == 7


def test_init_refuses_to_overwrite(tmp_path):
    path = tmp_path / "keep.json"
    path.write_text("precious")
    result = run_cli("init", str(path))
    assert result.returncode == 3
    assert b"not overwriting" in result.stderr
    assert path.read_text() == "precious"


def test_rules_catalog_carries_the_full_sentences():
    result = run_cli("rules")
    assert result.returncode == 0
    out = result.stdout.decode("utf-8")
    for rule_id in ("R1", "R2", "R3", "R4", "R5", "R6", "R7"):
        assert f"{rule_id}  " in out
    assert "an ethics committee is absolutely necessary for continued operation" in out
    assert "air gapping and strict protocols around interaction with the AI" in out
    assert "a (non-AI) backup system should be implemented and maintained" in out


def test_rules_machine_format_is_json():
    result = run_cli("rules", "--format", "machine")
    doc = json.loads(result.stdout)
    assert [r["id"] for r in doc["rules"]] == ["R1", "R2", "R3", "R4", "R5", "R6", "R7"]
    assert all(r["measures"] for r in doc["rules"])


def test_tables_text_rows_are_stable_grep_targets():
    out = run_cli("tables").stdout.decode("utf-8")
    assert "High | M | H | C" in out
    assert "Medium | L | M | H" in out
    assert "Low | L | L | M" in out
    assert "High | H3 | H3 | C4" in out
    assert "Medium | M3 | M3 | H4" in out
    assert "Low | L2 | L2 | M4" in out
    assert "catastrophic | at least $1 billion, or any lives at risk" in out


def test_tables_machine_format_agrees_with_the_library():
    doc = json.loads(run_cli("tables", "--format", "machine").stdout)
    for coupling, row in doc["accident_risk"].items():
        for interaction, value in row.items():
            assert accident_risk(coupling, interaction).value == value
    for energy, row in doc["damage_party"].items():
        for gap, cell in row.items():
            profile = damage_and_party(energy, gap)
            assert cell == {"damage": profile.damage.value, "party_degree": profile.party_degree}


def test_help_exits_zero():
    result = run_cli("--help")
    assert result.returncode == 0
    assert b"exit codes" in result.stdout
