"""The package's shape: each module imports only the layers below it, the
root exports resolve, each fact sits in the module that decides it, the
report path reads no enum member's text through a descriptor, and the
README's samples are what the tool prints."""

import ast
import dataclasses
import enum
import sys
import types

import airisk
from airisk import AssessmentProfile, RiskReport, cli, model, tables
from airisk import build_report, evaluate_rules, parse_assessment, render_report
from airisk.documents import SCHEMA, _version

from conftest import GOLDEN, PKG_ROOT

# Lowest first: a module may import only the modules before it.
LAYERS = ("model", "tables", "rules", "documents", "report", "cli")


def test_each_module_imports_only_the_layers_below_it():
    for path in sorted((PKG_ROOT / "src" / "airisk").glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        below = LAYERS[: LAYERS.index(path.stem)]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                assert node.module in below, f"{path.stem} imports .{node.module}"
                if path.stem == "tables":
                    private = [alias.name for alias in node.names if alias.name.startswith("_")]
                    assert not private, f"tables imports {private} from .{node.module}"


def test_every_exported_name_resolves_once():
    assert len(set(airisk.__all__)) == len(airisk.__all__)
    for name in airisk.__all__:
        assert getattr(airisk, name) is not None, name


def test_each_fact_sits_in_the_module_that_decides_it():
    for name in ("CouplingCategory", "InteractionCategory", "_band", "coupling_category", "interaction_category"):
        assert hasattr(tables, name) and not hasattr(model, name), name
    assert not hasattr(model, "SCHEMA_VERSION")
    assert "schema_version" not in {field.name for field in dataclasses.fields(AssessmentProfile)}
    for cls in (AssessmentProfile, RiskReport):
        assert SCHEMA[cls][0] == (("schema_version", None), _version), cls.__name__


def test_the_report_path_reads_no_enum_member_through_a_descriptor():
    """Parse, decide, build, write the findings and render all three formats
    reading no ``.value`` or ``.name``, whose descriptor is a Python-level
    ``__get__`` in enum.py (types.py before 3.11): per-operation code reads
    a member's text as ``_value_``."""
    descriptors = (enum.__file__, types.__file__)
    entered = []

    def watch(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "__get__" and code.co_filename in descriptors:
            entered.append(f"{frame.f_back.f_code.co_name}:{frame.f_back.f_lineno}")

    for name in ("hal9000", "roomba"):
        data = (PKG_ROOT / "fixtures" / f"{name}.json").read_bytes()
        previous = sys.getprofile()
        sys.setprofile(watch)
        try:
            profile = parse_assessment(data)
            evaluate_rules(profile).triggered_rules()
            report = build_report(profile)
            report.rule_findings.findings
            for fmt in ("text", "markdown", "machine"):
                render_report(report, fmt)
        finally:
            sys.setprofile(previous)
        assert not entered, f"{name} reads enum descriptors at {entered}"


def _readme_block(after: str) -> list[str]:
    """The lines of the first fenced block in the README after the line ``after``."""
    lines = (PKG_ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("```", lines.index(after)) + 1
    return lines[start : lines.index("```", start)]


def test_the_readme_decision_tables_are_what_tables_prints(capsysbinary):
    assert cli.main(["tables"]) == 0
    block = "\n".join(_readme_block("Two lookups derive the per-target results (`airisk tables` prints them):"))
    assert capsysbinary.readouterr().out.decode("utf-8").startswith(block + "\n")


def test_the_readme_report_sample_is_an_abridged_roomba_report(capsysbinary):
    assert cli.main(["assess", str(PKG_ROOT / "fixtures" / "roomba.json")]) == 0
    report = capsysbinary.readouterr().out
    assert report == (GOLDEN / "roomba.txt").read_bytes()
    lines = iter(report.decode("utf-8").splitlines())
    for line in _readme_block("A report looks like this (abridged):"):
        assert line == "..." or line in lines, line  # ``in`` consumes the iterator up to the match
