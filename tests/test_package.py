"""The package's shape: each module imports only the layers below it, the
root exports resolve, each fact sits in the module that decides it, every
output is laid out in report.py, the report path and the rejection path
call no enum code, and the README's samples are what the tool prints."""

import ast
import dataclasses
import enum
import sys
import types

import airisk
from airisk import AssessmentDocumentError, AssessmentProfile, RiskReport, cli, model, tables
from airisk import build_report, evaluate_rules, parse_assessment, render_report
from airisk.documents import SCHEMA, _version

from conftest import GOLDEN, PKG_ROOT, write_doc

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


def _syntax_tree(module: str) -> ast.Module:
    return ast.parse((PKG_ROOT / "src" / "airisk" / f"{module}.py").read_text(encoding="utf-8"))


def test_every_output_is_laid_out_in_report_and_encoded_in_one_place():
    """cli.py is the front end: it takes no private name from the package
    and holds no table cell separator, markdown heading or bullet.  In
    report.py, one function turns a layout into bytes."""
    nodes = list(ast.walk(_syntax_tree("cli")))
    imports = [node for node in nodes if isinstance(node, ast.ImportFrom) and node.level]
    private = [(node.module, alias.name) for node in imports for alias in node.names if alias.name.startswith("_")]
    assert not private, f"cli imports {private}"
    texts = [node.value for node in nodes if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    layout = [text for text in texts if " | " in text or text.startswith(("#", "- "))]
    assert not layout, f"cli lays out {layout}"
    encoders = {
        function.name
        for function in ast.walk(_syntax_tree("report"))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "encode"
    }
    assert encoders == {"_render"}


def test_the_report_path_reads_no_enum_member_through_a_descriptor(tmp_path, broken_hal_doc):
    """Parse, decide, build, write the findings and render all three formats,
    and refuse a broken document, calling no function of enum.py (types.py
    before 3.11): no ``.value`` or ``.name`` descriptor, so per-operation
    code reads a member's text as ``_value_``, and no ``ReportFormat(...)``,
    so a format is looked up in a table built once."""
    enum_code = (enum.__file__, types.__file__)
    entered = []

    def watch(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename in enum_code:
            entered.append(f"{code.co_name} from {frame.f_back.f_code.co_name}:{frame.f_back.f_lineno}")

    broken = write_doc(tmp_path / "broken.json", broken_hal_doc).read_bytes()
    # Violations, an unknown field under strict, and decoder errors of every other kind.
    decoder_errors = b'{"schema_version": 2, "name": "a\\nb", "targets": 1}'
    rejected = [(broken, False), (broken, True), (decoder_errors, False), (b"{", False)]
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
            for bad, strict in rejected:
                try:
                    parse_assessment(bad, strict=strict)
                except AssessmentDocumentError:
                    pass
        finally:
            sys.setprofile(previous)
        assert not entered, f"{name} calls enum code: {entered}"


def test_no_function_looks_an_enum_member_up_by_its_class():
    """``Enum.MEMBER`` passes through the enum metaclass's lookup hook on
    Python 3.10 and 3.11, which a profiler cannot see, so the library's
    functions read members through names bound at import instead."""
    for module in LAYERS[:-1]:
        namespace = vars(getattr(airisk, module))
        enums = {name for name, value in namespace.items() if isinstance(value, enum.EnumMeta)}
        for function in ast.walk(_syntax_tree(module)):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in (node for statement in function.body for node in ast.walk(statement)):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in enums:
                    raise AssertionError(f"{module}.{function.name} reads {node.value.id}.{node.attr}")


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
