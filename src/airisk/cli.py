"""Command-line front end.

One tool, five subcommands: validate and assess work on assessment
documents; rules, tables, and init need no input.  This module parses the
command line, reads and writes files, writes the init template and picks
the exit code; ``report`` lays out every report and catalog.  Reports and
catalogs go to standard output (or --out); every diagnostic goes to
standard error, so output can be piped or captured cleanly.

Exit codes: 0 success, 1 invariant violations in a well-formed document,
2 document cannot be decoded, 3 unreadable or unwritable paths or standard
output, 4 bad command line.
"""

from __future__ import annotations

import argparse
import enum
import os
import sys
from pathlib import Path

from .documents import (
    SCHEMA_VERSION,
    AssessmentDocumentError,
    DocumentError,
    canonical_json_bytes,
    format_document_error,
    parse_assessment,
)
from .model import (
    AttentionInterval,
    EnergyLevel,
    InvalidProfileError,
    KnowledgeGap,
    Reputational,
    TimeDelay,
    validate_profile,
)
from .report import ReportFormat, build_report, render_report, render_rules, render_tables
from .tables import DEFAULT_DAMAGE_THRESHOLDS, DamageThresholds

NO_COLOR_ENV = "AIRISK_NO_COLOR"

_TEMPLATE_NOTE = "Replace every placeholder value, then check the file with: airisk validate FILE"


class ExitStatus(enum.IntEnum):
    OK = 0
    INVALID = 1
    DOCUMENT = 2
    IO = 3
    USAGE = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for document errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(ExitStatus.USAGE, f"{self.prog}: error: {message}\n")


def _eprint(message: str) -> None:
    print(message, file=sys.stderr)


def _thresholds_argument(text: str) -> DamageThresholds:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected MINOR,MAJOR,SEVERE,CATASTROPHIC (four amounts)")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number in {text!r}")
    try:
        return DamageThresholds(*values)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _read_document(path: str) -> bytes | None:
    try:
        return Path(path).read_bytes()
    except OSError as e:
        _eprint(f"{path}: cannot read: {e.strerror or e}")
        return None


def _emit(payload: bytes, out: str | None) -> ExitStatus:
    try:
        if out is not None:
            Path(out).write_bytes(payload)
        else:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
    except OSError as e:
        if out is None:  # the interpreter flushes stdout again at exit: leave that flush nothing to fail on
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            if isinstance(e, BrokenPipeError):  # the reader has gone: nothing to tell it
                return ExitStatus.IO
        _eprint(f"{'<stdout>' if out is None else out}: cannot write: {e.strerror or e}")
        return ExitStatus.IO
    return ExitStatus.OK


def _load_profile(path: str, strict: bool):
    """Read and decode one document; returns (profile, status) with one of them None."""
    data = _read_document(path)
    if data is None:
        return None, ExitStatus.IO
    warnings: list[DocumentError] = []
    try:
        profile = parse_assessment(data, strict=strict, validate=False, warnings=warnings)
    except AssessmentDocumentError as e:
        _print_errors(path, e.errors)
        return None, ExitStatus.DOCUMENT
    _print_errors(path, warnings, "warning: ")
    return profile, None


def _print_errors(path: str, errors: list[DocumentError], prefix: str = "") -> None:
    for err in errors:
        _eprint(f"{path}: {prefix}{format_document_error(err)}")


def cmd_validate(args) -> ExitStatus:
    profile, status = _load_profile(args.path, args.strict)
    if profile is None:
        return status
    violations = validate_profile(profile)
    _print_errors(args.path, violations)
    return ExitStatus.INVALID if violations else ExitStatus.OK


def cmd_assess(args) -> ExitStatus:
    profile, status = _load_profile(args.path, args.strict)
    if profile is None:
        return status
    try:
        report = build_report(profile, args.damage_thresholds)
    except InvalidProfileError as e:
        _print_errors(args.path, e.violations)
        return ExitStatus.INVALID
    color = (
        args.format == ReportFormat.TEXT.value
        and args.out is None
        and sys.stdout.isatty()
        and not os.environ.get(NO_COLOR_ENV)
    )
    return _emit(render_report(report, args.format, color=color), args.out)


def cmd_rules(args) -> ExitStatus:
    return _emit(render_rules(args.format), args.out)


def cmd_tables(args) -> ExitStatus:
    return _emit(render_tables(args.damage_thresholds, args.format), args.out)


def _choices(*enums: type[enum.Enum]) -> str:
    """The enums' values as "a|b|c", each value once, for the template's notes."""
    return "|".join(dict.fromkeys(member.value for e in enums for member in e))


def _template_document() -> dict:
    return {
        "//": _TEMPLATE_NOTE,
        "schema_version": SCHEMA_VERSION,
        "name": "Example system",
        "ai_component": "Describe the AI component under assessment",
        "intervention": {
            "//": (
                f"time_delay: {_choices(TimeDelay)}; "
                "observability and correctability run 0 (black box / impossible to correct) to 5"
            ),
            "time_delay": "months",
            "observability": 5,
            "attention": {
                "//": (
                    "mode periodic needs checks_per_day (integer, at least 1); "
                    f"mode intermittent needs interval ({_choices(AttentionInterval)})"
                ),
                "mode": "periodic",
                "checks_per_day": 24,
            },
            "correctability": 5,
            "can_take_offline": True,
        },
        "targets": [
            {
                "//": (
                    "one entry per thing the AI's outputs affect; coupling and "
                    "interaction_complexity run 1-5; energy_level and knowledge_gap are "
                    f"{_choices(EnergyLevel, KnowledgeGap)}"
                ),
                "name": "Example target",
                "max_damage": {
                    "//": (
                        "worst case with an adversary in control: monetary_usd, lives_at_risk, "
                        f"reputational ({_choices(Reputational)}); declare at least one"
                    ),
                    "monetary_usd": 0,
                },
                "coupling": 1,
                "interaction_complexity": 1,
                "energy_level": "low",
                "knowledge_gap": "low",
            }
        ],
        "safety": {
            "//": "levels 0-3 per dimension; projected defaults to the current level",
            "autonomy": {"level": 0},
            "goal_complexity": {"level": 0},
            "escape_potential": {"level": 0},
            "anthropomorphization": {"level": 0},
        },
    }


def cmd_init(args) -> ExitStatus:
    payload = canonical_json_bytes(_template_document())
    try:
        with open(args.path, "xb") as f:
            f.write(payload)
    except FileExistsError:
        _eprint(f"{args.path}: already exists, not overwriting")
        return ExitStatus.IO
    except OSError as e:
        _eprint(f"{args.path}: cannot write: {e.strerror or e}")
        return ExitStatus.IO
    return ExitStatus.OK


def _add_format_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format",
        choices=[f.value for f in ReportFormat],
        default=ReportFormat.TEXT.value,
        help="output format (default: text)",
    )
    sub.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")


def _add_threshold_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--damage-thresholds",
        metavar="MINOR,MAJOR,SEVERE,CATASTROPHIC",
        type=_thresholds_argument,
        default=DEFAULT_DAMAGE_THRESHOLDS,
        help="override the monetary damage-class cutoffs (USD)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="airisk",
        description=(
            "Assess the risk of deployed AI systems: validate assessment documents, "
            "evaluate the decision tables and the seven recommendation rules, and "
            "render reports."
        ),
        epilog=(
            "exit codes: 0 ok, 1 invalid profile, 2 bad document, 3 I/O error, 4 usage error. "
            f"Set {NO_COLOR_ENV} to disable styled terminal output."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p = sub.add_parser("validate", help="check a document against the schema and invariants")
    p.add_argument("path", help="assessment document")
    p.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="treat unknown fields as errors (default: on)",
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("assess", help="evaluate a document and render the risk report")
    p.add_argument("path", help="assessment document")
    p.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="treat unknown fields as errors (default: off)",
    )
    _add_format_options(p)
    _add_threshold_option(p)
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("rules", help="print the recommendation-rule catalog")
    _add_format_options(p)
    p.set_defaults(func=cmd_rules)

    p = sub.add_parser("tables", help="print the decision tables and damage-class bands")
    _add_format_options(p)
    _add_threshold_option(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("init", help="write a template assessment document")
    p.add_argument("path", help="file to create (must not exist)")
    p.set_defaults(func=cmd_init)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":
    raise SystemExit(main())
