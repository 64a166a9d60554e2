"""The four workloads: their inputs, one operation each, and their output checks.

Each workload builds one round of items from its seed.  The closed loop
runs whole rounds of ``make_op(api)`` over them, and ``check`` then looks
at the first round's outputs (later rounds must repeat them exactly).
"""

from __future__ import annotations

import dataclasses
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import airisk
import airisk.cli
from airisk import (
    AssessmentDocumentError,
    AttentionInterval,
    AttentionMode,
    DamageThresholds,
    HumanAttention,
    SafetyDimension,
    TimeDelay,
    parse_machine_report,
)

import docgen
import reference
from measure import child_env

FORMATS = ("text", "markdown", "machine")
RULE_IDS = ("R1", "R2", "R3", "R4", "R5", "R6", "R7")


# -- output checks shared by assess and cli --


def check_rendered(fmt: str, out: bytes, doc: dict, ref_rules: frozenset, ref_cells: tuple) -> list[str]:
    """Problems with one rendered report, judged against the reference."""
    name = doc["name"]
    if fmt == "machine":
        try:
            parsed = parse_machine_report(out)
        except ValueError as e:
            return [f"{name}: machine report does not parse back: {e}"]
        problems = []
        got = {r.value for r in parsed.rule_findings.triggered_rules()}
        if got != ref_rules:
            problems.append(f"{name}: machine report triggers {sorted(got)}, reference {sorted(ref_rules)}")
        cells = tuple((r.accident_risk.letter, r.damage_party.code) for r in parsed.target_results)
        if cells != ref_cells:
            problems.append(f"{name}: machine report cells {cells}, reference {ref_cells}")
        return problems
    text = out.decode("utf-8")
    if fmt == "text":
        got = set(re.findall(r"^\[X\] (R\d) triggered$", text, re.M))
        listed = re.findall(r"^\[[X ]\] (R\d) ", text, re.M)
    else:
        got = set(re.findall(r"^- \*\*(R\d): triggered\.\*\*", text, re.M))
        listed = re.findall(r"^- \*\*(R\d): ", text, re.M)
    problems = []
    if got != ref_rules:
        problems.append(f"{name}: {fmt} report triggers {sorted(got)}, reference {sorted(ref_rules)}")
    if tuple(listed) != RULE_IDS:
        problems.append(f"{name}: {fmt} report lists findings {listed}")
    for target in doc["targets"]:
        if target["name"] not in text:
            problems.append(f"{name}: {fmt} report does not name target {target['name']!r}")
    return problems


def check_report(report, doc: dict, ref_rules: frozenset, ref_cells: tuple) -> list[str]:
    """Problems with a RiskReport's trigger set and per-target table cells."""
    problems = []
    got = {r.value for r in report.rule_findings.triggered_rules()}
    if got != ref_rules:
        problems.append(f"{doc['name']}: triggers {sorted(got)}, reference {sorted(ref_rules)}")
    cells = tuple((r.accident_risk.letter, r.damage_party.code) for r in report.target_results)
    if cells != ref_cells:
        problems.append(f"{doc['name']}: cells {cells}, reference {ref_cells}")
    return problems


# -- assess: parse -> build_report -> render_report --

# 96 documents: 16 with 1 target, 64 with 4, 16 with 16.  The median
# operation then falls inside the 4-target documents, not on the edge
# between two sizes, where it would jump with the seed.
ASSESS_TARGET_MIX = (1,) * 16 + (4,) * 64 + (16,) * 16
# Every fourth document is assessed with non-default damage thresholds.
ASSESS_CUSTOM_THRESHOLDS_EVERY = 4


@dataclass(frozen=True)
class AssessItem:
    doc: dict
    data: bytes
    thresholds: tuple
    fmt: str


class Assess:
    name = "assess"
    tail_percentile = 95.0
    min_rounds = 1

    def __init__(self, seed: int, root: Path):
        rng = random.Random(f"assess:{seed}")
        mix = list(ASSESS_TARGET_MIX)
        rng.shuffle(mix)
        docs = []
        for i, n_targets in enumerate(mix):
            doc = docgen.make_document(rng, n_targets)
            custom = i % ASSESS_CUSTOM_THRESHOLDS_EVERY == 0
            thresholds = docgen.make_thresholds(rng) if custom else reference.DEFAULT_THRESHOLDS
            docs.append((doc, docgen.canonical_bytes(doc), thresholds))
        # A round renders every document once in each format; the format
        # rotates from one pass to the next.
        self.items = [
            AssessItem(doc, data, thresholds, FORMATS[(i + k) % 3])
            for k in range(3)
            for i, (doc, data, thresholds) in enumerate(docs)
        ]
        self._thresholds = {t: DamageThresholds(*t) for _, _, t in docs}

    def make_op(self, api):
        parse, build, render = api.parse_assessment, api.build_report, api.render_report
        thresholds = self._thresholds

        def op(item: AssessItem):
            report = build(parse(item.data), thresholds[item.thresholds])
            return report, render(report, item.fmt)

        return op

    @staticmethod
    def fingerprint(out):
        return out[1]

    def check(self, first: list) -> list[str]:
        problems = []
        for item, out in zip(self.items, first):
            if isinstance(out, Exception):
                continue
            report, rendered = out
            ref_rules, ref_cells = reference.evaluate(item.doc, item.thresholds)
            problems += check_report(report, item.doc, ref_rules, ref_cells)
            problems += check_rendered(item.fmt, rendered, item.doc, ref_rules, ref_cells)
            if item.fmt == "machine" and parse_machine_report(rendered) != report:
                problems.append(f"{item.doc['name']}: machine report parses back to a different report")
        return problems


# -- sweep: evaluate_rules over single-field variants of base profiles --

# 27 base profiles: 8 with 1 target, 16 with 4, 3 with 16, so that about
# 18%, 56% and 26% of the evaluations have 1, 4 and 16 targets.
SWEEP_TARGET_MIX = (1,) * 8 + (4,) * 16 + (16,) * 3
# Attention settings as (mode, checks_per_day or interval).
SWEEP_ATTENTION = (("periodic", 1), ("periodic", 24)) + tuple(("intermittent", i) for i in docgen.INTERVALS)


def _attention_obj(mode: str, value) -> dict:
    return {"mode": mode, "checks_per_day" if mode == "periodic" else "interval": value}


def _attention(mode: str, value) -> HumanAttention:
    if mode == "periodic":
        return HumanAttention(mode=AttentionMode.PERIODIC, checks_per_day=value)
    return HumanAttention(mode=AttentionMode.INTERMITTENT, interval=AttentionInterval(value))


def variant_specs(doc: dict) -> list[tuple]:
    """Every single-field change a what-if sweep makes to one base document."""
    specs = [("observability", v) for v in range(6)]
    specs += [("correctability", v) for v in range(6)]
    specs += [("time_delay", d) for d in docgen.DELAYS]
    specs += [("attention", a) for a in SWEEP_ATTENTION]
    for i in range(len(doc["targets"])):
        specs += [("coupling", i, v) for v in range(1, 6)]
        specs += [("interaction_complexity", i, v) for v in range(1, 6)]
    for name in docgen.SAFETY_DIMENSIONS:
        dim = doc["safety"][name]
        projected = dim.get("projected", dim["level"])
        specs += [("level", name, level) for level in range(4)]
        specs += [("projected", name, p) for p in range(dim["level"], 4) if p != projected]
    return specs


def apply_to_doc(doc: dict, spec: tuple) -> dict:
    """The variant as a document object, for the reference."""
    field = spec[0]
    if field == "attention":
        return {**doc, "intervention": {**doc["intervention"], field: _attention_obj(*spec[1])}}
    if field in ("observability", "correctability", "time_delay"):
        return {**doc, "intervention": {**doc["intervention"], field: spec[1]}}
    if field in ("coupling", "interaction_complexity"):
        _, i, value = spec
        targets = list(doc["targets"])
        targets[i] = {**targets[i], field: value}
        return {**doc, "targets": targets}
    _, name, value = spec
    dim = doc["safety"][name]
    projected = dim.get("projected", dim["level"])
    if field == "level":
        new = {"level": value, "projected": max(value, projected)}
    else:
        new = {"level": dim["level"], "projected": value}
    return {**doc, "safety": {**doc["safety"], name: new}}


def apply_to_profile(profile, spec: tuple):
    """The variant as a profile; every unchanged part is shared with the base."""
    replace = dataclasses.replace
    field = spec[0]
    ind = profile.intervention
    if field in ("observability", "correctability"):
        return replace(profile, intervention=replace(ind, **{field: spec[1]}))
    if field == "time_delay":
        return replace(profile, intervention=replace(ind, time_delay=TimeDelay(spec[1])))
    if field == "attention":
        return replace(profile, intervention=replace(ind, attention=_attention(*spec[1])))
    if field in ("coupling", "interaction_complexity"):
        _, i, value = spec
        targets = list(profile.targets)
        targets[i] = replace(targets[i], **{field: value})
        return replace(profile, targets=tuple(targets))
    _, name, value = spec
    dim = getattr(profile.safety, name)
    if field == "level":
        new = SafetyDimension(level=value, projected=max(value, dim.projected))
    else:
        new = SafetyDimension(level=dim.level, projected=value)
    return replace(profile, safety=replace(profile.safety, **{name: new}))


@dataclass(frozen=True)
class SweepItem:
    base: int
    spec: tuple
    profile: object


class Sweep:
    name = "sweep"
    tail_percentile = 99.0
    min_rounds = 1

    def __init__(self, seed: int, root: Path):
        rng = random.Random(f"sweep:{seed}")
        mix = list(SWEEP_TARGET_MIX)
        rng.shuffle(mix)
        self.docs = [docgen.make_document(rng, n) for n in mix]
        self.items = []
        for b, doc in enumerate(self.docs):
            base = airisk.parse_assessment(docgen.canonical_bytes(doc))
            self.items += [SweepItem(b, spec, apply_to_profile(base, spec)) for spec in variant_specs(doc)]

    def make_op(self, api):
        evaluate = api.evaluate_rules

        def op(item: SweepItem):
            return evaluate(item.profile).triggered_rules()

        return op

    fingerprint = None

    def check(self, first: list) -> list[str]:
        problems = []
        seen: dict[tuple, set] = {}
        for item, out in zip(self.items, first):
            if isinstance(out, Exception):
                continue
            got = {r.value for r in out}
            doc = self.docs[item.base]
            ref_rules, _ = reference.evaluate(apply_to_doc(doc, item.spec))
            if got != ref_rules:
                problems.append(f"{doc['name']} {item.spec}: triggers {sorted(got)}, reference {sorted(ref_rules)}")
            seen[(item.base,) + item.spec] = got
        for (base, field, *rest), got in seen.items():
            if field == "level" and rest[1] < 3:
                higher = seen.get((base, field, rest[0], rest[1] + 1))
                for rule in ("R6", "R7"):
                    if higher is not None and rule in got and rule not in higher:
                        problems.append(f"base {base}: raising {rest[0]} to {rest[1] + 1} removes {rule}")
            if field == "observability" and rest[0] < 5:
                higher = seen.get((base, field, rest[0] + 1))
                if higher is not None and "R1" in higher and "R1" not in got:
                    problems.append(f"base {base}: raising observability to {rest[0] + 1} adds R1")
        return problems


# -- ingest: parse, then write back with serialize_assessment --


class Ingest:
    name = "ingest"
    tail_percentile = 95.0
    min_rounds = 1

    def __init__(self, seed: int, root: Path):
        self.items = docgen.ingest_inputs(seed)

    def make_op(self, api):
        parse, serialize = api.parse_assessment, api.serialize_assessment

        def op(item: docgen.IngestInput):
            try:
                profile = parse(item.data, strict=item.strict)
            except AssessmentDocumentError as e:
                return e.errors
            return serialize(profile)

        return op

    fingerprint = None

    def check(self, first: list) -> list[str]:
        problems = []
        for item, out in zip(self.items, first):
            if isinstance(out, Exception) or item.verdict == docgen.FAULT:
                continue
            if item.verdict == docgen.OK:
                if out != item.expected:
                    problems.append(f"{item.kind}: written back differently from the canonical form")
                continue
            if isinstance(out, bytes):
                problems.append(f"{item.kind}: accepted, expected {item.expected}")
                continue
            found = {(e.kind.value, e.path) for e in out}
            if item.expected not in found:
                problems.append(f"{item.kind}: errors {sorted(found)} lack {item.expected}")
        return problems


# -- cli: fresh `python -m airisk` processes --

# Ten documents with 1, 4 and 16 targets in the ratio 1:3:1; every third
# one is assessed with --damage-thresholds.
CLI_TARGETS = (1, 4, 4, 4, 16, 1, 4, 4, 4, 16)
CLI_THRESHOLDS_EVERY = 3


class CliFailure(Exception):
    pass


@dataclass(frozen=True)
class CliItem:
    doc: int
    argv: tuple


class Cli:
    name = "cli"
    tail_percentile = 75.0
    # Forty processes a round, so p75 has ten beyond it; at least three
    # rounds, so each process's fastest time is a best of three.
    min_rounds = 3

    def __init__(self, seed: int, root: Path):
        rng = random.Random(f"cli:{seed}")
        self.root = root
        self.work = root / "perfbench" / "out" / f"cli-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.docs = [docgen.make_document(rng, n) for n in CLI_TARGETS]
        self.thresholds = [
            docgen.make_thresholds(rng) if d % CLI_THRESHOLDS_EVERY == 1 else reference.DEFAULT_THRESHOLDS
            for d in range(len(self.docs))
        ]
        self.items = []
        for d, doc in enumerate(self.docs):
            path = self.work / f"doc{d}.json"
            path.write_bytes(docgen.canonical_bytes(doc))
            extra = ()
            if self.thresholds[d] != reference.DEFAULT_THRESHOLDS:
                extra = ("--damage-thresholds", ",".join(repr(v) for v in self.thresholds[d]))
            for fmt in FORMATS:
                out = self.work / f"doc{d}.{fmt}"
                self.items.append(CliItem(d, ("assess", str(path), "--format", fmt, "--out", str(out)) + extra))
            self.items.append(CliItem(d, ("validate", str(path))))
        self.env = child_env(root)
        self.stderr = open(self.work / "stderr.log", "ab")
        self.peak_rss_kb = 0

    def make_op(self, api):
        # A traced run calls the traced airisk.cli.main in this process.
        if api.cli_main is not airisk.cli.main:
            return self._in_process_op(api.cli_main)
        env, root, stderr = self.env, self.root, self.stderr

        def op(item: CliItem):
            child = subprocess.Popen(
                (sys.executable, "-m", "airisk") + item.argv,
                env=env,
                cwd=root,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            if child.returncode != 0:
                raise CliFailure(f"exit {child.returncode}: {' '.join(item.argv)}")
            return child.returncode

        return op

    @staticmethod
    def _in_process_op(main):
        def op(item: CliItem):
            code = main(list(item.argv))
            if code != 0:
                raise CliFailure(f"exit {code}: {' '.join(item.argv)}")
            return code

        return op

    fingerprint = None

    def check(self, first: list) -> list[str]:
        problems = []
        for item, out in zip(self.items, first):
            if isinstance(out, Exception) or item.argv[0] != "assess":
                continue
            doc = self.docs[item.doc]
            ref_rules, ref_cells = reference.evaluate(doc, self.thresholds[item.doc])
            out = Path(item.argv[5]).read_bytes()
            problems += check_rendered(item.argv[3], out, doc, ref_rules, ref_cells)
        return problems

    def close(self) -> None:
        self.stderr.close()
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Assess, Sweep, Ingest, Cli)}
