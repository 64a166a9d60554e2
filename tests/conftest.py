import json
import subprocess
import sys
from pathlib import Path

import pytest

from airisk import AssessmentProfile, parse_assessment

PKG_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = PKG_ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

# What ``broken_hal_doc`` violates, as each diagnostic reads, in the fixed
# order validate_profile reports them.
BROKEN_HAL_VIOLATIONS = (
    "intervention.observability: must be between 0 and 5, got 9",
    "intervention.attention.interval: required when mode is intermittent",
    "intervention.attention.checks_per_day: not allowed when mode is intermittent",
    "targets[0].coupling: must be between 1 and 5, got 0",
    "targets[1].name: duplicate target name 'Life support'",
    "safety.autonomy.projected: must be at least the current level 3",
)


def load_fixture(name: str) -> AssessmentProfile:
    return parse_assessment((FIXTURES / f"{name}.json").read_bytes())


@pytest.fixture(scope="session")
def roomba() -> AssessmentProfile:
    return load_fixture("roomba")


@pytest.fixture(scope="session")
def hal9000() -> AssessmentProfile:
    return load_fixture("hal9000")


@pytest.fixture(scope="session")
def tay() -> AssessmentProfile:
    return load_fixture("tay")


def run_cli(*args: str, cwd: Path | None = None, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Invoke the CLI as a subprocess, capturing stderr (and by default stdout) as bytes."""
    return subprocess.run(
        [sys.executable, "-m", "airisk", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        cwd=cwd or PKG_ROOT,
        timeout=60,
    )


def write_doc(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def roomba_doc() -> dict:
    """A fresh mutable copy of the roomba document object."""
    return json.loads((FIXTURES / "roomba.json").read_text(encoding="utf-8"))


@pytest.fixture
def broken_hal_doc() -> dict:
    """The hal9000 document with an unknown top-level field and the six
    invariant violations listed in BROKEN_HAL_VIOLATIONS."""
    doc = json.loads((FIXTURES / "hal9000.json").read_text(encoding="utf-8"))
    doc["intervention"]["observability"] = 9
    doc["intervention"]["attention"] = {"mode": "intermittent", "checks_per_day": 3}
    doc["targets"][0]["coupling"] = 0
    doc["targets"][1]["name"] = doc["targets"][0]["name"]
    doc["safety"]["autonomy"] = {"level": 3, "projected": 1}
    doc["zz_extra"] = 1
    return doc
