"""The same bytes on every local CPython that the package supports.

samebytes.py renders every golden output and computes both pinned digests
with the standard library alone, so it runs where pytest is not installed.
This test runs it under each other CPython 3.10 or newer installed beside
the running one, as pyenv lays versions out, all at once, and compares its
lines with the running interpreter's.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import samebytes
from conftest import PKG_ROOT

SCRIPT = PKG_ROOT / "tests" / "samebytes.py"


def other_pythons() -> list[Path]:
    """Each ``<prefix>/../3.N.*/bin/python3`` with N >= 10, except this one."""
    found = []
    for exe in sorted(Path(sys.base_prefix).parent.glob("3.*/bin/python3")):
        version = re.match(r"3\.(\d+)\.", exe.parent.parent.name)
        if version and int(version[1]) >= 10 and exe.parent.parent != Path(sys.base_prefix):
            found.append(exe)
    return found


def test_every_local_python_writes_the_same_bytes():
    pythons = other_pythons()
    if not pythons:
        pytest.skip(f"no other CPython 3.10 or newer beside {sys.base_prefix}")
    # -E and -s keep this interpreter's environment and user site out.
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    runs = [subprocess.Popen([exe, "-E", "-s", SCRIPT], **pipes) for exe in pythons]
    want = samebytes.lines()
    assert all(line.endswith(" = golden") for line in want if "golden" in line), want
    for exe, run in zip(pythons, runs):
        out, err = run.communicate(timeout=120)
        assert run.returncode == 0 and out.decode().splitlines() == want, f"{exe}:\n{out.decode()}{err.decode()}"
