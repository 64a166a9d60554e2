"""Every golden output and both pinned digests, as the running Python writes them.

Needs only the standard library and the package.  From the repository root:

    python tests/samebytes.py

prints one line per output, its name and the SHA-256 of its bytes, with
``= golden`` or ``!= golden`` when tests/golden holds a copy; then one line
per pinned digest.  It exits 1 when an output differs from its golden.
test_versions.py runs it under each other local CPython and compares its
lines with the running interpreter's.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

if __name__ == "__main__":
    sys.path.insert(1, str(ROOT / "src"))  # after tests/, the script's own directory

from airisk import cli  # noqa: E402

import digests  # noqa: E402


def _runs():
    """(golden file name, CLI arguments up to the output path) of every output."""
    for fmt, suffix in (("text", "txt"), ("markdown", "md"), ("machine", "json")):
        for name in ("roomba", "hal9000", "tay"):
            yield f"{name}.{suffix}", ["assess", str(ROOT / "fixtures" / f"{name}.json"), "--format", fmt, "--out"]
        yield f"rules.{suffix}", ["rules", "--format", fmt, "--out"]
        yield f"tables.{suffix}", ["tables", "--format", fmt, "--out"]
        yield f"tables-1-2-3-4.{suffix}", ["tables", "--format", fmt, "--damage-thresholds", "1,2,3,4", "--out"]
    yield "init.json", ["init"]


def lines() -> list[str]:
    """One line per output and per pinned digest."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in _runs():
            path = Path(tmp) / name
            status = cli.main([*argv, str(path)])
            data = path.read_bytes() if status == 0 else f"exit {status}".encode()
            golden = GOLDEN / name
            verdict = "" if not golden.exists() else " = golden" if golden.read_bytes() == data else " != golden"
            out.append(f"{name} {hashlib.sha256(data).hexdigest()}{verdict}")
    out.append(f"findings {digests.findings_digest()}")
    out.append(f"readers-and-writers {digests.readers_and_writers_digest()}")
    return out


if __name__ == "__main__":
    report = lines()
    print("\n".join(report))
    sys.exit(1 if any(line.endswith("!= golden") for line in report) else 0)
