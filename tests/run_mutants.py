"""Apply each mutant of the catalogue (tests/mutants.json) and report the
ones that survive.

    python3 tests/run_mutants.py            # every entry
    python3 tests/run_mutants.py NAME ...   # the entries with these names

For each entry the runner copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory, makes the entry's replacement in its file there,
and runs the tests it names in a pytest subprocess with a fixed hypothesis
seed.  A named test that still passes lets the mutant survive it.  The
runner prints one line per mutant, with the time its tests took, then the
survivors, and exits 1 if there is any.  It takes minutes, so it is no part
of the test suite; pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tests" / "mutants.json"


def run_mutant(entry: dict) -> tuple[list[str], float, str | None]:
    """(the named tests that passed, seconds, an error or None) for one
    catalogue entry, run in a fresh copy of the project."""
    with tempfile.TemporaryDirectory(prefix="bxmech-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work)
        target = work / entry["file"]
        text = target.read_text()
        if text.count(entry["original"]) != 1:
            return [], 0.0, f"its anchor does not occur exactly once in {entry['file']}"
        target.write_text(text.replace(entry["original"], entry["replacement"]))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *entry["killed_by"]],
            cwd=work,
            env={**os.environ, "PYTHONPATH": str(work / "src")},
            capture_output=True,
            text=True,
        )
        seconds = time.perf_counter() - start
    if done.returncode not in (0, 1):
        return [], seconds, f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}"
    failed = set(re.findall(r"^FAILED (\S+)", done.stdout, re.M))
    passed = [
        test for test in entry["killed_by"]
        if not any(f == test or f.startswith(test + "[") for f in failed)
    ]
    return passed, seconds, None


def main(names: list[str]) -> int:
    catalogue = json.loads(CATALOGUE.read_text())
    unknown = set(names) - {entry["name"] for entry in catalogue}
    if unknown:
        print(f"error: no mutant named {sorted(unknown)}", file=sys.stderr)
        return 2
    survivors = []
    for entry in catalogue:
        if names and entry["name"] not in names:
            continue
        passed, seconds, error = run_mutant(entry)
        if error is not None:
            verdict = f"error: {error}"
            survivors.append(f"{entry['name']}: {error}")
        elif passed:
            verdict = f"survived {len(passed)} of {len(entry['killed_by'])} tests"
            survivors += [f"{entry['name']}: {test}" for test in passed]
        else:
            verdict = f"killed by all {len(entry['killed_by'])} tests"
        print(f"{seconds:7.1f} s  {entry['name']}: {verdict}", flush=True)
    if survivors:
        print("survivors:")
        for line in survivors:
            print(f"  {line}")
        return 1
    print("no survivor")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
