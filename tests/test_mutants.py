"""The mutant catalogue (tests/mutants.json) still applies to the source.

Each entry names a file under ``src/``, an exact original text, its
replacement, and the tests that must fail once the replacement is made.
Applying a mutant and running its tests is left to ``tests/run_mutants.py``,
which takes about a minute and stays outside this suite; here each anchor
must occur exactly once in ``src/``, in the file its entry names, so a
refactor that moves an anchored line has to update the entry, and every
test an entry names must exist.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = json.loads((ROOT / "tests" / "mutants.json").read_text())
SOURCES = {path: path.read_text() for path in sorted((ROOT / "src").rglob("*.py"))}


@pytest.mark.parametrize("entry", CATALOGUE, ids=[e["name"] for e in CATALOGUE])
def test_anchor_occurs_exactly_once_in_src(entry):
    original = entry["original"]
    assert original != entry["replacement"]
    holders = {path: text.count(original) for path, text in SOURCES.items() if original in text}
    assert holders == {ROOT / entry["file"]: 1}


@pytest.mark.parametrize("entry", CATALOGUE, ids=[e["name"] for e in CATALOGUE])
def test_named_tests_exist(entry):
    assert entry["killed_by"]
    for test_id in entry["killed_by"]:
        file, *names = test_id.split("::")
        text = (ROOT / file).read_text()
        assert re.search(rf"^\s*def {re.escape(names[-1])}\(", text, re.M), test_id
