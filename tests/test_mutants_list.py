"""The mutant list of tools/mutants.py names code that exists, so the list cannot rot."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_each_mutant_changes_one_place_of_its_module():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    for module, old, new, tests in mutants.MUTANTS:
        assert old != new
        assert (ROOT / mutants.PACKAGE / module).read_text(encoding="utf-8").count(old) == 1, (module, old)
        assert tests and all((ROOT / "tests" / name).is_file() for name in tests), tests
