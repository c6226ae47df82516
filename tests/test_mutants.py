"""The mutation catalogue (`scripts/mutants.py`) still applies to the code.
No mutant runs here; `python3 scripts/mutants.py` runs them."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_entry_applies_once_and_names_whole_test_files():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.CATALOGUE
    assert mutants.catalogue_problems() == []
