"""The mutation gate's list stays in step with the source.

``tools/mutants.py`` stops before running any suite when a mutant's text no
longer occurs exactly once in its file.  Checking that here makes a change
that rewrites a mutated line fail the ordinary suite at once.  The gate
itself leaves this module out of its mutant runs, since a mutated copy
differs from the list by construction.
"""

import importlib.util
from pathlib import Path

MUTANTS = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", MUTANTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_text_occurs_once():
    assert load_mutants().stale_mutants() == []
