"""Import majorchain from the source tree this benchmark sits in.

The benchmark must measure the checkout it belongs to, never a copy installed
elsewhere, so the package is imported from ``<root>/src`` and its location is
checked.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no majorchain sources to measure."""


def load_majorchain():
    """Import majorchain (with its cli and jsonio modules) from ``SRC``."""
    if not (SRC / "majorchain" / "__init__.py").is_file():
        raise MissingProgram(f"no majorchain package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mc = importlib.import_module("majorchain")
    importlib.import_module("majorchain.cli")
    importlib.import_module("majorchain.jsonio")
    if Path(mc.__file__).resolve().parent != SRC / "majorchain":
        raise MissingProgram(f"majorchain was imported from {mc.__file__}, not {SRC}")
    return mc
