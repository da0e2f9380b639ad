"""Locate and import the package under test from the checkout's ``src``."""

import os
import sys
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = ("algebra", "catalog", "constructions", "errors", "hompower", "linalg",
           "poly", "poisson_poly", "specfile", "witnesses")


def load(with_cli=False):
    """Import ``hompoisson`` (and its submodules) from ``src``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import importlib

    package = importlib.import_module("hompoisson")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hompoisson imported from {package.__file__}, not from {SRC}")
    names = MODULES + (("cli",) if with_cli else ())
    return SimpleNamespace(**{n: importlib.import_module(f"hompoisson.{n}") for n in names})
