"""Import the faddeevlab sources of the checkout this benchmark sits in.

The benchmark must measure the tree it was checked out with, never an
installed copy, so `src/` of the enclosing checkout goes first on sys.path
and the import is refused if faddeevlab resolves anywhere else.
"""
import importlib.util
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
_spec = importlib.util.find_spec("faddeevlab")
if _spec is None or Path(_spec.origin).resolve().parent != SRC / "faddeevlab":
    raise SystemExit(f"perfbench: faddeevlab sources not found under {SRC}")

from faddeevlab import (cli, diagnostics, evolve, kernels,  # noqa: E402
                        transform, verify)

__all__ = ["SRC", "cli", "diagnostics", "evolve", "kernels", "transform",
           "verify"]
