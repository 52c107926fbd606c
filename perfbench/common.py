"""Locating and importing the zqu package of this checkout, and warming its caches.

Every benchmark process (the runner, the set-up probe and the traced CLI
child) imports zqu from `<checkout>/src`, never from an installed copy, so a
run measures the source next to the benchmark.  ZQU_* variables are removed
before the import so that every run uses the package defaults.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


class MissingSourceError(RuntimeError):
    """The checkout holds no zqu sources to benchmark."""


def child_env() -> dict:
    """Environment for a child interpreter: the checkout's src first, no ZQU_* overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZQU_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_zqu():
    """Import zqu from the checkout's src directory and return the package."""
    if not (SRC / "zqu" / "__init__.py").is_file():
        raise MissingSourceError(f"no zqu package under {SRC}")
    for key in [k for k in os.environ if k.startswith("ZQU_")]:
        del os.environ[key]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import zqu

    if Path(zqu.__file__).resolve().parent != SRC / "zqu":
        raise MissingSourceError(f"imported zqu from {zqu.__file__}, not from {SRC}")
    return zqu


def warm(pairs) -> None:
    """Fill the factorization, CRT, component-census and root-of-unity caches
    for each (n, p, s) by analyzing the whole ring R[x]/(x^n - 1)."""
    from zqu import CyclicCode, IdealDescriptor, build_crt, make_ring

    unit_ideal = IdealDescriptor("p_power", 0)
    for n, p, s in pairs:
        params = make_ring(p, s)
        t = build_crt(n, params).t
        CyclicCode.from_components(n, params, [unit_ideal] * t).to_descriptor()
