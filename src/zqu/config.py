"""Tunable guards and budgets.  Defaults are desk scale; env vars override.

Overrides are read where they are used, through `env_int`, so a malformed
value is a precondition error rather than a crash at import time.
"""

import os

from .errors import PreconditionError

# Largest q for which `galois.ideal_elements` lists an ideal of R element by
# element (a fixed guard, not read from the environment).
MAX_ORACLE_Q = 1 << 10

# Largest q for which the distance engine builds its q*q weight table
# (ZQU_MAX_DISTANCE_Q).
MAX_DISTANCE_Q = 1 << 10

# Default word budget for minimum-distance scans (ZQU_BUDGET).
DEFAULT_DISTANCE_BUDGET = 1 << 24

# Default cap on how many cyclic codes enumeration will stream (ZQU_ENUM_BUDGET).
DEFAULT_ENUM_BUDGET = 1 << 20


def env_int(name: str, default: int) -> int:
    """The integer in environment variable `name`, or `default` when unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise PreconditionError(f"{name} must be an integer, got {raw!r}") from None
