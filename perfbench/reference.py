"""Reference probes: fixed work that uses no zqu code, timed next to every item.

The benchmark shares a machine whose speed for the same work swings by up to
1.7x over tens of seconds.  Dividing an item's latency by the time of probes
run around it cancels most of that swing, provided the probe does the same
kind of work as the item: interpreted integer arithmetic for enumerate,
vectorized numpy table lookups for distance, and a fresh interpreter doing
the interpreted work for analyze, whose items are fresh processes.  The
quotient is in "ref" units, one ref being one probe's duration: about 1 ms
for the python probe, 8 ms for the numpy probe and 70 ms for the process
probe on a 2-core Xeon VM with Python 3.11 and numpy 2.4.
"""

from __future__ import annotations

import subprocess
import sys
import time
from functools import lru_cache

_ROWS = [[(7 * i + 3 * j) % 8 for j in range(40)] for i in range(40)]


def python_work() -> int:
    # row reduction modulo 8, the shape of a Howell-basis update
    v = [1] * 40
    for _ in range(6):
        for row in _ROWS:
            m = v[0] or 1
            v = [(x - m * y) % 8 for x, y in zip(v, row)]
    return sum(v)


@lru_cache(maxsize=None)
def _numpy_data():
    import numpy as np

    # one scan block: 2^14 words of length 2*15, so the probe touches as much
    # memory per step as the kernel does
    words = np.random.default_rng(0).integers(0, 4, size=(1 << 14, 30), dtype=np.int64)
    return words, np.array([0, 1, 2, 1] * 4, dtype=np.int64)


def numpy_work() -> int:
    # table lookup, row sum and argmin over a block of words, as in a distance scan
    import numpy as np

    words, table = _numpy_data()
    words = (words + 1) % 4
    weights = table[words[:, :15] * 4 + words[:, 15:]].sum(axis=1)
    return int(np.argmin(weights))


def process_work() -> None:
    # imported here so the child interpreter does no more than python_work()
    from common import ROOT, child_env

    subprocess.run([sys.executable, __file__], cwd=ROOT, env=child_env(), check=True, timeout=60)


PROBES = {"python": python_work, "numpy": numpy_work, "process": process_work}


def probe_seconds(kind: str) -> float:
    work = PROBES[kind]
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


if __name__ == "__main__":
    python_work()
