"""Set-up probe: time `import zqu` plus the cold caches of a set of (n, p, s).

Run in a fresh interpreter by run.py:
    python3 perfbench/setup_probe.py 15,2,2 15,2,3 7,2,2
Prints the elapsed seconds as its only line.
"""

import sys
import time


def main(argv) -> int:
    start = time.perf_counter()
    from common import import_zqu, warm

    import_zqu()
    warm([tuple(int(x) for x in arg.split(",")) for arg in argv])
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
