"""Run one zqu CLI command with tracing, for the traced `analyze` workload.

    python3 perfbench/traced_cli.py SPANS_JSON analyze --n 7 ...

Stdout and the exit code are those of `python -m zqu ...`; the spans,
including the time to import zqu, are written to SPANS_JSON.
"""

import json
import sys
import time


def main(argv) -> int:
    start = time.perf_counter()
    from common import import_zqu

    import_zqu()
    import zqu.cli

    imported = time.perf_counter()
    from tracer import Tracer, installed

    tracer = Tracer()
    tracer.record("cli.import", start, imported)
    with installed(tracer):
        code = zqu.cli.main(argv[1:])
    sys.stdout.flush()
    with open(argv[0], "w") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
