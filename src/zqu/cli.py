"""Command-line front end.

Subcommands: factor, codes, analyze, distance, verify-paper.
Exit codes: 0 success (also when stdout is closed early, as by `| head`),
1 parse/usage error, 2 precondition violation, 3 enumeration budget exceeded.
Identical inputs produce byte-identical output: canonical orders everywhere,
no timestamps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable

from . import DEFAULT_DISTANCE_BUDGET, METRICS, metrics
from .codes import (
    CyclicCode,
    count_cyclic_codes,
    enumerate_cyclic_codes,
)
from .errors import (
    DistanceUndefinedError,
    EnumerationBudgetError,
    PolyParseError,
    PreconditionError,
    ZquError,
)
from .poly import factor_xn_minus_1, format_r_poly, parse_r_poly, r_poly_to_json
from .ring import make_ring

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit code 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit((EXIT_PARSE, f"error: {message}"))


def _build_parser() -> _Parser:
    parser = _Parser(prog="zqu", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, gens=False):
        p.add_argument("--p", type=int, required=True, help="prime p")
        p.add_argument("--s", type=int, required=True, help="exponent s (q = p^s)")
        p.add_argument("--n", type=int, required=True, help="code length")
        if gens:
            p.add_argument("--gens", required=True,
                           help="comma-separated generator polynomials")
            p.add_argument("--closure", choices=["ideal", "module"], default="ideal")
        p.add_argument("--format", choices=["json", "csv", "text"], default="text")

    pf = sub.add_parser("factor", help="factor x^n - 1 over R")
    common(pf)

    pc = sub.add_parser("codes", help="count or enumerate cyclic codes")
    common(pc)
    group = pc.add_mutually_exclusive_group(required=True)
    group.add_argument("--count", action="store_true")
    group.add_argument("--enumerate", action="store_true")
    pc.add_argument("--limit", type=int, default=None, help="stream at most this many codes")

    pa = sub.add_parser("analyze", help="canonical form, cardinality, freeness, BCH bound")
    common(pa, gens=True)

    pd = sub.add_parser("distance", help="exact or budgeted minimum distance")
    common(pd, gens=True)
    pd.add_argument("--metric", choices=list(METRICS), default="hamming")
    pd.add_argument("--budget", type=int, default=None,
                    help=f"word budget (default {DEFAULT_DISTANCE_BUDGET})")
    pd.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility (must be >= 1); the scan is serial")

    pv = sub.add_parser("verify-paper", help="run the reference verification suite")
    pv.add_argument("--format", choices=["json", "csv", "text"], default="text")
    return parser


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _emit_csv(rows: Iterable[dict]) -> None:
    """The header with the first row, then each row as it is made; nothing
    for no rows."""
    import csv

    writer = None
    for row in rows:
        if writer is None:
            writer = csv.DictWriter(sys.stdout, fieldnames=list(row), lineterminator="\n")
            writer.writeheader()
        writer.writerow(row)


def _parse_gens(raw: str, params, n: int):
    # CyclicCode reduces generators mod x^n - 1, so exponents are folded while
    # parsing and x^(10^12) costs no memory.  A length below 1 is rejected by
    # CyclicCode right after parsing; folding mod 1 keeps the parse cheap.
    gens = []
    for part in raw.split(","):
        part = part.strip()
        if part:
            gens.append(parse_r_poly(part, params, max(n, 1)))
    if not gens:
        raise PreconditionError("no generators given")
    return gens


def _cmd_factor(args) -> int:
    params = make_ring(args.p, args.s)
    fact = factor_xn_minus_1(args.n, params)
    factors = [
        {
            "poly": format_r_poly(f),
            "coeffs": r_poly_to_json(f),
            "degree": f.degree,
            "basic_primitive": primitive,
        }
        for f, primitive in zip(fact.factors, fact.primitive)
    ]
    payload = {"command": "factor", "n": args.n, "p": args.p, "s": args.s, "factors": factors}
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv(
            [
                {"index": i + 1, "degree": f["degree"], "poly": f["poly"],
                 "basic_primitive": f["basic_primitive"]}
                for i, f in enumerate(factors)
            ]
        )
    else:
        print(f"x^{args.n}-1 over Z{params.q}+uZ{params.q} factors into {len(factors)} basic irreducibles:")
        for i, f in enumerate(factors):
            tag = " (basic primitive)" if f["basic_primitive"] else ""
            print(f"  f_{i+1} = {f['poly']}  [degree {f['degree']}]{tag}")
    return EXIT_OK


def _cmd_codes(args) -> int:
    params = make_ring(args.p, args.s)
    if args.count:
        total = count_cyclic_codes(args.n, params)
        try:
            text = str(total)
        except ValueError:  # past the interpreter's integer-string limit, 4300 digits by default
            raise PreconditionError(
                f"the number of cyclic codes of length {args.n} has more than "
                f"{sys.get_int_max_str_digits()} decimal digits; zqu does not print it"
            ) from None
        if args.format == "json":
            _emit_json({"command": "codes", "n": args.n, "p": args.p, "s": args.s, "count": total})
        elif args.format == "csv":
            _emit_csv([{"n": args.n, "p": args.p, "s": args.s, "count": total}])
        else:
            print(f"{text} cyclic codes of length {args.n} over Z{params.q}+uZ{params.q}")
        return EXIT_OK
    stream = enumerate_cyclic_codes(args.n, params, limit=args.limit)
    if args.format == "csv":
        _emit_csv(
            {
                "index": i + 1,
                "generators": "; ".join(format_r_poly(g) for g in code.generators) or "0",
                "cardinality": "%d^%d" % code.cardinality(),
                "free": code.is_free() is not None,
            }
            for i, code in enumerate(stream)
        )
    elif args.format == "json":
        for code in stream:  # one descriptor per line for streamability
            sys.stdout.write(json.dumps(code.to_descriptor()) + "\n")
    else:
        for i, code in enumerate(stream):
            base, exp = code.cardinality()
            gens = ", ".join(format_r_poly(g) for g in code.generators) or "0"
            print(f"[{i+1}] |C| = {base}^{exp}  gens: ({gens})")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    if args.format == "csv":  # a usage error, so refused before any work, as argparse would
        raise SystemExit((EXIT_PARSE, "error: analyze output is nested; use --format json or text"))
    params = make_ring(args.p, args.s)
    gens = _parse_gens(args.gens, params, args.n)
    code = CyclicCode(args.n, params, gens, args.closure)
    desc = code.to_descriptor()
    if args.format == "json":
        _emit_json(desc)
        return EXIT_OK
    base, exp = desc["cardinality"]["base"], desc["cardinality"]["exponent"]
    print(f"cyclic code of length {args.n} over Z{params.q}+uZ{params.q} [{args.closure} closure]")
    print(f"  generators: {', '.join(desc['generator_texts']) or '0'}")
    print(f"  cardinality: {base}^{exp}")
    if desc["canonical"] is not None:
        can = code.canonical()
        print(f"  canonical: f0 = {can.f0}, f1 = {can.f1}, g1 = {can.g1}")
        print(f"  components: {[c['family'] + '@' + str(c['index']) for c in desc['components']]}")
    print(f"  free: {desc['free']}")
    if desc["bch"] is not None:
        print(f"  bch bound: delta = {desc['bch']['delta']} from exponent b = {desc['bch']['b']}")
    for w in desc["warnings"]:
        print(f"  warning: {w}")
    return EXIT_OK


def _cmd_distance(args) -> int:
    params = make_ring(args.p, args.s)
    gens = _parse_gens(args.gens, params, args.n)
    code = CyclicCode(args.n, params, gens, args.closure)
    try:
        report = metrics.min_distance(code, args.metric, budget=args.budget, threads=args.threads)
    except DistanceUndefinedError as exc:
        payload = {"command": "distance", "metric": args.metric, "defined": False,
                   "reason": str(exc)}
        if args.format == "json":
            _emit_json(payload)
        elif args.format == "csv":
            _emit_csv([payload])
        else:
            print(f"distance undefined: {exc}")
        return EXIT_PRECONDITION
    payload = {"command": "distance", **report.to_json()}
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv([report.to_json()])
    else:
        kind = "exact minimum" if report.exact else "upper bound"
        print(f"{report.metric} distance {kind}: {report.value}")
        print(f"  witness: {payload['witness']}")
        print(f"  words scanned: {report.words_scanned}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all()
    if args.format == "json":
        _emit_json([r.to_json() for r in results])
    elif args.format == "csv":
        _emit_csv([r.to_json() for r in results])
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name.ljust(width)}  [{r.seconds:.2f}s]  {r.detail}")
        total = sum(r.passed for r in results)
        print(f"{total}/{len(results)} checks passed")
    return EXIT_OK if all(r.passed for r in results) else EXIT_PRECONDITION


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "factor": _cmd_factor,
            "codes": _cmd_codes,
            "analyze": _cmd_analyze,
            "distance": _cmd_distance,
            "verify-paper": _cmd_verify,
        }[args.command]
        code = handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        # The reader stopped early (`| head`).  What it read is correct, so
        # this is a success; stdout goes to the null device so that the
        # interpreter's own flush at exit raises nothing.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_OK
    except SystemExit as exc:
        if isinstance(exc.code, tuple):
            code, message = exc.code
            print(message, file=sys.stderr)
            return code
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    except PolyParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ZquError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
