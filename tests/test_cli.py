"""End-to-end CLI runs through the module entry point (stable exit codes,
byte-identical repeated output, JSON round-trips)."""

import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

CMD = [sys.executable, "-m", "zqu"]


def run(*args, env=None):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, env=env)


def test_factor_text():
    proc = run("factor", "--n", "3", "--p", "2", "--s", "2")
    assert proc.returncode == 0
    assert "x+3" in proc.stdout and "x^2+x+1" in proc.stdout


def test_factor_json_round_trip():
    proc = run("factor", "--n", "15", "--p", "2", "--s", "3", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert [f["degree"] for f in payload["factors"]] == [1, 2, 4, 4, 4]
    assert any(f["poly"] == "x^4+4*x^3+6*x^2+3*x+1" and f["basic_primitive"]
               for f in payload["factors"])
    # parse -> re-emit is byte-identical
    assert json.dumps(payload, indent=2) + "\n" == proc.stdout


def test_factor_gcd_violation_exits_2():
    proc = run("factor", "--n", "6", "--p", "2", "--s", "2")
    assert proc.returncode == 2
    assert "gcd" in proc.stderr


@pytest.mark.parametrize("command", [
    ["factor"], ["codes", "--count"], ["codes", "--enumerate"],
    ["analyze", "--gens", "1"], ["distance", "--gens", "1"],
], ids=["factor", "count", "enumerate", "analyze", "distance"])
@pytest.mark.parametrize("n, message", [
    ("6", "error: gcd(n, p) = gcd(6, 2) != 1; length must be prime to p\n"),
    ("0", "error: length n = 0 must be positive\n"),
])
def test_length_precondition_reads_the_same_everywhere(command, n, message, capsys):
    import zqu.cli

    assert zqu.cli.main([command[0], "--n", n, "--p", "2", "--s", "2", *command[1:]]) == 2
    assert capsys.readouterr() == ("", message)


def test_missing_flag_exits_1():
    proc = run("factor", "--n", "3", "--p", "2")
    assert proc.returncode == 1


def test_bad_generator_exits_1(capsys):
    proc = run("analyze", "--n", "3", "--p", "2", "--s", "2", "--gens", "x^^2")
    assert proc.returncode == 1
    # the message quotes the generator as typed
    import zqu.cli

    assert zqu.cli.main(["analyze", "--n", "3", "--p", "2", "--s", "2", "--gens", "u*(x)+1"]) == 1
    assert capsys.readouterr() == (
        "", "error: the u-part (u or u*(...)) must come last in 'u*(x)+1'\n")


def test_nonprime_exits_2():
    proc = run("factor", "--n", "3", "--p", "4", "--s", "1")
    assert proc.returncode == 2


@pytest.mark.parametrize("p,s", [("2305843009213693951", "1"), ("2", "14300"), ("3", "100000000")])
def test_out_of_range_ring_exits_2_at_once(p, s):
    # a 61-bit prime, a q whose digits exceed int-to-str limits, and a p^s
    # too large to build: each is refused before any expensive step
    proc = subprocess.run(CMD + ["factor", "--n", "3", "--p", p, "--s", s],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_codes_count():
    proc = run("codes", "--n", "3", "--p", "2", "--s", "2", "--count", "--format", "json")
    assert json.loads(proc.stdout)["count"] == 63
    proc1 = run("codes", "--n", "1", "--p", "2", "--s", "2", "--count", "--format", "json")
    assert json.loads(proc1.stdout)["count"] == 7
    # 13 * 19 ideals at the two factors, not the four families' 11 * 15
    proc3 = run("codes", "--n", "3", "--p", "2", "--s", "3", "--count")
    assert proc3.stdout == "247 cyclic codes of length 3 over Z8+uZ8\n"


def test_codes_enumerate_stream_distinct():
    proc = run("codes", "--n", "3", "--p", "2", "--s", "2", "--enumerate", "--format", "json")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 63
    descriptors = [json.loads(line) for line in lines]
    keys = {json.dumps(d["generators"]) for d in descriptors}
    assert len(keys) == 63
    for d in descriptors[:5]:
        assert json.dumps(json.loads(json.dumps(d))) == json.dumps(d)


@pytest.mark.parametrize("n,p,s,fmt,md5", [
    ("3", "2", "2", "json", "a56324a349b2b1326518c58c60a6b568"),
    ("5", "3", "2", "json", "eaf9a9351662cf818beb4acb350eca95"),
    ("7", "2", "2", "text", "7cc6c1fe6fbc65696e4afb7fb5eb0aa0"),
    ("7", "2", "2", "csv", "488c4e6446fa27f39a6c375b16839c7e"),
])
def test_codes_enumerate_output_pinned(n, p, s, fmt, md5):
    # every ideal family, alpha with 2 and 4 digits; stdout is part of the contract.
    # Z4 at n = 7 has 1,183 codes; its pins cover the first 300.
    limit = ["--limit", "300"] if n == "7" else []
    proc = run("codes", "--n", n, "--p", p, "--s", s, "--enumerate", "--format", fmt, *limit)
    assert proc.returncode == 0
    assert hashlib.md5(proc.stdout.encode()).hexdigest() == md5


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_codes_enumerate_refused_at_s3(fmt):
    # the four ideal families miss ideals at s >= 3, so no subset is streamed
    proc = run("codes", "--n", "3", "--p", "2", "--s", "3", "--enumerate", "--format", fmt)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: codes over Z8+uZ8 are not enumerated: at s >= 3 the census "
                           "lists only four ideal families, which miss some ideals\n")


def test_codes_negative_limit_exits_2():
    proc = run("codes", "--n", "3", "--p", "2", "--s", "2", "--enumerate", "--limit", "-1")
    assert proc.returncode == 2
    assert proc.stderr == "error: limit must be >= 0\n"
    assert proc.stdout == ""
    empty = run("codes", "--n", "3", "--p", "2", "--s", "2", "--enumerate", "--limit", "0")
    assert empty.returncode == 0 and empty.stdout == ""


def test_codes_budget_exceeded_exits_3():
    # 41,094,625 codes are past the 2^20 default budget, refused before any is built
    proc = run("codes", "--n", "15", "--p", "2", "--s", "3", "--enumerate")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("error: the cyclic codes of length 15 over Z8+uZ8 exceed the "
                           "enumeration budget 1048576; pass an explicit limit\n")


def _default_digit_limit():
    return {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_codes_count_past_the_digit_limit_exits_2(fmt):
    # The count at n = 20001 over Z4 has 6022 decimal digits, past Python's
    # 4300-digit integer-string limit, which raised ValueError with a traceback.
    proc = run("codes", "--n", "20001", "--p", "2", "--s", "2", "--count", "--format", fmt,
               env=_default_digit_limit())
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: the number of cyclic codes of length 20001 has more than "
                           "4300 decimal digits; zqu does not print it\n")


def test_codes_count_within_the_digit_limit_prints_it():
    proc = run("codes", "--n", "14001", "--p", "2", "--s", "2", "--count", env=_default_digit_limit())
    assert proc.returncode == 0
    count, rest = proc.stdout.split(" ", 1)
    assert len(count) == 4216 and rest == "cyclic codes of length 14001 over Z4+uZ4\n"


def test_codes_enumerate_refusal_names_the_budget_not_the_count():
    proc = run("codes", "--n", "20001", "--p", "2", "--s", "2", "--enumerate", env=_default_digit_limit())
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == ("error: the cyclic codes of length 20001 over Z4+uZ4 exceed the "
                           "enumeration budget 1048576; pass an explicit limit\n")


def test_codes_csv_streams_rows(monkeypatch, capsys):
    """The header and first row are on stdout before the second code is made."""
    import zqu.cli
    from zqu.codes import enumerate_cyclic_codes

    printed = []

    def stream(n, params, limit=None):
        for code in enumerate_cyclic_codes(n, params, limit=limit):
            yield code
            printed.append(capsys.readouterr().out)

    monkeypatch.setattr(zqu.cli, "enumerate_cyclic_codes", stream)
    argv = ["codes", "--n", "3", "--p", "2", "--s", "2", "--enumerate", "--format", "csv"]
    assert zqu.cli.main(argv + ["--limit", "3"]) == 0
    printed.append(capsys.readouterr().out)
    assert printed[0] == "index,generators,cardinality,free\n1,x^2+x+1; x+3,2^12,True\n"
    assert [chunk.count("\n") for chunk in printed] == [2, 1, 1, 0]
    proc = run(*argv, "--limit", "3")
    assert "".join(printed) == proc.stdout


def test_codes_limit():
    proc = run("codes", "--n", "7", "--p", "2", "--s", "2", "--enumerate",
               "--limit", "4", "--format", "json")
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 4


def test_analyze_reference_free_code():
    proc = run("analyze", "--n", "15", "--p", "2", "--s", "3", "--gens",
               "x^10+6*x^9+x^8+6*x^7+3*x^5+7*x^4+4*x^3+7*x^2+5*x+1", "--format", "json")
    data = json.loads(proc.stdout)
    assert data["free"] is True
    assert data["cardinality"] == {"base": 2, "exponent": 30}
    assert data["bch"] == {"b": 1, "delta": 7}


def _x_plus_7_text(n, cardinality_exponent, factors):
    components = ["p_power@3"] + ["p_power@0"] * (factors - 1)
    return (f"cyclic code of length {n} over Z8+uZ8 [ideal closure]\n"
            "  generators: x+7\n"
            f"  cardinality: 2^{cardinality_exponent}\n"
            "  canonical: f0 = x+7, f1 = 0, g1 = x+7\n"
            f"  components: {components}\n"
            "  free: True\n"
            "  bch bound: delta = 2 from exponent b = 0\n")


def test_analyze_x_plus_7_degree_12_root():
    # zeta lives in GR(Z8 + uZ8, 12); the root of unity must not need the
    # factors of x^4095 - 1
    proc = run("analyze", "--n", "45", "--p", "2", "--s", "3", "--gens", "x+7")
    assert proc.returncode == 0
    assert proc.stdout == _x_plus_7_text(45, 264, 8)


def test_analyze_x_plus_7_degree_6_root():
    proc = run("analyze", "--n", "63", "--p", "2", "--s", "3", "--gens", "x+7")
    assert proc.returncode == 0
    assert proc.stdout == _x_plus_7_text(63, 372, 13)


def test_analyze_u_generator():
    proc = run("analyze", "--n", "3", "--p", "2", "--s", "2", "--gens", "u",
               "--format", "json")
    data = json.loads(proc.stdout)
    assert data["canonical"]["g1"] == [1]
    assert data["free"] is False


def test_analyze_both_closures_disagree():
    gens = "3*x^3+x^2+2*x+1, u*(x+3)"
    out = {}
    for closure in ("ideal", "module"):
        proc = run("analyze", "--n", "7", "--p", "2", "--s", "2", "--gens", gens,
                   "--closure", closure, "--format", "json")
        out[closure] = json.loads(proc.stdout)
    assert out["module"]["cardinality"]["exponent"] == 20
    assert out["ideal"]["cardinality"]["exponent"] == 22
    assert out["module"]["ideal_closure_cardinality"]["exponent"] == 22
    assert any("disagree" in w for w in out["module"]["warnings"])


# an n = 51 mixed-module item of the benchmark's analyze mix (seed 1)
N51_MODULE = ("2*x^33+2*x^31+2*x^25+2*x^16+2*x^15+2*x^12+2*x^7+2*x^3+2*x+2+u*(2*x^38+2*x^37"
              "+2*x^34+2*x^33+2*x^30+2*x^29+2*x^28+2*x^27+2*x^21+2*x^16+2*x^15+2*x^14+2*x^12"
              "+2*x^11+2*x^10+2*x^9+2*x^8+2*x^7+2*x^5+2*x^2), 0+u*(3*x^17+3*x^16+x^15+x^13"
              "+x^12+3*x^10+2*x^9+3*x^8+x^7+3*x^6+x^5+3*x^4+3*x^3+3*x+1)")


@pytest.mark.parametrize("n,s,gens,md5", [
    ("7", "2", "3*x^3+x^2+2*x+1, u*(x+3)", "0b1eb9dc04cf8953f1cfdaba52a009a7"),
    ("3", "2", "x+3, u*(x+3)", "5dfe756099fe7ebe321df467111eab5d"),  # free
    ("3", "2", "0", "4872714a3f10e6dde0aaf2c4b2e20e77"),
    ("51", "2", N51_MODULE, "429543c34e98600f5967830c0154470b"),
    ("3", "3", "4+u*(2)", "261f613b7db8bccfbb23db2770a3dc37"),
    ("3", "3", "4, u*(2)", "902a5fe871fce837412b22fb348cc71f"),
], ids=["z4-n7-paper", "z4-n3-free", "z4-n3-zero", "z4-n51-mixed", "z8-n3-4+2u", "z8-n3-4,2u"])
def test_analyze_module_output_pinned(n, s, gens, md5):
    proc = run("analyze", "--n", n, "--p", "2", "--s", s, "--gens", gens,
               "--closure", "module", "--format", "json")
    assert proc.returncode == 0
    assert hashlib.md5(proc.stdout.encode()).hexdigest() == md5


@pytest.mark.parametrize("closure", ["ideal", "module"])
def test_zero_code_reports_no_bch_bound(closure):
    # the zero code is free but has no nonzero word, so no distance to bound
    args = ("analyze", "--n", "7", "--p", "2", "--s", "2", "--closure", closure)
    zero = json.loads(run(*args, "--gens", "0", "--format", "json").stdout)
    assert (zero["cardinality"]["exponent"], zero["free"], zero["bch"]) == (0, True, None)
    text = run(*args, "--gens", "0").stdout
    assert "free: True" in text and "bch bound" not in text
    free = json.loads(run(*args, "--gens", "x+3, u*(x+3)", "--format", "json").stdout)
    assert free["free"] is True and free["bch"] == {"b": 0, "delta": 2}
    assert "bch bound: delta = 2" in run(*args, "--gens", "x+3, u*(x+3)").stdout


def test_analyze_csv_rejected(monkeypatch, capsys):
    proc = run("analyze", "--n", "3", "--p", "2", "--s", "2", "--gens", "u",
               "--format", "csv")
    assert proc.returncode == 1
    message = "error: analyze output is nested; use --format json or text\n"
    assert proc.stderr == message
    # the usage error comes before any analysis
    import zqu.cli
    from zqu.codes import CyclicCode

    def refuse(self):
        raise AssertionError("analysis ran before the csv format was refused")

    monkeypatch.setattr(CyclicCode, "to_descriptor", refuse)
    argv = ["analyze", "--n", "45", "--p", "2", "--s", "3", "--gens", "x+7", "--format", "csv"]
    assert zqu.cli.main(argv) == 1
    assert capsys.readouterr().err == message


def test_distance_gray_hamming():
    proc = run("distance", "--n", "7", "--p", "2", "--s", "2", "--gens",
               "3*x^3+x^2+2*x+1, u*(x+3)", "--closure", "module",
               "--metric", "gray-hamming", "--format", "json")
    data = json.loads(proc.stdout)
    assert data["value"] == 4 and data["exhaustive"] is True


PAPER_Z4_MODULE = ("--n", "7", "--p", "2", "--s", "2", "--gens", "3*x^3+x^2+2*x+1, u*(x+3)",
                   "--closure", "module")
PAPER_Z8_BUDGET = ("--n", "15", "--p", "2", "--s", "3", "--gens",
                   "x^10+6*x^9+x^8+6*x^7+3*x^5+7*x^4+4*x^3+7*x^2+5*x+1", "--budget", "4194304")
# floor 1, met by a multiple of one basis row at index 2^30
N21_Z4 = ("--n", "21", "--p", "2", "--s", "2", "--gens", "x^6+x^4+x^2+x+1")


@pytest.mark.parametrize("args, md5", [
    (PAPER_Z4_MODULE + ("--metric", "hamming", "--format", "json"),
     "95c1e0ab6098ab7d72f31ecf8ae76aac"),
    (PAPER_Z4_MODULE + ("--metric", "lee", "--format", "json"),
     "a950a71e29398ec36601a488a4820acb"),
    (PAPER_Z4_MODULE + ("--metric", "gray-hamming", "--format", "json"),
     "a049ac7256b53b8b66f8f95a2d55daa0"),
    (PAPER_Z4_MODULE + ("--metric", "lee"), "0a80e02d39998349781f9e641745d86c"),
    (PAPER_Z8_BUDGET + ("--format", "json"), "f224ce7ea68cefbe9ade737a4ba2548c"),
    (PAPER_Z8_BUDGET + ("--threads", "2"), "4112f91769fbcabd4823352bc5efed32"),
    (("--n", "1", "--p", "2", "--s", "10", "--gens", "1", "--format", "json"),
     "d596467fc4fe6beec84b8604804cd2f0"),
    (("--n", "3", "--p", "5", "--s", "2", "--gens", "x+24"), "58d51a0cb626ca70e642dcc5784bb02a"),
    (N21_Z4 + ("--budget", str(2**62 - 1)), "06ece5c24c2f4a61d7c253e2c6f69883"),
    (N21_Z4 + ("--budget", str(2**62)), "89da57bb6e861bba9abcd1db0e92cab6"),
    (N21_Z4 + ("--budget", str(10**25)), "1be35225ca6676b5df11b0a762a037c3"),
])
def test_distance_output_pinned(args, md5):
    # the value, the witness (the first word of least weight in scan order),
    # the words scanned and whether the value is exact; the Z8 run stops at
    # its budget, so the scan order itself is pinned, and its value meets
    # delta = 7, so it is exact
    proc = run("distance", *args)
    assert proc.returncode == 0
    assert hashlib.md5(proc.stdout.encode()).hexdigest() == md5


@pytest.mark.parametrize("budget", ["10000000000000000000000000", str(2**63)])
def test_two_thread_budget_past_2_63_matches_one_thread(budget):
    # --threads has no effect even where half the budget lies past 2^63, beyond an int64 index
    args = ("distance", "--n", "15", "--p", "2", "--s", "3", "--gens", "1", "--budget", budget)
    one, two = run(*args, "--threads", "1"), run(*args, "--threads", "2")
    assert (two.returncode, two.stderr) == (0, "")
    assert two.stdout == one.stdout and one.returncode == 0


def test_distance_zero_code_structured():
    proc = run("distance", "--n", "3", "--p", "2", "--s", "2", "--gens", "0",
               "--format", "json")
    assert proc.returncode == 2
    data = json.loads(proc.stdout)
    assert data["defined"] is False


def test_distance_zero_code_csv_is_one_row():
    proc = run("distance", "--n", "3", "--p", "2", "--s", "2", "--gens", "0",
               "--format", "csv")
    assert proc.returncode == 2
    assert proc.stdout.splitlines() == [
        "command,metric,defined,reason",
        "distance,hamming,False,the zero code has no nonzero codeword",
    ]


def test_distance_unsupported_metric_exits_2():
    proc = run("distance", "--n", "3", "--p", "2", "--s", "3", "--gens", "x+7",
               "--metric", "lee")
    assert proc.returncode == 2


def test_deterministic_output():
    args = ("analyze", "--n", "7", "--p", "2", "--s", "2", "--gens",
            "3*x^3+x^2+2*x+1, u*(x+3)", "--format", "json")
    assert run(*args).stdout == run(*args).stdout


def test_csv_factor():
    proc = run("factor", "--n", "3", "--p", "2", "--s", "2", "--format", "csv")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "index,degree,poly,basic_primitive"
    assert len(lines) == 3


FACTOR_15_OVER_Z8 = """\
x^15-1 over Z8+uZ8 factors into 5 basic irreducibles:
  f_1 = x+7  [degree 1] (basic primitive)
  f_2 = x^2+x+1  [degree 2] (basic primitive)
  f_3 = x^4+x^3+x^2+x+1  [degree 4]
  f_4 = x^4+3*x^3+6*x^2+4*x+1  [degree 4] (basic primitive)
  f_5 = x^4+4*x^3+6*x^2+3*x+1  [degree 4] (basic primitive)
"""


def test_factor_labels_primitivity_without_an_order_test(monkeypatch, capsys):
    import zqu.cli

    def refuse(f):
        raise AssertionError("factor reads primitivity off the cosets")

    monkeypatch.setattr("zqu.poly.is_primitive", refuse)
    assert zqu.cli.main(["factor", "--n", "15", "--p", "2", "--s", "3"]) == 0
    assert capsys.readouterr() == (FACTOR_15_OVER_Z8, "")


# Every option of every subcommand: an added flag fails here until the pin
# changes with it.
CLI_OPTIONS = {
    "factor": ["--format", "--help", "--n", "--p", "--s", "-h"],
    "codes": ["--count", "--enumerate", "--format", "--help", "--limit", "--n", "--p", "--s",
              "-h"],
    "analyze": ["--closure", "--format", "--gens", "--help", "--n", "--p", "--s", "-h"],
    "distance": ["--budget", "--closure", "--format", "--gens", "--help", "--metric", "--n",
                 "--p", "--s", "--threads", "-h"],
    "verify-paper": ["--format", "--help", "-h"],
}


def test_cli_options_are_pinned():
    import argparse

    import zqu.cli

    def options(parser):
        return sorted(o for action in parser._actions for o in action.option_strings)

    parser = zqu.cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert options(parser) == ["--help", "-h"]
    assert {name: options(p) for name, p in sub.choices.items()} == CLI_OPTIONS


def test_threads_flag():
    proc = run("distance", "--n", "7", "--p", "2", "--s", "2", "--gens",
               "3*x^3+x^2+2*x+1, u*(x+3)", "--closure", "module",
               "--metric", "lee", "--threads", "2", "--format", "json")
    assert json.loads(proc.stdout)["value"] == 4


def test_distance_nonpositive_budget_exits_2():
    for budget in ("0", "-5"):
        proc = run("distance", "--n", "7", "--p", "2", "--s", "2", "--gens", "x+3",
                   "--budget", budget)
        assert proc.returncode == 2
        assert "budget must be >= 1" in proc.stderr
        assert str(1 << 62) not in proc.stdout


def test_components_outside_the_four_families_exit_2():
    # (4, 2u) is an ideal of Z8 + uZ8 outside the four listed families
    for n, gens, factor in [("1", "4, u*(2)", "f_1 = x+7"),
                            ("7", "4*x+4, u*(2)", "f_2 = x^3+3*x^2+2*x+7")]:
        proc = run("analyze", "--n", n, "--p", "2", "--s", "3", "--gens", gens)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and factor in proc.stderr
        assert "Traceback" not in proc.stderr


def test_module_closure_outside_the_four_families_still_analyzed():
    proc = run("analyze", "--n", "1", "--p", "2", "--s", "3", "--gens", "4, u*(2)",
               "--closure", "module")
    assert proc.returncode == 0
    assert proc.stdout == (
        "cyclic code of length 1 over Z8+uZ8 [module closure]\n"
        "  generators: 4, 0+u*(2)\n"
        "  cardinality: 2^3\n"
        "  free: False\n"
        "  warning: module closure: canonical generators and components undefined\n"
    )


def test_huge_generator_exponent_folds_mod_n():
    # 10^12 = 1 mod 3; the dense parse used to end in a MemoryError traceback
    args = ("analyze", "--n", "3", "--p", "2", "--s", "2", "--gens")
    proc = run(*args, "x^1000000000000")
    assert proc.returncode == 0
    assert proc.stdout == run(*args, "x").stdout
    assert proc.stderr == ""


def test_generator_exponent_above_n_output_unchanged():
    proc = run("analyze", "--n", "3", "--p", "2", "--s", "2", "--gens", "x^4+x")
    assert proc.returncode == 0
    assert proc.stdout == (
        "cyclic code of length 3 over Z4+uZ4 [ideal closure]\n"
        "  generators: 2*x\n"
        "  cardinality: 2^6\n"
        "  canonical: f0 = x^3+1, f1 = 0, g1 = x^3+1\n"
        "  components: ['p_power@1', 'p_power@1']\n"
        "  free: False\n"
        "  warning: canonical generators violate the divisor-chain hypotheses;"
        " the q^(2n-k0-k1) cardinality formula does not apply\n"
    )


_IMPORT_PROBE = """
import json, sys, types
import zqu, zqu.cli
codes = [zqu.cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = [m for m in ("numpy", "concurrent.futures", "dataclasses", "csv") if m in sys.modules]
# zqu.metrics sits in sys.modules from the start; it is a plain module once its body has run
if type(sys.modules["zqu.metrics"]) is types.ModuleType:
    loaded.append("zqu.metrics")
modules = sorted(m for m in sys.modules if m.startswith("zqu."))
print(json.dumps({"exit": codes, "loaded": loaded, "modules": modules}), file=sys.stderr)
"""

DISTANCE_README = ["distance", "--n", "7", "--p", "2", "--s", "2", "--gens",
                   "3*x^3+x^2+2*x+1, u*(x+3)", "--closure", "module", "--metric", "lee"]


def probe_imports(*argvs):
    """Run zqu.cli.main on each argv in one fresh interpreter; return its
    stdout and a report: the exit codes, which of numpy / concurrent.futures /
    dataclasses / csv / zqu.metrics it loaded, and the sorted zqu.* modules
    in sys.modules."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True)
    return proc.stdout, json.loads(proc.stderr.splitlines()[-1])


def test_algebra_commands_load_neither_numpy_nor_thread_pool():
    _, report = probe_imports(
        ["factor", "--n", "15", "--p", "2", "--s", "3"],
        ["codes", "--n", "3", "--p", "2", "--s", "2", "--count"],
        ["analyze", "--n", "15", "--p", "2", "--s", "3", "--gens",
         "x^10+6*x^9+x^8+6*x^7+3*x^5+7*x^4+4*x^3+7*x^2+5*x+1"],
    )
    # The start-up that set-up time measures: a module added here fails this test.
    assert report == {"exit": [0, 0, 0], "loaded": [], "modules": [
        "zqu.cli", "zqu.codes", "zqu.errors", "zqu.galois", "zqu.howell", "zqu.metrics",
        "zqu.poly", "zqu.ring", "zqu.value"]}


def test_csv_output_loads_csv():
    _, report = probe_imports(["codes", "--n", "3", "--p", "2", "--s", "2", "--count",
                               "--format", "csv"])
    assert (report["exit"], report["loaded"]) == ([0], ["csv"])


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_closed_stdout_exits_0_without_traceback(fmt):
    # The reader keeps one line and closes the pipe, as `| head -1` does.  The
    # 2,000 codes make more than the pipe holds, so the writer meets the
    # closed end.
    argv = CMD + ["codes", "--n", "15", "--p", "2", "--s", "2", "--enumerate",
                  "--limit", "2000", "--format", fmt]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first.startswith(b"[1] |C| = " if fmt == "text" else b"index,generators,")
    assert (code, err) == (0, b"")


def test_single_thread_distance_loads_numpy_only():
    _, report = probe_imports(DISTANCE_README + ["--threads", "1"])
    assert (report["exit"], report["loaded"]) == ([0], ["numpy", "zqu.metrics"])


def test_two_thread_distance_output_matches_one_thread():
    one, _ = probe_imports(DISTANCE_README + ["--threads", "1"])
    two, report = probe_imports(DISTANCE_README + ["--threads", "2"])
    assert two == one
    # --threads has no effect: two threads load what one thread loads, no pool
    assert (report["exit"], report["loaded"]) == ([0], ["numpy", "zqu.metrics"])


def test_src_reads_no_environment():
    # every limit comes from a flag or keyword argument, never from hidden state
    import zqu

    sources = sorted(pathlib.Path(zqu.__file__).parent.glob("*.py"))
    assert "cli.py" in [path.name for path in sources]
    readers = [path.name for path in sources
               if re.search(r"\b(environ|getenv|env_int)\b", path.read_text())]
    assert readers == []


def test_src_imports_no_concurrency_module():
    # the distance scan is one serial kernel call: no second, concurrent route
    import ast

    import zqu

    sources = sorted(pathlib.Path(zqu.__file__).parent.glob("*.py"))
    assert "metrics.py" in [path.name for path in sources]
    banned = ("concurrent", "threading", "multiprocessing")
    users = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in banned for name in names):
                users.append(path.name)
    assert users == []


def test_src_has_one_value_class_implementation():
    # every value class derives from zqu.value.Value
    import ast

    import zqu

    sources = sorted(pathlib.Path(zqu.__file__).parent.glob("*.py"))
    assert "value.py" in [path.name for path in sources]
    banned = {"dataclasses", "collections.namedtuple", "typing.NamedTuple"}
    users = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {f"{node.value.id}.{node.attr}"}
            else:
                continue
            if names & banned:
                users.append(path.name)
    assert users == []


def test_src_names_divmod_monic_only_in_its_oracles():
    # remainders come from `%`; long division stays the independent route
    # of verify-paper and the tests
    import zqu

    sources = sorted(pathlib.Path(zqu.__file__).parent.glob("*.py"))
    assert "galois.py" in [path.name for path in sources]
    users = [path.name for path in sources if "divmod_monic" in path.read_text()]
    assert users == ["__init__.py", "poly.py", "verify.py"]


def test_zqu_environment_variables_change_nothing():
    clean = {k: v for k, v in os.environ.items() if not k.startswith("ZQU_")}
    dirty = dict(clean, ZQU_BUDGET="1", ZQU_ENUM_BUDGET="0", ZQU_MAX_DISTANCE_Q="0")
    for args in (DISTANCE_README + ["--format", "json"],
                 ["codes", "--n", "3", "--p", "2", "--s", "2", "--enumerate"]):
        want, got = run(*args, env=clean), run(*args, env=dirty)
        assert want.returncode == 0 and want.stdout
        assert (got.returncode, got.stdout) == (want.returncode, want.stdout)


def _fuzz_argv(rng):
    """One seeded CLI input; each field is invalid now and then."""

    def pick(valid, invalid):
        return rng.choice(invalid if rng.random() < 0.1 else valid)

    cmd = rng.choice(["factor", "codes", "analyze", "distance"])
    argv = [cmd, "--n", pick(["1", "2", "3", "5", "7", "9", "15"], ["0", "-3", "x"]),
            "--p", pick(["2", "2", "3", "5"], ["4", "1", "-2"]),
            "--s", pick(["1", "2", "2", "3"], ["0", "40"])]
    if cmd == "codes":
        argv += pick([["--count"], ["--enumerate"], ["--enumerate", "--limit", "3"]],
                     [["--enumerate", "--limit", "-1"], []])
    if cmd in ("analyze", "distance"):
        terms = ["x+3", "x^2+x+1", "2*x+2", "u", "u*(x+1)", "4+u*(2)", "3*x^3+x^2+2*x+1",
                 "0", "x^1000000000000"]
        gens = rng.sample(terms, rng.randint(1, 3))
        argv += ["--gens", pick([", ".join(gens)], ["x^^2", "u*(", "", "3*y", "x+", ","]),
                 "--closure", pick(["ideal", "module"], ["both"])]
    if cmd == "distance":
        argv += ["--metric", pick(["hamming", "lee", "gray-hamming"], ["euclid"]),
                 "--budget", pick(["1", "7", "64", "4096"], ["0", "-1"]),
                 "--threads", pick(["1", "1", "2"], ["0"])]
    argv += ["--format", pick(["json", "csv", "text"], ["xml"])]
    if rng.random() < 0.05:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--bogus", "--n"]))
    return argv


def test_cli_fuzz_gives_documented_exit_codes(monkeypatch, capsys):
    import zqu.cli

    monkeypatch.setattr("zqu.codes.DEFAULT_ENUM_BUDGET", 4096)
    rng = random.Random(17)
    start = time.perf_counter()
    exits = []
    for _ in range(200):
        argv = _fuzz_argv(rng)
        code = zqu.cli.main(argv)  # raises on any traceback
        out = capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        assert str(1 << 62) not in out.out + out.err, argv
        exits.append(code)
    assert time.perf_counter() - start < 10
    assert {0, 1, 2} <= set(exits)


def test_readme_library_tour_runs():
    # the README's "Library tour" block, run as written in a fresh
    # interpreter, then the values its comments state
    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    stated = ("import json\nprint(json.dumps([code.is_free() == g, code.cardinality(),"
              " code.bch_bound().delta, report.value, report.exhaustive, len(fact.factors)]))\n")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", tour + stated], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [True, [2, 30], 7, 7, True, 5]
