"""The three workloads: enumerate, analyze and distance.

Each workload draws rounds of items from a seeded `random.Random`.  A round
has a fixed composition (which (n, q) pairs, kinds and metrics, in which
order); the seed picks the concrete inputs inside it, so runs with different
seeds do the same kind and amount of work on different inputs.  Every item is
checked against facts computed here, independently of the code under test.
README.md says why each workload exists and what it leaves out.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field

from common import OUT, ROOT, child_env, warm
from tracer import installed

from zqu import CyclicCode, RPoly, factor_xn_minus_1, format_r_poly, make_ring
from zqu import metrics
from zqu.poly import parse_r_poly
from zqu.ring import (
    KIND_P_ALPHA_U,
    KIND_P_AND_U,
    KIND_P_POWER,
    KIND_U_P_POWER,
    ideal_descriptors,
)

CHILD_TIMEOUT_S = 60


class CheckFailed(Exception):
    """An output of zqu disagrees with what the benchmark expects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Item:
    kind: str
    n: int
    p: int
    s: int
    closure: str = "ideal"
    metric: str = ""
    gens: str = ""
    components: tuple = ()
    budget: int = 0
    facts: dict = field(default_factory=dict)

    def describe(self) -> dict:
        out = {"kind": self.kind, "n": self.n, "q": self.p**self.s, "closure": self.closure}
        if self.metric:
            out["metric"] = self.metric
        if self.components:
            out["components"] = [component_label(d) for d in self.components]
        out["generators"] = self.gens
        return out


def component_label(desc) -> str:
    alpha = "" if desc.alpha is None else "[" + ",".join(map(str, desc.alpha)) + "]"
    return f"{desc.kind}@{desc.index}{alpha}"


def component_exponent(desc, s: int, m: int) -> int:
    """log_p of the size of a component ideal of GR(R, m).

    An ideal with image (p^i) in GR(Z_q, m) and u-part u(p^j) has
    p^(m(s-i)) * p^(m(s-j)) elements.
    """
    i, j = {
        KIND_P_POWER: (desc.index, desc.index),
        KIND_U_P_POWER: (s, desc.index),
        KIND_P_ALPHA_U: (desc.index, min(desc.index, s - desc.index)),
        KIND_P_AND_U: (desc.index, 0),
    }[desc.kind]
    return m * (2 * s - i - j)


def is_free_by_components(components, s: int) -> bool:
    return all(d.kind == KIND_P_POWER and d.index in (0, s) for d in components)


def product(polys, params) -> RPoly:
    out = RPoly.one(params)
    for f in polys:
        out = out * f
    return out


class Workload:
    """A round composition (ROUND, or SMOKE_ROUND for --smoke) and how to run and check items."""

    name = ""
    in_process = True
    ROUND: list = []
    SMOKE_ROUND: list = []
    MIN_ROUNDS = 1  # an untraced run measures at least this many rounds
    PROBE = "python"  # reference probe resembling the items' hot path

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.round = self.SMOKE_ROUND if smoke else self.ROUND
        # (n, p, s) of the round, in order of first use: the caches set-up fills
        self.pairs = list(dict.fromkeys(self.pair_of(entry) for entry in self.round))

    @staticmethod
    def pair_of(entry) -> tuple[int, int, int]:
        return entry

    def prepare(self) -> None:
        """Work done once before measuring (not timed as items)."""

    def draw(self, rng) -> list[Item]:
        raise NotImplementedError

    def execute(self, item: Item, tracer) -> tuple[str, object]:
        """Run one item; returns its canonical output text and what check() needs."""
        raise NotImplementedError

    def check(self, item: Item, text: str, context) -> None:
        raise NotImplementedError

    def tracing(self, tracer):
        return installed(tracer)


class Enumerate(Workload):
    """In-process `codes --enumerate --format json` bodies on sampled component tuples."""

    name = "enumerate"
    ROUND = [(15, 2, 2), (15, 2, 3), (15, 2, 2), (15, 2, 3), (7, 2, 2)]
    SMOKE_ROUND = [(7, 2, 2), (7, 2, 2)]

    def prepare(self) -> None:
        warm(self.pairs)
        self.census = {}
        for n, p, s in self.pairs:
            degrees = factor_xn_minus_1(n, make_ring(p, s)).degrees
            self.census[n, p, s] = [ideal_descriptors(p, s, m) for m in degrees]

    def draw(self, rng) -> list[Item]:
        items = []
        for n, p, s in self.round:
            comps = tuple(rng.choice(options) for options in self.census[n, p, s])
            items.append(Item("code", n, p, s, components=comps))
        return items

    def execute(self, item, tracer):
        code = CyclicCode.from_components(item.n, make_ring(item.p, item.s), item.components)
        return json.dumps(code.to_descriptor()), None

    def check(self, item, text, context):
        desc = json.loads(text)
        item.gens = ", ".join(desc["generator_texts"])
        got = [(c["family"], c["index"], c["alpha"]) for c in desc["components"]]
        want = [(d.kind, d.index, None if d.alpha is None else list(d.alpha))
                for d in item.components]
        expect(got == want, f"components {got} != drawn {want}")
        free = is_free_by_components(item.components, item.s)
        expect(desc["free"] == free, f"free is {desc['free']}, components say {free}")
        degrees = factor_xn_minus_1(item.n, make_ring(item.p, item.s)).degrees
        exponent = sum(component_exponent(d, item.s, m) for d, m in zip(item.components, degrees))
        card = desc["cardinality"]
        expect(card == {"base": item.p, "exponent": exponent},
               f"cardinality {card} != {item.p}^{exponent}")


class Analyze(Workload):
    """One fresh `python -m zqu analyze --format json` process per item."""

    name = "analyze"
    in_process = False
    MIN_ROUNDS = 3
    PROBE = "process"
    # Per (n, p, s), the generator kinds of one round: a unit times a divisor
    # of x^n - 1 (ideal closure, known to be free), or a mixed pair
    # (p^i*g1, u*g2) in ideal or module closure.  Ideal closure at n = 17
    # builds degree-8 component censuses and n = 51 (t = 8) runs the 2^8
    # freeness search; with 3 rounds these slow classes hold the 10 samples
    # beyond the tail percentile, which lands inside the n = 17 ideal class.
    ROUND = [
        ((7, 2, 2), ["divisor", "mixed-module"]),
        ((15, 2, 2), ["mixed-ideal", "mixed-module"]),
        ((15, 2, 3), ["divisor", "mixed-module"]),
        ((5, 3, 2), ["divisor", "mixed-ideal", "mixed-module"]),
        ((17, 2, 2), ["divisor", "mixed-ideal", "mixed-module"]),
        ((17, 2, 3), ["mixed-ideal", "mixed-module"]),
        ((51, 2, 2), ["mixed-module"]),
    ]
    SMOKE_ROUND = [((7, 2, 2), ["divisor", "mixed-module"])]

    @staticmethod
    def pair_of(entry):
        return entry[0]

    def prepare(self) -> None:
        OUT.mkdir(exist_ok=True)
        self.spans_path = OUT / "spans-child.json"

    def _unit(self, rng, n, params) -> RPoly:
        # c + u*h(x) with c a unit of Z_q is a unit of R[x]/(x^n - 1)
        q, p = params.q, params.p
        c = rng.choice([a for a in range(1, q) if a % p])
        h = [rng.randrange(q) for _ in range(rng.randrange(1, n + 1))]
        return RPoly.make(params, [(c, h[0])] + [(0, b) for b in h[1:]])

    def _divisor(self, rng, factors, params) -> RPoly:
        while True:
            chosen = [f for f in factors if rng.random() < 0.5]
            if len(chosen) < len(factors):  # x^n - 1 itself would give the zero code
                return product(chosen, params)

    def draw(self, rng) -> list[Item]:
        items = []
        for (n, p, s), kinds in self.round:
            params = make_ring(p, s)
            factors = factor_xn_minus_1(n, params).factors
            for kind in kinds:
                closure = "module" if kind == "mixed-module" else "ideal"
                if kind == "divisor":
                    g = self._divisor(rng, factors, params)
                    gens = [self._unit(rng, n, params) * g]
                    facts = {"exponent": 2 * s * (n - g.degree)}
                else:
                    scale = p ** rng.randrange(1, s)
                    g1 = self._divisor(rng, factors, params) * self._unit(rng, n, params)
                    g2 = self._divisor(rng, factors, params) * self._unit(rng, n, params)
                    gens = [g1 * scale, g2.mul_u()]
                    facts = {}
                text = ", ".join(format_r_poly(g.reduce_cyclic(n)) for g in gens)
                items.append(Item(kind, n, p, s, closure=closure, gens=text, facts=facts))
        return items

    def execute(self, item, tracer):
        args = ["analyze", "--n", str(item.n), "--p", str(item.p), "--s", str(item.s),
                "--gens", item.gens, "--closure", item.closure, "--format", "json"]
        if tracer is None:
            cmd = [sys.executable, "-m", "zqu", *args]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
                   str(self.spans_path), *args]
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise CheckFailed(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if tracer is not None:
            tracer.extend(json.loads(self.spans_path.read_text()), tracer.item)
            self.spans_path.unlink()
        return proc.stdout, None

    def check(self, item, text, context):
        desc = json.loads(text)
        expect((desc["n"], desc["p"], desc["s"], desc["closure_mode"])
               == (item.n, item.p, item.s, item.closure), "descriptor echoes other inputs")
        expect(desc["cardinality"]["base"] == item.p, "cardinality base is not p")
        if item.kind == "divisor":
            expect(desc["free"] is True, "divisor generator not reported free")
            exp = desc["cardinality"]["exponent"]
            expect(exp == item.facts["exponent"],
                   f"exponent {exp} != 2*s*(n - deg g) = {item.facts['exponent']}")

    def tracing(self, tracer):
        return nullcontext(tracer)  # each traced item runs in a traced child


# The paper's codes, with the values it reports.
PAPER_Z4_MODULE = "3*x^3+x^2+2*x+1, u*(x+3)"
PAPER_Z8_FREE = "x^10+6*x^9+x^8+6*x^7+3*x^5+7*x^4+4*x^3+7*x^2+5*x+1"


class Distance(Workload):
    """In-process `min_distance(..., threads=1)` scans."""

    name = "distance"
    MIN_ROUNDS = 4
    PROBE = "numpy"
    # (kind, n, p, s, closure, metric, budget, paper value or log_p |C| target)
    # "seeded" draws a uniform code of the given size, "free" a uniform free
    # one.  The Z8 item scans 2^22 of 2^30 words; the three Z4 n = 15 items
    # are the next slowest class, and from 4 to 9 rounds the tail percentile
    # lands among them.
    ROUND = [
        ("paper", 7, 2, 2, "module", "lee", 1 << 20, 4),
        ("paper", 7, 2, 2, "module", "gray-hamming", 1 << 20, 4),
        ("paper", 15, 2, 3, "ideal", "hamming", 1 << 22, 7),
        ("seeded", 7, 2, 2, "ideal", "hamming", 1 << 20, 20),
        ("seeded", 15, 2, 2, "ideal", "hamming", 1 << 20, 20),
        ("free", 15, 2, 2, "ideal", "hamming", 1 << 20, 20),
        ("seeded", 15, 2, 2, "ideal", "hamming", 1 << 20, 20),
        ("seeded", 5, 3, 2, "ideal", "hamming", 1 << 20, 12),
        ("seeded", 7, 3, 2, "ideal", "hamming", 1 << 20, 12),
    ]
    SMOKE_ROUND = [
        ("paper", 7, 2, 2, "module", "lee", 1 << 20, 4),
        ("seeded", 5, 3, 2, "ideal", "hamming", 1 << 20, 8),
        ("seeded", 7, 2, 2, "ideal", "hamming", 1 << 20, 12),
    ]

    @staticmethod
    def pair_of(entry):
        return entry[1:4]

    def prepare(self) -> None:
        warm(self.pairs)
        # per ((n, p, s), free only): for each factor, descriptors grouped by
        # log_p of their size
        self.groups = {}
        for n, p, s in self.pairs:
            degrees = factor_xn_minus_1(n, make_ring(p, s)).degrees
            for free in (False, True):
                per_factor = []
                for m in degrees:
                    by_exp = defaultdict(list)
                    for d in ideal_descriptors(p, s, m):
                        if not free or is_free_by_components([d], s):
                            by_exp[component_exponent(d, s, m)].append(d)
                    per_factor.append(dict(by_exp))
                self.groups[(n, p, s), free] = per_factor

    def _sample(self, rng, key, target) -> tuple:
        """A uniform component tuple among those (of free codes only, when
        key[1]) whose code has p^target words."""
        groups = self.groups[key]
        ways = [defaultdict(int) for _ in range(len(groups) + 1)]
        ways[-1][0] = 1
        for l in reversed(range(len(groups))):
            for e, descs in groups[l].items():
                for rest, w in ways[l + 1].items():
                    ways[l][e + rest] += len(descs) * w
        if not ways[0][target]:
            raise ValueError(f"no code of size p^{target} for {key}")
        out, remaining = [], target
        for l, by_exp in enumerate(groups):
            options = [(e, len(d) * ways[l + 1][remaining - e]) for e, d in by_exp.items()
                       if ways[l + 1].get(remaining - e)]
            e = rng.choices([e for e, _ in options], weights=[w for _, w in options])[0]
            out.append(rng.choice(by_exp[e]))
            remaining -= e
        return tuple(out)

    def draw(self, rng) -> list[Item]:
        items = []
        for kind, n, p, s, closure, metric, budget, fact in self.round:
            item = Item(kind, n, p, s, closure=closure, metric=metric, budget=budget)
            if kind == "paper":
                item.gens = PAPER_Z8_FREE if p**s == 8 else PAPER_Z4_MODULE
                item.facts = {"value": fact}
            else:
                item.components = self._sample(rng, ((n, p, s), kind == "free"), fact)
                item.facts = {"exponent": fact}
            items.append(item)
        return items

    def execute(self, item, tracer):
        params = make_ring(item.p, item.s)
        if item.components:
            code = CyclicCode.from_components(item.n, params, item.components)
        else:
            gens = [parse_r_poly(t.strip(), params) for t in item.gens.split(",")]
            code = CyclicCode(item.n, params, gens, item.closure)
        # through the module attribute, so that a traced run sees the call
        report = metrics.min_distance(code, item.metric, budget=item.budget, threads=1)
        text = json.dumps({"n": item.n, "q": item.p**item.s, **report.to_json()})
        return text, (code, report)

    def check(self, item, text, context):
        code, report = context
        if not item.gens:
            item.gens = ", ".join(format_r_poly(g) for g in code.generators)
        witness = report.witness
        expect(code.contains(witness.to_rpoly()), "witness is not a codeword")
        weight = metrics.weight_of(witness, item.metric)
        expect(weight == report.value, f"witness weight {weight} != reported {report.value}")
        base, exp = code.cardinality()
        words = base**exp - 1
        expect(report.exhaustive == (words <= item.budget),
               f"exhaustive is {report.exhaustive} for {words} words, budget {item.budget}")
        scanned = words if report.exhaustive else item.budget
        expect(report.words_scanned == scanned,
               f"scan covered {report.words_scanned} words, expected {scanned}")
        if "value" in item.facts:
            expect(report.value == item.facts["value"],
                   f"value {report.value} != paper value {item.facts['value']}")
        else:
            expect(exp == item.facts["exponent"], f"|C| = {base}^{exp}, drew p^{item.facts['exponent']}")
        if item.metric != "hamming":
            return
        if item.components:
            free = is_free_by_components(item.components, item.s)
        else:
            free = code.is_free() is not None
        if free:
            delta = code.bch_bound().delta
            expect(report.value >= delta, f"value {report.value} below BCH delta {delta}")


WORKLOADS = {w.name: w for w in (Enumerate, Analyze, Distance)}
