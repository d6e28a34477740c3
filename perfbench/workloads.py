"""The benchmark's workloads, their correctness gate and per-layer metrics.

Each workload builds its inputs from the benchmark seed and has two
parts, both run through the program's public functions and both checked:

* the full workload (``run_full``), run once per run.  It checks the
  paper's claims at full size, sets ``peak_rss_mb``, and in a traced run
  gives the per-layer metrics;
* the timed pass (``run_pass``): the same calls on inputs small enough
  that no call lasts more than a few milliseconds, repeated for the rest
  of the run.  ``wall_s`` and ``cpu_s`` come from it (see README.md,
  Noise, for why the timed calls are kept this short).

Spans are taken only around calls into the program (and the two ``json``
calls of the tree round trip), never inside it.

* ``sweep4``: the exhaustive n = 4 classify == scan sweep and the class
  census; the timed pass is the same sweep and census at n = 3.  Only
  the sweep and classify kernels work here; it is the no-change control
  for tree, JSON, DA and witness work.  Its inputs are every priority
  set, so they do not depend on the seed.
* ``synth_verify``: limited-cyclic markets through the ``synthesize -o``
  then ``verify-tree`` steps.  In the full workload the n = 4 markets are
  checked over all 331,776 profiles (DA and the tree walk dominate) and
  the n = 6 markets on a seeded sample (synthesis, JSON and
  ``check_osp`` dominate).  The timed pass runs eight n = 4 markets with
  a short seeded sample.
* ``witness``: tables with a planted forbidden pattern through
  ``find_witness`` / ``check_witness`` and a DA replay of the evidence,
  plus the bundled fixtures.  DA runs as many tiny calls; searches that
  exhaust their budget are timed too.  The timed pass searches fewer
  tables with a budget of a few samples.
"""
from __future__ import annotations

import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ospmatch import (  # noqa: E402
    PrioritySet,
    check_implements,
    check_osp,
    check_witness,
    classify,
    find_witness,
    fixtures,
    scan_forbidden,
    synthesize,
    validate,
)
from ospmatch.da import da_match  # noqa: E402
from ospmatch.jsonio import parse_tree, tree_to_doc  # noqa: E402
from ospmatch.sweep import class_census, sweep_equivalence  # noqa: E402

import inputs  # noqa: E402
from spans import Span, self_times  # noqa: E402

# One small limited-cyclic table, used to warm every code path up.
_TAA3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2))


class Gate:
    """Counts correctness checks attempted and failed, and keeps the first
    misses (a timed pass repeats thousands of times)."""

    KEEP = 100

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.misses) < self.KEEP:
                self.misses.append(what)


def _canon(table) -> tuple:
    """Relabeling class of a table: least relabeled form with the lists
    sorted.  Kept here so the gate does not trust the program's own."""
    k = len(table[0])
    return min(
        tuple(sorted(tuple(sigma[x] for x in row) for row in table))
        for sigma in itertools.permutations(range(k))
    )


# ---------------------------------------------------------------------------
# sweep4
# ---------------------------------------------------------------------------

def _letters(*rows: str) -> tuple:
    return tuple(tuple("abcd".index(c) for c in row) for row in rows)


# The cyclic n = 4 sets with no forbidden 3x3 restriction fall into these
# four relabeling classes (acceptance criterion 3).
_CYCLIC_NO_SMALL_WITNESS = frozenset(_canon(t) for t in (
    _letters("dabc", "dabc", "dacb", "dbac"),
    _letters("abcd", "abcd", "acbd", "badc"),
    _letters("abcd", "abdc", "acbd", "bacd"),
    _letters("abcd", "abcd", "acbd", "bacd"),
))


# The non-implementable n = 3 classes are the paper's six 3x3 tables.
_FORBIDDEN3 = frozenset(_canon(t) for t in inputs.FORBIDDEN if len(t) == 3)


def _sweep(tr, n: int) -> dict:
    mid = f"n{n}-all"
    with tr.span("perfbench.market", mid):
        with tr.span("sweep.sweep_equivalence", mid) as span:
            result = sweep_equivalence(n)
        span.note(sets=result.total)
        with tr.span("sweep.class_census", mid) as span:
            rows = class_census(n)
        span.note(classes=len(rows))
    return {"result": result, "rows": rows}


class Sweep4:
    def __init__(self, seed: int) -> None:
        self.digest_payload: Any = {"workload": "sweep4", "n": [4, 3], "sets": "all"}
        self.market_sizes = {"n4-all": 4, "n3-all": 3}

    def run_full(self, tr) -> dict:
        return _sweep(tr, 4)

    def run_pass(self, tr) -> dict:
        return _sweep(tr, 3)

    def check_pass(self, out: dict, gate: Gate) -> None:
        result, rows = out["result"], out["rows"]
        gate.check(result.total == 216, f"n = 3 sweep covered {result.total} sets")
        gate.check(not result.mismatches,
                   f"{len(result.mismatches)} n = 3 classify/scan mismatches")
        gate.check(result.limited_cyclic == 78,
                   f"{result.limited_cyclic} limited-cyclic n = 3 sets")
        gate.check(len(rows) == 10, f"{len(rows)} n = 3 classes")
        gate.check({_canon(r.canonical) for r in rows if not r.limited_cyclic} == _FORBIDDEN3,
                   "n = 3 non-implementable classes differ from the paper's tables")

    def check_full(self, out: dict, gate: Gate) -> None:
        result, rows = out["result"], out["rows"]
        gate.check(result.total == 331_776, f"sweep covered {result.total} sets")
        gate.check(not result.mismatches,
                   f"{len(result.mismatches)} classify/scan mismatches")
        gate.check(result.limited_cyclic == 2_568,
                   f"{result.limited_cyclic} limited-cyclic sets")
        found = {_canon(t) for t in result.cyclic_no_small_witness}
        gate.check(found == _CYCLIC_NO_SMALL_WITNESS,
                   "cyclic sets without a 3x3 witness differ from criterion 3")
        gate.check(len(rows) == 762, f"{len(rows)} classes")
        gate.check(sum(r.count for r in rows) == 331_776, "class counts do not sum up")
        gate.check(sum(1 for r in rows if r.limited_cyclic) == 16,
                   "limited-cyclic class count")
        gate.check(sum(r.count for r in rows if r.limited_cyclic) == 2_568,
                   "limited-cyclic class members")

    def probe(self, tr, out: dict, gate: Gate) -> None:
        """classify and scan_forbidden on every class representative."""
        for i, row in enumerate(out["rows"]):
            mid = f"n4-class{i}"
            q = PrioritySet.from_rankings(row.canonical)
            with tr.span("classify.classify", mid):
                verdict = classify(q)
            with tr.span("classify.scan_forbidden", mid):
                hit = scan_forbidden(q)
            gate.check(verdict.limited_cyclic == row.limited_cyclic,
                       f"classify disagrees with the census on class {i}")
            gate.check((hit is None) == row.limited_cyclic,
                       f"scan_forbidden disagrees with the census on class {i}")


# ---------------------------------------------------------------------------
# synth_verify
# ---------------------------------------------------------------------------

# Block shapes and pair flip counts are pinned per slot because they set
# the tree size; the seed draws labels and positions.  With these pins the
# cost of a pass barely moves between seeds.
N4_SHAPES = ((2, 2), (1, 3))
N6_SHAPES = ((3, 3), (3, 2, 1))
N6_SAMPLES = 20_000
DA_PROBE_PROFILES = 20_000
# The timed pass: n = 4 markets of these shapes, each checked on a short
# seeded sample.
PASS_SHAPES = ((2, 2), (1, 3), (3, 1), (2, 1, 1)) * 2
PASS_SAMPLES = 300


@dataclass
class Market:
    id: str
    n: int
    table: tuple
    samples: int | None = None  # None: every profile
    sample_seed: int = 0


class SynthVerify:
    def __init__(self, seed: int) -> None:
        rng = random.Random(f"synth_verify/{seed}")
        markets = [
            Market(f"n4-{i}", 4, inputs.random_limited_cyclic(rng, shape, 2))
            for i, shape in enumerate(N4_SHAPES)
        ]
        markets.append(Market("n6-star6", 6, inputs.STAR6, N6_SAMPLES))
        markets += [
            Market(f"n6-{i}", 6, inputs.random_limited_cyclic(rng, shape, 3), N6_SAMPLES)
            for i, shape in enumerate(N6_SHAPES)
        ]
        short = [
            Market(f"p4-{i}", 4, inputs.random_limited_cyclic(rng, shape, 2), PASS_SAMPLES)
            for i, shape in enumerate(PASS_SHAPES)
        ]
        for m in markets + short:
            m.sample_seed = rng.randrange(2**31)
        self.markets = markets
        self.short = short
        self.market_sizes = {m.id: m.n for m in markets + short}
        self.digest_payload = [[m.id, m.table, m.samples, m.sample_seed]
                               for m in markets + short]

    def run_full(self, tr) -> list[dict]:
        return self._run(tr, self.markets)

    def run_pass(self, tr) -> list[dict]:
        return self._run(tr, self.short)

    def check_full(self, outcomes: list[dict], gate: Gate) -> None:
        self._check(self.markets, outcomes, gate)

    def check_pass(self, outcomes: list[dict], gate: Gate) -> None:
        self._check(self.short, outcomes, gate)

    def _run(self, tr, markets: list[Market]) -> list[dict]:
        outcomes = []
        for m in markets:
            with tr.span("perfbench.market", m.id):
                outcomes.append(self._market(tr, m))
        return outcomes

    @staticmethod
    def _market(tr, m: Market) -> dict:
        q = PrioritySet.from_rankings(m.table)
        with tr.span("classify.classify", m.id):
            verdict = classify(q)
        if not verdict.limited_cyclic:
            return {"limited_cyclic": False}
        with tr.span("synth.synthesize", m.id) as span:
            tree = synthesize(q)
        nodes, leaves = tree.node_count(), tree.leaf_count()
        span.note(nodes=nodes, leaves=leaves)
        with tr.span("jsonio.tree_to_doc", m.id):
            doc = tree_to_doc(tree)
        with tr.span("json.dumps", m.id) as span:
            text = json.dumps(doc)
        span.note(bytes=len(text.encode()))
        del tree, doc
        with tr.span("json.loads", m.id):
            doc = json.loads(text)
        with tr.span("jsonio.parse_tree", m.id):
            parsed, _ = parse_tree(doc)
        del text, doc
        with tr.span("mechanism.validate", m.id):
            valid = validate(parsed)
        with tr.span("mechanism.check_osp", m.id):
            osp = check_osp(parsed)
        with tr.span("mechanism.check_implements", m.id) as span:
            implements = check_implements(parsed, q, samples=m.samples, seed=m.sample_seed)
        span.note(profiles=implements.checked)
        return {
            "limited_cyclic": True,
            "nodes": nodes,
            "leaves": leaves,
            "round_trip": (parsed.node_count(), parsed.leaf_count()) == (nodes, leaves),
            "valid": valid.ok,
            "osp": osp.ok,
            "implements": implements.ok,
            "checked": implements.checked,
        }

    @staticmethod
    def _check(markets: list[Market], outcomes: list[dict], gate: Gate) -> None:
        for m, out in zip(markets, outcomes):
            gate.check(out["limited_cyclic"], f"{m.id}: classify rejects a limited-cyclic market")
            if not out["limited_cyclic"]:
                continue
            expected = m.samples or math.factorial(m.n) ** m.n
            gate.check(out["round_trip"], f"{m.id}: tree changed in the JSON round trip")
            gate.check(out["valid"], f"{m.id}: tree fails validate")
            gate.check(out["osp"], f"{m.id}: tree fails check_osp")
            gate.check(out["implements"], f"{m.id}: tree disagrees with DA")
            gate.check(out["checked"] == expected,
                       f"{m.id}: {out['checked']} profiles checked, expected {expected}")

    def probe(self, tr, out: list[dict], gate: Gate) -> None:
        """scan_forbidden on every market (the full-scan worst case, since
        all are limited cyclic), and a fixed slice of the checked profiles
        replayed through da_match alone."""
        for m in self.markets:
            q = PrioritySet.from_rankings(m.table)
            with tr.span("classify.scan_forbidden", m.id):
                hit = scan_forbidden(q)
            gate.check(hit is None, f"{m.id}: scan_forbidden finds a pattern")
            rankings = list(itertools.permutations(range(m.n)))
            universe = range(len(rankings))
            if m.samples is None:  # the exhaustive check's profile order
                profiles = itertools.islice(
                    itertools.product(universe, repeat=m.n), DA_PROBE_PROFILES)
            else:  # the sampled check's profile stream
                rng = random.Random(m.sample_seed)
                profiles = (tuple(rng.choice(universe) for _ in range(m.n))
                            for _ in range(min(m.samples, DA_PROBE_PROFILES)))
            batch = [tuple(rankings[t] for t in ids) for ids in profiles]
            ranks = q.rank_table()
            with tr.span("da.da_match", m.id) as span:
                for prefs in batch:
                    da_match(ranks, prefs)
            span.note(calls=len(batch), probe=True)


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

WITNESS_TABLES = {3: 60, 4: 50, 5: 24, 6: 10}  # tables per market size
WITNESS_BUDGET = 300
WITNESS_SEARCH_SEED = 7
# The timed pass: fewer tables, each search a few samples long.
PASS_TABLES = {3: 32, 4: 32, 5: 24, 6: 16}
PASS_BUDGET = 5


class Witness:
    def __init__(self, seed: int) -> None:
        rng = random.Random(f"witness/{seed}")
        given = [(f"fixture-{f.label}", f.priorities.rankings, f.subdomain, 0)
                 for f in fixtures()]
        self.markets = [
            (f"w{n}-{i}", inputs.random_not_limited_cyclic(rng, n), None, WITNESS_BUDGET)
            for n, count in WITNESS_TABLES.items()
            for i in range(count)
        ] + given
        self.short = [
            (f"p{n}-{i}", inputs.random_not_limited_cyclic(rng, n), None, PASS_BUDGET)
            for n, count in PASS_TABLES.items()
            for i in range(count)
        ] + given
        self.market_sizes = {m[0]: len(m[1]) for m in self.markets + self.short}
        self.digest_payload = {
            "search_seed": WITNESS_SEARCH_SEED,
            "markets": [[mid, table, budget] for mid, table, _, budget in self.markets + self.short],
        }

    def run_full(self, tr) -> list[dict]:
        return self._run(tr, self.markets)

    def run_pass(self, tr) -> list[dict]:
        return self._run(tr, self.short)

    def _run(self, tr, markets) -> list[dict]:
        outcomes = []
        for mid, table, given, budget in markets:
            with tr.span("perfbench.market", mid):
                outcomes.append(self._market(tr, mid, table, given, budget))
        return outcomes

    @staticmethod
    def _market(tr, mid: str, table, given, budget: int) -> dict:
        q = PrioritySet.from_rankings(table)
        out: dict[str, Any] = {"id": mid, "searched": given is None}
        with tr.span("classify.classify", mid):
            out["limited_cyclic"] = classify(q).limited_cyclic
        subdomain = given
        if given is None:
            with tr.span("witness.find_witness", mid) as span:
                subdomain = find_witness(q, budget=budget, seed=WITNESS_SEARCH_SEED)
            span.note(found=subdomain is not None, budget=budget)
        out["found"] = subdomain is not None
        if subdomain is None:
            return out
        with tr.span("witness.check_witness", mid):
            report = check_witness(q, subdomain)
        out["certified"] = report.ok
        ranks = q.rank_table()
        replays = []
        for imp in report.improvements:
            i = imp.applicant
            with tr.span("da.da_match", mid) as span:
                truth_match = da_match(ranks, imp.truth_profile)
            span.note(calls=1)
            with tr.span("da.da_match", mid) as span:
                lie_match = da_match(ranks, imp.lie_profile)
            span.note(calls=1)
            replays.append(
                truth_match[i] == imp.truth_position
                and lie_match[i] == imp.lie_position
                and imp.truth.index(imp.lie_position) < imp.truth.index(imp.truth_position)
                and imp.truth_profile[i] == imp.truth
                and imp.lie_profile[i] == imp.lie
                and all(r in subdomain.type_lists[j] for j, r in enumerate(imp.truth_profile))
                and all(r in subdomain.type_lists[j] for j, r in enumerate(imp.lie_profile))
            )
        out["replays"] = replays
        return out

    def check_full(self, outcomes: list[dict], gate: Gate) -> None:
        for out in outcomes:
            mid = out["id"]
            gate.check(not out["limited_cyclic"], f"{mid}: classify accepts a planted pattern")
            if not out["searched"]:
                gate.check(out["found"], f"{mid}: fixture missing")
            if out["found"]:
                gate.check(out["certified"], f"{mid}: witness fails check_witness")
                gate.check(bool(out["replays"]), f"{mid}: witness carries no evidence")
                for k, ok in enumerate(out["replays"]):
                    gate.check(ok, f"{mid}: evidence {k} does not replay through DA")

    check_pass = check_full

    def probe(self, tr, out: list[dict], gate: Gate) -> None:
        """scan_forbidden on every market; each must show its pattern."""
        for mid, table, _, _ in self.markets:
            with tr.span("classify.scan_forbidden", mid):
                hit = scan_forbidden(PrioritySet.from_rankings(table))
            gate.check(hit is not None, f"{mid}: scan_forbidden misses the planted pattern")


WORKLOADS: dict[str, Callable[[int], Any]] = {
    "sweep4": Sweep4,
    "synth_verify": SynthVerify,
    "witness": Witness,
}


def warm_up(name: str) -> None:
    """Run each public function the workload uses once on a tiny input, so
    imports, lazy tables and caches are built before the timed pass."""
    q = PrioritySet.from_rankings(_TAA3)
    classify(q)
    scan_forbidden(q)
    if name == "sweep4":
        sweep_equivalence(2)
        class_census(2)
    elif name == "synth_verify":
        tree, _ = parse_tree(json.loads(json.dumps(tree_to_doc(synthesize(q)))))
        validate(tree)
        check_osp(tree)
        check_implements(tree, q, samples=100)
    elif name == "witness":
        fixture = fixtures()[0]
        find_witness(fixture.priorities, budget=20, seed=WITNESS_SEARCH_SEED)
        check_witness(fixture.priorities, fixture.subdomain)
        da_match(q.rank_table(), _TAA3)


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one traced pass plus its probes
# ---------------------------------------------------------------------------

def layer_metrics(spans: list[Span], market_sizes: dict[str, int]) -> dict[str, tuple[float, str]]:
    selfs = self_times(spans)
    rows = [(s, t, market_sizes.get(s.market)) for s, t in zip(spans, selfs)]

    def pick(names: tuple[str, ...], n: int | None, keep=lambda s: True):
        return [(s, t) for s, t, size in rows
                if s.name in names and (n is None or size == n) and keep(s)]

    def secs(*names: str, n: int | None = None) -> float:
        return sum(t for _, t in pick(names, n))

    def total(name: str, key: str, n: int | None = None, keep=lambda s: True) -> float:
        return sum(s.counts.get(key, 0) for s, _ in pick((name,), n, keep))

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    out: dict[str, tuple[float, str]] = {}
    sweep_s = secs("sweep.sweep_equivalence")
    out["sweep.sweep_equivalence_s"] = (sweep_s, "s")
    out["sweep.sets_per_s"] = (rate(total("sweep.sweep_equivalence", "sets"), sweep_s), "1/s")
    out["sweep.class_census_s"] = (secs("sweep.class_census"), "s")
    out["sweep.classes"] = (total("sweep.class_census", "classes"), "count")

    n_classify = len(pick(("classify.classify",), None))
    n_scan = len(pick(("classify.scan_forbidden",), None))
    out["classify.classify_us"] = (1e6 * rate(secs("classify.classify"), n_classify), "us")
    out["classify.scan_forbidden_us"] = (1e6 * rate(secs("classify.scan_forbidden"), n_scan), "us")
    out["classify.calls"] = (n_classify, "count")

    def da(suffix: str, n: int | None) -> None:
        replays = total("da.da_match", "calls", n, lambda s: not s.counts.get("probe"))
        profiles = total("mechanism.check_implements", "profiles", n)
        all_calls = total("da.da_match", "calls", n)
        out["da.calls" + suffix] = (profiles + replays, "count")
        out["da.us_per_call" + suffix] = (1e6 * rate(secs("da.da_match", n=n), all_calls), "us")

    da("", None)
    for n in (4, 6):
        sfx = f".n{n}"
        synth_s = secs("synth.synthesize", n=n)
        nodes = total("synth.synthesize", "nodes", n)
        out["synth.synthesize_s" + sfx] = (synth_s, "s")
        out["synth.nodes_per_s" + sfx] = (rate(nodes, synth_s), "1/s")
        out["synth.nodes" + sfx] = (nodes, "count")
        out["synth.leaves" + sfx] = (total("synth.synthesize", "leaves", n), "count")
        out["jsonio.encode_s" + sfx] = (secs("jsonio.tree_to_doc", "json.dumps", n=n), "s")
        out["jsonio.decode_s" + sfx] = (secs("json.loads", "jsonio.parse_tree", n=n), "s")
        out["jsonio.tree_bytes" + sfx] = (total("json.dumps", "bytes", n), "bytes")
        implements_s = secs("mechanism.check_implements", n=n)
        profiles = total("mechanism.check_implements", "profiles", n)
        out["mechanism.validate_s" + sfx] = (secs("mechanism.validate", n=n), "s")
        out["mechanism.check_osp_s" + sfx] = (secs("mechanism.check_osp", n=n), "s")
        out["mechanism.check_implements_s" + sfx] = (implements_s, "s")
        out["mechanism.profiles_per_s" + sfx] = (rate(profiles, implements_s), "1/s")
        out["mechanism.profiles" + sfx] = (profiles, "count")
        da(sfx, n)

    searches = pick(("witness.find_witness",), None)
    failed = [(s, t) for s, t in searches if not s.counts["found"]]
    out["witness.find_witness_s"] = (sum(t for _, t in searches), "s")
    out["witness.check_witness_s"] = (secs("witness.check_witness"), "s")
    out["witness.found_ratio"] = (
        rate(sum(1 for s, _ in searches if s.counts["found"]), len(searches)), "ratio")
    out["witness.exhausted_samples_per_s"] = (
        rate(sum(s.counts["budget"] for s, _ in failed), sum(t for _, t in failed)), "1/s")
    return out
