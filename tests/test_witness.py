"""Witness subdomains: the checker, the bundled fixtures, the lift, the search."""
from __future__ import annotations

import random
import re
from itertools import product

import pytest

from conftest import FIG_A, STAR6, TAA3, q_of
from ospmatch.classify import classify, scan_forbidden
from ospmatch.core import PrioritySet, Restriction, all_rankings
from ospmatch.da import da_match, da_match_product
from ospmatch.sweep import class_census
from ospmatch.witness import (
    Improvement,
    Subdomain,
    WitnessReport,
    _doomed,
    _draw_lists,
    _transport,
    check_witness,
    find_witness,
    fixtures,
    lift_witness,
)


def _pref(*cols: int) -> tuple[int, ...]:
    return tuple(c - 1 for c in cols)


def _sample_subdomain(rng: random.Random, n: int) -> Subdomain:
    """A subdomain from the sampler find_witness draws from, drawn whole."""
    return Subdomain(tuple(_draw_lists(rng, n)))


def test_subdomain_validation():
    with pytest.raises(ValueError):
        Subdomain((((0, 1, 2),), ((0, 1, 2),), ((0, 1, 2),)))  # all singletons
    with pytest.raises(ValueError):
        Subdomain((((0, 1, 2), (0, 1, 2)), ((0, 1, 2),), ((0, 1, 2),)))  # repeat
    with pytest.raises(ValueError):
        Subdomain(
            (((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0)), ((0, 1, 2),), ((0, 1, 2),))
        )  # too many


@pytest.mark.parametrize("order", [(0, 1), (0, 1, 1), (0, 1, 1.5), (0, 1, "2"), (0, 1, 2, 3)],
                         ids=["short", "repeated", "fraction", "string", "long"])
def test_subdomain_refuses_malformed_orders(order):
    with pytest.raises(ValueError, match=re.escape(f"applicant 1 holds a malformed order {order}")):
        Subdomain((((0, 1, 2), (2, 1, 0)), ((0, 1, 2), order), ((0, 1, 2),)))


def test_check_witness_two_same_lists():
    q = q_of("abc", "abc", "cab")
    subdomain = Subdomain((
        (_pref(3, 1, 2), _pref(3, 2, 1)),
        (_pref(1, 2, 3), _pref(2, 1, 3)),
        (_pref(1, 2, 3), _pref(1, 3, 2), _pref(2, 3, 1)),
    ))
    report = check_witness(q, subdomain)
    assert report.ok
    # every applicant with multiple types contributed evidence
    assert {imp.applicant for imp in report.improvements} == {0, 1, 2}
    # the three-type applicant has one improvement per truth
    assert sum(1 for imp in report.improvements if imp.applicant == 2) == 3


def test_check_witness_fails_on_implementable_table():
    subdomain = Subdomain((
        (_pref(1, 2, 3), _pref(2, 1, 3)),
        (_pref(1, 2, 3), _pref(2, 1, 3)),
        (_pref(1, 2, 3),),
    ))
    report = check_witness(TAA3, subdomain)
    assert not report.ok
    assert report.failed_applicant is not None


def test_check_witness_size_mismatch():
    subdomain = Subdomain((
        (_pref(1, 2, 3), _pref(2, 1, 3)),
        (_pref(1, 2, 3),),
        (_pref(1, 2, 3),),
    ))
    with pytest.raises(ValueError):
        check_witness(q_of("abcd", "abcd", "abcd", "abcd"), subdomain)


def test_fixture_inventory_covers_all_patterns():
    bundle = fixtures()
    assert len(bundle) == 9
    assert {f.pattern_letter for f in bundle} == {"a", "b", "c", "d", "e"}
    assert sum(1 for f in bundle if f.pattern_letter == "b") == 3
    assert sum(1 for f in bundle if f.pattern_letter == "d") == 3


def test_fixture_tables_match_the_case_analyses():
    by_label = {f.label: f for f in fixtures()}
    two_same = by_label["two-same/cab"]
    assert two_same.priorities.rankings == q_of("abc", "abc", "cab").rankings
    assert two_same.subdomain.type_lists[0] == (_pref(3, 1, 2), _pref(3, 2, 1))
    assert two_same.subdomain.type_lists[2] == (
        _pref(1, 2, 3), _pref(1, 3, 2), _pref(2, 3, 1))
    shared_top = by_label["shared-top"]
    assert shared_top.subdomain.type_lists[1] == (
        _pref(1, 2, 3), _pref(2, 1, 3), _pref(2, 3, 1))
    four = by_label["four-applicants"]
    assert four.subdomain.type_lists[0] == (_pref(4, 2, 1, 3), _pref(4, 3, 1, 2))
    assert four.subdomain.type_lists[3] == (_pref(1, 2, 3, 4), _pref(2, 1, 3, 4))


# Every bundled fixture, field for field: label, letter, table (one row per
# position) and types (per applicant, 1-based positions).  The two
# transported distinct-tops entries are built by ``_transport``.
PINNED_FIXTURES = (
    ("fully-cyclic", "a", "abc|bca|cab", "231,213,321 / 321,123,132 / 132,213"),
    ("two-same/cab", "b", "abc|abc|cab", "312,321 / 123,213 / 123,132,231"),
    ("two-same/cba", "b", "abc|abc|cba", "312,321 / 123,213 / 123,132,231"),
    ("two-same/bca", "b", "abc|abc|bca", "312,321 / 123,213 / 123,132,231"),
    ("shared-top", "c", "abc|acb|cba", "312,321 / 123,213,231 / 123,132,231"),
    ("distinct-tops/cab", "d", "abc|bac|cab", "213,312,321 / 321,132 / 231,123,132"),
    ("distinct-tops/cba", "d", "abc|bac|cba", "312,231 / 123,321,312 / 132,213,231"),
    ("distinct-tops/bca", "d", "abc|cba|bca", "213,321,312 / 231,132,123 / 123,312"),
    ("four-applicants", "e", "abcd|abdc|acbd|bacd",
     "4213,4312 / 3124,3412 / 2314,3124 / 1234,2134"),
)


def _types(text: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    return tuple(
        tuple(_pref(*map(int, order)) for order in ts.split(","))
        for ts in text.split(" / ")
    )


def test_fixtures_are_pinned():
    bundle = fixtures()
    assert len(bundle) == len(PINNED_FIXTURES)
    for fixture, (label, letter, table, types) in zip(bundle, PINNED_FIXTURES):
        assert fixture.label == label
        assert fixture.pattern_letter == letter
        assert fixture.priorities.rankings == q_of(*table.split("|")).rankings, label
        assert fixture.subdomain.type_lists == _types(types), label


def test_transport_refuses_tables_that_are_not_relabelings():
    shared_top, four = fixtures()[4], fixtures()[-1]
    # FIG_A (fully cyclic) is not a relabeling of the shared-top table
    assert _transport(shared_top.priorities, shared_top.subdomain, FIG_A) is None
    assert _transport(shared_top.priorities, shared_top.subdomain, four.priorities) is None


def test_every_fixture_verifies():
    for fixture in fixtures():
        assert check_witness(fixture.priorities, fixture.subdomain).ok, fixture.label


def test_every_fixture_table_is_flagged_by_scanner():
    for fixture in fixtures():
        found = scan_forbidden(fixture.priorities)
        assert found is not None
        assert found[1] == fixture.pattern_letter


def test_evidence_replays_through_da():
    for fixture in fixtures():
        ranks = fixture.priorities.rank_table()
        for imp in check_witness(fixture.priorities, fixture.subdomain).improvements:
            truth_outcome = da_match(ranks, imp.truth_profile)
            lie_outcome = da_match(ranks, imp.lie_profile)
            assert truth_outcome[imp.applicant] == imp.truth_position
            assert lie_outcome[imp.applicant] == imp.lie_position
            spot = {pos: i for i, pos in enumerate(imp.truth)}
            assert spot[imp.lie_position] < spot[imp.truth_position]


# Relabelings of the bundled tables, each with the witness the search over
# every (sigma, pi) relabeling pair transported onto it.
RELABELED_FIXTURES = (
    ("bca|bca|acb", "123,132,231 / 312,321 / 123,213"),
    ("abc|cab|bca", "321,312,231 / 231,132,123 / 123,312"),
    ("abc|bca|bca", "231,213,312 / 123,132 / 231,321"),
    ("acb|bca|bca", "231,213,312 / 123,132 / 231,321"),
    ("cab|bca|bca", "231,213,312 / 123,132 / 231,321"),
    ("acb|bac|bca", "321,312,213 / 132,123 / 321,231,213"),
    ("abc|cba|bca", "213,321,312 / 231,132,123 / 123,312"),
    ("acb|cba|bca", "312,231,213 / 132,213 / 321,123,132"),
    ("cab|acb|bca", "321,132 / 231,123,132 / 213,312,321"),
    ("cbad|bacd|bcda|bcad", "3241,2431 / 1342,1243 / 2431,2143 / 4321,3421"),
)


def test_lift_onto_relabeled_fixture_table():
    # a relabeling of a bundled table is its own forbidden restriction, and
    # the lift carries the first matching fixture onto it
    for table, types in RELABELED_FIXTURES:
        target = q_of(*table.split("|"))
        restriction, _ = scan_forbidden(target)
        assert restriction == Restriction(tuple(range(target.n)), tuple(range(target.n)))
        lifted = lift_witness(target, restriction)
        assert lifted.type_lists == _types(types), table
        assert check_witness(target, lifted).ok


def test_lift_refuses_a_restriction_that_is_not_forbidden():
    # not a bare StopIteration, which a generator would turn into RuntimeError
    r = Restriction((0, 1, 2), (0, 1, 2))
    with pytest.raises(ValueError, match=re.escape(f"{r} is not a forbidden pattern")):
        lift_witness(TAA3, r)
    with pytest.raises(ValueError, match="not a forbidden pattern"):
        list(lift_witness(TAA3, r) for _ in range(1))


def test_star_has_no_scan_hit():
    # STAR6 is limited cyclic, so there is nothing to lift
    assert scan_forbidden(STAR6) is None
    assert classify(STAR6).limited_cyclic


def _assert_lift_certifies(q: PrioritySet) -> None:
    result = classify(q)
    assert not result.limited_cyclic
    restriction, _ = result.witness
    lifted = lift_witness(q, restriction)
    assert check_witness(q, lifted).ok
    for i, ts in enumerate(lifted.type_lists):
        if i not in restriction.applicants:
            assert len(ts) == 1


@pytest.mark.parametrize("n", [3, 4])
def test_lift_certifies_every_class(n):
    rows = [row for row in class_census(n) if not row.limited_cyclic]
    assert len(rows) == {3: 6, 4: 746}[n]
    for row in rows:
        _assert_lift_certifies(PrioritySet.from_rankings(row.canonical))


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_lift_certifies_seeded_markets(n):
    rng = random.Random(f"lift/{n}")
    certified = 0
    while certified < 10:
        rows = [tuple(rng.sample(range(n), n)) for _ in range(n)]
        q = PrioritySet.from_rankings(rows)
        if classify(q).limited_cyclic:
            continue
        _assert_lift_certifies(q)
        certified += 1


def test_find_witness_succeeds_on_fully_cyclic():
    found = find_witness(FIG_A, budget=5000, seed=0)
    assert found is not None
    assert check_witness(FIG_A, found).ok


def test_find_witness_deterministic():
    a = find_witness(FIG_A, budget=5000, seed=3)
    b = find_witness(FIG_A, budget=5000, seed=3)
    assert a == b
    # iteration i draws from its own seed stream, so the first success
    # pins the result for every larger budget and none for smaller ones
    first = next(
        i for i in range(5000)
        if check_witness(FIG_A, _sample_subdomain(random.Random(f"3/{i}"), 3)).ok
    )
    assert find_witness(FIG_A, budget=first + 1, seed=3) == a
    assert find_witness(FIG_A, budget=first, seed=3) is None


def test_find_witness_gives_up_on_implementable_table():
    # no witness exists, so the full budget comes back empty
    assert find_witness(TAA3, budget=100_000, seed=1) is None


def test_find_witness_smoke_on_star():
    assert find_witness(STAR6, budget=10_000, seed=1) is None


def test_no_witness_ever_passes_on_implementable_tables():
    # a passing subdomain certifies non-implementability, so implementable
    # markets must reject every candidate
    for q in (TAA3, q_of("abc", "abc", "abc"), q_of("abc", "abc", "acb"),
              q_of("abc", "abc", "bac")):
        for i in range(300):
            rng = random.Random(f"neg/{q.rankings}/{i}")
            candidate = _sample_subdomain(rng, 3)
            assert not check_witness(q, candidate).ok


def test_witness_implies_scanner_flag():
    # positive certificates only ever appear alongside a forbidden pattern
    for fixture in fixtures():
        assert scan_forbidden(fixture.priorities) is not None
    found = find_witness(FIG_A, budget=5000, seed=4)
    assert found is not None and scan_forbidden(FIG_A) is not None


# ---------------------------------------------------------------------------
# check_witness against an independent oracle
# ---------------------------------------------------------------------------

def _oracle_da(ranks, prefs):
    """Applicant-proposing DA, free applicants queued in index order."""
    n = len(prefs)
    nxt, held, free = [0] * n, [-1] * n, list(range(n))
    while free:
        a = free.pop(0)
        x = prefs[a][nxt[a]]
        nxt[a] += 1
        if held[x] < 0:
            held[x] = a
        elif ranks[x][a] < ranks[x][held[x]]:
            free.append(held[x])
            held[x] = a
        else:
            free.append(a)
    return tuple(held.index(a) for a in range(n))


def _oracle_check_witness(q, subdomain):
    """check_witness as one dict-cached DA call per profile: for each truth,
    the worst outcome over opponents in product order, then the first lie
    and opponents that beat it."""
    ranks = q.rank_table()
    lists = subdomain.type_lists
    cache = {}

    def outcome(profile):
        if profile not in cache:
            cache[profile] = _oracle_da(ranks, profile)
        return cache[profile]

    def beat(i, truth):
        others = list(product(*(ts for j, ts in enumerate(lists) if j != i)))
        spot = {pos: k for k, pos in enumerate(truth)}
        worst_rank, worst = -1, None
        for rest in others:
            profile = rest[:i] + (truth,) + rest[i:]
            if spot[outcome(profile)[i]] > worst_rank:
                worst_rank, worst = spot[outcome(profile)[i]], profile
        for lie in lists[i]:
            if lie == truth:
                continue
            for rest in others:
                profile = rest[:i] + (lie,) + rest[i:]
                got = outcome(profile)[i]
                if spot[got] < worst_rank:
                    return Improvement(i, truth, lie, worst, profile, truth[worst_rank], got)
        return None

    found = []
    for i, ts in enumerate(lists):
        if len(ts) == 2:
            imp = beat(i, ts[0]) or beat(i, ts[1])
            if imp is None:
                return WitnessReport(False, tuple(found), i)
            found.append(imp)
        elif len(ts) == 3:
            for truth in ts:
                imp = beat(i, truth)
                if imp is None:
                    return WitnessReport(False, tuple(found), i, truth)
                found.append(imp)
    return WitnessReport(True, tuple(found))


def _planted(rng, n):
    """A random n-table with a bundled fixture's table planted on random
    applicants and positions."""
    small = rng.choice([f.priorities for f in fixtures() if f.priorities.n <= n])
    applicants = rng.sample(range(n), small.n)
    positions = rng.sample(range(n), small.n)
    rows = [rng.sample(range(n), n) for _ in range(n)]
    for r, pos in enumerate(positions):
        order = iter(applicants[a] for a in small.rankings[r])
        rows[pos] = [next(order) if a in applicants else a for a in rows[pos]]
    return PrioritySet.from_rankings(rows)


def test_check_witness_matches_oracle_on_fixtures_and_lifts():
    for fixture in fixtures():
        report = check_witness(fixture.priorities, fixture.subdomain)
        assert report == _oracle_check_witness(fixture.priorities, fixture.subdomain)
    rng = random.Random("oracle/lift")
    for n in range(3, 9):
        for _ in range(4):
            q = _planted(rng, n)
            lifted = lift_witness(q, classify(q).witness[0])
            report = check_witness(q, lifted)
            assert report.ok and report == _oracle_check_witness(q, lifted)


def test_check_witness_matches_oracle_on_sampled_subdomains():
    for n in range(3, 8):
        rng = random.Random(f"oracle/sample/{n}")
        for k in range(120):
            if k % 2:
                q = PrioritySet.from_rankings([rng.sample(range(n), n) for _ in range(n)])
            else:
                q = _planted(rng, n)
            candidate = _sample_subdomain(random.Random(f"oracle/{n}/{k}"), n)
            assert check_witness(q, candidate) == _oracle_check_witness(q, candidate)
    # passing reports, one improvement per required truth
    for seed in range(8):
        found = find_witness(FIG_A, budget=5000, seed=seed)
        report = check_witness(FIG_A, found)
        assert report.ok and report == _oracle_check_witness(FIG_A, found)


@pytest.mark.parametrize("rows", [((0,),), ((0, 1), (1, 0)), ((0, 1), (0, 1))])
def test_find_witness_returns_none_below_three_applicants(rows):
    # every market with one or two applicants is limited cyclic
    q = PrioritySet.from_rankings(rows)
    assert classify(q).limited_cyclic
    assert find_witness(q, budget=50, seed=0) is None


# ---------------------------------------------------------------------------
# The search's screen: a truth whose top position ranks its applicant first
# ---------------------------------------------------------------------------

def test_sure_top_iff_first_in_priority():
    # on every n = 3 table, a truth gets its top position against all 36
    # opponent profiles exactly when its applicant is first there
    everyone = all_rankings(3)
    for table in product(everyone, repeat=3):
        ranks = PrioritySet.from_rankings(table).rank_table()
        for a in range(3):
            for t in everyone:
                lists = [everyone] * 3
                lists[a] = (t,)
                sure = all(m[a] == t[0] for m in da_match_product(ranks, lists))
                assert sure == (table[t[0]][0] == a)


def test_doomed_lists_fail_check_witness():
    rng = random.Random("screen")
    flagged = 0
    for n in range(3, 9):
        tables = [PrioritySet.from_rankings([rng.sample(range(n), n) for _ in range(n)]),
                  _planted(rng, n)] + [q for q in (TAA3, STAR6) if q.n == n]
        for q in tables:
            firsts = [r[0] for r in q.rankings]
            for k in range(40):
                candidate = _sample_subdomain(random.Random(f"screen/{n}/{k}"), n)
                lists = candidate.type_lists
                if not any(_doomed(firsts, i, ts) for i, ts in enumerate(lists)):
                    continue
                flagged += 1
                assert not check_witness(q, candidate).ok
                for profile, match in zip(product(*lists), da_match_product(q.rank_table(), lists)):
                    for i, truth in enumerate(profile):
                        if firsts[truth[0]] == i:
                            assert match[i] == truth[0]
    assert flagged > 300


def _plain_search(q, budget, seed):
    """find_witness without the screen: (first passing iteration, sample)."""
    for i in range(budget):
        candidate = _sample_subdomain(random.Random(f"{seed}/{i}"), q.n)
        if check_witness(q, candidate).ok:
            return i, candidate
    return None


def test_find_witness_matches_the_plain_search():
    rng = random.Random("plain")
    hits = 0
    for n in range(3, 7):
        for q in (PrioritySet.from_rankings([rng.sample(range(n), n) for _ in range(n)]),
                  _planted(rng, n)):
            for seed in (0, 7):
                hit = _plain_search(q, 300, seed)
                if hit is None:
                    assert find_witness(q, 300, seed) is None
                    continue
                hits += 1
                first, found = hit
                assert find_witness(q, first, seed) is None
                assert find_witness(q, first + 1, seed) == found
    assert hits >= 4


def test_find_witness_first_success_is_pinned():
    # the first passing iteration of the plain search, per seed
    for seed, first in enumerate((460, 230, 14, 269, 542, 277, 281, 153)):
        assert find_witness(FIG_A, budget=first, seed=seed) is None
        assert find_witness(FIG_A, budget=first + 1, seed=seed) is not None


def test_find_witness_gives_up_on_limited_cyclic_classes():
    tables = [row.canonical for row in class_census(4) if row.limited_cyclic]
    assert len(tables) == 16
    for table in tables:
        assert find_witness(PrioritySet.from_rankings(table), budget=2000, seed=0) is None
