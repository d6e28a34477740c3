"""Witness subdomains: the checker, the bundled fixtures, the search."""
from __future__ import annotations

import random

import pytest

from conftest import FIG_A, STAR6, TAA3, q_of
from ospmatch.classify import scan_forbidden
from ospmatch.da import da_match
from ospmatch.witness import (
    Subdomain,
    _sample_subdomain,
    check_witness,
    find_witness,
    fixture_for,
    fixtures,
)


def _pref(*cols: int) -> tuple[int, ...]:
    return tuple(c - 1 for c in cols)


def test_subdomain_validation():
    with pytest.raises(ValueError):
        Subdomain((((0, 1, 2),), ((0, 1, 2),), ((0, 1, 2),)))  # all singletons
    with pytest.raises(ValueError):
        Subdomain((((0, 1, 2), (0, 1, 2)), ((0, 1, 2),), ((0, 1, 2),)))  # repeat
    with pytest.raises(ValueError):
        Subdomain(
            (((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0)), ((0, 1, 2),), ((0, 1, 2),))
        )  # too many


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


def test_fixture_transport_onto_relabeled_table():
    # any relabeling of a bundled table gets a transported witness
    target = q_of("bca", "bca", "acb")  # relabeling of the two-same family
    fixture = fixture_for(target)
    assert fixture is not None
    assert check_witness(target, fixture.subdomain).ok


def test_fixture_for_unknown_table():
    assert fixture_for(STAR6) is None


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
    import random

    from ospmatch.witness import _sample_subdomain

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
