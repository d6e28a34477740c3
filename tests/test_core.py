"""Core types: ranking tables, restrictions, canonical forms, enumeration."""
from __future__ import annotations

import random
import re
from itertools import islice, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG_E, TAA3, q_of
from ospmatch.core import (
    Matching,
    PreferenceProfile,
    PrioritySet,
    Restriction,
    above,
    all_rankings,
    canonical_table,
    enumerate_priority_sets,
    favorites,
    ids_mask,
    inverse,
    mask_ids,
    relabel_table,
    relabelings,
    restrict,
    restrictions,
)


@pytest.mark.parametrize("table", [PrioritySet, PreferenceProfile])
def test_tables_validate_rankings(table):
    for rankings in ((), ((0, 0, 1), (0, 1, 2), (0, 1, 2)), ((0, 1, 3), (0, 1, 2), (0, 1, 2)),
                     ((0, 1), (1, 0), (0, 1)), ((0, 1, 2), (0, 1, 2))):
        with pytest.raises(ValueError):
            table.from_rankings(rankings)
    t = table.from_rankings([[2, 0, 1], (0, 1, 2), iter((1, 2, 0))])
    assert t.n == 3 and t.rankings == ((2, 0, 1), (0, 1, 2), (1, 2, 0))
    assert t.rank_table() == ((1, 2, 0), (0, 1, 2), (2, 0, 1)) == tuple(map(inverse, t.rankings))
    assert t.rank_table() is t.rank_table()


def test_tables_compare_by_rankings_and_class():
    rankings = ((0, 1), (1, 0))
    q = PrioritySet(rankings)
    assert q == PrioritySet.from_rankings([[0, 1], [1, 0]]) and hash(q) == hash(PrioritySet(rankings))
    assert q != PrioritySet.from_rankings(((1, 0), (0, 1)))
    assert q != PreferenceProfile(rankings) and len({q, PreferenceProfile(rankings)}) == 2


def test_priority_set_rejects_ragged_lists():
    with pytest.raises(ValueError):
        PrioritySet.from_rankings(((0, 1, 2), (0, 1, 2), (0, 1)))


@pytest.mark.parametrize("row", [(0, 0, 2), (0, 1, "2"), (0, 1, 2, 3)],
                         ids=["repeated", "string", "long"])
def test_tables_refuse_non_permutations(row):
    with pytest.raises(ValueError, match=re.escape(f"not a permutation of 0..2: {row!r}")):
        PrioritySet.from_rankings(((0, 1, 2), row, (2, 1, 0)))


@pytest.mark.parametrize("a2p", [(0, 0, 2), (0, 1, "2"), (1, 2, 3)])
def test_matching_refuses_non_bijections(a2p):
    with pytest.raises(ValueError, match=re.escape(f"not a permutation of 0..2: {a2p!r}")):
        Matching(a2p)


def test_restriction_validation():
    with pytest.raises(ValueError):
        Restriction((0, 1), (0,))
    with pytest.raises(ValueError):
        Restriction((0, 0), (0, 1))
    assert Restriction((2, 0), (1, 3)).applicants == (0, 2)


@pytest.mark.parametrize("applicants, positions", [
    ((0, 1, 2), (-1, 0, 1)),  # would read as the last position's list
    ((-1, 0, 1), (0, 1, 2)),
])
def test_restriction_refuses_negative_indices(applicants, positions):
    with pytest.raises(ValueError, match="must not be negative"):
        restrict(TAA3, Restriction(applicants, positions))


def test_restrict_four_table_to_top_corner():
    got = restrict(FIG_E, Restriction((0, 1, 2), (0, 1, 2)))
    assert got.rankings == q_of("abc", "abc", "acb").rankings


def test_restrict_identity_and_singleton():
    q = TAA3
    assert restrict(q, Restriction((0, 1, 2), (0, 1, 2))).rankings == q.rankings
    assert restrict(q, Restriction((1,), (2,))).rankings == ((0,),)


def test_restrict_composes():
    rng = random.Random(1)
    rankings5 = all_rankings(5)
    for _ in range(50):
        q = PrioritySet.from_rankings(tuple(rng.choice(rankings5) for _ in range(5)))
        outer = Restriction((0, 2, 3, 4), (0, 1, 2, 4))
        inner = Restriction((0, 1, 3), (1, 2, 3))
        # compose by mapping inner's picks through outer's sorted subsets
        direct = Restriction(
            tuple(outer.applicants[i] for i in inner.applicants),
            tuple(outer.positions[i] for i in inner.positions),
        )
        assert (
            restrict(restrict(q, outer), inner).rankings
            == restrict(q, direct).rankings
        )


def test_canonical_form_merges_equivalent_tables():
    variants = (
        q_of("abc", "bac", "acb"),
        q_of("abc", "bac", "bca"),
        q_of("abc", "acb", "cab"),
    )
    forms = {canonical_table(v.rankings) for v in variants}
    assert len(forms) == 1


def test_canonical_form_idempotent():
    for q in (TAA3, FIG_E):
        once = canonical_table(q.rankings)
        assert canonical_table(once) == once


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_canonical_form_relabel_invariant(data):
    n = data.draw(st.integers(min_value=2, max_value=4))
    rankings = all_rankings(n)
    lists = tuple(
        rankings[data.draw(st.integers(0, len(rankings) - 1))] for _ in range(n)
    )
    q = PrioritySet.from_rankings(lists)
    sigma = data.draw(st.permutations(range(n)))
    pi = data.draw(st.permutations(range(n)))
    relabeled = relabel_table(q.rankings, tuple(sigma), tuple(pi))
    assert canonical_table(relabeled) == canonical_table(q.rankings)


def test_canonical_table_sorts_lists():
    table = canonical_table(TAA3.rankings)
    assert list(table) == sorted(table)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_relabelings_yield_every_sigma_and_the_canonical_table(n):
    rng = random.Random(f"relabelings/{n}")
    rankings = all_rankings(n)
    for _ in range(8):
        lists = tuple(rng.choice(rankings) for _ in range(n))
        pairs = list(relabelings(lists))
        assert [sigma for sigma, _ in pairs] == list(permutations(range(n)))
        for sigma, table in pairs:
            assert table == tuple(sorted(relabel_table(lists, sigma)))
        assert canonical_table(lists) == min(table for _, table in pairs)


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_priority_sets(1)) == 1
    seen = {q.rankings for q in enumerate_priority_sets(3)}
    assert len(seen) == 216


def test_enumeration_restartable():
    # every call restarts the same stream: position 0 is the most
    # significant digit over the lexicographic rankings
    whole = [q.rankings for q in enumerate_priority_sets(3)]
    assert whole == [q.rankings for q in enumerate_priority_sets(3)]
    rankings = all_rankings(3)
    assert whole == list(product(rankings, repeat=3))
    assert whole[1] == (rankings[0], rankings[0], rankings[1])
    assert whole[-1] == (rankings[-1],) * 3


def test_restriction_stream_counts():
    assert sum(1 for _ in restrictions(4, 3)) == 16
    assert sum(1 for _ in restrictions(3, 3)) == 1
    assert sum(1 for _ in restrictions(4, 4)) == 1
    assert sum(1 for _ in restrictions(FIG_E, 3)) == 16
    with pytest.raises(ValueError):
        next(restrictions(3, 0))


def test_restriction_stream_deterministic():
    first = list(islice(restrictions(4, 2), 3))
    assert [(r.applicants, r.positions) for r in first] == [
        ((0, 1), (0, 1)),
        ((0, 1), (0, 2)),
        ((0, 1), (0, 3)),
    ]


def test_ids_mask_and_mask_ids_invert_each_other():
    rng = random.Random(4)
    for size in (1, 6, 24, 720, 40_320):
        ids = sorted(rng.sample(range(size), min(size, 50)))
        mask = ids_mask(reversed(ids), size)
        assert mask == sum(1 << t for t in ids)
        assert mask_ids(mask) == tuple(ids)
    assert ids_mask((), 6) == 0 and mask_ids(0) == ()
    assert ids_mask((2, 2), 6) == 4  # a mask holds an id once


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_above_and_favorites_match_their_definition(n):
    rankings = all_rankings(n)
    table = above(n)
    assert len(table) == n and all(len(row) == n for row in table)
    for d, w in product(range(n), repeat=2):
        assert table[d][w] == sum(1 << t for t, r in enumerate(rankings) if r.index(d) < r.index(w))
    for mask in range(1, 1 << n):
        members = [pos for pos in range(n) if mask >> pos & 1]
        best = [min(r.index(pos) for pos in members) for r in rankings]
        favorite = [r[spot] for r, spot in zip(rankings, best)]
        assert favorites(n, mask) == tuple(
            sum(1 << t for t, w in enumerate(favorite) if w == pos) for pos in range(n))
