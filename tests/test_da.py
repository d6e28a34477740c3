"""Deferred acceptance and its oracles."""
from __future__ import annotations

import random
from itertools import permutations, product

import numpy as np
import pytest

from conftest import FIG_E, q_of, p_of
from ospmatch.core import Matching, PreferenceProfile, PrioritySet, all_rankings
from ospmatch.da import (
    all_stable_matchings,
    da_match,
    da_match_batch,
    da_match_product,
    is_stable,
    proposal_rounds,
    render_transcript,
    run_da,
)


def applicant_optimal(q: PrioritySet, p: PreferenceProfile, mu: Matching) -> bool:
    """True iff mu weakly beats every stable matching for every applicant."""
    prefs = p.rank_table()
    for other in all_stable_matchings(q, p):
        for a in range(q.n):
            if prefs[a][other.position_of(a)] < prefs[a][mu.position_of(a)]:
                return False
    return True


def test_two_same_lists_example():
    q = q_of("abc", "abc", "cab")
    p = p_of((3, 2, 1), (1, 2, 3), (1, 3, 2))
    assert run_da(q, p).applicant_to_position == (1, 0, 2)


def test_distinct_tops_get_them():
    q = q_of("cba", "acb", "bac")
    p = p_of((1, 2, 3), (2, 1, 3), (3, 1, 2))
    assert run_da(q, p).applicant_to_position == (0, 1, 2)


def test_four_applicant_example():
    p = p_of((4, 2, 1, 3), (3, 4, 1, 2), (3, 1, 2, 4), (2, 1, 3, 4))
    assert run_da(FIG_E, p).applicant_to_position == (1, 3, 2, 0)


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        run_da(q_of("abc", "abc", "abc"), p_of((1, 2), (2, 1)))


def test_round_form_agrees_with_sequential_form():
    rng = random.Random(3)
    rankings = all_rankings(4)
    for _ in range(150):
        q = PrioritySet.from_rankings(tuple(rng.choice(rankings) for _ in range(4)))
        p = PreferenceProfile.from_rankings(
            tuple(rng.choice(rankings) for _ in range(4))
        )
        cells, matching = proposal_rounds(q, p)
        assert matching.applicant_to_position == run_da(q, p).applicant_to_position
        assert len(cells[0]) <= 16


def test_round_form_exhaustive_at_three():
    rankings = all_rankings(3)
    sets = [PrioritySet.from_rankings(tuple(rankings[i] for i in ids))
            for ids in product(range(6), repeat=3)]
    profiles = [PreferenceProfile.from_rankings(tuple(rankings[i] for i in ids))
                for ids in product(range(6), repeat=3)]
    for q in sets:
        ranks = q.rank_table()
        for p in profiles:
            cells, matching = proposal_rounds(q, p)
            assert matching.applicant_to_position == da_match(ranks, p.rankings)
            assert len(cells[0]) <= 9


TRANSCRIPTS = [
    (
        q_of("abc", "abc", "cab"),
        p_of((3, 2, 1), (1, 2, 3), (1, 3, 2)),
        [[[1, 2], [], []], [[], [], [0]], [[0], [2], []]],
    ),
    (
        q_of("abc", "acb", "cba"),
        p_of((3, 2, 1), (2, 3, 1), (2, 3, 1)),
        [
            [[], [], [], [], [1]],
            [[1, 2], [], [0], [], []],
            [[0], [1], [], [2], []],
        ],
    ),
    (
        q_of("abc", "bac", "cab"),
        p_of((3, 1, 2), (1, 3, 2), (1, 3, 2)),
        [
            [[1, 2], [], [0], [], []],
            [[], [], [], [], [1]],
            [[0], [2], [], [1], []],
        ],
    ),
    (
        FIG_E,
        p_of((4, 2, 1, 3), (3, 4, 1, 2), (3, 1, 2, 4), (2, 1, 3, 4)),
        [
            [[], [], [], [3]],
            [[3], [], [0], []],
            [[1, 2], [], [], []],
            [[0], [1], [], []],
        ],
    ),
    (
        FIG_E,
        p_of((4, 3, 1, 2), (3, 4, 1, 2), (3, 1, 2, 4), (2, 1, 3, 4)),
        [
            [[], [], [], [2]],
            [[3], [], [], []],
            [[1, 2], [], [0], []],
            [[0], [1], [], []],
        ],
    ),
    (
        FIG_E,
        p_of((4, 2, 1, 3), (3, 1, 2, 4), (3, 1, 2, 4), (1, 2, 3, 4)),
        [
            [[3], [1], []],
            [[], [], [3]],
            [[1, 2], [], []],
            [[0], [], []],
        ],
    ),
]


@pytest.mark.parametrize("q,p,expected", TRANSCRIPTS)
def test_proposal_transcripts(q, p, expected):
    cells, _ = proposal_rounds(q, p)
    assert cells == expected


def test_render_transcript_layout():
    q, p, _ = TRANSCRIPTS[0]
    cells, _ = proposal_rounds(q, p)
    text = render_transcript(cells, ("a", "b", "c"), ("1", "2", "3"))
    assert text == "1 | b c |   |\n2 |     |   | a\n3 | a   | c |"


def test_is_stable_on_blocking_pair():
    q = q_of("ab", "ab")
    p = PreferenceProfile.from_rankings(((0, 1), (0, 1)))
    assert not is_stable(q, p, Matching((1, 0)))
    assert is_stable(q, p, Matching((0, 1)))


def test_trivial_market_always_stable():
    q = PrioritySet.from_rankings(((0,),))
    p = PreferenceProfile.from_rankings(((0,),))
    assert is_stable(q, p, Matching((0,)))
    assert [m.applicant_to_position for m in all_stable_matchings(q, p)] == [(0,)]


def test_stable_set_contains_da_outcome():
    q = q_of("abc", "abc", "cab")
    p = p_of((3, 1, 2), (1, 2, 3), (1, 3, 2))
    outcomes = {m.applicant_to_position for m in all_stable_matchings(q, p)}
    assert run_da(q, p).applicant_to_position in outcomes


def test_unique_stable_matching_under_mutual_tops():
    # applicant tops are distinct and reciprocated, pinning every pair
    q = q_of("abc", "bca", "cab")
    p = p_of((1, 2, 3), (2, 1, 3), (3, 1, 2))
    assert len(all_stable_matchings(q, p)) == 1


def test_brute_force_capped():
    with pytest.raises(ValueError):
        all_stable_matchings(
            PrioritySet.from_rankings((tuple(range(7)),) * 7),
            PreferenceProfile.from_rankings((tuple(range(7)),) * 7),
        )


def _blocked(q, p, a2p):
    """Whether some applicant and position each prefer the other to their
    partner under the matching, read off the rankings themselves."""
    holder = {x: a for a, x in enumerate(a2p)}
    return any(
        p.rankings[a].index(x) < p.rankings[a].index(a2p[a])
        and q.rankings[x].index(a) < q.rankings[x].index(holder[x])
        for a in range(q.n) for x in range(q.n)
    )


@pytest.mark.parametrize("n, pairs", [(3, 150), (4, 60)])
def test_stability_oracles_agree_with_the_definition(n, pairs):
    rng = random.Random(f"stable/{n}")
    rankings = all_rankings(n)
    several = 0
    for _ in range(pairs):
        q = PrioritySet.from_rankings(rng.choice(rankings) for _ in range(n))
        p = PreferenceProfile.from_rankings(rng.choice(rankings) for _ in range(n))
        stable = [a2p for a2p in permutations(range(n)) if not _blocked(q, p, a2p)]
        for a2p in permutations(range(n)):
            assert is_stable(q, p, Matching(a2p)) == (a2p in stable)
        da = run_da(q, p)
        assert applicant_optimal(q, p, da)
        for a2p in stable:
            if a2p != da.applicant_to_position:
                # DA is applicant-optimal, so another stable matching
                # leaves some applicant with a position they like less
                assert any(p.rankings[a].index(a2p[a]) > p.rankings[a].index(da.position_of(a))
                           for a in range(n))
                assert not applicant_optimal(q, p, Matching(a2p))
                several += 1
    assert several >= 10


def test_da_output_stable_and_optimal_sampled():
    rng = random.Random(11)
    rankings = all_rankings(4)
    for _ in range(120):
        q = PrioritySet.from_rankings(tuple(rng.choice(rankings) for _ in range(4)))
        p = PreferenceProfile.from_rankings(
            tuple(rng.choice(rankings) for _ in range(4))
        )
        mu = run_da(q, p)
        assert is_stable(q, p, mu)
        assert applicant_optimal(q, p, mu)


def test_misreports_never_strictly_help_sampled():
    rng = random.Random(12)
    rankings = all_rankings(4)
    ranks4 = list(permutations(range(4)))
    for _ in range(60):
        q = PrioritySet.from_rankings(tuple(rng.choice(rankings) for _ in range(4)))
        ranksq = q.rank_table()
        prefs = tuple(rng.choice(rankings) for _ in range(4))
        honest = da_match(ranksq, prefs)
        for i in range(4):
            truth = prefs[i]
            spot = {pos: k for k, pos in enumerate(truth)}
            for lie in ranks4:
                if lie == truth:
                    continue
                other = da_match(ranksq, prefs[:i] + (lie,) + prefs[i + 1 :])
                assert spot[other[i]] >= spot[honest[i]]


def test_batched_da_matches_scalar_exhaustively_at_three():
    rankings = all_rankings(3)
    profiles = list(product(range(6), repeat=3))
    for table in product(rankings, repeat=3):
        ranks = PrioritySet.from_rankings(table).rank_table()
        got = da_match_batch(ranks, profiles)
        assert got.shape == (len(profiles), 3)
        expected = [da_match(ranks, [rankings[t] for t in ids]) for ids in profiles]
        assert got.tolist() == [list(m) for m in expected]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_batched_da_matches_scalar_on_seeded_batches(n):
    rng = random.Random(100 + n)
    rankings = all_rankings(n)
    for trial in range(4):
        table = [rng.choice(rankings) for _ in range(n)]
        ranks = PrioritySet.from_rankings(table).rank_table()
        if trial % 2:  # restricted universes: a few types per applicant
            universes = [rng.sample(range(len(rankings)), rng.randrange(1, 6))
                         for _ in range(n)]
        else:
            universes = [range(len(rankings))] * n
        profiles = np.array([[rng.choice(u) for u in universes] for _ in range(1500)])
        got = da_match_batch(ranks, profiles)
        for ids, row in zip(profiles.tolist(), got.tolist()):
            assert tuple(row) == da_match(ranks, [rankings[t] for t in ids])


def _type_lists(rng, n, sizes):
    return [tuple(tuple(rng.sample(range(n), n)) for _ in range(k)) for k in sizes]


def _product_oracle(ranks, lists):
    return [da_match(ranks, p) for p in product(*lists)]


def test_product_da_matches_scalar_on_every_table_at_three():
    rankings = all_rankings(3)
    rng = random.Random("product/3")
    for table in product(rankings, repeat=3):
        ranks = PrioritySet.from_rankings(table).rank_table()
        for _ in range(3):
            # distinct orders per applicant, as in a witness subdomain
            lists = [tuple(rng.sample(rankings, rng.randint(1, 3))) for _ in range(3)]
            assert da_match_product(ranks, lists) == _product_oracle(ranks, lists)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_product_da_matches_scalar_on_seeded_tables(n):
    rng = random.Random(f"product/{n}")
    for trial in range(12):
        ranks = PrioritySet.from_rankings(
            [tuple(rng.sample(range(n), n)) for _ in range(n)]).rank_table()
        sizes = [1] * n if trial == 0 else [rng.randint(1, 3) for _ in range(n)]
        lists = _type_lists(rng, n, sizes)
        got = da_match_product(ranks, lists)
        assert len(got) == np.prod(sizes)
        assert got == _product_oracle(ranks, lists)


def test_product_da_edge_cases():
    ranks = q_of("abc", "bca", "cab").rank_table()
    lists = [((0, 1, 2),), ((1, 2, 0), (0, 1, 2)), ()]
    assert da_match_product(ranks, lists) == []  # an empty list, no profile
    assert da_match_product([], []) == [()] == _product_oracle([], [])
