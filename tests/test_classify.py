"""Cyclicity, partitions, the alternating pattern, and the scanner.

The kernels behind ``classify`` and ``scan_forbidden``, which read ranking
tables directly, are checked against two brute oracles kept here: a
permutation search for the two-adjacent-alternating labeling and a
``canonical_table`` scan over ``restrictions()``.
"""
from __future__ import annotations

import random
from itertools import combinations, permutations, product

import pytest

from conftest import FIG_A, FIG_B, FIG_C, FIG_D, FIG_E, STAR6, TAA3, q_of
from ospmatch.classify import (
    TaaLabeling,
    classify,
    dominance_blocks,
    forbidden_patterns,
    is_cyclic,
    scan_forbidden,
    taa_labeling_table,
    taa_patterns,
)
from ospmatch.core import (
    PrioritySet,
    Restriction,
    all_rankings,
    canonical_table,
    enumerate_priority_sets,
    relabel_table,
    restrict,
    restrict_table,
    restrictions,
)
from ospmatch.sweep import class_census, sweep_equivalence


def brute_taa(lists):
    """Labeling with the lexicographically first applicant order, found by
    trying every order."""
    lists = tuple(tuple(lst) for lst in lists)
    for base in permutations(range(len(lists[0]))):
        x, u, v = taa_patterns(base)
        xs = [pos for pos, lst in enumerate(lists) if lst == x]
        us = [pos for pos, lst in enumerate(lists) if lst == u]
        vs = [pos for pos, lst in enumerate(lists) if lst == v]
        if len(us) == 1 and len(vs) == 1 and len(xs) == len(lists) - 2:
            return TaaLabeling(base, tuple(xs), us[0], vs[0])
    return None


def brute_scan(q):
    """First restriction of size 3, then 4, whose canonical table is a
    forbidden pattern."""
    lookup = {table: letter for letter, table in forbidden_patterns()}
    for m in (3, 4):
        if m > q.n:
            break
        for r in restrictions(q.n, m):
            table = canonical_table(restrict_table(q.rankings, r.applicants, r.positions))
            if table in lookup:
                return r, lookup[table]
    return None


def taa_like(rng, n):
    """An n x n table built from one relabeled (x, u, v) triple, with one
    list swapped for a random one now and then."""
    base = list(range(n))
    rng.shuffle(base)
    x, u, v = taa_patterns(tuple(base))
    lists = [x] * (n - 2) + [u, v]
    rng.shuffle(lists)
    if rng.random() < 0.3:
        lists[rng.randrange(n)] = rng.choice(all_rankings(n))
    return PrioritySet.from_rankings(lists)


def test_is_cyclic_on_figure_tables():
    assert is_cyclic(FIG_A)
    assert is_cyclic(q_of("abc", "acb", "bac"))
    assert not is_cyclic(q_of("abc", "abc", "abc"))


@pytest.mark.parametrize("n", [3, 4])
def test_dominance_blocks_match_is_cyclic_exhaustively(n):
    # Ergin's cyclicity test is the oracle: a set is cyclic iff its finest
    # dominance partition has a block of three or more applicants
    rankings = all_rankings(n)
    for ids in product(range(len(rankings)), repeat=n):
        q = PrioritySet.from_rankings(tuple(rankings[i] for i in ids))
        assert any(len(b) >= 3 for b in dominance_blocks(q.rankings)) == is_cyclic(q)


def test_taa_patterns_shapes():
    x, u, v = taa_patterns((0, 1, 2, 3, 4, 5))
    assert u == (0, 2, 1, 4, 3, 5)
    assert v == (1, 0, 3, 2, 5, 4)
    x7, u7, v7 = taa_patterns(tuple(range(7)))
    assert u7 == (0, 2, 1, 4, 3, 6, 5)
    assert v7 == (1, 0, 3, 2, 5, 4, 6)


def test_taa_detection_on_star():
    lab = taa_labeling_table(STAR6.rankings)
    assert lab is not None
    assert lab.applicant_order == (0, 1, 2, 3, 4, 5)
    assert lab.x_positions == (0, 1, 2, 3)
    assert (lab.u_position, lab.v_position) == (4, 5)


def test_taa_detection_small():
    lab = taa_labeling_table(TAA3.rankings)
    assert lab is not None
    assert lab.x_positions == (0,)
    assert (lab.u_position, lab.v_position) == (1, 2)
    assert taa_labeling_table(q_of("abc", "abc", "abc").rankings) is None


def test_taa_rejects_tiny_tables():
    with pytest.raises(ValueError):
        taa_labeling_table(((0, 1), (1, 0), (0, 1)))


def test_taa_brute_and_fingerprint_agree():
    rng = random.Random(5)
    for k in (3, 4, 5):
        rankings = all_rankings(k)
        for _ in range(120):
            if rng.random() < 0.5:
                base = list(range(k))
                rng.shuffle(base)
                x, u, v = taa_patterns(tuple(base))
                lists = [x] * (rng.randrange(1, 4)) + [u, v]
                rng.shuffle(lists)
                if rng.random() < 0.3:
                    lists[rng.randrange(len(lists))] = rng.choice(rankings)
            else:
                lists = [rng.choice(rankings) for _ in range(rng.randrange(3, 6))]
            table = tuple(lists)
            assert taa_labeling_table(table) == brute_taa(table)


def test_taa_fingerprint_handles_large_blocks():
    base = (3, 0, 6, 1, 7, 4, 2, 5)
    x, u, v = taa_patterns(base)
    table = (x, x, x, u, x, v, x)  # seven lists over eight applicants
    lab = taa_labeling_table(table)
    assert lab is not None
    assert lab.applicant_order == base
    assert (lab.u_position, lab.v_position) == (3, 5)
    # one corrupted copy of x breaks the multiplicity requirement
    corrupted = (x, x, x, u, u, v, x)
    assert taa_labeling_table(corrupted) is None


def test_taa_presence_is_relabel_invariant():
    rng = random.Random(6)
    for _ in range(60):
        sigma = list(range(6))
        rng.shuffle(sigma)
        pi = list(range(6))
        rng.shuffle(pi)
        relabeled = relabel_table(STAR6.rankings, tuple(sigma), tuple(pi))
        assert taa_labeling_table(relabeled) is not None


def test_classify_star_single_block():
    result = classify(STAR6)
    assert result.limited_cyclic
    assert result.blocks == ((0, 1, 2, 3, 4, 5),)
    ((_, lab),) = result.block_labelings
    assert lab.x_positions == (0, 1, 2, 3)


def test_block_roles_swap_when_the_leader_exits():
    # removing the top applicant and a shared-list position from the
    # six-applicant market turns the offset-one flip list into the
    # offset-zero one and vice versa
    residual = restrict(STAR6, Restriction((1, 2, 3, 4, 5), (1, 2, 3, 4, 5)))
    lab = taa_labeling_table(residual.rankings)
    assert lab is not None
    assert lab.x_positions == (0, 1, 2)
    assert lab.u_position == 4  # previously the offset-zero flip
    assert lab.v_position == 3  # previously the offset-one flip


def test_classify_rejects_fully_cyclic():
    result = classify(FIG_A)
    assert not result.limited_cyclic
    assert result.witness is not None
    restriction, letter = result.witness
    assert letter == "a"
    assert restriction.applicants == (0, 1, 2)


def test_acyclic_tables_are_limited_cyclic():
    for q in (q_of("abc", "abc", "abc"), q_of("abc", "abc", "bac")):
        result = classify(q)
        assert result.limited_cyclic
        assert all(len(block) <= 2 for block in result.blocks)


def test_two_block_table_with_taa_tail():
    q = q_of("dabc", "dabc", "dacb", "dbac")
    result = classify(q)
    assert result.limited_cyclic
    assert result.blocks == ((3,), (0, 1, 2))
    ((index, lab),) = result.block_labelings
    assert index == 1 and lab.x_positions == (0, 1)


def test_forbidden_patterns_inventory():
    patterns = forbidden_patterns()
    assert len(patterns) == 7
    assert [letter for letter, _ in patterns] == ["a", "b", "b", "b", "c", "d", "e"]
    assert len({table for _, table in patterns}) == 7


def test_scan_finds_each_figure_table():
    for q, letter in [(FIG_A, "a"), (FIG_C, "c"), (FIG_D, "d"), (FIG_E, "e")] + [
        (v, "b") for v in FIG_B
    ]:
        found = scan_forbidden(q)
        assert found is not None and found[1] == letter


def test_scan_clears_star():
    assert scan_forbidden(STAR6) is None


def test_scan_locates_embedded_four_pattern():
    # plant the 4x4 table in a 5x5 market: applicant e trails every list and
    # position 5 repeats position 1's list
    base = FIG_E.rankings
    lists = tuple(r + (4,) for r in base) + (base[0] + (4,),)
    q = PrioritySet.from_rankings(lists)
    found = scan_forbidden(q)
    assert found is not None
    restriction, letter = found
    assert letter == "e"
    assert restriction.applicants == (0, 1, 2, 3)
    got = restrict(q, restriction)
    assert canonical_table(got.rankings) == canonical_table(base)


def test_classifier_equals_scanner_at_three():
    result = sweep_equivalence(3)
    assert result.total == 216
    assert result.limited_cyclic == 78
    assert not result.mismatches


def test_sweep_matches_per_set_wrappers():
    # the fused pass agrees with classify / scan_forbidden / is_cyclic run
    # set by set through the dataclass API
    result = sweep_equivalence(3)
    limited = hard = 0
    hard_forms = set()
    for q in enumerate_priority_sets(3):
        verdict = classify(q).limited_cyclic
        found = scan_forbidden(q)
        assert verdict == (found is None)
        limited += verdict
        if is_cyclic(q) and (found is None or found[0].m > 3):
            hard += 1
            hard_forms.add(canonical_table(q.rankings))
    assert result.total == 216
    assert result.limited_cyclic == limited
    assert not result.mismatches
    assert result.cyclic_no_small_witness == hard_forms and hard > 0


def test_sweep_reports_every_mismatch(monkeypatch):
    # a scan that never finds a pattern disagrees with classify on exactly
    # the tables that are not limited cyclic
    import ospmatch.sweep as sweep

    monkeypatch.setattr(sweep, "scan_table", lambda table: None)
    mismatches = sweep_equivalence(3).mismatches
    expected = [
        q.rankings for q in enumerate_priority_sets(3) if not classify(q).limited_cyclic
    ]
    assert len(expected) == 138
    assert mismatches == [(table, False, None) for table in expected]
    for table, _, _ in mismatches:
        assert type(table) is tuple and all(type(r) is tuple for r in table)


def _check_against_oracles(q):
    assert scan_forbidden(q) == brute_scan(q)
    assert taa_labeling_table(q.rankings) == brute_taa(q.rankings)
    result = classify(q)
    if not result.limited_cyclic:
        assert result.witness == brute_scan(q)
        return
    for index, lab in result.block_labelings:
        block = result.blocks[index]
        brute = brute_taa(restrict_table(q.rankings, block, range(q.n)))
        assert lab == TaaLabeling(
            tuple(block[a] for a in brute.applicant_order),
            brute.x_positions, brute.u_position, brute.v_position,
        )


def test_sweep_fast_paths_match_slow_paths():
    # the ranking-table kernels against the brute oracles on full return values:
    # every table at n = 3, seeded samples at n = 4..6
    rankings3 = all_rankings(3)
    for ids in product(range(6), repeat=3):
        _check_against_oracles(PrioritySet.from_rankings(tuple(rankings3[i] for i in ids)))
    rng = random.Random(7)
    for n, count in ((4, 300), (5, 80), (6, 30)):
        rankings = all_rankings(n)
        for _ in range(count):
            if rng.random() < 0.5:
                q = taa_like(rng, n)
            else:
                q = PrioritySet.from_rankings([rng.choice(rankings) for _ in range(n)])
            _check_against_oracles(q)


def test_census_three():
    rows = class_census(3)
    assert len(rows) == 10
    assert sum(row.count for row in rows) == 216
    flagged = {row.witness_letter for row in rows if row.witness_letter}
    assert flagged == {"a", "b", "c", "d"}
    for row in rows:
        assert row.limited_cyclic == (row.witness_letter is None)
    assert {row.canonical for row in rows} == {
        canonical_table(q.rankings) for q in enumerate_priority_sets(3)
    }


def test_census_four_canonicals_are_distinct_fixed_points():
    canonicals = [row.canonical for row in class_census(4)]
    assert len(canonicals) == len(set(canonicals)) == 762
    for table in canonicals:
        assert canonical_table(table) == table


def test_dominance_blocks_examples():
    assert dominance_blocks(FIG_A.rankings) == [(0, 1, 2)]
    assert dominance_blocks(STAR6.rankings) == [(0, 1, 2, 3, 4, 5)]
    assert dominance_blocks(q_of("abc", "abc", "abc").rankings) == [(0,), (1,), (2,)]
    assert dominance_blocks(q_of("abc", "abc", "bac").rankings) == [(0, 1), (2,)]


def test_restrict_table_keeps_all_positions_for_blocks():
    # the block test uses every position's list, not a square restriction
    restricted = restrict_table(STAR6.rankings, (0, 1, 2), range(6))
    assert len(restricted) == 6
    assert taa_labeling_table(restricted) is not None


def test_scan_on_a_seven_market_fills_rows_lazily():
    # a full no-hit scan touches only the rankings the table holds, not
    # every ranking of seven applicants; the restriction memo is shared
    # with tables of other sizes, so only its 7-item rankings are counted
    from ospmatch.core import restricted_rankings

    base = tuple(range(7))
    x, u, v = taa_patterns(base)
    q = PrioritySet.from_rankings([x] * 5 + [u, v])
    assert scan_forbidden(q) is None and classify(q).limited_cyclic
    for m in (3, 4):
        for keep in combinations(range(7), m):
            rows = restricted_rankings(keep)
            assert sum(1 for ranking in rows if len(ranking) == 7) <= 3
