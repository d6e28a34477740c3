"""The gadget composition: shapes, correctness, structural bounds."""
from __future__ import annotations

import random
from itertools import product

import pytest

from conftest import FIG_A, STAR6, q_of
from ospmatch.core import PrioritySet, all_rankings
from ospmatch.mechanism import (
    Internal,
    check_implements,
    check_osp,
    execute_ids,
    full_universe,
    max_active_applicants,
    player_move_bound,
    validate,
)
from ospmatch.sweep import class_census
from ospmatch.synth import NotLimitedCyclicError, synthesize


def test_small_gadget_tree_shape(taa3_tree):
    root = taa3_tree.root
    assert isinstance(root, Internal) and root.player == 0
    assert len(root.children) == 3
    rankings = all_rankings(3)
    # first two branches clinch positions 1 and 2, the last passes on 3
    for branch, top in zip(root.children, (0, 1, 2)):
        types, _ = branch
        assert all(rankings[t][0] == top for t in types)
    # the pass branch hands the move to the second block member
    _, pass_child = root.children[-1]
    assert isinstance(pass_child, Internal) and pass_child.player == 1


def test_small_gadget_leaf_outcomes(taa3_tree):
    ids = {r: i for i, r in enumerate(all_rankings(3))}
    # pass then clinch 1: the passer ends on 3
    got = execute_ids(
        taa3_tree, (ids[(2, 0, 1)], ids[(0, 1, 2)], ids[(1, 2, 0)])
    )
    assert got == (2, 0, 1)
    # pass, second passes too, third clinches 1
    got = execute_ids(
        taa3_tree, (ids[(2, 0, 1)], ids[(1, 0, 2)], ids[(0, 2, 1)])
    )
    assert got == (2, 1, 0)


def test_single_applicant_market():
    q = PrioritySet.from_rankings(((0,),))
    tree = synthesize(q)
    assert validate(tree).ok
    assert isinstance(tree.root, Internal)
    assert len(tree.root.children) == 1
    assert check_implements(tree, q).ok


def test_rejects_non_implementable_input():
    with pytest.raises(NotLimitedCyclicError) as err:
        synthesize(FIG_A)
    witness = err.value.classification.witness
    assert witness is not None and witness[1] == "a"
    assert "pattern (a)" in str(err.value)


def test_star_tree_checks(star6_tree):
    assert validate(star6_tree).ok
    assert check_osp(star6_tree).ok
    assert check_implements(star6_tree, STAR6, samples=5000, seed=2).ok
    assert player_move_bound(star6_tree) == 2
    assert max_active_applicants(star6_tree) <= 3


def test_star_tree_recurses_through_lurker_levels(star6_tree):
    # following the all-x branch: the lead applicant of each level clinches
    # the smallest shared-list position and the next level starts
    node = star6_tree.root
    acting = []
    widths = []
    for _ in range(4):
        assert isinstance(node, Internal)
        acting.append(node.player)
        widths.append(len(node.children))
        node = node.children[0][1]
    assert acting == [0, 1, 2, 3]
    assert widths == [6, 5, 4, 3]


def test_two_block_market_composes_gadgets():
    q = q_of("dabc", "dabc", "dacb", "dbac")
    tree = synthesize(q)
    assert validate(tree).ok
    assert check_implements(tree, q).ok
    assert check_osp(tree).ok
    root = tree.root
    assert isinstance(root, Internal) and root.player == 3
    assert len(root.children) == 4


def test_all_two_applicant_markets():
    rankings = all_rankings(2)
    for ids in product(range(2), repeat=2):
        q = PrioritySet.from_rankings(tuple(rankings[i] for i in ids))
        tree = synthesize(q)
        assert validate(tree).ok
        assert check_implements(tree, q).ok
        assert check_osp(tree).ok


@pytest.mark.parametrize("rows", [
    # lone leader, then an alternating block of four
    ("abcde", "abcde", "abcde", "abdce", "acbed"),
    # alternating block of three, then a trading pair
    ("abcde", "abcde", "abcde", "acbde", "baced"),
])
def test_five_applicant_composites(rows):
    q = q_of(*rows)
    from ospmatch.classify import classify

    assert classify(q).limited_cyclic
    tree = synthesize(q)
    assert validate(tree).ok
    assert check_osp(tree).ok
    assert check_implements(tree, q, samples=30_000, seed=8).ok
    assert player_move_bound(tree) <= 2
    assert max_active_applicants(tree) <= 3
    # exhaustive agreement on a pruned environment
    from ospmatch.mechanism import restrict_environment
    from ospmatch.da import da_match

    rng = random.Random(15)
    uni = full_universe(5)
    subs = [sorted(rng.sample(uni, 6)) for _ in range(5)]
    pruned = restrict_environment(tree, subs)
    assert validate(pruned).ok
    assert check_osp(pruned).ok
    rankings = all_rankings(5)
    ranks = q.rank_table()
    for profile in product(*pruned.universes):
        prefs = tuple(rankings[t] for t in profile)
        assert execute_ids(pruned, profile) == da_match(ranks, prefs)


def test_all_limited_cyclic_four_classes_end_to_end():
    rows = [row for row in class_census(4) if row.limited_cyclic]
    assert len(rows) == 16
    for row in rows:
        q = PrioritySet.from_rankings(row.canonical)
        tree = synthesize(q)
        assert validate(tree).ok
        assert check_implements(tree, q).ok
        assert check_osp(tree).ok
        assert player_move_bound(tree) <= 2
        assert max_active_applicants(tree) <= 3


def _random_limited_cyclic(rng: random.Random, n: int) -> PrioritySet:
    """Assemble a limited-cyclic table: draw an ordered block partition,
    give every block of three or more its two flipped positions, and let
    pairs disagree on a random set of positions."""
    from ospmatch.classify import taa_patterns

    applicants = list(range(n))
    rng.shuffle(applicants)
    blocks = []
    while applicants:
        size = rng.choice([1, 1, 2, 2, 3, 4, min(5, len(applicants))])
        size = min(size, len(applicants))
        blocks.append(applicants[:size])
        applicants = applicants[size:]
    segments = []  # per block: list of per-position orderings
    for block in blocks:
        if len(block) < 3:
            flipped = list(reversed(block)) if len(block) == 2 else block
            split = rng.sample(range(n), rng.randrange(n + 1))
            segments.append([
                flipped if len(block) == 2 and p in split else block
                for p in range(n)
            ])
        else:
            x, u, v = taa_patterns(block)
            u_pos, v_pos = rng.sample(range(n), 2)
            segments.append([
                u if p == u_pos else v if p == v_pos else x for p in range(n)
            ])
    lists = tuple(
        tuple(a for segment in segments for a in segment[p]) for p in range(n)
    )
    return PrioritySet.from_rankings(lists)


def test_random_six_applicant_markets_end_to_end():
    from ospmatch.classify import classify

    rng = random.Random(77)
    for trial in range(6):
        q = _random_limited_cyclic(rng, 6)
        assert classify(q).limited_cyclic
        tree = synthesize(q)
        assert validate(tree).ok
        assert check_osp(tree).ok
        assert check_implements(tree, q, samples=20_000, seed=trial).ok
        assert player_move_bound(tree) <= 2
        assert max_active_applicants(tree) <= 3


def test_sampled_limited_cyclic_four_members():
    # beyond the 16 canonical classes, spot-check relabeled members
    rng = random.Random(21)
    rankings = all_rankings(4)
    from ospmatch.classify import classify

    checked = 0
    while checked < 84:
        ids = tuple(rng.randrange(24) for _ in range(4))
        q = PrioritySet.from_rankings(tuple(rankings[i] for i in ids))
        if not classify(q).limited_cyclic:
            continue
        checked += 1
        tree = synthesize(q)
        assert check_implements(tree, q, samples=50_000, seed=checked).ok
        assert check_osp(tree).ok
