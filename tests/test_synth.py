"""The gadget composition: shapes, correctness, structural bounds."""
from __future__ import annotations

import hashlib
import json
import random
from itertools import product

import pytest

from conftest import FIG_A, STAR6, TAA3, assert_first_use_tables, format2_tree_doc, inline_tree_doc, q_of
from ospmatch.core import PrioritySet, all_rankings, mask_ids
from ospmatch.jsonio import tree_to_doc
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
    root = taa3_tree.nodes[0]
    assert isinstance(root, Internal) and root.player == 0
    assert len(root.sets) == 3
    rankings = all_rankings(3)
    # first two branches clinch positions 1 and 2, the last passes on 3
    for k, top in zip(root.sets, (0, 1, 2)):
        assert all(rankings[t][0] == top for t in mask_ids(taa3_tree.type_sets[0][k]))
    # the pass branch hands the move to the second block member
    pass_child = taa3_tree.nodes[taa3_tree.children[0][-1][1]]
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
    assert isinstance(tree.nodes[0], Internal)
    assert len(tree.nodes[0].sets) == 1
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
    nid = 0
    acting = []
    widths = []
    for _ in range(4):
        node = star6_tree.nodes[nid]
        assert isinstance(node, Internal)
        acting.append(node.player)
        widths.append(len(node.sets))
        nid = star6_tree.children[nid][0][1]
    assert acting == [0, 1, 2, 3]
    assert widths == [6, 5, 4, 3]


def test_two_block_market_composes_gadgets():
    q = q_of("dabc", "dabc", "dacb", "dbac")
    tree = synthesize(q)
    assert validate(tree).ok
    assert check_implements(tree, q).ok
    assert check_osp(tree).ok
    root = tree.nodes[0]
    assert isinstance(root, Internal) and root.player == 3
    assert len(root.sets) == 4


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
    uni = mask_ids(full_universe(5))
    subs = [sorted(rng.sample(uni, 6)) for _ in range(5)]
    pruned = restrict_environment(tree, subs)
    assert validate(pruned).ok
    assert check_osp(pruned).ok
    rankings = all_rankings(5)
    ranks = q.rank_table()
    for profile in product(*map(mask_ids, pruned.universes)):
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


def _tree_digest(tree, expand=True) -> str:
    doc = format2_tree_doc(tree)
    text = json.dumps(inline_tree_doc(doc) if expand else doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of the sorted-key tree JSON with each child's type list written
# inline (the layout before format 2); the n = 4 classes are keyed by
# their canonical table, one position's list per group of digits
GOLDEN_FOUR = {
    "0123 0123 0123 0123": "3c237378579c652cbacc34be0c88ebbfdbe85ed1ba310d11682fa2c484007196",
    "0123 0123 0123 0132": "bce2323ef1fa0ae85a4f699fe97abf896763a09d07375ef36ddf8a2ce911ddcd",
    "0123 0123 0123 0213": "55ba548426817bd4b97a9a15443d5ff3f91890cf1b3a5d00ddd5e14603dfadb7",
    "0123 0123 0123 1023": "fdcea218e8949ab640498dd1d42c35412e29b89671229dff5761342052ba6a11",
    "0123 0123 0123 1032": "c133060b7bc6782c60bb7f13ff501506954606a027bd9697c6fe913c5feb8627",
    "0123 0123 0132 0132": "5259f02e04850f656d1037dee88c9f6ccb000a6698dddd03f2dfeb7d9f18d133",
    "0123 0123 0132 0213": "a442d6f36e99b1c932be313ef0d02c8acafed1b8e9d4b44f3da3efd193a243c9",
    "0123 0123 0132 1023": "982a223b58c01ebf43a03865ece91723e4ea7267ba6d8fa96e0693af36234a1d",
    "0123 0123 0132 1032": "7b3c9936448e37abaebc1025dec965ded8b8624c47e1d28bccf0f548cea5cb0e",
    "0123 0123 0213 0213": "105d29baf0a21b06f0b8cefbde1dee3fd6c479b5ed895d9ca56b7bdf9540c166",
    "0123 0123 0213 1023": "b7a414805616743bdab561865017ef5f8840f8655bf28f74193b94d9c5b3d0b5",
    "0123 0123 0213 1032": "ed746afc5c266455941e63c26abf5cc744e697c59676793645c5c00c4dfbd351",
    "0123 0123 1023 1023": "7b356027738e658fcb70d02475fde6febe443c64d39520a2531c563267afc304",
    "0123 0123 1023 1032": "b1743252931b924bc31ff3ac10dd63655299fcce5ba80c31fa0d7401d4c77b3a",
    "0123 0123 1032 1032": "47ff2af33bfb755819b7d91559154f7ff5c456b0b9e98809ea432c921c3fb21c",
    "0123 0132 1023 1032": "711345c4ba912f2a3aafe8e66615fd7d361598834b1e343e3be037889bdac7ac",
}


# Seven applicants: five shared lists, then two alternating ones.
STAR7 = q_of("abcdefg", "abcdefg", "abcdefg", "abcdefg", "abcdefg", "acbedgf", "badcfeg")

# SHA-256 of the format-3 document's JSON for markets of several dominance
# blocks, where synthesis meets the same residual market on many paths:
# the two test_five_applicant_composites markets, then the six drawn by
# test_random_six_applicant_markets_end_to_end (keyed like GOLDEN_FOUR)
GOLDEN_MULTI_BLOCK = {
    "01234 01234 01234 01324 02143": "806338dc407c283c028ebf1b8bad4b855aec6e15bbdbbc8ca6bd6a75a2e2c989",
    "01234 01234 01234 02134 10243": "493b3e367799652c9164d5651a76a464489ae7736ecffde9010cc4dec617fd63",
    "340152 340152 304512 431052 340152 340152": "ce0f65df1c636b36cb692820b21dfd2758fcedb6acb06db1cc6f5cadcf982fe8",
    "231045 213405 231045 231045 231045 320145": "b903afb0ebe7f7e132be90687d00a2a43bd2cac5388183993f725ca9fe90381e",
    "413250 413250 413250 413250 413250 413250": "49b3cd522cf5f22f72dc4d7fefccf999456040799ad89b1c0bd04ce83dbb743d",
    "402351 402315 402315 402135 420315 402315": "5fce049d76d1859cf930551fb3827a9b7b9d06778579f3529d7b304ea548b85a",
    "241350 243105 243105 234015 243105 243105": "99afdec87f862e9b46fdd198a5cf1df228c92f1724bbd3910cc5b6ef8d8c2982",
    "532410 523410 523401 254301 523410 523401": "1e5a7e3bc0fe3ddb040cc30e47238658692098bb9511f9f41933bd5e9b091259",
}


def _doc_digest(tree) -> str:
    return hashlib.sha256(json.dumps(tree_to_doc(tree)).encode()).hexdigest()


def test_synthesized_trees_are_byte_stable(taa3_tree, star6_tree):
    assert _tree_digest(taa3_tree) == (
        "bb1eab37ae947586e87a27cf783fd89fa9a2fb220969dded13748e7947e5434c")
    assert _tree_digest(star6_tree) == (
        "db6b4f4ce70825bd5a06b4500088712a7fd6a7892721701ae5f92db685f158e7")
    got = {
        " ".join("".join(map(str, lst)) for lst in row.canonical):
            _tree_digest(synthesize(PrioritySet.from_rankings(row.canonical)))
        for row in class_census(4) if row.limited_cyclic
    }
    assert got == GOLDEN_FOUR
    got = {key: _doc_digest(synthesize(PrioritySet.from_rankings(
        tuple(tuple(map(int, lst)) for lst in key.split()))))
        for key in GOLDEN_MULTI_BLOCK}
    assert got == GOLDEN_MULTI_BLOCK
    star7_tree = synthesize(STAR7)
    assert _doc_digest(star7_tree) == (
        "8e3419573c819f42bb68b1e5dbaee045054f31fae0911131053c7926f567ad88")
    # equal nodes are one object: 4,254 nodes in 916 objects, 30,365 in 5,460
    for tree, count, distinct in ((star6_tree, 4254, 916), (star7_tree, 30365, 5460)):
        assert (len(tree.nodes), len({id(x) for x in tree.nodes})) == (count, distinct)


def test_synthesized_format_two_documents_are_byte_stable(taa3_tree, star6_tree):
    assert _tree_digest(taa3_tree, expand=False) == (
        "b5302bf4d35bde2c1c93db1de73968b60ea1ef8e27637de879746842a2b6251a")
    assert _tree_digest(star6_tree, expand=False) == (
        "e1b10e899b5545d614623b52c6599cba2b3c3e3497e028c1c2cf54c67c47e71a")


def test_synthesized_trees_share_equal_sets(taa3_tree, star6_tree):
    # each applicant's table lists its distinct sets once, in order of first
    # use; STAR6 holds 309 distinct sets in 439 (applicant, set) entries
    for tree, distinct, entries in ((taa3_tree, 14, 20), (star6_tree, 309, 439)):
        assert_first_use_tables(tree)
        assert len(set().union(*tree.type_sets)) == distinct
        assert sum(map(len, tree.type_sets)) == entries
