"""Tree validation, execution, and the implements/OSP checkers."""
from __future__ import annotations

import hashlib
import json
import random
import re
from itertools import product

import pytest

from conftest import (
    FIG_A,
    FIG_C,
    FIG_E,
    STAR6,
    TAA3,
    assert_first_use_tables,
    flat_tree,
    nested_spec,
    p_of,
    q_of,
)
from ospmatch import mechanism
from ospmatch.core import PreferenceProfile, PrioritySet, all_rankings, ids_mask, mask_ids
from ospmatch.da import da_match
from ospmatch.jsonio import parse_tree, tree_to_doc
from ospmatch.mechanism import (
    ImplementsReport,
    Internal,
    Leaf,
    MechanismTree,
    check_implements,
    check_osp,
    execute,
    execute_ids,
    full_universe,
    max_active_applicants,
    player_move_bound,
    restrict_environment,
    reveal_tree,
    validate,
)
from ospmatch.synth import synthesize


def test_validate_synthesized_tree(taa3_tree):
    assert validate(taa3_tree).ok


def test_validate_flags_overlapping_children():
    uni = full_universe(2)
    tree = flat_tree(2, (uni, uni), (0, (((0, 1), Leaf((0, 1))), ((1,), Leaf((1, 0))))))
    report = validate(tree)
    assert not report.ok
    assert any("overlapping" in p for p in report.problems)


def test_validate_flags_missing_cover():
    uni = full_universe(2)
    report = validate(flat_tree(2, (uni, uni), (0, (((0,), Leaf((0, 1))),))))
    assert not report.ok
    assert any("cover" in p for p in report.problems)


def test_validate_checks_nodes_below_a_problem_elsewhere():
    # node 1's cover fault must not hide node 5, where type 0 escapes {1}
    uni = full_universe(2)
    tree = flat_tree(2, (uni, uni), (0, (
        ((0,), (1, (((0,), Leaf((0, 1))),))),
        ((1,), (1, (
            ((0,), Leaf((0, 1))),
            ((1,), (0, (((1,), Leaf((0, 1))), ((0,), Leaf((1, 0)))))),
        ))),
    )))
    assert validate(tree).problems == (
        "node 1: child sets do not cover the parent set",
        "node 5: child types escape the parent set",
    )


def test_validate_reports_cover_only_when_a_parent_type_is_missing():
    # below node 1 applicant 0 holds {1}: a child adding type 0 escapes the
    # parent set but still covers it; one dropping type 1 leaves it uncovered
    uni = full_universe(2)

    def tree_with(children):
        return flat_tree(2, (uni, uni), (0, (
            ((0,), Leaf((0, 1))),
            ((1,), (0, children)),
        )))

    escaping = tree_with((((1,), Leaf((1, 0))), ((0,), Leaf((1, 0)))))
    assert validate(escaping).problems == ("node 2: child types escape the parent set",)
    missing_and_escaping = tree_with((((0,), Leaf((1, 0))),))
    assert validate(missing_and_escaping).problems == (
        "node 2: child types escape the parent set",
        "node 2: child sets do not cover the parent set",
    )


def test_validate_reports_a_shared_question_at_every_node():
    # applicant 1's two nodes ask the same question, naming the same set
    # of its table, and neither covers applicant 1's universe
    uni = full_universe(2)
    half = (0,)
    tree = flat_tree(2, (uni, uni), (0, (
        ((0,), (1, ((half, Leaf((0, 1))),))),
        ((1,), (1, ((half, Leaf((1, 0))),))),
    )))
    assert tree.type_sets[1] == (0b01,)  # the bitmask of half
    assert tree.nodes[1].sets == tree.nodes[3].sets == (0,)
    assert validate(tree).problems == (
        "node 1: child sets do not cover the parent set",
        "node 3: child sets do not cover the parent set",
    )


def test_reveal_and_restricted_trees_share_equal_sets(taa3_tree):
    # each table lists distinct sets in order of first use; the reveal
    # tree's applicants name type j of their universe by set j
    reveal = reveal_tree(FIG_A)
    assert reveal.type_sets == (tuple(1 << t for t in range(6)),) * 3
    small = restrict_environment(taa3_tree, ((0, 2, 5), (1, 3), (4,)))
    assert small.type_sets[2] == (1 << 4,)  # single-child nodes keep their set
    for tree in (reveal, small, reveal_tree(FIG_A, ((0, 5), (3,), (1, 2, 4)))):
        assert_first_use_tables(tree)


def test_validate_tells_apart_players_naming_the_same_indices():
    # both nodes name sets 0 and 1 of the acting applicant's own table,
    # which partition applicant 0's universe but overlap in applicant 1's
    uni = full_universe(2)
    tree = MechanismTree(2, (uni, uni), ((0b01, 0b10), (0b01, 0b11)), (
        Internal(0, (0, 1)),
        Internal(1, (0, 1)), Leaf((0, 1)), Leaf((1, 0)),
        Leaf((1, 0)),
    ))
    assert validate(tree).problems == ("node 1: overlapping child type sets",)


def test_tree_constructor_refuses_set_indices_out_of_range():
    uni = full_universe(2)
    tree = flat_tree(2, (uni, uni), (0, (((0,), (1, (((0, 1), Leaf((0, 1))),))), ((1,), Leaf((1, 0))))))
    nodes = list(tree.nodes)
    nodes[0] = Internal(0, (0, -1))
    with pytest.raises(ValueError, match=r"^nodes\[0\]: set -1 is not in type_sets\[0\] \(2 sets\)$"):
        MechanismTree(2, tree.universes, tree.type_sets, nodes)
    nodes[0] = tree.nodes[0]
    nodes[1] = Internal(1, (1,))
    with pytest.raises(ValueError, match=r"^nodes\[1\]: set 1 is not in type_sets\[1\] \(1 sets\)$"):
        MechanismTree(2, tree.universes, tree.type_sets, nodes)


@pytest.mark.parametrize("nodes, message", [
    # the root's second child would lie past the end of the list
    ((Internal(0, (0, 1)), Leaf((0, 1))), "nodes: the list ends while nodes[0] waits for a child"),
    # the deepest node still missing a child is named
    ((Internal(0, (0, 1)), Internal(0, (0, 1)), Leaf((0, 1))),
     "nodes: the list ends while nodes[1] waits for a child"),
    # a node no edge reaches
    ((Internal(0, (2,)), Leaf((0, 1)), Leaf((1, 0))), "nodes[2]: record after the root's subtree ends"),
], ids=["out_of_range", "ends_in_a_subtree", "unreachable"])
def test_tree_constructor_refuses_nodes_out_of_preorder(nodes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MechanismTree(2, (full_universe(2),) * 2, ((0b01, 0b10, 0b11), ()), nodes)


def _split(*leaves):
    """Applicant 0's two-way question at the root over the given nodes."""
    return (Internal(0, (0, 1)), *leaves)


# each structural fault with its refusal: n = 2, full universes, applicant
# 0's table {0}, {1} and applicant 1's table {0, 1}
MALFORMED = {
    "not_a_node": (_split(Leaf((0, 1)), (1, 0)), "nodes[2]: expected a Leaf or an Internal, got tuple"),
    "none": ((None,), "nodes[0]: expected a Leaf or an Internal, got NoneType"),
    "player_bool": ((Internal(True, (0,)), Leaf((0, 1))), "nodes[0]: unknown player True"),
    "player_negative": ((Internal(-1, (0,)), Leaf((0, 1))), "nodes[0]: unknown player -1"),
    "player_n": ((Internal(2, (0,)), Leaf((0, 1))), "nodes[0]: unknown player 2"),
    "player_float": ((Internal(1.0, (0,)), Leaf((0, 1))), "nodes[0]: unknown player 1.0"),
    "no_children": ((Internal(0, ()),), "nodes[0]: internal node needs children"),
    "sets_int": ((Internal(0, 5),), "nodes[0]: sets must be a tuple, got int"),
    "sets_list": ((Internal(0, [0]), Leaf((0, 1))), "nodes[0]: sets must be a tuple, got list"),
    "sets_pairs": ((Internal(0, ((0,),)), Leaf((0, 1))), "nodes[0]: set (0,) is not in type_sets[0] (2 sets)"),
    "set_out_of_range": ((Internal(1, (1,)), Leaf((0, 1))),
                         "nodes[0]: set 1 is not in type_sets[1] (1 sets)"),
    "set_negative": ((Internal(0, (-1,)), Leaf((0, 1))),
                     "nodes[0]: set -1 is not in type_sets[0] (2 sets)"),
    "set_bool": ((Internal(0, (0, True)), Leaf((0, 1)), Leaf((1, 0))),
                 "nodes[0]: set True is not in type_sets[0] (2 sets)"),
    "leaf_repeats": (_split(Leaf((0, 1)), Leaf((0, 0))), "nodes[2]: matching is not a bijection"),
    "leaf_short": (_split(Leaf((0,)), Leaf((1, 0))), "nodes[1]: matching is not a bijection"),
    "leaf_out_of_range": (_split(Leaf((0, 2)), Leaf((1, 0))), "nodes[1]: matching is not a bijection"),
    # the pass runs backward, so the int leaf at node 2 is checked first
    "leaf_bool": (_split(Leaf((True, 0)), Leaf((1, 0))), "nodes[1]: matching is not a bijection"),
    "leaf_float": (_split(Leaf((1.0, 0)), Leaf((1, 0))), "nodes[1]: matching is not a bijection"),
    "leaf_list": (_split(Leaf([0, 1]), Leaf((1, 0))), "nodes[1]: matching is not a bijection"),
    "trailing": ((Leaf((0, 1)), Leaf((1, 0))), "nodes[1]: record after the root's subtree ends"),
    "empty": ((), "nodes: a tree needs a root"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_tree_constructor_refuses_malformed_nodes(case):
    # the constructor is the one place that checks structure: validate,
    # check_osp and tree_to_doc only ever see well-formed trees
    nodes, message = MALFORMED[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MechanismTree(2, (full_universe(2),) * 2, ((0b01, 0b10), (0b11,)), nodes)


@pytest.mark.parametrize("table, message", [
    ((0b01, 0), "type set 1 of applicant 0 is empty or escapes its universe"),
    ((0b01, -2), "type set 1 of applicant 0 is empty or escapes its universe"),
    ((True, 0b10), "type set 0 of applicant 0 is empty or escapes its universe"),
    ((0b01, "2"), "type set 1 of applicant 0 is empty or escapes its universe"),
], ids=["zero", "negative", "bool", "string"])
def test_tree_constructor_refuses_bad_sets(table, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MechanismTree(2, (full_universe(2),) * 2, (table, ()), (Leaf((0, 1)),))


@pytest.mark.parametrize("universe", [0b01, 0b11], ids=["partial", "full"])
def test_tree_constructor_refuses_a_set_outside_its_universe(universe):
    # applicant b's set 1 holds id 1, outside a universe of id 0 alone (or,
    # with the full universe, set 1 holds id 2 of a 2-applicant market)
    stray = 0b10 if universe == 0b01 else 0b100
    with pytest.raises(ValueError, match=r"^type set 1 of applicant 1 is empty or escapes its universe$"):
        MechanismTree(2, (0b11, universe), ((), (0b01, stray)),
                      (Internal(1, (0, 1)), Leaf((0, 1)), Leaf((1, 0))))


def test_tree_constructor_refuses_a_table_count_other_than_n():
    with pytest.raises(ValueError, match="expected 2 type-set tables, got 1"):
        MechanismTree(2, (full_universe(2),) * 2, ((),), (Leaf((0, 1)),))


WRONG_KIND = {
    "n_string": (("2", (0b11,) * 2, ((), ()), (Leaf((0, 1)),)), "n must be a positive int, got '2'"),
    "n_bool": ((True, (1,), ((),), (Leaf((0,)),)), "n must be a positive int, got True"),
    "n_zero": ((0, (), (), (Leaf(()),)), "n must be a positive int, got 0"),
    "universes_int": ((2, 5, ((), ()), (Leaf((0, 1)),)), "universes: expected a sequence, got int"),
    "type_sets_int": ((2, (0b11,) * 2, 5, (Leaf((0, 1)),)), "type_sets: expected a sequence, got int"),
    "table_int": ((2, (0b11,) * 2, ((), 5), (Leaf((0, 1)),)), "type_sets[1]: expected a sequence, got int"),
    "nodes_int": ((2, (0b11,) * 2, ((), ()), 5), "nodes: expected a sequence, got int"),
}


@pytest.mark.parametrize("case", list(WRONG_KIND))
def test_tree_constructor_refuses_arguments_of_the_wrong_kind(case):
    # a library caller gets one ValueError line, never a bare TypeError
    args, message = WRONG_KIND[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MechanismTree(*args)


def test_tree_constructor_refuses_a_universe_count_other_than_n():
    # validate alone would pass such a tree, and check_implements would
    # index past the universes
    with pytest.raises(ValueError, match="expected 2 universes, got 3"):
        MechanismTree(2, (full_universe(2),) * 3, ((), ()), (Leaf((0, 1)),))
    with pytest.raises(ValueError, match="expected 2 universes, got 1"):
        MechanismTree(2, (full_universe(2),), ((), ()), (Leaf((0, 1)),))


@pytest.mark.parametrize("universe", [-1, 0b101, (1, 0), (0, 0, 1), 0],
                         ids=["negative", "n_factorial", "unsorted", "repeated", "empty"])
def test_tree_constructor_refuses_a_universe_outside_the_type_ids(universe):
    # a universe is a bitmask: a negative one, or one with bit n! set, would
    # make the checkers index past their tables; a list of ids, sorted or
    # not, is not a universe
    with pytest.raises(ValueError, match=r"universe of applicant 1 is not a nonzero "
                                         r"bitmask of ids in 0\.\.1$"):
        MechanismTree(2, (full_universe(2), universe), ((), ()), (Leaf((0, 1)),))


def test_reveal_tree_refuses_a_universe_outside_the_type_ids():
    # id -1 would read the last ranking, and id n! none, before the tree is made
    with pytest.raises(ValueError, match="universe of applicant 0 is not"):
        reveal_tree(q_of("ab", "ba"), ((-1, 0), (0, 1)))
    with pytest.raises(ValueError, match="universe of applicant 1 is not"):
        reveal_tree(q_of("ab", "ba"), ((0, 1), (0, 2)))


def test_tree_constructor_records_subtree_ends():
    uni = full_universe(2)
    tree = flat_tree(2, (uni, uni), (0, (((0,), (1, (((0, 1), Leaf((0, 1))),))), ((1,), Leaf((1, 0))))))
    assert tree.type_sets == ((0b01, 0b10), (0b11,))
    assert tree.nodes == (Internal(0, (0, 1)), Internal(1, (0,)), Leaf((0, 1)), Leaf((1, 0)))
    assert tree.children == [((0, 1), (1, 3)), ((0, 2),), (), ()]
    assert tree.end == [4, 3, 3, 4]


def test_validate_single_leaf_market():
    tree = MechanismTree(1, (1,), ((),), (Leaf((0,)),))
    assert validate(tree).ok
    assert execute_ids(tree, (0,)) == (0,)


def test_execute_follows_clinch_then_trade(taa3_tree):
    p = p_of((3, 1, 2), (1, 2, 3), (2, 3, 1))
    assert execute(taa3_tree, p).applicant_to_position == (2, 0, 1)
    p2 = p_of((3, 1, 2), (2, 1, 3), (1, 2, 3))
    assert execute(taa3_tree, p2).applicant_to_position == (2, 1, 0)


def test_execute_rejects_profiles_outside_environment(taa3_tree):
    small = restrict_environment(taa3_tree, ((0, 1), (0,), (0,)))
    outside = PreferenceProfile.from_rankings(((2, 1, 0), (0, 1, 2), (0, 1, 2)))
    with pytest.raises(ValueError):
        execute(small, outside)


def test_check_implements_exhaustive(taa3_tree):
    assert check_implements(taa3_tree, TAA3).ok


def test_check_implements_catches_constant_tree():
    q = q_of("abc", "abc", "abc")
    uni = full_universe(3)
    tree = MechanismTree(3, (uni,) * 3, ((),) * 3, (Leaf((0, 1, 2)),))
    # a single leaf is a valid tree but cannot equal DA across profiles
    assert validate(tree).ok
    report = check_implements(tree, q)
    assert not report.ok
    assert report.counterexample is not None


def test_check_implements_sampled(star6_tree):
    report = check_implements(star6_tree, STAR6, samples=2000, seed=5)
    assert report.ok and report.checked == 2000


def _sampled_profiles(universes, samples, seed):
    """The documented sample stream, drawn one word at a time: each type is
    the next 8 bytes of ``random.Random(seed).randbytes``, read as a
    little-endian integer, modulo the universe size.  A negative seed
    draws from ``random.Random(str(seed))``."""
    rng = random.Random(seed if seed >= 0 else str(seed))
    for _ in range(samples):
        yield tuple(u[int.from_bytes(rng.randbytes(8), "little") % len(u)] for u in universes)


def _scalar_check_implements(tree, q, samples=None, seed=0):
    """Reference for check_implements: walk each profile, in product order
    or in the seeded sample stream, to its leaf and compare with the
    scalar da_match; stop at the first mismatch."""
    rankings = all_rankings(tree.n)
    ranks = q.rank_table()
    universes = [mask_ids(u) for u in tree.universes]
    if samples is None:
        profiles = product(*universes)
    else:
        profiles = _sampled_profiles(universes, samples, seed)
    checked = 0
    for type_ids in profiles:
        checked += 1
        if execute_ids(tree, type_ids) != da_match(ranks, tuple(rankings[t] for t in type_ids)):
            return False, checked, type_ids
    return True, checked, None


def _swapped_leaf(tree, k):
    """A copy of the tree whose k-th leaf (in preorder) has the positions
    of its first two applicants exchanged."""
    nid = [i for i, node in enumerate(tree.nodes) if isinstance(node, Leaf)][k]
    m = tree.nodes[nid].matching
    nodes = list(tree.nodes)
    nodes[nid] = Leaf((m[1], m[0]) + m[2:])
    return MechanismTree(tree.n, tree.universes, tree.type_sets, nodes)


def _implements_cases():
    four_q = q_of("dabc", "dabc", "dacb", "dbac")
    four = synthesize(four_q)
    taa3 = synthesize(TAA3)
    constant = MechanismTree(3, (full_universe(3),) * 3, ((),) * 3, (Leaf((0, 1, 2)),))
    cases = [(taa3, TAA3), (constant, TAA3), (constant, FIG_A), (constant, q_of("abc", "abc", "abc")),
             (reveal_tree(FIG_A), FIG_A), (reveal_tree(FIG_A), TAA3)]
    leaves = taa3.leaf_count()
    cases += [(_swapped_leaf(taa3, k), TAA3) for k in range(0, leaves, 2)]
    cases += [(_swapped_leaf(four, k), four_q) for k in (0, 17, four.leaf_count() - 1)]
    rng = random.Random(3)
    for k in range(4):
        subs = [sorted(rng.sample(range(6), rng.randrange(1, 7))) for _ in range(3)]
        cases.append((restrict_environment(_swapped_leaf(taa3, 3 * k), subs), TAA3))
    cases += [(_random_tree(rng, 5), FIG_A) for _ in range(10)]
    return cases


def test_check_implements_matches_scalar_oracle():
    failures = 0
    for tree, q in _implements_cases():
        for samples, seed in ((None, 0), (400, 7)):
            report = check_implements(tree, q, samples=samples, seed=seed)
            expected = _scalar_check_implements(tree, q, samples, seed)
            assert (report.ok, report.checked, report.counterexample) == expected
            failures += not report.ok
    assert failures > 20  # the mutants are caught, in both modes


def test_check_implements_sampled_star_matches_scalar_oracle(star6_tree):
    for tree in (star6_tree, _swapped_leaf(star6_tree, 700)):
        report = check_implements(tree, STAR6, samples=3000, seed=5)
        expected = _scalar_check_implements(tree, STAR6, 3000, 5)
        assert (report.ok, report.checked, report.counterexample) == expected


def test_check_implements_stream_slices_keep_order(monkeypatch):
    # a stream cut into many tiny slices keeps product order, the sample
    # stream and the first mismatch
    monkeypatch.setattr(mechanism, "SLICE", 7)
    taa3 = synthesize(TAA3)
    for k in (1, 4, 9):
        tree = _swapped_leaf(taa3, k)
        for samples in (None, 300):
            report = check_implements(tree, TAA3, samples=samples, seed=k)
            expected = _scalar_check_implements(tree, TAA3, samples, k)
            assert (report.ok, report.checked, report.counterexample) == expected
    assert check_implements(taa3, TAA3).checked == 216


def test_check_implements_refuses_trees_whose_boxes_miss_profiles():
    uni = full_universe(3)
    overlapping = flat_tree(3, (uni,) * 3, (0, (((0, 1), Leaf((0, 1, 2))), ((1, 2), Leaf((0, 1, 2))))))
    uncovered = flat_tree(3, (uni,) * 3, (0, (((0,), Leaf((0, 1, 2))),)))
    # two children hold only type 0: the box sizes still add up to 2 x 2
    uni2 = full_universe(2)
    doubled = flat_tree(2, (uni2,) * 2, (0, (((0,), Leaf((0, 1))),) * 2))
    q2 = PrioritySet.from_rankings(((0, 1), (0, 1)))
    for tree, q in ((overlapping, TAA3), (uncovered, TAA3), (doubled, q2)):
        assert not validate(tree).ok
        with pytest.raises(ValueError):
            check_implements(tree, q)
        # sampled: a profile that finds no child refuses the slice before
        # any DA comparison, so a hole never yields a verdict
        with pytest.raises(ValueError):
            check_implements(tree, q, samples=100, seed=3)
    # overlapping children without a hole: the sampled mode gives a verdict,
    # and the first child holding a type takes it, as in execute_ids
    shadowed = flat_tree(3, (uni,) * 3, (0, (
        (range(6), nested_spec(synthesize(TAA3))), ((0, 1), Leaf((1, 0, 2))))))
    assert not validate(shadowed).ok
    assert check_implements(shadowed, TAA3, samples=100, seed=3) == ImplementsReport(True, 100)


@pytest.mark.parametrize("seed", [-3, 2**70])
def test_check_implements_accepts_any_int_seed(seed):
    tree = _swapped_leaf(synthesize(TAA3), 4)
    report = check_implements(tree, TAA3, samples=500, seed=seed)
    assert report == check_implements(tree, TAA3, samples=500, seed=seed)
    assert (report.ok, report.checked, report.counterexample) == _scalar_check_implements(tree, TAA3, 500, seed)
    if seed < 0:  # random.Random(-3) would repeat the stream of 3
        assert report != check_implements(tree, TAA3, samples=500, seed=-seed)


def test_execute_on_uncovered_type_raises_value_error():
    uni = full_universe(2)
    for covered, asked in (((0,), (1, 0)), ((1,), (0, 1))):
        tree = flat_tree(2, (uni, uni), (0, ((covered, Leaf((0, 1))),)))
        with pytest.raises(ValueError):
            execute(tree, PreferenceProfile.from_rankings((asked, (0, 1))))


@pytest.mark.parametrize("samples", [0, -5])
def test_check_implements_refuses_no_samples(taa3_tree, samples):
    with pytest.raises(ValueError):
        check_implements(taa3_tree, TAA3, samples=samples)


def test_check_osp_accepts_gadget_tree(taa3_tree):
    assert check_osp(taa3_tree).ok


def test_check_osp_accepts_serial_tree():
    q = q_of("abc", "abc", "abc")
    tree = synthesize(q)
    assert check_osp(tree).ok
    assert player_move_bound(tree) == 1


def _recursive_reveal_tree(q, universes=None):
    """The reveal tree built by recursion, each leaf by its own
    :func:`da_match` call: the oracle that ``reveal_tree`` is held to."""
    n = q.n
    rankings, ranks = all_rankings(n), q.rank_table()
    unis = (tuple(tuple(sorted(set(u))) for u in universes) if universes is not None
            else (tuple(range(len(rankings))),) * n)
    nodes = []

    def build(i, chosen):
        if i == n:
            nodes.append(Leaf(da_match(ranks, tuple(rankings[t] for t in chosen))))
        elif len(unis[i]) == 1:
            build(i + 1, chosen + (unis[i][0],))
        else:
            nodes.append(Internal(i, tuple(range(len(unis[i])))))
            for t in unis[i]:
                build(i + 1, chosen + (t,))

    build(0, ())
    type_sets = tuple(tuple(1 << t for t in u) if len(u) > 1 else () for u in unis)
    return MechanismTree(n, tuple(ids_mask(u, len(rankings)) for u in unis), type_sets, nodes)


def _restricted_reveal_cases():
    """Seeded universes of one to four types, one applicant each with a
    single type, then universes where every applicant has one type."""
    rng = random.Random(23)
    cases = []
    for q in (FIG_A, FIG_C, TAA3, FIG_E):
        for _ in range(4):
            sizes = [rng.randrange(1, 5) for _ in range(q.n)]
            sizes[rng.randrange(q.n)] = 1
            cases.append((q, tuple(rng.sample(range(len(all_rankings(q.n))), k) for k in sizes)))
    return cases + [(FIG_A, ((5,), (0,), (2,))), (FIG_E, ((3,), (17,), (0,), (23,)))]


@pytest.mark.parametrize("q, universes", [(FIG_A, None), (TAA3, None), (FIG_E, None),
                                          *_restricted_reveal_cases()])
def test_reveal_tree_matches_the_recursive_oracle(q, universes):
    tree, oracle = reveal_tree(q, universes), _recursive_reveal_tree(q, universes)
    assert tree.nodes == oracle.nodes
    assert tree.type_sets == oracle.type_sets
    assert tree.universes == oracle.universes
    assert tree.end == oracle.end
    if universes is not None and all(len(u) == 1 for u in universes):
        assert len(tree.nodes) == 1


def test_reveal_tree_with_pinned_opponents_is_clean():
    # against fixed opponents the reveal tree computes a strategyproof
    # function of one report, so no node can show regret
    tree = reveal_tree(FIG_A, universes=(range(6), (0,), (0,)))
    assert validate(tree).ok
    assert check_osp(tree).ok


def test_single_leaf_tree_is_trivially_osp():
    tree = MechanismTree(1, (1,), ((),), (Leaf((0,)),))
    assert check_osp(tree).ok


def test_reveal_tree_violates_osp_under_cyclic_table():
    tree = reveal_tree(FIG_A)
    assert validate(tree).ok
    assert check_implements(tree, FIG_A).ok
    report = check_osp(tree)
    assert not report.ok
    assert any(v.node == 0 for v in report.violations)


def test_osp_violations_replay():
    tree = reveal_tree(FIG_A)
    report = check_osp(tree)
    nodes = tree.nodes
    rankings = all_rankings(3)
    for v in report.violations[:8]:
        truthful = nodes[v.truthful_leaf]
        deviating = nodes[v.deviating_leaf]
        order = rankings[v.type_id]
        spot = {pos: i for i, pos in enumerate(order)}
        assert spot[deviating.matching[v.player]] < spot[truthful.matching[v.player]]


def test_osp_ok_implies_strategyproof(taa3_tree):
    rankings = all_rankings(3)
    ids = range(len(rankings))
    for profile in product(ids, repeat=3):
        honest = execute_ids(taa3_tree, profile)
        for i in range(3):
            spot = {pos: k for k, pos in enumerate(rankings[profile[i]])}
            for lie in ids:
                if lie == profile[i]:
                    continue
                other = execute_ids(
                    taa3_tree, profile[:i] + (lie,) + profile[i + 1 :]
                )
                assert spot[other[i]] >= spot[honest[i]]


def test_pruning_preserves_osp(taa3_tree):
    rng = random.Random(9)
    uni = mask_ids(full_universe(3))
    for _ in range(15):
        subs = [
            sorted(rng.sample(uni, rng.randrange(1, len(uni) + 1))) for _ in range(3)
        ]
        pruned = restrict_environment(taa3_tree, subs)
        assert validate(pruned).ok
        assert check_osp(pruned).ok


@pytest.mark.parametrize("bad", [True, 1.0, None, -1, 6, 10**30],
                         ids=["bool", "float", "none", "negative", "n_factorial", "far_above"])
def test_library_universes_refuse_what_is_not_a_type_id(taa3_tree, bad):
    # one line naming the applicant and the id, never "negative shift count"
    message = rf"^{{}}universe of applicant 1 is not a list of type ids in 0\.\.5: {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message.format("")):
        reveal_tree(TAA3, ((0,), (0, bad), (1,)))
    with pytest.raises(ValueError, match=message.format("sub-")):
        restrict_environment(taa3_tree, ((0,), (0, bad), (1,)))


def _uncovered_below_a_deviation():
    # applicant a's type 1 reaches node 0's first child through b's second
    # child, but node 2, where a acts again, has no child holding it
    uni = full_universe(2)
    return flat_tree(2, (uni, uni), (0, (
        ((0, 1), (1, (((0,), (0, (((0,), Leaf((0, 1))),))), ((1,), Leaf((0, 1)))))),
        ((1,), Leaf((1, 0))),
    )))


def _overlapping_taa3(taa3_tree):
    doc = json.loads(json.dumps(tree_to_doc(taa3_tree)))
    doc["type_sets"][1].insert(7, "c")
    return parse_tree(doc)[0]


@pytest.mark.parametrize("make, problem, message", [
    (_overlapping_taa3, "node 24: overlapping child type sets", "no leaf matches a recorded position"),
    (lambda _: _uncovered_below_a_deviation(), "node 0: overlapping child type sets",
     "no child of node 2 holds type 1"),
], ids=["taa3_overlap", "uncovered_type"])
def test_check_osp_on_a_tree_that_fails_validation(taa3_tree, make, problem, message):
    # check_osp does not validate; its leaf search ends in one ValueError line,
    # not an AssertionError or a bare StopIteration
    tree = make(taa3_tree)
    assert validate(tree).problems[0] == problem
    with pytest.raises(ValueError, match=f"^tree fails validation: {message}$"):
        check_osp(tree)


@pytest.mark.parametrize("call, message", [
    (lambda tree: restrict_environment(tree, 5), "sub-universes: expected a sequence, got int"),
    (lambda tree: restrict_environment(tree, ((0,), 5, (0,))),
     "sub-universe of applicant 1: expected a sequence, got int"),
    (lambda _: reveal_tree(TAA3, 5), "universes: expected a sequence, got int"),
    (lambda _: reveal_tree(TAA3, (5, (0,), (0,))), "universe of applicant 0: expected a sequence, got int"),
], ids=["restrict_int", "restrict_int_universe", "reveal_int", "reveal_int_universe"])
def test_library_universes_refuse_what_is_not_a_sequence(taa3_tree, call, message):
    # one ValueError line, never a bare TypeError from len() or iteration
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(taa3_tree)


def test_restrict_environment_validates_input(taa3_tree):
    with pytest.raises(ValueError):
        restrict_environment(taa3_tree, ((), (0,), (0,)))
    with pytest.raises(ValueError):
        restrict_environment(taa3_tree, ((999,), (0,), (0,)))
    with pytest.raises(ValueError):
        restrict_environment(taa3_tree, ((0,),))
    with pytest.raises(ValueError):
        restrict_environment(taa3_tree, ((0,), (0,), (0,), (0,)))


def test_exactly_one_leaf_per_profile(taa3_tree):
    # execute is total over the environment and lands on a single leaf
    for profile in product(mask_ids(full_universe(3)), repeat=3):
        matching = execute_ids(taa3_tree, profile)
        assert sorted(matching) == [0, 1, 2]


def test_structural_measures_on_star(star6_tree):
    assert player_move_bound(star6_tree) == 2
    assert max_active_applicants(star6_tree) <= 3


def _brute_osp_violations(tree):
    """Direct per-definition check: enumerate leaves under each child and
    compare worst truthful against best deviating, type by type.  Maps each
    (node, player, type) violation to the ids of the truthful leaves that
    attain the worst case and of the sibling leaves that attain the best
    deviation."""
    rankings = all_rankings(tree.n)
    nodes = tree.nodes
    violations = {}

    def leaves_below(nid):
        node = nodes[nid]
        if not isinstance(node, Internal):
            return [nid]
        out = []
        for _, child in tree.children[nid]:
            out.extend(leaves_below(child))
        return out

    def truthful_leaves(nid, player, type_id):
        node = nodes[nid]
        if not isinstance(node, Internal):
            return [nid]
        if node.player == player:
            for k, child in tree.children[nid]:
                if tree.type_sets[player][k] >> type_id & 1:
                    return truthful_leaves(child, player, type_id)
            return []
        out = []
        for _, child in tree.children[nid]:
            out.extend(truthful_leaves(child, player, type_id))
        return out

    def walk(nid):
        node = nodes[nid]
        if not isinstance(node, Internal):
            return
        player = node.player
        for k, (s, child) in enumerate(tree.children[nid]):
            types = tree.type_sets[player][s]
            dev = []
            for j, (_, sibling) in enumerate(tree.children[nid]):
                if j != k:
                    dev.extend(leaves_below(sibling))
            if not dev:
                continue
            for t in mask_ids(types):
                spot = {pos: i for i, pos in enumerate(rankings[t])}
                truthful = truthful_leaves(child, player, t)
                worst = max(spot[nodes[leaf].matching[player]] for leaf in truthful)
                best = min(spot[nodes[leaf].matching[player]] for leaf in dev)
                if worst > best:
                    violations[nid, player, t] = (
                        {leaf for leaf in truthful
                         if spot[nodes[leaf].matching[player]] == worst},
                        {leaf for leaf in dev
                         if spot[nodes[leaf].matching[player]] == best},
                    )
        for _, child in tree.children[nid]:
            walk(child)

    walk(0)
    return violations


def _reveal_top_first(q):
    """The reveal tree with applicant 0's report split in two moves: first
    their top position, then their full order.  Truthful play at the first
    move still branches on applicant 0's own later move."""
    tree = reveal_tree(q)
    rankings = all_rankings(q.n)
    groups = {}
    for (t,), child in nested_spec(tree)[1]:
        groups.setdefault(rankings[t][0], []).append(((t,), child))
    root = (0, tuple(
        (tuple(t for (t,), _ in kids), (0, tuple(kids)))
        for _, kids in sorted(groups.items())
    ))
    return flat_tree(tree.n, tree.universes, root)


def _brute_force_trees():
    """Synthesized, reveal and restricted trees at n = 3 and 4."""
    rankings = all_rankings(3)
    rng = random.Random(31)
    from ospmatch.classify import classify

    trees = []
    for ids in product(range(6), repeat=3):
        q = PrioritySet.from_rankings(tuple(rankings[i] for i in ids))
        if classify(q).limited_cyclic and rng.random() < 0.25:
            trees.append(synthesize(q))
    trees.append(reveal_tree(FIG_A))
    trees.append(reveal_tree(TAA3))
    trees.append(reveal_tree(q_of("abc", "acb", "cba")))
    trees.append(_reveal_top_first(FIG_A))
    trees.append(_reveal_top_first(q_of("abc", "acb", "cba")))
    base = synthesize(TAA3)
    uni = mask_ids(full_universe(3))
    for _ in range(10):
        subs = [sorted(rng.sample(uni, rng.randrange(1, 7))) for _ in range(3)]
        trees.append(restrict_environment(base, subs))
        trees.append(restrict_environment(reveal_tree(FIG_A), subs))
    four = synthesize(q_of("dabc", "dabc", "dacb", "dbac"))
    trees.append(four)
    trees.append(reveal_tree(q_of("abcd", "abdc", "acbd", "bacd"),
                             ((0, 5, 11, 17), (3, 9), (2, 21, 22), (7,))))
    return trees


def test_check_osp_matches_brute_force_everywhere():
    for tree in _brute_force_trees():
        report = check_osp(tree)
        fast = {(v.node, v.player, v.type_id) for v in report.violations}
        slow = _brute_osp_violations(tree)
        assert fast == set(slow)
        assert report.ok == (not slow)
        nodes = [v.node for v in report.violations]
        assert nodes == sorted(nodes)
        for v in report.violations:
            truthful, deviating = slow[v.node, v.player, v.type_id]
            assert v.truthful_leaf in truthful
            assert v.deviating_leaf in deviating


def _reveal_in_stages(q, universes):
    """The reveal tree with applicant 0's order revealed one position per
    move: first their top position, then the second, and so on, so
    applicant 0 acts n - 1 times on every path."""
    tree = reveal_tree(q, universes)
    rankings = all_rankings(q.n)

    def stage(kids, depth):
        if depth == q.n - 2:
            return 0, tuple(kids)
        groups = {}
        for (t,), child in kids:
            groups.setdefault(rankings[t][: depth + 1], []).append(((t,), child))
        return 0, tuple(
            (tuple(t for (t,), _ in group), stage(group, depth + 1))
            for _, group in sorted(groups.items())
        )

    return flat_tree(tree.n, tree.universes, stage(nested_spec(tree)[1], 0))


def _random_tree(rng, depth):
    """A seeded random valid three-applicant tree on small universes: each
    node gives the move to a random applicant, who may have moved before,
    and splits their current type set at random; leaves get random
    matchings, so most trees violate OSP somewhere."""
    universes = tuple(tuple(sorted(rng.sample(range(6), rng.randrange(2, 4)))) for _ in range(3))

    def build(sets, depth):
        if depth == 0 or rng.random() < 0.15:
            return Leaf(tuple(rng.sample(range(3), 3)))
        pl = rng.randrange(3)
        types = list(sets[pl])
        rng.shuffle(types)
        cuts = sorted(rng.sample(range(1, len(types)), rng.randrange(len(types))))
        parts = [tuple(sorted(types[a:b])) for a, b in zip([0] + cuts, cuts + [len(types)])]
        return pl, tuple(
            (part, build(sets[:pl] + (part,) + sets[pl + 1 :], depth - 1)) for part in parts
        )

    return flat_tree(3, tuple(ids_mask(u, 6) for u in universes), build(universes, depth))


def _act_again_trees():
    """Trees where a player acts again below their own move: staged reveal
    trees (three moves on a path) and seeded random trees."""
    small = ((0, 7), (3, 17), (11,))
    trees = [
        _reveal_in_stages(q, (range(24),) + small)
        for q in (q_of("abcd", "abdc", "acbd", "bacd"), q_of("dabc", "dabc", "dacb", "dbac"),
                  q_of("abcd", "bcda", "cdab", "dabc"))
    ]
    rng = random.Random(41)
    return trees + [_random_tree(rng, 6) for _ in range(60)]


def test_check_osp_matches_brute_force_when_players_act_again():
    # a player's truthful reach is merged over their own later moves
    # and over other players' moves in between
    for tree in _act_again_trees():
        assert validate(tree).ok
        report = check_osp(tree)
        slow = _brute_osp_violations(tree)
        assert {(v.node, v.player, v.type_id) for v in report.violations} == set(slow)
        for v in report.violations:
            truthful, deviating = slow[v.node, v.player, v.type_id]
            assert v.truthful_leaf in truthful
            assert v.deviating_leaf in deviating


def test_check_osp_reports_are_pinned(star6_tree):
    # whole reports: both leaves of each violation, in order, plus ok
    uni = full_universe(3)
    chain = [Internal(0, (0,))] * 5_000 + [Leaf((0, 1, 2))]
    trees = _brute_force_trees() + _act_again_trees() + [
        _swapped_leaf(star6_tree, 780),
        MechanismTree(3, (uni,) * 3, ((uni,), (), ()), chain),
        MechanismTree(2, (full_universe(2),) * 2, ((), ()), (Leaf((0, 1)),)),
    ]
    reports = [check_osp(tree) for tree in trees]
    assert sum(len(r.violations) for r in reports) == 765
    text = "\n".join(
        f"{r.ok} " + " ".join(
            f"{v.node},{v.player},{v.type_id},{v.truthful_leaf},{v.deviating_leaf}"
            for v in r.violations)
        for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b7345562d4824d4dcaba1366c5ef985a015a74d74271de3a8a923b837631af51")


def test_restricted_tree_still_implements_da():
    q = TAA3
    tree = synthesize(q)
    rng = random.Random(13)
    uni = mask_ids(full_universe(3))
    rankings = all_rankings(3)
    ranks = q.rank_table()
    for _ in range(10):
        subs = [
            sorted(rng.sample(uni, rng.randrange(1, 7))) for _ in range(3)
        ]
        pruned = restrict_environment(tree, subs)
        for profile in product(*map(mask_ids, pruned.universes)):
            prefs = tuple(rankings[t] for t in profile)
            assert execute_ids(pruned, profile) == da_match(ranks, prefs)
