"""JSON boundary: round-trips and format validation."""
from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from conftest import (
    BAD_FORMAT3,
    FIG_A,
    TAA3,
    assert_first_use_tables,
    flat_tree,
    format2_tree_doc,
    inline_tree_doc,
    p_of,
    priorities_to_doc,
    profile_to_doc,
)
from ospmatch.cli import main
from ospmatch.jsonio import (
    FormatError,
    default_names,
    matching_to_doc,
    parse_priorities,
    parse_profile,
    parse_subdomain,
    parse_tree,
    subdomain_to_doc,
    tree_to_doc,
)
from ospmatch.da import run_da
from ospmatch.mechanism import (
    Internal,
    Leaf,
    check_osp,
    execute_ids,
    full_universe,
    restrict_environment,
    reveal_tree,
    validate,
)
from ospmatch.witness import fixtures

DATA = Path(__file__).parent / "data"


def test_priorities_round_trip():
    doc = {"n": 3, "priorities": [["a", "b", "c"], ["a", "c", "b"], ["b", "a", "c"]]}
    q, names = parse_priorities(doc)
    assert q.rankings == TAA3.rankings
    assert names.applicants == ("a", "b", "c")
    assert priorities_to_doc(q, names) == doc


def test_priorities_with_custom_names():
    doc = {"n": 2, "priorities": [["zoe", "ann"], ["ann", "zoe"]]}
    q, names = parse_priorities(doc)
    assert names.applicants == ("ann", "zoe")
    assert q.rankings == ((1, 0), (0, 1))


@pytest.mark.parametrize(
    "doc",
    [
        {"priorities": [["a"]]},
        {"n": 2, "priorities": [["a", "b"]]},
        {"n": 2, "priorities": [["a", "b"], ["a", "a"]]},
        {"n": 2, "priorities": [["a", "b"], ["a", "c"]]},
        {"n": 2, "priorities": [["A", "b"], ["b", "A"]]},
        {"n": 2, "priorities": "ab"},
    ],
)
def test_priorities_rejects_malformed(doc):
    with pytest.raises(FormatError):
        parse_priorities(doc)


def test_profile_round_trip():
    p = p_of((3, 1, 2), (1, 2, 3), (2, 3, 1))
    doc = profile_to_doc(p)
    assert doc["preferences"][0] == ["3", "1", "2"]
    parsed, _ = parse_profile(doc)
    assert parsed.rankings == p.rankings


def test_profile_rejects_bad_positions():
    with pytest.raises(FormatError):
        parse_profile({"n": 2, "preferences": [["1", "3"], ["1", "2"]]})


def test_matching_doc():
    mu = run_da(TAA3, p_of((3, 1, 2), (1, 2, 3), (2, 3, 1)))
    assert matching_to_doc(mu) == {"matching": {"a": "3", "b": "1", "c": "2"}}


def test_subdomain_round_trip():
    fixture = fixtures()[0]
    doc = subdomain_to_doc(fixture.subdomain)
    parsed, _ = parse_subdomain(doc)
    assert parsed == fixture.subdomain


def test_subdomain_rejects_all_singletons():
    doc = {
        "n": 2,
        "types": {"a": [["1", "2"]], "b": [["2", "1"]]},
    }
    with pytest.raises(FormatError):
        parse_subdomain(doc)


def test_subdomain_rejects_a_type_list_that_is_not_a_list():
    doc = {"n": 2, "types": {"a": 5, "b": [["2", "1"], ["1", "2"]]}}
    with pytest.raises(FormatError):
        parse_subdomain(doc)


def test_tree_round_trip(taa3_tree):
    doc = tree_to_doc(taa3_tree)
    rebuilt, names = parse_tree(doc)
    assert names == default_names(3)
    assert rebuilt.universes == taa3_tree.universes
    assert validate(rebuilt).ok
    assert check_osp(rebuilt).ok
    for profile in [(0, 0, 0), (5, 3, 1), (2, 4, 5)]:
        assert execute_ids(rebuilt, profile) == execute_ids(taa3_tree, profile)
    assert tree_to_doc(rebuilt) == doc


def test_restricted_tree_round_trip(taa3_tree):
    pruned = restrict_environment(taa3_tree, ((0, 2, 5), (1, 3), (4,)))
    doc = tree_to_doc(pruned)
    rebuilt, _ = parse_tree(doc)
    assert rebuilt.universes == pruned.universes
    assert validate(rebuilt).ok


def test_tree_rejects_out_of_range_type_index(taa3_tree):
    # a set's bits count the places of its universe, here 3, 2 and 1 types
    pruned = restrict_environment(taa3_tree, ((0, 2, 5), (1, 3), (4,)))
    doc = tree_to_doc(pruned)
    for i, table in enumerate(doc["type_sets"]):
        size = pruned.universes[i].bit_count()
        for k in range(len(table)):
            bad = json.loads(json.dumps(doc))
            bad["type_sets"][i][k] = format(1 << size, "x")
            with pytest.raises(FormatError) as caught:
                parse_tree(bad)
            assert str(caught.value) == f"type_sets[{i}][{k}]: type index outside 0..{size - 1}"


FORMAT_REFUSAL = "tree: 'format' must be 3 (format-2 and older tree files are no longer read)"
MISSING = object()


@pytest.mark.parametrize("value", [1, 4, "2", "3", True, 2.0, 3.0, None,
                                   pytest.param(2, id="int_2"), pytest.param(MISSING, id="missing")])
def test_tree_rejects_unknown_format(taa3_tree, value):
    doc = {**tree_to_doc(taa3_tree), "format": value}
    if value is MISSING:
        del doc["format"]
    with pytest.raises(FormatError, match=f"^{re.escape(FORMAT_REFUSAL)}$"):
        parse_tree(doc)


@pytest.mark.parametrize("rewrite", [
    lambda sets: None,
    lambda sets: "abc",
    lambda sets: {"a": sets[0]},
    lambda sets: sets[:2],
    lambda sets: sets + [[]],
    lambda sets: [sets[0], 5, sets[2]],
    lambda sets: [sets[0], "xy", sets[2]],
], ids=["missing", "string", "object", "short", "long", "row_not_a_list", "row_string"])
def test_tree_rejects_bad_type_set_table(taa3_tree, rewrite):
    doc = tree_to_doc(taa3_tree)
    doc["type_sets"] = rewrite(doc["type_sets"])
    with pytest.raises(FormatError, match="^tree: 'type_sets' must list one list of type sets per applicant$"):
        parse_tree(doc)


def test_tree_document_lists_each_set_once(star6_tree):
    doc = tree_to_doc(star6_tree)
    assert doc["format"] == 3
    distinct = [set() for _ in range(star6_tree.n)]
    edges = 0
    for node in star6_tree.nodes:
        if isinstance(node, Internal):
            table = star6_tree.type_sets[node.player]
            distinct[node.player].update(table[k] for k in node.sets)
            edges += len(node.sets)
    assert list(map(len, doc["type_sets"])) == list(map(len, distinct))
    # 309 distinct sets on 4,253 edges; 439 (applicant, set) table entries
    assert len(set().union(*distinct)) == 309 and edges == 4_253
    assert sum(map(len, doc["type_sets"])) == 439
    # an internal node is [player, set indices], with no child ids
    internal = [record for record in doc["nodes"] if isinstance(record[1], list)]
    assert len(internal) == sum(isinstance(node, Internal) for node in star6_tree.nodes)
    assert sum(len(record[1]) for record in internal) == 4_253


def test_tree_document_keeps_a_table_per_applicant():
    # the same two sets, first used in opposite orders by the two
    # applicants, get each applicant's own indices
    uni = full_universe(2)
    first, second = (0,), (1,)
    tree = flat_tree(2, (uni, uni), (0, (
        (first, (1, ((second, Leaf((0, 1))), (first, Leaf((1, 0)))))),
        (second, Leaf((1, 0))),
    )))
    doc = tree_to_doc(tree)
    assert doc["type_sets"] == [["1", "2"], ["2", "1"]]
    assert doc["nodes"][1] == [1, [0, 1]]
    parsed = parse_tree(doc)[0]
    assert parsed.nodes == tree.nodes and parsed.type_sets == tree.type_sets


@pytest.mark.parametrize("write", [tree_to_doc], ids=["format3"])
def test_parsed_tree_shares_equal_sets(star6_tree, write):
    # the file gives the synthesized tables back: 309 distinct sets in 439
    # entries, each table listing its sets once in order of first use
    parsed, _ = parse_tree(json.loads(json.dumps(write(star6_tree))))
    assert parsed.nodes == star6_tree.nodes
    assert parsed.type_sets == star6_tree.type_sets
    assert_first_use_tables(parsed)
    assert len(set().union(*parsed.type_sets)) == 309
    assert sum(map(len, parsed.type_sets)) == 439


def test_tree_tables_round_trip_as_listed(taa3_tree):
    # a file may list its sets in any order and hold sets no edge names;
    # the tree keeps its tables as listed and writes them back unchanged
    doc = tree_to_doc(taa3_tree)
    order = list(range(len(doc["type_sets"][0])))[::-1]
    renamed = {old: new for new, old in enumerate(order)}
    doc["type_sets"][0] = [doc["type_sets"][0][old] for old in order] + ["21"]  # types 0 and 5
    for record in doc["nodes"]:
        if len(record) == 2 and record[0] == 0:
            record[1] = [renamed[k] for k in record[1]]
    tree, _ = parse_tree(json.loads(json.dumps(doc)))
    assert validate(tree).ok
    assert len(tree.type_sets[0]) == len(order) + 1 and tree.type_sets[0][-1] == 0b100001
    assert tree_to_doc(tree) == doc


def test_tree_files_before_format_three_are_refused(taa3_tree, tmp_path, capsys):
    # the inline file `ospmatch synthesize` wrote before format 2, and the
    # format-2 file of FIG_A's reveal tree: each holds the tree today's code
    # builds (test_fig_a_reveal_tree_file_is_pinned), which synthesize or
    # tree_to_doc write again in format 3
    v1 = DATA / "taa3_tree_v1.json"
    assert v1.read_text() == json.dumps(inline_tree_doc(format2_tree_doc(taa3_tree))) + "\n"
    for path, q in ((v1, TAA3), (DATA / "fig_a_reveal_tree.json", FIG_A)):
        with pytest.raises(FormatError, match=f"^{re.escape(FORMAT_REFUSAL)}$"):
            parse_tree(json.loads(path.read_text()))
        market = tmp_path / "q.json"
        market.write_text(json.dumps(priorities_to_doc(q)))
        tree, market = str(path), str(market)
        for argv in (["check-osp", tree], ["--json", "check-osp", tree],
                     ["verify-tree", tree, market], ["--json", "verify-tree", tree, market]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {FORMAT_REFUSAL}\n"


def test_fig_a_reveal_tree_file_is_pinned():
    # the CI smoke step writes this tree with json.dump and cmp-s it with the
    # v3 file; the format-2 file, what the same step wrote before format 3,
    # is a fixture of test_tree_files_before_format_three_are_refused
    tree = reveal_tree(FIG_A)
    assert json.dumps(tree_to_doc(tree)) == (DATA / "fig_a_reveal_tree_v3.json").read_text()
    assert json.dumps(format2_tree_doc(tree)) == (DATA / "fig_a_reveal_tree.json").read_text()


def _tables(tree):
    return tree.n, tree.universes, tree.type_sets, tree.nodes


def test_every_layout_gives_the_same_tree(taa3_tree):
    # format 3 gives back every tree it is written from: the v3 file of
    # FIG_A's reveal tree, TAA3's synthesized tree, and trees over universes
    # that are not full, where each set's ids are renumbered by their place
    # in the universe
    fig_a, names = parse_tree(json.loads((DATA / "fig_a_reveal_tree_v3.json").read_text()))
    assert _tables(fig_a) == _tables(reveal_tree(FIG_A))
    assert names == default_names(3)
    restricted = (restrict_environment(taa3_tree, ((0, 2, 5), (1, 3), (4,))),
                  restrict_environment(reveal_tree(FIG_A), ((0, 1, 4), (2, 3, 5), (1, 5))),
                  reveal_tree(FIG_A, ((0, 5), (3,), (1, 2, 4))))
    assert not any(all(u == full_universe(3) for u in tree.universes) for tree in restricted)
    for tree in (taa3_tree, reveal_tree(FIG_A), *restricted):
        assert _tables(parse_tree(json.loads(json.dumps(tree_to_doc(tree))))[0]) == _tables(tree)


@pytest.mark.parametrize("case", sorted(BAD_FORMAT3))
def test_format_three_refusals(taa3_tree, case):
    rewrite, message = BAD_FORMAT3[case]
    doc = json.loads(json.dumps(tree_to_doc(taa3_tree)))
    assert doc["nodes"][0][0] == 0 and not isinstance(doc["nodes"][-1][1], list)
    rewrite(doc)
    with pytest.raises(FormatError) as caught:
        parse_tree(doc)
    assert message in str(caught.value)


def test_tree_rejects_bad_matching(taa3_tree):
    doc = tree_to_doc(taa3_tree)
    idx = next(i for i, record in enumerate(doc["nodes"]) if len(record) == 3)
    for leaf in ([0, 0, 0], [0, 1, 3], [0, 1, -1]):
        bad = json.loads(json.dumps(doc))
        bad["nodes"][idx] = leaf
        with pytest.raises(FormatError, match=rf"^nodes\[{idx}\]: matching is not a bijection$"):
            parse_tree(bad)


def test_star_tree_serialization_is_stable(star6_tree):
    doc = tree_to_doc(star6_tree)
    rebuilt, _ = parse_tree(doc)
    assert tree_to_doc(rebuilt) == doc
