"""JSON boundary: round-trips and format validation."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import (
    BAD_FORMAT3,
    LAYOUTS,
    NAMED_LAYOUTS,
    FIG_A,
    TAA3,
    assert_first_use_tables,
    child_type_list,
    flat_tree,
    format2_tree_doc,
    inline_tree_doc,
    p_of,
    priorities_to_doc,
    profile_to_doc,
    tree_doc,
)
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
    MechanismTree,
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


@pytest.mark.parametrize("universe", [0b01, 0b11], ids=["partial", "full"])
def test_tree_to_doc_refuses_a_set_outside_its_universe(universe):
    # applicant b's set 1 holds id 1, outside a universe of id 0 alone (or,
    # with the full universe, set 1 holds id 2 of a 2-applicant market)
    stray = 0b10 if universe == 0b01 else 0b100
    tree = MechanismTree(2, (0b11, universe), ((), (0b01, stray)),
                         (Internal(1, ((0, 1), (1, 2))), Leaf((0, 1)), Leaf((1, 0))))
    assert not validate(tree).ok
    with pytest.raises(ValueError, match=r"^type set 1 of applicant 1 holds a type outside its universe$"):
        tree_to_doc(tree)


def test_tree_rejects_cycles_and_double_references(taa3_tree):
    # only format 2 and the inline layout write child ids
    doc = format2_tree_doc(taa3_tree)
    bad = {**doc, "nodes": [dict(n) for n in doc["nodes"]]}
    for record in bad["nodes"]:
        if "children" in record:
            record["children"] = [
                {**child, "node": 1} for child in record["children"]
            ]
            break
    with pytest.raises(FormatError):
        parse_tree(bad)


def test_tree_rejects_out_of_range_type_index(taa3_tree):
    for layout in NAMED_LAYOUTS:
        doc = tree_doc(taa3_tree, layout)
        nid = next(i for i, record in enumerate(doc["nodes"]) if "children" in record)
        for k in range(len(doc["nodes"][nid]["children"])):
            child_type_list(doc, nid, k)[:] = [999]
        with pytest.raises(FormatError, match=r": type index outside 0\.\.5$"):
            parse_tree(doc)


# each rewrite of one child's type-index list, with the refusal it gets
BAD_TYPE_LISTS = {
    "empty": (lambda ids: [], "child needs a type list"),
    "not_a_list": (lambda ids: 3, "child needs a type list"),
    "string": (lambda ids: ["0"], "type indices must be integers"),
    "bool": (lambda ids: [True], "type indices must be integers"),
    "float": (lambda ids: [0.0], "type indices must be integers"),
    "nested": (lambda ids: [ids], "type indices must be integers"),
    "negative": (lambda ids: [-1], "type index outside 0..5"),
    "too_large": (lambda ids: [6], "type index outside 0..5"),
    "repeated": (lambda ids: ids + ids[:1], "child repeats a type index"),
}


@pytest.mark.parametrize("case", sorted(BAD_TYPE_LISTS))
def test_tree_type_list_refusals_match_across_layouts(taa3_tree, case):
    rewrite, message = BAD_TYPE_LISTS[case]
    for layout, where in (("format2", "type_sets[0][0]"), ("inline", "nodes[0]")):
        doc = tree_doc(taa3_tree, layout)
        record = doc["nodes"][0]
        if layout == "format2":
            doc["type_sets"][0][0] = rewrite(child_type_list(doc, 0, 0))
        else:
            record["children"][0]["types"] = rewrite(child_type_list(doc, 0, 0))
        with pytest.raises(FormatError) as caught:
            parse_tree(doc)
        assert str(caught.value) == f"{where}: {message}"


@pytest.mark.parametrize("value", [1, 4, "2", "3", True, 2.0, 3.0, None])
def test_tree_rejects_unknown_format(taa3_tree, value):
    doc = {**tree_to_doc(taa3_tree), "format": value}
    with pytest.raises(FormatError, match="'format' must be 2, 3 or absent"):
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
    for layout in ("format3", "format2"):
        doc = tree_doc(taa3_tree, layout)
        doc["type_sets"] = rewrite(doc["type_sets"])
        with pytest.raises(FormatError, match="'type_sets' must list one list of type sets per applicant"):
            parse_tree(doc)


def test_tree_document_lists_each_set_once(star6_tree):
    doc = tree_to_doc(star6_tree)
    assert doc["format"] == 3
    distinct = [set() for _ in range(star6_tree.n)]
    edges = 0
    for node in star6_tree.nodes:
        if isinstance(node, Internal):
            table = star6_tree.type_sets[node.player]
            distinct[node.player].update(table[k] for k, _ in node.children)
            edges += len(node.children)
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
    assert parse_tree(doc)[0].nodes == tree.nodes
    doc = format2_tree_doc(tree)
    assert doc["type_sets"] == [[[0], [1]], [[1], [0]]]
    assert doc["nodes"][1]["children"] == [{"set": 0, "node": 2}, {"set": 1, "node": 3}]
    assert parse_tree(doc)[0].nodes == tree.nodes


@pytest.mark.parametrize("layout", LAYOUTS)
def test_parsed_tree_shares_equal_sets(star6_tree, layout):
    # both layouts give the synthesized tables back: 309 distinct sets in
    # 439 entries, each table listing its sets once in order of first use
    parsed, _ = parse_tree(json.loads(json.dumps(tree_doc(star6_tree, layout))))
    assert parsed.nodes == star6_tree.nodes
    assert parsed.type_sets == star6_tree.type_sets
    assert_first_use_tables(parsed)
    assert len(set().union(*parsed.type_sets)) == 309
    assert sum(map(len, parsed.type_sets)) == 439


def test_format_two_tables_round_trip_as_listed(taa3_tree):
    # a file may list its sets in any order and hold sets no edge names;
    # the tree keeps its tables as listed and writes them back unchanged
    doc = format2_tree_doc(taa3_tree)
    order = list(range(len(doc["type_sets"][0])))[::-1]
    renamed = {old: new for new, old in enumerate(order)}
    doc["type_sets"][0] = [doc["type_sets"][0][old] for old in order] + [[0, 5]]
    for record in doc["nodes"]:
        if record.get("player") == "a":
            for child in record["children"]:
                child["set"] = renamed[child["set"]]
    tree, _ = parse_tree(doc)
    assert validate(tree).ok
    assert format2_tree_doc(tree) == doc
    assert len(tree.type_sets[0]) == len(order) + 1
    assert format2_tree_doc(parse_tree(json.loads(json.dumps(doc)))[0]) == doc
    # format 3 writes the same tables, the unused set included
    v3 = tree_to_doc(tree)
    assert len(v3["type_sets"][0]) == len(order) + 1
    assert parse_tree(json.loads(json.dumps(v3)))[0].type_sets == tree.type_sets


def test_tree_reads_the_inline_file_synthesize_used_to_write(taa3_tree):
    # written by `ospmatch synthesize` before format 2, from the TAA3 market
    v1 = DATA / "taa3_tree_v1.json"
    assert v1.read_text() == json.dumps(inline_tree_doc(format2_tree_doc(taa3_tree))) + "\n"
    from_v1, names = parse_tree(json.loads(v1.read_text()))
    from_v2, _ = parse_tree(json.loads(json.dumps(tree_to_doc(taa3_tree))))
    assert names == default_names(3)
    assert (from_v1.n, from_v1.universes, from_v1.nodes) == (
        from_v2.n, from_v2.universes, from_v2.nodes)
    assert tree_to_doc(from_v1) == tree_to_doc(taa3_tree)


def test_fig_a_reveal_tree_file_is_pinned():
    # the CI smoke step writes this tree with json.dump and cmp-s it with the
    # v3 file; the format-2 file is what the same step wrote before format 3
    tree = reveal_tree(FIG_A)
    assert json.dumps(tree_to_doc(tree)) == (DATA / "fig_a_reveal_tree_v3.json").read_text()
    assert json.dumps(format2_tree_doc(tree)) == (DATA / "fig_a_reveal_tree.json").read_text()


def _tables(tree):
    return tree.n, tree.universes, tree.type_sets, tree.nodes


def test_every_layout_gives_the_same_tree(taa3_tree):
    # the format-2 and v3 files of FIG_A's reveal tree, and the inline file
    # and a format-3 write of TAA3's tree, each pair one tree
    fig_a_v2, names = parse_tree(json.loads((DATA / "fig_a_reveal_tree.json").read_text()))
    fig_a_v3, names_v3 = parse_tree(json.loads((DATA / "fig_a_reveal_tree_v3.json").read_text()))
    assert _tables(fig_a_v2) == _tables(fig_a_v3) == _tables(reveal_tree(FIG_A))
    assert names == names_v3 == default_names(3)
    taa3_v1, _ = parse_tree(json.loads((DATA / "taa3_tree_v1.json").read_text()))
    taa3_v3, _ = parse_tree(json.loads(json.dumps(tree_to_doc(taa3_tree))))
    assert _tables(taa3_v1) == _tables(taa3_v3)
    # trees over universes that are not full: format 3 renumbers each set's
    # ids by their place in the universe, and every layout reads them back
    for tree in (restrict_environment(taa3_tree, ((0, 2, 5), (1, 3), (4,))),
                 restrict_environment(reveal_tree(FIG_A), ((0, 1, 4), (2, 3, 5), (1, 5))),
                 reveal_tree(FIG_A, ((0, 5), (3,), (1, 2, 4)))):
        assert not all(u == full_universe(3) for u in tree.universes)
        for layout in LAYOUTS:
            assert _tables(parse_tree(json.loads(json.dumps(tree_doc(tree, layout))))[0]) == _tables(tree)


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
    doc = format2_tree_doc(taa3_tree)
    bad_nodes = [dict(n) for n in doc["nodes"]]
    for record in bad_nodes:
        if "matching" in record:
            record["matching"] = {k: "1" for k in record["matching"]}
            break
    with pytest.raises(FormatError):
        parse_tree({**doc, "nodes": bad_nodes})


def test_star_tree_serialization_is_stable(star6_tree):
    doc = tree_to_doc(star6_tree)
    rebuilt, _ = parse_tree(doc)
    assert tree_to_doc(rebuilt) == doc
