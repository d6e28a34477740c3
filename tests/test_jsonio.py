"""JSON boundary: round-trips and format validation."""
from __future__ import annotations

import pytest

from conftest import TAA3, p_of
from ospmatch.jsonio import (
    FormatError,
    default_names,
    matching_to_doc,
    parse_priorities,
    parse_profile,
    parse_subdomain,
    parse_tree,
    priorities_to_doc,
    profile_to_doc,
    subdomain_to_doc,
    tree_to_doc,
)
from ospmatch.da import run_da
from ospmatch.mechanism import check_osp, execute_ids, restrict_environment, validate
from ospmatch.witness import fixtures


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


def test_tree_rejects_cycles_and_double_references(taa3_tree):
    doc = tree_to_doc(taa3_tree)
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
    doc = tree_to_doc(taa3_tree)
    bad_nodes = [dict(n) for n in doc["nodes"]]
    for record in bad_nodes:
        if "children" in record:
            record["children"] = [
                {**child, "types": [999]} for child in record["children"]
            ]
            break
    with pytest.raises(FormatError):
        parse_tree({**doc, "nodes": bad_nodes})


def test_tree_rejects_bad_matching(taa3_tree):
    doc = tree_to_doc(taa3_tree)
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
