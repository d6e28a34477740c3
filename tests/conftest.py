"""Shared tables and helpers for the test suite."""
from __future__ import annotations

import pytest

from ospmatch.core import PreferenceProfile, PrioritySet
from ospmatch.mechanism import Internal, Leaf, MechanismTree


def q_of(*rows: str) -> PrioritySet:
    """Priority set from letter rows, e.g. q_of("abc", "acb", "bac")."""
    return PrioritySet.from_rankings(
        tuple(tuple("abcdefg".index(ch) for ch in row) for row in rows)
    )


def p_of(*rows: tuple[int, ...]) -> PreferenceProfile:
    """Preference profile from 1-based position tuples."""
    return PreferenceProfile.from_rankings(
        tuple(tuple(x - 1 for x in row) for row in rows)
    )


def flat_tree(n: int, universes, spec) -> MechanismTree:
    """The tree of a nested spec, its nodes listed in preorder.  A spec is a
    ``Leaf`` or ``(player, ((types, spec), ...))``."""
    nodes = []

    def add(spec) -> int:
        nid = len(nodes)
        if isinstance(spec, Leaf):
            nodes.append(spec)
            return nid
        player, children = spec
        nodes.append(None)
        nodes[nid] = Internal(player, tuple((types, add(child)) for types, child in children))
        return nid

    add(spec)
    return MechanismTree(n, tuple(universes), nodes)


def nested_spec(tree: MechanismTree, nid: int = 0):
    """The nested spec of node ``nid``'s subtree (inverse of flat_tree)."""
    node = tree.nodes[nid]
    if isinstance(node, Leaf):
        return node
    return node.player, tuple((types, nested_spec(tree, child)) for types, child in node.children)


def inline_tree_doc(doc):
    """A tree document in the inline layout, the only one before format 2:
    each child carries its type-index list as ``"types"``, and there is no
    ``"format"`` or ``"type_sets"``.  Keys keep the order the inline writer
    used, so ``json.dumps`` of the result is that writer's output."""
    doc = dict(doc)
    tables = doc.pop("type_sets")
    del doc["format"]
    player = {name: i for i, name in enumerate(doc["applicants"])}
    doc["nodes"] = [
        {**record, "children": [
            {"types": list(tables[player[record["player"]]][child["set"]]), "node": child["node"]}
            for child in record["children"]
        ]} if "children" in record else record
        for record in doc["nodes"]
    ]
    return doc


LAYOUTS = ("format2", "inline")


def tree_doc(tree, layout):
    """``tree_to_doc(tree)`` in the named layout."""
    from ospmatch.jsonio import tree_to_doc

    doc = tree_to_doc(tree)
    return doc if layout == "format2" else inline_tree_doc(doc)


def child_type_list(doc, nid, k):
    """The type-index list of child ``k`` of record ``nid``, as a list in the
    document: inline in the record, or the shared ``type_sets`` entry."""
    record = doc["nodes"][nid]
    child = record["children"][k]
    if "types" in child:
        return child["types"]
    return doc["type_sets"][doc["applicants"].index(record["player"])][child["set"]]


# The irreducible non-implementable tables (letters by subfigure).
FIG_A = q_of("abc", "bca", "cab")
FIG_B = (q_of("abc", "abc", "cab"), q_of("abc", "abc", "cba"), q_of("abc", "abc", "bca"))
FIG_C = q_of("abc", "acb", "cba")
FIG_D = q_of("abc", "bac", "cba")
FIG_E = q_of("abcd", "abdc", "acbd", "bacd")

# The one cyclic-but-implementable 3x3 table and its clinch-tree twin.
TAA3 = q_of("abc", "acb", "bac")

# Six applicants, four shared lists plus the two alternating ones.
STAR6 = PrioritySet.from_rankings((
    (0, 1, 2, 3, 4, 5),
    (0, 1, 2, 3, 4, 5),
    (0, 1, 2, 3, 4, 5),
    (0, 1, 2, 3, 4, 5),
    (0, 2, 1, 4, 3, 5),
    (1, 0, 3, 2, 5, 4),
))


@pytest.fixture(scope="session")
def taa3_tree():
    from ospmatch.synth import synthesize

    return synthesize(TAA3)


@pytest.fixture(scope="session")
def star6_tree():
    from ospmatch.synth import synthesize

    return synthesize(STAR6)
