"""Shared tables and helpers for the test suite."""
from __future__ import annotations

import pytest

from ospmatch.core import PreferenceProfile, PrioritySet
from ospmatch.jsonio import Names, default_names
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


def priorities_to_doc(q: PrioritySet, names: Names | None = None) -> dict:
    """The priorities document of ``q``, the input of ``parse_priorities``."""
    names = names or default_names(q.n)
    return {"n": q.n, "priorities": [[names.applicants[a] for a in ranking] for ranking in q.rankings]}


def profile_to_doc(p: PreferenceProfile, names: Names | None = None) -> dict:
    """The preferences document of ``p``, the input of ``parse_profile``."""
    names = names or default_names(p.n)
    return {"n": p.n, "preferences": [[names.positions[x] for x in ranking] for ranking in p.rankings]}


def flat_tree(n: int, universes, spec) -> MechanismTree:
    """The tree of a nested spec, its nodes listed in preorder and each
    applicant's sets in its table in order of first use.  A spec is a
    ``Leaf`` or ``(player, ((types, spec), ...))``."""
    nodes = []
    index = [{} for _ in range(n)]  # per applicant: set -> its index

    def add(spec) -> int:
        nid = len(nodes)
        if isinstance(spec, Leaf):
            nodes.append(spec)
            return nid
        player, children = spec
        nodes.append(None)
        sets = [index[player].setdefault(tuple(types), len(index[player])) for types, _ in children]
        nodes[nid] = Internal(player, tuple((k, add(child)) for k, (_, child) in zip(sets, children)))
        return nid

    add(spec)
    return MechanismTree(n, tuple(universes), tuple(map(tuple, index)), nodes)


def nested_spec(tree: MechanismTree, nid: int = 0):
    """The nested spec of node ``nid``'s subtree (inverse of flat_tree)."""
    node = tree.nodes[nid]
    if isinstance(node, Leaf):
        return node
    table = tree.type_sets[node.player]
    return node.player, tuple((table[k], nested_spec(tree, child)) for k, child in node.children)


def assert_first_use_tables(tree: MechanismTree) -> None:
    """Each applicant's table lists distinct sets, every one named by an
    edge, in order of first use in preorder."""
    used = [{} for _ in range(tree.n)]  # per applicant: set indices in order of first use
    for node in tree.nodes:
        if isinstance(node, Internal):
            for k, _ in node.children:
                used[node.player].setdefault(k, None)
    for table, order in zip(tree.type_sets, used):
        assert len(set(table)) == len(table)
        assert list(order) == list(range(len(table)))


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
