"""Shared tables and helpers for the test suite."""
from __future__ import annotations

import pytest

from ospmatch.core import PreferenceProfile, PrioritySet, all_rankings, ids_mask, mask_ids
from ospmatch.jsonio import Names, default_names, tree_to_doc
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
    """The tree of a nested spec over the given universe bitmasks, its
    nodes listed in preorder and each applicant's sets in its table in
    order of first use.  A spec is a ``Leaf`` or ``(player, ((types,
    spec), ...))``, ``types`` a sequence of type ids."""
    nodes = []
    index = [{} for _ in range(n)]  # per applicant: set bitmask -> its index
    size = len(all_rankings(n))

    def add(spec) -> None:
        if isinstance(spec, Leaf):
            nodes.append(spec)
            return
        player, children = spec
        table = index[player]
        nodes.append(Internal(player, tuple(table.setdefault(ids_mask(types, size), len(table))
                                            for types, _ in children)))
        for _, child in children:
            add(child)

    add(spec)
    return MechanismTree(n, tuple(universes), tuple(map(tuple, index)), nodes)


def nested_spec(tree: MechanismTree, nid: int = 0):
    """The nested spec of node ``nid``'s subtree (inverse of flat_tree)."""
    node = tree.nodes[nid]
    if isinstance(node, Leaf):
        return node
    table = tree.type_sets[node.player]
    return node.player, tuple((mask_ids(table[k]), nested_spec(tree, child)) for k, child in tree.children[nid])


def assert_first_use_tables(tree: MechanismTree) -> None:
    """Each applicant's table lists distinct sets, every one named by an
    edge, in order of first use in preorder."""
    used = [{} for _ in range(tree.n)]  # per applicant: set indices in order of first use
    for node in tree.nodes:
        if isinstance(node, Internal):
            for k in node.sets:
                used[node.player].setdefault(k, None)
    for table, order in zip(tree.type_sets, used):
        assert len(set(table)) == len(table)
        assert list(order) == list(range(len(table)))


def format2_tree_doc(tree: MechanismTree, names: Names | None = None) -> dict:
    """The format-2 document of ``tree``, which ``tree_to_doc`` wrote before
    format 3 and ``parse_tree`` no longer reads: universes as lists of
    position-name orders, each type set as a list of indices into its
    applicant's universe, and one object per node, with applicant and
    position names and child ids."""
    names = names or default_names(tree.n)
    rankings = all_rankings(tree.n)
    local = [{t: j for j, t in enumerate(mask_ids(universe))} for universe in tree.universes]
    nodes = []
    for node, children in zip(tree.nodes, tree.children):
        if isinstance(node, Leaf):
            nodes.append({"matching": {
                names.applicants[a]: names.positions[x] for a, x in enumerate(node.matching)
            }})
        else:
            nodes.append({
                "player": names.applicants[node.player],
                "children": [{"set": k, "node": child} for k, child in children],
            })
    return {
        "format": 2,
        "n": tree.n,
        "applicants": list(names.applicants),
        "positions": list(names.positions),
        "universes": [
            [[names.positions[x] for x in rankings[t]] for t in mask_ids(universe)]
            for universe in tree.universes
        ],
        "type_sets": [
            [[local[i][t] for t in mask_ids(types)] for types in table]
            for i, table in enumerate(tree.type_sets)
        ],
        "nodes": nodes,
    }


def inline_tree_doc(doc):
    """The format-2 document ``doc`` in the inline layout, the only one
    before format 2: each child carries its type-index list as
    ``"types"``, and there is no ``"format"`` or ``"type_sets"``.  Keys keep the order the inline writer
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


# every layout a tree file was written in; parse_tree reads only format 3
LAYOUTS = ("format3", "format2", "inline")


def tree_doc(tree, layout):
    """The document of ``tree`` in the named layout."""
    if layout == "format3":
        return tree_to_doc(tree)
    doc = format2_tree_doc(tree)
    return doc if layout == "format2" else inline_tree_doc(doc)


# each rewrite of a format-3 document of the TAA3 tree (n = 3, full
# universes, a leaf last), with the refusal it gets
BAD_FORMAT3 = {
    "hex_prefix": (lambda d: d["universes"].__setitem__(0, "0x3f"),
                   "universes[0]: expected a lowercase hex bitmask"),
    "hex_underscore": (lambda d: d["universes"].__setitem__(0, "3_f"),
                       "universes[0]: expected a lowercase hex bitmask"),
    "hex_space": (lambda d: d["type_sets"][0].__setitem__(0, " 1"),
                  "type_sets[0][0]: expected a lowercase hex bitmask"),
    "hex_plus": (lambda d: d["type_sets"][0].__setitem__(0, "+1"),
                 "type_sets[0][0]: expected a lowercase hex bitmask"),
    "hex_minus": (lambda d: d["type_sets"][0].__setitem__(0, "-1"),
                  "type_sets[0][0]: expected a lowercase hex bitmask"),
    "hex_upper": (lambda d: d["universes"].__setitem__(1, "3F"),
                  "universes[1]: expected a lowercase hex bitmask"),
    "hex_empty": (lambda d: d["universes"].__setitem__(1, ""),
                  "universes[1]: expected a lowercase hex bitmask"),
    "hex_not_a_string": (lambda d: d["type_sets"][0].__setitem__(0, 1),
                         "type_sets[0][0]: expected a lowercase hex bitmask"),
    "hex_too_long": (lambda d: d["type_sets"][0].__setitem__(0, "001"),
                     "type_sets[0][0]: bitmask longer than 2 hex digits"),
    "universes_string": (lambda d: d.__setitem__("universes", "fff"),
                         "tree: 'universes' must list one type list per applicant"),
    "universe_zero": (lambda d: d["universes"].__setitem__(2, "0"),
                      "universes[2]: empty or repeats an order"),
    "set_zero": (lambda d: d["type_sets"][1].__setitem__(0, "00"),
                 "type_sets[1][0]: child needs a type list"),
    "universe_beyond_n_factorial": (lambda d: d["universes"].__setitem__(0, "7f"),
                                    "universes[0]: ranking id outside 0..5"),
    "set_beyond_universe": (lambda d: d["type_sets"][0].__setitem__(0, "40"),
                            "type_sets[0][0]: type index outside 0..5"),
    "nodes_end_early": (lambda d: d["nodes"].pop(),
                        "nodes: the list ends while nodes["),
    "record_after_root": (lambda d: d["nodes"].append([0, 1, 2]),
                          "record after the root's subtree ends"),
    "leaf_short": (lambda d: d["nodes"].__setitem__(-1, [0, 1]), "matching is not a bijection"),
    "leaf_repeats": (lambda d: d["nodes"].__setitem__(-1, [0, 0, 1]), "matching is not a bijection"),
    "leaf_bool": (lambda d: d["nodes"].__setitem__(-1, [True, 0, 2]), "matching is not a bijection"),
    "leaf_float": (lambda d: d["nodes"].__setitem__(-1, [1.0, 0, 2]), "matching is not a bijection"),
    "player_bool": (lambda d: d["nodes"][0].__setitem__(0, False), "nodes[0]: unknown player False"),
    "player_name": (lambda d: d["nodes"][0].__setitem__(0, "a"), "nodes[0]: unknown player 'a'"),
    "player_out_of_range": (lambda d: d["nodes"][0].__setitem__(0, 3), "nodes[0]: unknown player 3"),
    "set_bool": (lambda d: d["nodes"][0][1].__setitem__(0, False),
                 "nodes[0]: set False is not in type_sets[0]"),
    "set_float": (lambda d: d["nodes"][0][1].__setitem__(0, 0.0),
                  "nodes[0]: set 0.0 is not in type_sets[0]"),
    "set_out_of_range": (lambda d: d["nodes"][0][1].__setitem__(0, 99),
                         "nodes[0]: set 99 is not in type_sets[0]"),
    "no_children": (lambda d: d["nodes"][0].__setitem__(1, []), "nodes[0]: internal node needs children"),
    "record_not_an_array": (lambda d: d["nodes"].__setitem__(1, {"matching": {}}),
                            "nodes[1]: expected an array"),
}


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
