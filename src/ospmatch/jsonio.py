"""JSON formats for priorities, profiles, matchings, subdomains, and trees.

Applicants are named by lowercase tokens (default ``a, b, c, ...``) and
positions by the numerals ``1..n``; everything internal is a 0-based
index, so name mapping happens only here.  Parsing validates permutation
structure and raises :class:`FormatError` with a pointered message.
Tree documents list each applicant's distinct edge type sets once and
name them by index, the layout a :class:`ospmatch.mechanism.MechanismTree`
holds in memory.  Format 3, the only one read or written, spells sets as
hex bitmasks and nodes as arrays of numbers (see the comment above
:func:`tree_to_doc`).  :func:`parse_tree` checks fields and arities
and passes the tree constructor's ``nodes[i]:`` refusals through.  A tree
holds its universes and sets as bitmasks over the type ids themselves,
so a set is read and written as it stands unless its universe is not
full, where its bit j stands for the universe's j-th id.
"""
from __future__ import annotations

import re
import string
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from .core import (
    Matching,
    PreferenceProfile,
    PrioritySet,
    Ranking,
    all_rankings,
    ids_mask,
    mask_ids,
)
from .mechanism import Internal, Leaf, MechanismTree, Node
from .witness import Improvement, Subdomain

_NAME_RE = re.compile(r"[a-z][a-z0-9]*\Z")
# the largest tree a file may hold: the 8-applicant star's (26.6 MB) reads back and
# passes check_osp in seconds, and one more applicant makes such a tree ~70x larger
MAX_TREE_N = 8


class FormatError(ValueError):
    pass


@dataclass(frozen=True)
class Names:
    applicants: tuple[str, ...]
    positions: tuple[str, ...]

    def applicant_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.applicants)}

    def position_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.positions)}


def default_names(n: int) -> Names:
    if n > 26:
        raise FormatError("default names cover at most 26 applicants")
    return Names(
        tuple(string.ascii_lowercase[:n]),
        tuple(str(i + 1) for i in range(n)),
    )


def _expect_mapping(doc: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(doc, Mapping):
        raise FormatError(f"{what}: expected a JSON object")
    return doc


def _expect_n(doc: Mapping[str, Any], what: str) -> int:
    n = doc.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise FormatError(f"{what}: field 'n' must be a positive integer")
    return n


def _ranking_from_names(
    row: Any, index: Mapping[str, int], where: str
) -> Ranking:
    if not isinstance(row, Sequence) or isinstance(row, str):
        raise FormatError(f"{where}: expected a list of names")
    seen = []
    for token in row:
        if not isinstance(token, str):
            raise FormatError(f"{where}: expected a name, got {token!r}")
        if token not in index:
            raise FormatError(f"{where}: unknown name {token!r}")
        seen.append(index[token])
    if sorted(seen) != list(range(len(index))):
        raise FormatError(f"{where}: not a permutation of all {len(index)} names")
    return tuple(seen)


def parse_priorities(doc: Any) -> tuple[PrioritySet, Names]:
    doc = _expect_mapping(doc, "priorities")
    n = _expect_n(doc, "priorities")
    rows = doc.get("priorities")
    if not isinstance(rows, Sequence) or len(rows) != n:
        raise FormatError("priorities: field 'priorities' must list one row per position")
    first = rows[0]
    if not isinstance(first, Sequence) or isinstance(first, str):
        raise FormatError("priorities[0]: expected a list of applicant names")
    for token in first:
        if not isinstance(token, str) or not _NAME_RE.match(token):
            raise FormatError(f"priorities: applicant name {token!r} is not a lowercase token")
    tokens = sorted(set(first))
    if len(tokens) != n:
        raise FormatError("priorities[0]: needs n distinct applicant names")
    names = Names(tuple(tokens), tuple(str(i + 1) for i in range(n)))
    index = names.applicant_index()
    rankings = tuple(
        _ranking_from_names(row, index, f"priorities[{i}]") for i, row in enumerate(rows)
    )
    return PrioritySet.from_rankings(rankings), names


def parse_profile(doc: Any, names: Names | None = None) -> tuple[PreferenceProfile, Names]:
    doc = _expect_mapping(doc, "preferences")
    n = _expect_n(doc, "preferences")
    rows = doc.get("preferences")
    if not isinstance(rows, Sequence) or len(rows) != n:
        raise FormatError("preferences: field 'preferences' must list one row per applicant")
    names = names or default_names(n)
    if len(names.positions) != n:
        raise FormatError("preferences: size differs from the named market")
    index = names.position_index()
    rankings = tuple(
        _ranking_from_names(row, index, f"preferences[{i}]") for i, row in enumerate(rows)
    )
    return PreferenceProfile.from_rankings(rankings), names


def matching_to_doc(mu: Matching, names: Names | None = None) -> dict[str, Any]:
    names = names or default_names(mu.n)
    return {
        "matching": {
            names.applicants[a]: names.positions[mu.position_of(a)]
            for a in range(mu.n)
        }
    }


def subdomain_to_doc(subdomain: Subdomain, names: Names | None = None) -> dict[str, Any]:
    names = names or default_names(subdomain.n)
    return {
        "n": subdomain.n,
        "types": {
            names.applicants[i]: [
                [names.positions[x] for x in ranking] for ranking in type_list
            ]
            for i, type_list in enumerate(subdomain.type_lists)
        },
    }


def parse_subdomain(doc: Any, names: Names | None = None) -> tuple[Subdomain, Names]:
    doc = _expect_mapping(doc, "subdomain")
    n = _expect_n(doc, "subdomain")
    names = names or default_names(n)
    types = doc.get("types")
    if not isinstance(types, Mapping) or set(types) != set(names.applicants):
        raise FormatError("subdomain: field 'types' must map every applicant name")
    index = names.position_index()
    for name in names.applicants:
        if not isinstance(types[name], Sequence) or isinstance(types[name], str):
            raise FormatError(f"types[{name}]: expected a list of orders")
    type_lists = tuple(
        tuple(
            _ranking_from_names(row, index, f"types[{name}][{j}]")
            for j, row in enumerate(types[name])
        )
        for name in names.applicants
    )
    try:
        return Subdomain(type_lists), names
    except ValueError as exc:
        raise FormatError(f"subdomain: {exc}") from exc


def improvement_to_doc(imp: Improvement, names: Names) -> dict[str, Any]:
    def prof(rankings: tuple[Ranking, ...]) -> list[list[str]]:
        return [[names.positions[x] for x in r] for r in rankings]

    return {
        "applicant": names.applicants[imp.applicant],
        "truth": [names.positions[x] for x in imp.truth],
        "lie": [names.positions[x] for x in imp.lie],
        "truth_profile": prof(imp.truth_profile),
        "lie_profile": prof(imp.lie_profile),
        "truth_position": names.positions[imp.truth_position],
        "lie_position": names.positions[imp.lie_position],
    }


# ---------------------------------------------------------------------------
# Mechanism trees.  Format 3, the one tree_to_doc writes and parse_tree
# reads, holds a tree's own tables.  "universes" has one lowercase hex
# bitmask per applicant, bit t set iff ranking id t is in the universe;
# "type_sets" lists each table as the tree holds it, a set being a hex
# bitmask over its applicant's universe in increasing id order; "nodes"
# lists the nodes in preorder, a leaf as its n position indices and an
# internal node as [player, [set index, ...]].  Child ids are not written:
# preorder and arities imply them.  A file keeps its tables as listed.
# ---------------------------------------------------------------------------

TREE_FORMAT = 3
_HEX_RE = re.compile(r"[0-9a-f]+\Z")


def _hex_mask(text: Any, bits: int, where: str, what: str, empty: str) -> int:
    """The hex bitmask ``text`` of at most ``bits`` bits.  The digits are
    checked before ``int`` reads them, which alone would take "0x1f",
    "1_f", " 1f" or "-1f"."""
    if type(text) is not str or not _HEX_RE.match(text):
        raise FormatError(f"{where}: expected a lowercase hex bitmask")
    digits = -(-bits // 4)
    if len(text) > digits:
        raise FormatError(f"{where}: bitmask longer than {digits} hex digits")
    mask = int(text, 16)
    if not mask:
        raise FormatError(f"{where}: {empty}")
    if mask >> bits:
        raise FormatError(f"{where}: {what} outside 0..{bits - 1}")
    return mask


def tree_to_doc(tree: MechanismTree, names: Names | None = None) -> dict[str, Any]:
    names = names or default_names(tree.n)
    full = (1 << len(all_rankings(tree.n))) - 1
    type_sets = []
    for universe, table in zip(tree.universes, tree.type_sets):
        if universe != full:  # renumber each set's ids by their place in the universe
            local = {t: j for j, t in enumerate(mask_ids(universe))}
            table = [ids_mask(map(local.__getitem__, mask_ids(m)), len(local)) for m in table]
        type_sets.append([format(m, "x") for m in table])
    return {
        "format": TREE_FORMAT,
        "n": tree.n,
        "applicants": list(names.applicants),
        "positions": list(names.positions),
        "universes": [format(universe, "x") for universe in tree.universes],
        "type_sets": type_sets,
        "nodes": [
            list(node.matching) if isinstance(node, Leaf)
            else [node.player, list(node.sets)]
            for node in tree.nodes
        ],
    }


def parse_tree(doc: Any) -> tuple[MechanismTree, Names]:
    doc = _expect_mapping(doc, "tree")
    n = _expect_n(doc, "tree")
    if n > MAX_TREE_N:
        raise FormatError(f"tree: n = {n} is above the supported {MAX_TREE_N}")
    applicants = doc.get("applicants")
    positions = doc.get("positions")
    if not all(
        isinstance(entries, Sequence) and not isinstance(entries, str) and len(entries) == n
        and all(isinstance(name, str) for name in entries) and len(set(entries)) == n
        for entries in (applicants, positions)
    ):
        raise FormatError("tree: 'applicants' and 'positions' must name n distinct entries each")
    names = Names(tuple(applicants), tuple(positions))
    if type(doc.get("format")) is not int or doc["format"] != TREE_FORMAT:
        raise FormatError(
            f"tree: 'format' must be {TREE_FORMAT} (format-2 and older tree files are no longer read)"
        )
    raw_universes = doc.get("universes")
    if (
        not isinstance(raw_universes, Sequence) or len(raw_universes) != n
        or isinstance(raw_universes, str)  # each digit would read as a mask
    ):
        raise FormatError("tree: 'universes' must list one type list per applicant")
    size = len(all_rankings(n))
    universes = [
        _hex_mask(text, size, f"universes[{i}]", "ranking id", "empty or repeats an order")
        for i, text in enumerate(raw_universes)
    ]
    raw_sets = doc.get("type_sets")
    if (
        not isinstance(raw_sets, Sequence)
        or len(raw_sets) != n
        or not all(isinstance(row, Sequence) and not isinstance(row, str) for row in raw_sets)
    ):
        raise FormatError("tree: 'type_sets' must list one list of type sets per applicant")
    records = doc.get("nodes")
    if not isinstance(records, Sequence) or not records:
        raise FormatError("tree: 'nodes' must be a nonempty list")
    tables = []
    for i, row in enumerate(raw_sets):
        bits = universes[i].bit_count()
        table = [_hex_mask(text, bits, f"type_sets[{i}][{k}]", "type index", "child needs a type list")
                 for k, text in enumerate(row)]
        if bits < size:  # bit j stands for the universe's j-th id
            ids = mask_ids(universes[i])
            table = [ids_mask(map(ids.__getitem__, mask_ids(m)), size) for m in table]
        tables.append(table)
    nodes = _array_nodes(records)
    try:
        # the constructor makes each table a tuple, and its messages point at nodes[i]
        return MechanismTree(n, tuple(universes), tables, nodes), names
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _array_nodes(records: Sequence[Any]) -> list[Node]:
    """The nodes of format-3 records, one per record: ``[player, [set
    index, ...]]`` is an internal node and any other array a leaf, its
    fields taken as written for the constructor to check, which also
    derives the child ids.  Equal records of exact ints share one node."""
    shared: dict[tuple[Any, ...], Node] = {}  # an internal node's key holds a tuple, a leaf's does not
    nodes: list[Node] = []
    for idx, record in enumerate(records):
        if type(record) is not list:
            raise FormatError(f"nodes[{idx}]: expected an array")
        internal = len(record) == 2 and type(record[1]) is list
        key = (record[0], tuple(record[1])) if internal else tuple(record)
        # true and 1.0 must not share the node of 1, so only records of exact ints share
        exact = set(map(type, [record[0], *record[1]] if internal else record)) == {int}
        node = exact and shared.get(key) or (Internal(*key) if internal else Leaf(key))
        nodes.append(shared.setdefault(key, node) if exact else node)
    return nodes
