"""Extensive-form mechanism trees, execution, and the exact checkers.

A tree asks one applicant at a time which set their preference order lies
in; leaves carry full matchings.  Type ids are lexicographic ranking ids
(see :func:`ospmatch.core.all_rankings`), and each applicant's type set
along a path only refines at nodes where that applicant acts, so the
partition axioms hold by construction for synthesized trees and are
re-checked from scratch by :func:`validate` for arbitrary ones.

Tree walks are loops over the cached :class:`Preorder` index, built with
an explicit stack, so trees of any depth run under the default recursion
limit.  A node's id is its place in preorder (the record order
:func:`ospmatch.jsonio.tree_to_doc` writes) and its subtree follows it:
top-down walks run forward with per-node state keyed by id, bottom-up
walks run backward and pop each child's result when the parent merges it.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Sequence

import numpy as np

from .core import Matching, PreferenceProfile, PrioritySet, Ranking, all_rankings, ranking_id
from .da import da_match

IdSet = tuple[int, ...]  # sorted type ids


@dataclass(eq=False)
class Leaf:
    matching: Ranking  # applicant index -> position index


@dataclass(eq=False)
class Internal:
    player: int
    children: tuple[tuple[IdSet, "Node"], ...]
    _dispatch: dict[int, "Node"] | None = field(default=None, repr=False)

    def dispatch(self, type_id: int) -> "Node":
        if self._dispatch is None:
            table: dict[int, Node] = {}
            for types, child in self.children:
                for t in types:
                    table[t] = child
            self._dispatch = table
        return self._dispatch[type_id]


Node = Leaf | Internal


@dataclass(frozen=True)
class Preorder:
    """Nodes in preorder (a node's id is its index), each node's child ids
    in child order, and subtree ends: node i's subtree is ids i..end[i]-1."""

    nodes: list[Node]
    children: list[list[int]]
    end: list[int]


@dataclass(eq=False)
class MechanismTree:
    """Rooted tree plus the per-applicant type universes it is played over."""

    n: int
    universes: tuple[IdSet, ...]
    root: Node

    @cached_property
    def preorder(self) -> Preorder:
        nodes: list[Node] = []
        children: list[list[int]] = []
        stack: list[tuple[Node, int]] = [(self.root, -1)]
        while stack:
            node, parent = stack.pop()
            if parent >= 0:
                children[parent].append(len(nodes))
            nodes.append(node)
            children.append([])
            if isinstance(node, Internal):
                nid = len(nodes) - 1
                stack.extend((child, nid) for _, child in reversed(node.children))
        end = list(range(1, len(nodes) + 1))
        for i in range(len(nodes) - 1, -1, -1):
            if children[i]:
                end[i] = end[children[i][-1]]
        return Preorder(nodes, children, end)

    def node_count(self) -> int:
        return len(self.preorder.nodes)

    def leaf_count(self) -> int:
        return sum(isinstance(node, Leaf) for node in self.preorder.nodes)


def full_universe(n: int) -> IdSet:
    return tuple(range(math.factorial(n)))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def validate(tree: MechanismTree) -> ValidationReport:
    """Check the partition axiom at every node and the leaf matchings.

    Together with path inheritance this implies every full type profile
    reaches exactly one leaf.  The first problem found per node is
    reported with the node's preorder id.
    """
    problems: list[str] = []
    for i, u in enumerate(tree.universes):
        if not u or list(u) != sorted(set(u)):
            problems.append(f"universe of applicant {i} is empty or unsorted")
    index = tree.preorder
    # type sets inherited from the path, for nodes whose parent was entered
    states = {0: tuple(frozenset(u) for u in tree.universes)}
    for nid, node in enumerate(index.nodes):
        current = states.pop(nid, None)
        if current is None:
            continue
        if isinstance(node, Leaf):
            if sorted(node.matching) != list(range(tree.n)):
                problems.append(f"node {nid}: leaf matching is not a bijection")
            continue
        if not 0 <= node.player < tree.n:
            problems.append(f"node {nid}: player index out of range")
            continue
        inherited = current[node.player]
        seen: set[int] = set()
        for types, _ in node.children:
            tset = set(types)
            if not tset:
                problems.append(f"node {nid}: empty child type set")
            if tset & seen:
                problems.append(f"node {nid}: overlapping child type sets")
            if not tset <= inherited:
                problems.append(f"node {nid}: child types escape the parent set")
            seen |= tset
        if seen != inherited:
            problems.append(f"node {nid}: child sets do not cover the parent set")
        if problems:
            continue
        for (types, _), child in zip(node.children, index.children[nid]):
            states[child] = current[: node.player] + (frozenset(types),) + current[node.player + 1 :]
    return ValidationReport(not problems, tuple(problems))


def execute_ids(tree: MechanismTree, type_ids: Sequence[int]) -> Ranking:
    node = tree.root
    while isinstance(node, Internal):
        node = node.dispatch(type_ids[node.player])
    return node.matching


def execute(tree: MechanismTree, p: PreferenceProfile) -> Matching:
    """Follow the unique path consistent with the profile to its leaf."""
    if p.n != tree.n:
        raise ValueError("profile size does not match the tree")
    type_ids = tuple(ranking_id(pref.ranking) for pref in p.prefs)
    for i, t in enumerate(type_ids):
        if t not in tree.universes[i]:
            raise ValueError(f"applicant {i} holds a type outside the environment")
    try:
        return Matching(execute_ids(tree, type_ids))
    except KeyError as exc:  # only reachable on an invalid tree
        raise ValueError("no child covers the profile; tree fails validation") from exc


@dataclass(frozen=True)
class ImplementsReport:
    ok: bool
    checked: int
    counterexample: tuple[int, ...] | None = None  # profile as type ids

    def __bool__(self) -> bool:
        return self.ok


def check_implements(
    tree: MechanismTree,
    q: PrioritySet,
    samples: int | None = None,
    seed: int = 0,
) -> ImplementsReport:
    """Compare the tree against deferred acceptance on every profile of the
    environment (exhaustive, the default) or on seeded random samples."""
    if q.n != tree.n:
        raise ValueError("priorities do not match the tree size")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rankings = all_rankings(tree.n)
    ranks = q.rank_table()

    def agrees(type_ids: tuple[int, ...]) -> bool:
        prefs = tuple(rankings[t] for t in type_ids)
        return execute_ids(tree, type_ids) == da_match(ranks, prefs)

    checked = 0
    if samples is None:
        for type_ids in product(*tree.universes):
            checked += 1
            if not agrees(type_ids):
                return ImplementsReport(False, checked, type_ids)
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            type_ids = tuple(rng.choice(u) for u in tree.universes)
            checked += 1
            if not agrees(type_ids):
                return ImplementsReport(False, checked, type_ids)
    return ImplementsReport(True, checked)


@dataclass(frozen=True)
class Violation:
    node: int
    player: int
    type_id: int
    truthful_leaf: int
    deviating_leaf: int


@dataclass(frozen=True)
class OspReport:
    ok: bool
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_osp(tree: MechanismTree) -> OspReport:
    """Exact worst-case-truth vs best-case-deviation check at every node.

    For each node where applicant i acts and each type in a child's set,
    the worst position over truthful-consistent leaves under that child
    must be weakly preferred to the best position over all leaves under
    the sibling children (no type restriction on the deviating side).
    Violations come by node id, then type id, each with the first leaf in
    preorder that attains the truthful worst case and the best deviation.
    """
    n = tree.n
    rankings = all_rankings(n)
    local = [{t: j for j, t in enumerate(u)} for u in tree.universes]
    rank = []
    for u in tree.universes:
        table = np.empty((len(u), n), dtype=np.int8)
        for j, t in enumerate(u):
            for spot, pos in enumerate(rankings[t]):
                table[j, pos] = spot
        rank.append(table)
    index = tree.preorder
    raw_violations: list[tuple[int, int, int, int, int, int]] = []
    # per-node (worst truthful position per type, reachable position masks),
    # held until the parent merges them
    results: dict[int, tuple[list[np.ndarray], list[int]]] = {}
    for nid in range(len(index.nodes) - 1, -1, -1):
        node = index.nodes[nid]
        if isinstance(node, Leaf):
            worst = [
                np.full(len(u), pos, dtype=np.int8)
                for u, pos in zip(tree.universes, node.matching)
            ]
            results[nid] = (worst, [1 << pos for pos in node.matching])
            continue
        pl = node.player
        child_results = [results.pop(child) for child in index.children[nid]]
        child_idx = [
            np.fromiter((local[pl][t] for t in types), dtype=np.intp, count=len(types))
            for types, _ in node.children
        ]
        # OSP condition at this node, one child (truthful branch) at a time
        for k, (types, _) in enumerate(node.children):
            dev_mask = 0
            for j in range(len(node.children)):
                if j != k:
                    dev_mask |= child_results[j][1][pl]
            if not dev_mask:
                continue
            dev_positions = [x for x in range(n) if dev_mask >> x & 1]
            idx = child_idx[k]
            truth_worst = child_results[k][0][pl][idx]
            truth_rank = rank[pl][idx, truth_worst]
            dev_rank = rank[pl][np.ix_(idx, dev_positions)].min(axis=1)
            bad = np.nonzero(truth_rank > dev_rank)[0]
            for b in bad:
                j = int(idx[b])
                t = tree.universes[pl][j]
                raw_violations.append((nid, pl, t, index.children[nid][k],
                                       int(truth_worst[b]), rankings[t][dev_rank[b]]))
        # merge children upward
        worst: list[np.ndarray] = []
        masks: list[int] = []
        for i in range(n):
            mask = 0
            for _, m in child_results:
                mask |= m[i]
            masks.append(mask)
            if i == pl:
                merged = np.full(len(tree.universes[i]), -1, dtype=np.int8)
                for k in range(len(node.children)):
                    idx = child_idx[k]
                    merged[idx] = child_results[k][0][i][idx]
            else:
                merged = child_results[0][0][i]
                ar = np.arange(len(tree.universes[i]))
                for wk, _ in child_results[1:]:
                    other = wk[i]
                    keep = rank[i][ar, merged] >= rank[i][ar, other]
                    merged = np.where(keep, merged, other)
            worst.append(merged)
        results[nid] = (worst, masks)

    end = index.end
    violations = tuple(
        Violation(
            nid, pl, t,
            _first_leaf(index, [(truthful, end[truthful])], pl, truth_pos, t),
            _first_leaf(index, [(nid + 1, truthful), (end[truthful], end[nid])], pl, dev_pos),
        )
        for nid, pl, t, truthful, truth_pos, dev_pos in sorted(raw_violations)
    )
    return OspReport(not violations, violations)


def _first_leaf(index: Preorder, spans: list[tuple[int, int]], player: int,
                position: int, type_id: int | None = None) -> int:
    """The first leaf in preorder, within the given id spans, that matches
    ``player`` to ``position``.  With a ``type_id``, only the child holding
    that type is entered below ``player``'s own nodes (the leaves
    consistent with ``player`` reporting truthfully)."""
    nodes, children, end = index.nodes, index.children, index.end
    spans = spans[::-1]
    while spans:
        nid, stop = spans.pop()
        while nid < stop:
            node = nodes[nid]
            if isinstance(node, Leaf):
                if node.matching[player] == position:
                    return nid
            elif type_id is not None and node.player == player:
                spans.append((end[nid], stop))
                nid, stop = next(
                    (child, end[child])
                    for (types, _), child in zip(node.children, children[nid])
                    if type_id in types
                )
                continue
            nid += 1
    raise AssertionError("recorded position not found under the searched spans")


def restrict_environment(
    tree: MechanismTree, sub_universes: Sequence[Sequence[int]]
) -> MechanismTree:
    """Prune the tree to a subdomain: intersect every type set with the
    sub-universe and drop children that become empty."""
    subs = tuple(tuple(sorted(set(u))) for u in sub_universes)
    if len(subs) != tree.n:
        raise ValueError(f"expected {tree.n} sub-universes, got {len(subs)}")
    for i, (sub, full) in enumerate(zip(subs, tree.universes)):
        if not sub:
            raise ValueError(f"empty sub-universe for applicant {i}")
        if not set(sub) <= set(full):
            raise ValueError(f"sub-universe of applicant {i} escapes the environment")
    index = tree.preorder
    states = {0: tuple(frozenset(u) for u in subs)}
    built: dict[int, Node] = {}
    # surviving internal nodes in preorder, with their kept (types, child id)
    internals: list[tuple[int, list[tuple[IdSet, int]]]] = []
    for nid, node in enumerate(index.nodes):
        current = states.pop(nid, None)
        if current is None:
            continue
        if isinstance(node, Leaf):
            built[nid] = Leaf(node.matching)
            continue
        kept = []
        for (types, _), child in zip(node.children, index.children[nid]):
            keep = frozenset(types) & current[node.player]
            if keep:
                states[child] = current[: node.player] + (keep,) + current[node.player + 1 :]
                kept.append((tuple(sorted(keep)), child))
        internals.append((nid, kept))
    for nid, kept in reversed(internals):
        children = tuple((types, built.pop(child)) for types, child in kept)
        built[nid] = Internal(index.nodes[nid].player, children)
    return MechanismTree(tree.n, subs, built[0])


def reveal_tree(q: PrioritySet, universes: Sequence[Sequence[int]] | None = None) -> MechanismTree:
    """The naive mechanism: applicants 0..n-1 reveal their full order in
    turn and the leaf plays deferred acceptance on the revealed profile.

    Implements DA by construction but is generally not OSP; used as a
    checker fixture.
    """
    n = q.n
    rankings = all_rankings(n)
    ranks = q.rank_table()
    unis = (
        tuple(tuple(sorted(set(u))) for u in universes)
        if universes is not None
        else tuple(full_universe(n) for _ in range(n))
    )

    def build(i: int, chosen: tuple[int, ...]) -> Node:
        if i == n:
            prefs = tuple(rankings[t] for t in chosen)
            return Leaf(da_match(ranks, prefs))
        if len(unis[i]) == 1:
            return build(i + 1, chosen + (unis[i][0],))
        children = tuple(
            ((t,), build(i + 1, chosen + (t,))) for t in unis[i]
        )
        return Internal(i, children)

    return MechanismTree(n, unis, build(0, ()))


def player_move_bound(tree: MechanismTree) -> int:
    """Largest number of times any applicant acts on one root-to-leaf path."""
    index = tree.preorder
    best = 0
    counts = {0: (0,) * tree.n}
    for nid, node in enumerate(index.nodes):
        here = counts.pop(nid)
        if isinstance(node, Leaf):
            best = max(best, max(here, default=0))
            continue
        bumped = here[: node.player] + (here[node.player] + 1,) + here[node.player + 1 :]
        for child in index.children[nid]:
            counts[child] = bumped
    return best


def max_active_applicants(tree: MechanismTree) -> int:
    """Most applicants simultaneously active at any node: those who already
    acted on the path but whose matched position still varies among the
    node's descendant leaves."""
    index = tree.preorder
    # per node, each applicant's reachable positions below it as a bitmask
    position_sets: list[tuple[int, ...]] = [()] * len(index.nodes)
    for nid in range(len(index.nodes) - 1, -1, -1):
        node = index.nodes[nid]
        if isinstance(node, Leaf):
            position_sets[nid] = tuple(1 << pos for pos in node.matching)
            continue
        acc = [0] * tree.n
        for child in index.children[nid]:
            for i, m in enumerate(position_sets[child]):
                acc[i] |= m
        position_sets[nid] = tuple(acc)
    best = 0
    acted: dict[int, frozenset[int]] = {0: frozenset()}
    for nid, node in enumerate(index.nodes):
        players = acted.pop(nid)
        here = position_sets[nid]
        best = max(best, sum(1 for i in players if here[i] & (here[i] - 1)))
        if isinstance(node, Internal):
            for child in index.children[nid]:
                acted[child] = players | {node.player}
    return best
