"""Extensive-form mechanism trees, execution, and the exact checkers.

A tree asks one applicant at a time which set their preference order lies
in; leaves carry full matchings.  Type ids are lexicographic ranking ids
(see :func:`ospmatch.core.all_rankings`), and each applicant's type set
along a path only refines at nodes where that applicant acts, so the
partition axioms hold by construction for synthesized trees and are
re-checked from scratch by :func:`validate` for arbitrary ones.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Sequence

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


@dataclass(eq=False)
class MechanismTree:
    """Rooted tree plus the per-applicant type universes it is played over."""

    n: int
    universes: tuple[IdSet, ...]
    root: Node

    def nodes(self) -> Iterator[tuple[int, Node]]:
        """Preorder (id, node) pairs; ids are the serialization order."""
        stack = [self.root]
        idx = 0
        while stack:
            node = stack.pop()
            yield idx, node
            idx += 1
            if isinstance(node, Internal):
                for _, child in reversed(node.children):
                    stack.append(child)

    def node_count(self) -> int:
        return sum(1 for _ in self.nodes())

    def leaf_count(self) -> int:
        return sum(1 for _, node in self.nodes() if isinstance(node, Leaf))


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
    ids = {id(node): i for i, node in tree.nodes()}
    universe_sets = tuple(frozenset(u) for u in tree.universes)
    for i, u in enumerate(tree.universes):
        if not u or list(u) != sorted(set(u)):
            problems.append(f"universe of applicant {i} is empty or unsorted")

    def walk(node: Node, current: tuple[frozenset[int], ...]) -> None:
        nid = ids[id(node)]
        if isinstance(node, Leaf):
            if sorted(node.matching) != list(range(tree.n)):
                problems.append(f"node {nid}: leaf matching is not a bijection")
            return
        if not 0 <= node.player < tree.n:
            problems.append(f"node {nid}: player index out of range")
            return
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
            return
        for types, child in node.children:
            next_state = (
                current[: node.player]
                + (frozenset(types),)
                + current[node.player + 1 :]
            )
            walk(child, next_state)

    walk(tree.root, universe_sets)
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
    node_ids = {id(node): i for i, node in tree.nodes()}
    raw_violations: list[tuple[Node, int, int, int, int, int]] = []

    def visit(node: Node) -> tuple[list[np.ndarray], list[int]]:
        if isinstance(node, Leaf):
            worst = [
                np.full(len(tree.universes[i]), node.matching[i], dtype=np.int8)
                for i in range(n)
            ]
            masks = [1 << node.matching[i] for i in range(n)]
            return worst, masks
        pl = node.player
        child_results = [visit(child) for _, child in node.children]
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
                raw_violations.append(
                    (node, pl, tree.universes[pl][j], k,
                     int(truth_worst[b]), int(dev_rank[b])))
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
        return worst, masks

    visit(tree.root)
    violations = tuple(
        Violation(
            node_ids[id(node)],
            pl,
            t,
            _find_truthful_leaf(tree, node.children[k][1], pl, t, worst_pos, node_ids),
            _find_leaf_with_position(
                tree, node, pl, k, dev_rank_target, rankings[t], node_ids
            ),
        )
        for node, pl, t, k, worst_pos, dev_rank_target in raw_violations
    )
    return OspReport(not violations, violations)


def _find_truthful_leaf(
    tree: MechanismTree,
    start: Node,
    player: int,
    type_id: int,
    target_position: int,
    node_ids: dict[int, int],
) -> int:
    """A truthful-consistent leaf under ``start`` matching ``player`` to
    ``target_position`` (the recorded worst case)."""

    def dfs(node: Node) -> Node | None:
        if isinstance(node, Leaf):
            return node if node.matching[player] == target_position else None
        if node.player == player:
            return dfs(node.dispatch(type_id))
        for _, child in node.children:
            found = dfs(child)
            if found is not None:
                return found
        return None

    leaf = dfs(start)
    assert leaf is not None
    return node_ids[id(leaf)]


def _find_leaf_with_position(
    tree: MechanismTree,
    node: Internal,
    player: int,
    truthful_child: int,
    dev_rank: int,
    type_ranking: Ranking,
    node_ids: dict[int, int],
) -> int:
    """A leaf under a sibling of the truthful child where ``player`` gets
    the best deviating position."""
    target = type_ranking[dev_rank]

    def dfs(n: Node) -> Node | None:
        if isinstance(n, Leaf):
            return n if n.matching[player] == target else None
        for _, child in n.children:
            found = dfs(child)
            if found is not None:
                return found
        return None

    for k, (_, child) in enumerate(node.children):
        if k == truthful_child:
            continue
        found = dfs(child)
        if found is not None:
            return node_ids[id(found)]
    raise AssertionError("recorded deviation position not found under siblings")


def restrict_environment(
    tree: MechanismTree, sub_universes: Sequence[Sequence[int]]
) -> MechanismTree:
    """Prune the tree to a subdomain: intersect every type set with the
    sub-universe and drop children that become empty."""
    subs = tuple(tuple(sorted(set(u))) for u in sub_universes)
    for i, (sub, full) in enumerate(zip(subs, tree.universes)):
        if not sub:
            raise ValueError(f"empty sub-universe for applicant {i}")
        if not set(sub) <= set(full):
            raise ValueError(f"sub-universe of applicant {i} escapes the environment")

    def rebuild(node: Node, current: tuple[frozenset[int], ...]) -> Node:
        if isinstance(node, Leaf):
            return Leaf(node.matching)
        children = []
        for types, child in node.children:
            keep = frozenset(types) & current[node.player]
            if not keep:
                continue
            next_state = (
                current[: node.player] + (keep,) + current[node.player + 1 :]
            )
            children.append((tuple(sorted(keep)), rebuild(child, next_state)))
        return Internal(node.player, tuple(children))

    root = rebuild(tree.root, tuple(frozenset(u) for u in subs))
    return MechanismTree(tree.n, subs, root)


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
    best = 0

    def walk(node: Node, counts: tuple[int, ...]) -> None:
        nonlocal best
        if isinstance(node, Leaf):
            best = max(best, max(counts, default=0))
            return
        bumped = counts[: node.player] + (counts[node.player] + 1,) + counts[node.player + 1 :]
        for _, child in node.children:
            walk(child, bumped)

    walk(tree.root, (0,) * tree.n)
    return best


def max_active_applicants(tree: MechanismTree) -> int:
    """Most applicants simultaneously active at any node: those who already
    acted on the path but whose matched position still varies among the
    node's descendant leaves."""
    position_sets: dict[int, tuple[int, ...]] = {}

    def masks(node: Node) -> tuple[int, ...]:
        if isinstance(node, Leaf):
            out = tuple(1 << pos for pos in node.matching)
        else:
            acc = [0] * tree.n
            for _, child in node.children:
                for i, m in enumerate(masks(child)):
                    acc[i] |= m
            out = tuple(acc)
        position_sets[id(node)] = out
        return out

    masks(tree.root)
    best = 0

    def walk(node: Node, acted: frozenset[int]) -> None:
        nonlocal best
        undetermined = sum(
            1
            for i in acted
            if position_sets[id(node)][i] & (position_sets[id(node)][i] - 1)
        )
        best = max(best, undetermined)
        if isinstance(node, Internal):
            for _, child in node.children:
                walk(child, acted | {node.player})

    walk(tree.root, frozenset())
    return best
