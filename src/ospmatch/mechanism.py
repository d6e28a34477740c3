"""Extensive-form mechanism trees, execution, and the exact checkers.

A tree asks one applicant at a time which set their preference order lies
in; leaves carry full matchings.  Type ids are lexicographic ranking ids
(see :func:`ospmatch.core.all_rankings`), and a universe or type set is
an int bitmask over them, bit t set iff id t is in the set: membership is
a shift and restriction is ``&``.  Each applicant's type set along a path
only refines at nodes where that applicant acts, so the partition axioms
hold by construction for synthesized trees and are re-checked from
scratch by :func:`validate` for arbitrary ones, whose structure the
:class:`MechanismTree` constructor has checked.

A tree stores its nodes in preorder, as :func:`ospmatch.jsonio.tree_to_doc`
writes its records, and an internal node holds what a record holds, a
player and one set index per child: a node's id is its place in preorder,
its subtree follows it, and the constructor derives the child ids.
Tree walks are loops, so trees of any depth run under the default
recursion limit: top-down walks run forward with per-node state keyed by
id, bottom-up walks run backward and pop each child's result when the
parent merges it.  :func:`reveal_tree` lists its nodes in one loop too,
its leaves read in order from one product DA pass.

A tree holds each applicant's distinct edge sets once, in its
``type_sets`` table, and an edge names its set by index in the acting
applicant's table: the layout tree files hold (:mod:`ospmatch.jsonio`;
format 3 writes each set as a bitmask and each node as an array).  The
producers (:func:`ospmatch.synth.synthesize`,
:func:`ospmatch.jsonio.parse_tree`, :func:`reveal_tree` and
:func:`restrict_environment`) fill each table in order of first use in
preorder.  So :func:`validate` checks each distinct question (player,
inherited set index, child set indices) once, and
:func:`check_implements` unpacks each table's masks into index arrays
once per call.

The checkers work on tables, bitsets and batches rather than per type
or per profile.  :func:`check_osp` works on bitmasks of positions and of
type ids (Li's condition, "Obviously Strategy-Proof Mechanisms", AER
2017, compares only the worst truthful and the best deviating position).
:func:`check_implements` reads one stream of profiles, all of them in
product order or seeded samples, in slices: each slice is routed down
the preorder as a whole, the rows that reach a node split by their type
there, and is compared with the batched DA kernel
:func:`ospmatch.da.da_match_batch`.  The scalar walk
:func:`execute_ids` and the scalar :func:`ospmatch.da.da_match` stay the
oracles the tests hold it to.  numpy is imported only inside
:func:`check_implements` and its helpers, so building, validating,
executing and OSP-checking a tree run without it.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from operator import or_
from typing import TYPE_CHECKING, Iterable, Sequence

from .core import (
    Matching,
    Memo,
    PreferenceProfile,
    PrioritySet,
    Ranking,
    above,
    all_rankings,
    ids_mask,
    mask_ids,
    ranking_id,
)
from .da import da_match_batch, da_match_product

if TYPE_CHECKING:
    import numpy as np

# Most profiles handed to one batched DA call by check_implements.
SLICE = 65_536


@dataclass(frozen=True, slots=True)
class Leaf:
    matching: Ranking  # applicant index -> position index


@dataclass(frozen=True, slots=True)
class Internal:
    player: int
    sets: tuple[int, ...]  # per child in order, its set's index in type_sets[player]


Node = Leaf | Internal


@dataclass(eq=False)
class MechanismTree:
    """Rooted tree plus the per-applicant type universes it is played over.

    ``universes[i]`` is applicant i's universe and ``type_sets[i]`` lists
    applicant i's edge sets, which a node where i acts names by index, one
    per child; each is an int bitmask over the type ids.  ``nodes`` lists
    the nodes in preorder, so node 0 is the root and a node's id is its
    index.  The constructor derives ``children[i]``, node i's ``(set index,
    child id)`` pairs in order (``()`` for a leaf), and ``end[i]``: node i's
    subtree is ids ``i..end[i]-1``.

    The constructor is the one check of a tree's structure (:func:`validate`
    checks the partition axioms).  It raises ``ValueError`` on an n that is
    not a positive int, an argument that is not a sequence, a universe or
    table count other than n, a universe outside ``1..(1 << n!) - 1``, a set
    that is empty or escapes its universe, and, as ``nodes[i]: ...``, on a
    node that is no Leaf or Internal, a player outside ``0..n-1``, sets that
    are no tuple or empty, a set index outside the player's table, a leaf
    that is no bijection, a list that ends before a node's last child and
    records after the root's subtree.  Players, indices and leaf entries are
    exact ints."""

    n: int
    universes: tuple[int, ...]
    type_sets: tuple[tuple[int, ...], ...]
    nodes: tuple[Node, ...]
    children: list[tuple[tuple[int, int], ...]] = field(init=False, repr=False)
    end: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.n
        if type(n) is not int or n < 1:
            raise ValueError(f"n must be a positive int, got {n!r}")
        self.universes = _as_tuple(self.universes, "universes")
        self.type_sets = tuple(_as_tuple(table, f"type_sets[{i}]")
                               for i, table in enumerate(_as_tuple(self.type_sets, "type_sets")))
        _check_universes(n, self.universes)
        if len(self.type_sets) != n:
            raise ValueError(f"expected {n} type-set tables, got {len(self.type_sets)}")
        for i, (universe, table) in enumerate(zip(self.universes, self.type_sets)):
            for k, m in enumerate(table):
                if isinstance(m, bool) or not isinstance(m, int) or m <= 0 or m & ~universe:
                    raise ValueError(f"type set {k} of applicant {i} is empty or escapes its universe")
        nodes = self.nodes = _as_tuple(self.nodes, "nodes")
        count = len(nodes)
        if not count:
            raise ValueError("nodes: a tree needs a root")
        children = self.children = [()] * count
        end = self.end = [0] * count
        full = list(range(n))
        sizes = [len(table) for table in self.type_sets]
        checked: set[int] = set()  # ids of the matchings already checked
        # one backward pass: each subtree's end is known before its parent is
        # read, and a node's next child starts where the last one's subtree ends
        for nid in range(count - 1, -1, -1):
            node = nodes[nid]
            if isinstance(node, Leaf):
                m = node.matching
                # by identity, so that (True, 0) is checked after an equal (1, 0)
                if id(m) not in checked:
                    if type(m) is not tuple or len(m) != n or set(map(type, m)) != {int} or sorted(m) != full:
                        raise ValueError(f"nodes[{nid}]: matching is not a bijection")
                    checked.add(id(m))
                end[nid] = nid + 1
            elif isinstance(node, Internal):
                pl, sets = node.player, node.sets
                if type(pl) is not int or not 0 <= pl < n:
                    raise ValueError(f"nodes[{nid}]: unknown player {pl!r}")
                if type(sets) is not tuple:
                    raise ValueError(f"nodes[{nid}]: sets must be a tuple, got {type(sets).__name__}")
                if not sets:
                    raise ValueError(f"nodes[{nid}]: internal node needs children")
                slot, kids = nid + 1, []
                for k in sets:
                    if type(k) is not int or not 0 <= k < sizes[pl]:
                        raise ValueError(f"nodes[{nid}]: set {k!r} is not in type_sets[{pl}] ({sizes[pl]} sets)")
                    if slot == count:
                        raise ValueError(f"nodes: the list ends while nodes[{nid}] waits for a child")
                    kids.append((k, slot))
                    slot = end[slot]
                children[nid] = tuple(kids)
                end[nid] = slot
            else:
                raise ValueError(f"nodes[{nid}]: expected a Leaf or an Internal, got {type(node).__name__}")
        if end[0] != count:
            raise ValueError(f"nodes[{end[0]}]: record after the root's subtree ends")

    def node_count(self) -> int:
        return len(self.nodes)

    def leaf_count(self) -> int:
        return sum(isinstance(node, Leaf) for node in self.nodes)


def _as_tuple(items: Iterable, what: str) -> tuple:
    """``items`` as a tuple; ``ValueError`` if it is not iterable."""
    try:
        return tuple(items)
    except TypeError:
        raise ValueError(f"{what}: expected a sequence, got {type(items).__name__}") from None


def _universe_masks(universes: Iterable, count: int, what: str) -> tuple[int, ...]:
    """Each applicant's list of type ids in 0..count-1 as a bitmask;
    ``ValueError``, starting with ``what``, for what is no such list."""
    return tuple(ids_mask(_as_tuple(ids, f"{what} of applicant {i}"), count, f"{what} of applicant {i}")
                 for i, ids in enumerate(_as_tuple(universes, f"{what}s")))


def _check_universes(n: int, universes: Sequence[int]) -> None:
    """Refuse, with ``ValueError``, a universe count other than n or a universe out of range."""
    if len(universes) != n:
        raise ValueError(f"expected {n} universes, got {len(universes)}")
    size = math.factorial(n)
    for i, u in enumerate(universes):
        if isinstance(u, bool) or not isinstance(u, int) or not 0 < u < 1 << size:
            raise ValueError(f"universe of applicant {i} is not a nonzero bitmask of ids in 0..{size - 1}")


def full_universe(n: int) -> int:
    return (1 << math.factorial(n)) - 1


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def validate(tree: MechanismTree) -> ValidationReport:
    """Check that each internal node's child sets partition the mover's
    inherited set (the constructor has checked the tree's structure).

    Together with path inheritance this implies every full type profile
    reaches exactly one leaf.  Every node whose ancestors all passed is
    checked, and each of its problems is reported with its preorder id;
    the subtree below a node with a problem is skipped, because the type
    sets its children inherit are not defined.
    """
    problems: list[str] = []
    # per node whose parent was entered: each applicant's inherited set, as
    # an index into its table or -1 for its universe; each distinct question
    # (player, inherited set, child sets) is checked once
    states = {0: (-1,) * tree.n}
    verdicts: dict[tuple[int, int, tuple[int, ...]], tuple[str, ...]] = {}
    for nid, node in enumerate(tree.nodes):
        current = states.pop(nid, None)
        if current is None or isinstance(node, Leaf):
            continue
        pl = node.player
        key = (pl, current[pl], node.sets)
        found = verdicts.get(key)
        if found is None:
            found = verdicts[key] = _partition_problems(tree, pl, current[pl], node.sets)
        if found:
            problems.extend(f"node {nid}: {problem}" for problem in found)
            continue
        for k, child in tree.children[nid]:
            states[child] = current[:pl] + (k,) + current[pl + 1 :]
    return ValidationReport(not problems, tuple(problems))


def _partition_problems(tree: MechanismTree, player: int, inherited: int,
                        sets: tuple[int, ...]) -> tuple[str, ...]:
    """What keeps the children's type sets from partitioning the inherited
    set (an index into ``player``'s table, or -1 for the universe)."""
    table = tree.type_sets[player]
    parent = tree.universes[player] if inherited < 0 else table[inherited]
    problems = []
    seen = 0
    for k in sets:
        m = table[k]
        if m & seen:
            problems.append("overlapping child type sets")
        if m & ~parent:
            problems.append("child types escape the parent set")
        seen |= m
    if parent & ~seen:
        problems.append("child sets do not cover the parent set")
    return tuple(problems)


def execute_ids(tree: MechanismTree, type_ids: Sequence[int]) -> Ranking:
    """The leaf matching the profile reaches, taking at each node the first
    child whose type set holds the acting applicant's type; ``LookupError``
    if none does (only on a tree that fails :func:`validate`)."""
    nid = 0
    while isinstance(node := tree.nodes[nid], Internal):
        t = type_ids[node.player]
        table = tree.type_sets[node.player]
        for k, child in tree.children[nid]:
            if table[k] >> t & 1:
                nid = child
                break
        else:
            raise LookupError(t)
    return node.matching


def execute(tree: MechanismTree, p: PreferenceProfile) -> Matching:
    """Follow the unique path consistent with the profile to its leaf."""
    if p.n != tree.n:
        raise ValueError("profile size does not match the tree")
    type_ids = tuple(map(ranking_id, p.rankings))
    for i, t in enumerate(type_ids):
        if not tree.universes[i] >> t & 1:
            raise ValueError(f"applicant {i} holds a type outside the environment")
    try:
        return Matching(execute_ids(tree, type_ids))
    except LookupError as exc:  # only reachable on an invalid tree
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
    environment (exhaustive, the default) or on seeded random samples.

    Both modes read one stream of profiles in slices of at most ``SLICE``
    rows, route each slice down the tree with :func:`_route` and compare
    its leaves' matchings with :func:`ospmatch.da.da_match_batch`.  The
    exhaustive stream is ``itertools.product(*tree.universes)``; the
    sampled stream is :func:`_sample_places` over ``random.Random(seed)``
    for a seed >= 0 and over ``random.Random(str(seed))`` for a negative
    seed (``random.Random`` seeds from an int's absolute value, so -3 and
    3 would otherwise draw the same stream).
    A failed report counts the profiles up to and including the first
    mismatch in stream order and carries that profile.  The exhaustive
    mode refuses a tree that fails :func:`validate` with ``ValueError``;
    the sampled mode does not validate, but raises ``ValueError`` before
    comparing a slice in which some profile reaches a node where no child
    holds its type.
    """
    import numpy as np

    if q.n != tree.n:
        raise ValueError("priorities do not match the tree size")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples is None:
        valid = validate(tree)
        if not valid.ok:
            raise ValueError("tree fails validation: " + valid.problems[0])
    ranks = q.rank_table()
    universes = _index_arrays(tree.n, tree.universes)
    sizes = tuple(map(len, universes))
    total = math.prod(sizes) if samples is None else samples
    rng = random.Random(seed if seed >= 0 else str(seed))
    arrays = [_index_arrays(tree.n, table) for table in tree.type_sets]
    matchings = np.array(
        [node.matching if isinstance(node, Leaf) else (-1,) * tree.n for node in tree.nodes],
        dtype=np.intp,
    )
    for start in range(0, total, SLICE):
        stop = min(start + SLICE, total)
        if samples is None:
            places = np.unravel_index(np.arange(start, stop), sizes)
        else:
            places = _sample_places(rng, stop - start, sizes).T
        profiles = np.stack([u[col] for u, col in zip(universes, places)], axis=1)
        leaves = _route(tree, profiles, arrays)
        if (leaves < 0).any():  # only reachable on an invalid tree
            raise ValueError("no child covers a profile; tree fails validation")
        bad = np.flatnonzero((da_match_batch(ranks, profiles) != matchings[leaves]).any(axis=1))
        if bad.size:
            k = int(bad[0])
            return ImplementsReport(False, start + k + 1, tuple(profiles[k].tolist()))
    return ImplementsReport(True, total)


def _sample_places(rng: random.Random, m: int, sizes: Sequence[int]) -> np.ndarray:
    """The next ``m`` sampled profiles of the stream, as an (m, n) array of
    places in the universes.  Each profile takes 8·n bytes of
    ``rng.randbytes``, one little-endian 64-bit word per applicant in
    index order, and applicant i's place is its word modulo ``sizes[i]``.
    ``randbytes`` draws whole 32-bit words, so the stream does not depend
    on how it is cut into slices, and it does not depend on numpy.  The
    modulo favours small places by less than ``sizes[i] / 2**64`` (under
    3e-15 at n = 8)."""
    import numpy as np

    words = np.frombuffer(rng.randbytes(8 * m * len(sizes)), dtype="<u8").reshape(m, len(sizes))
    return (words % np.array(sizes, dtype=np.uint64)).astype(np.intp)


def _route(tree: MechanismTree, profiles: np.ndarray, arrays: list[list[np.ndarray]]) -> np.ndarray:
    """The leaf id each row of an (M, n) array of type ids reaches, or -1
    where the row meets a node at which no child holds its type (only on
    a tree that fails :func:`validate`).  The walk runs forward over the
    preorder carrying the rows that reach each node, splits them at each
    internal node by a type -> child slot array (the first child holding
    a type takes it, as in :func:`execute_ids`), and jumps over subtrees
    that no row reaches.  ``arrays[i]`` holds applicant i's index arrays."""
    import numpy as np

    nodes, end = tree.nodes, tree.end
    leaves = np.full(len(profiles), -1, dtype=np.intp)
    pending = {0: np.arange(len(profiles))}
    unheld = np.full(math.factorial(tree.n), -1, dtype=np.intp)
    nid = 0
    while nid < len(nodes):
        rows = pending.pop(nid, None)
        if rows is None:
            nid = end[nid]
            continue
        node = nodes[nid]
        if isinstance(node, Leaf):
            leaves[rows] = nid
        else:
            slot = unheld.copy()
            for k in range(len(node.sets) - 1, -1, -1):
                slot[arrays[node.player][node.sets[k]]] = k
            picked = slot[profiles[rows, node.player]]
            for k, (_, child) in enumerate(tree.children[nid]):
                taken = rows[picked == k]
                if taken.size:
                    pending[child] = taken
        nid += 1
    return leaves


def _index_arrays(n: int, masks: Sequence[int]) -> list[np.ndarray]:
    """Each of some type-id bitmasks as the ascending array of its ids,
    from one ``np.unpackbits`` over all of them."""
    import numpy as np

    width = -(-math.factorial(n) // 8)
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    ids = np.flatnonzero(np.unpackbits(packed, bitorder="little")) % (8 * width)
    ends = [*accumulate(m.bit_count() for m in masks)]
    return [ids[a:b] for a, b in zip([0, *ends], ends)]


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

    Both sides depend only on which positions can still be reached, so the
    walk carries position bitmasks.  Each node keeps one record:
    ``masks``, per applicant the positions of all leaves below (the
    deviating side's reach, and the truthful reach of every type of an
    applicant who does not act below), and ``acted``, for each applicant
    who acts below it and above it, a partition of all type ids by truthful
    reach, ``{reach mask: type bitset}`` (reach 0: the types that cannot
    reach the node).  The mover's partition is the union of its children's,
    each cut to the child's set; another applicant's is their meet.  The
    types of a class that fail at a child rank a deviating position above a
    truthful one, an OR of :func:`ospmatch.core.above` entries.

    ``check_osp`` does not run :func:`validate`: on a tree that fails it the
    report means nothing, or the leaf search raises ``ValueError``."""
    n = tree.n
    rankings, pairs = all_rankings(n), above(n)
    everyone = full_universe(n)
    nodes, end = tree.nodes, tree.end
    raw_violations: list[tuple[int, int, int, int, int, int]] = []
    # (truthful reach, deviating reach) -> the types that rank a deviating position higher
    beaten = Memo(lambda key: reduce(or_, (pairs[d][w] for d in mask_ids(key[1])
                                           for w in mask_ids(key[0])), 0))
    # per node, the applicants who act above it: an ancestor reads only their reach
    watched = [0] * len(nodes)
    for nid, node in enumerate(nodes):
        if isinstance(node, Internal):
            for _, child in tree.children[nid]:
                watched[child] = watched[nid] | 1 << node.player
    # per node (masks, acted), held until the parent merges them
    results: dict[int, tuple[list[int], dict[int, dict[int, int]]]] = {}
    for nid in range(len(nodes) - 1, -1, -1):
        node = nodes[nid]
        if isinstance(node, Leaf):
            results[nid] = ([1 << pos for pos in node.matching], {})
            continue
        pl = node.player
        kids = [(tree.type_sets[pl][k], child, *results.pop(child)) for k, child in tree.children[nid]]
        masks = [0] * n
        shared = 0  # the mover's positions under two or more children
        for *_, child_masks, _ in kids:
            shared |= masks[pl] & child_masks[pl]
            masks = [a | m for a, m in zip(masks, child_masks)]
        # OSP condition at this node, one child (truthful branch) at a time;
        # the deviation reaches everything under the other children: the
        # positions under two or more children and those this child lacks.
        # A type in two children's sets (only on an invalid tree) takes its
        # reach from the last of them.
        keep = watched[nid] >> pl & 1
        mover: dict[int, int] = {}
        unclaimed = everyone if keep else 0
        for types, child, child_masks, acted in reversed(kids):
            truth = acted.get(pl, {child_masks[pl]: everyone})
            fresh, unclaimed = types & unclaimed, unclaimed & ~types
            dev_mask = shared | (masks[pl] ^ child_masks[pl])
            for reach, group in truth.items():
                if mine := group & fresh:
                    mover[reach] = mover.get(reach, 0) | mine
                if (bad := beaten[reach, dev_mask]) and (bad := bad & group & types):
                    for t in mask_ids(bad):
                        ranking = rankings[t]
                        raw_violations.append((nid, pl, t, child,
                                               [p for p in ranking if reach >> p & 1][-1],
                                               next(p for p in ranking if dev_mask >> p & 1)))
        mover[0] = mover.get(0, 0) | unclaimed
        # another applicant's truthful reach, per type, is the union over the children
        merged = {pl: mover} if keep else {}
        for i in {i for *_, acted in kids for i in acted if watched[nid] >> i & 1} - {pl}:
            reach = {0: everyone}
            for *_, child_masks, acted in kids:
                meet: dict[int, int] = {}
                for r2, g2 in acted.get(i, {child_masks[i]: everyone}).items():
                    for r1, g1 in reach.items():
                        if group := g1 & g2:
                            meet[r1 | r2] = meet.get(r1 | r2, 0) | group
                reach = meet
            merged[i] = reach
        results[nid] = (masks, merged)

    violations = tuple(
        Violation(
            nid, pl, t,
            _first_leaf(tree, [(truthful, end[truthful])], pl, truth_pos, t),
            _first_leaf(tree, [(nid + 1, truthful), (end[truthful], end[nid])], pl, dev_pos),
        )
        for nid, pl, t, truthful, truth_pos, dev_pos in sorted(raw_violations)
    )
    return OspReport(not violations, violations)


def _first_leaf(tree: MechanismTree, spans: list[tuple[int, int]], player: int,
                position: int, type_id: int | None = None) -> int:
    """The first leaf in preorder, within the given id spans, that matches
    ``player`` to ``position``.  With a ``type_id``, only the child holding
    that type is entered below ``player``'s own nodes (the leaves
    consistent with ``player`` reporting truthfully)."""
    nodes, end = tree.nodes, tree.end
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
                table = tree.type_sets[player]
                child = next((c for k, c in tree.children[nid] if table[k] >> type_id & 1), None)
                if child is None:
                    raise ValueError(f"tree fails validation: no child of node {nid} holds type {type_id}")
                nid, stop = child, end[child]
                continue
            nid += 1
    raise ValueError("tree fails validation: no leaf matches a recorded position")


def restrict_environment(
    tree: MechanismTree, sub_universes: Sequence[Sequence[int]]
) -> MechanismTree:
    """Prune the tree to a subdomain, one list of type ids per applicant:
    intersect every type set with the sub-universe and drop children that
    become empty.  The nodes reached, in preorder, are the new tree."""
    subs = _universe_masks(sub_universes, math.factorial(tree.n), "sub-universe")
    if len(subs) != tree.n:
        raise ValueError(f"expected {tree.n} sub-universes, got {len(subs)}")
    for i, (sub, full) in enumerate(zip(subs, tree.universes)):
        if not sub or sub & ~full:
            raise ValueError(f"sub-universe of applicant {i} is empty or escapes the environment")
    states = {0: subs}
    # per applicant: kept set -> its index in the new table, in order of first use
    index: list[dict[int, int]] = [{} for _ in subs]
    reached: list[Node] = []
    for nid, node in enumerate(tree.nodes):
        current = states.pop(nid, None)
        if current is None:
            continue
        if isinstance(node, Internal):
            pl, table, kept = node.player, tree.type_sets[node.player], []
            for k, child in tree.children[nid]:
                keep = table[k] & current[pl]
                if keep:
                    states[child] = current[:pl] + (keep,) + current[pl + 1 :]
                    kept.append(index[pl].setdefault(keep, len(index[pl])))
            node = Internal(pl, tuple(kept))
        reached.append(node)
    return MechanismTree(tree.n, subs, tuple(map(tuple, index)), reached)


def reveal_tree(q: PrioritySet, universes: Sequence[Sequence[int]] | None = None) -> MechanismTree:
    """The naive mechanism: applicants 0..n-1 reveal their full order in
    turn (from every type, or from one list of type ids per applicant) and
    the leaf plays deferred acceptance on the revealed profile.

    Implements DA by construction but is generally not OSP; used as a
    checker fixture.  An applicant with one type never acts.  The leaves in
    preorder are the universes' profiles in product order, so one
    :func:`ospmatch.da.da_match_product` pass matches them all.
    """
    n, count = q.n, math.factorial(q.n)
    unis = _universe_masks([range(count)] * n if universes is None else universes, count, "universe")
    _check_universes(n, unis)
    rankings = all_rankings(n)
    ids = [mask_ids(u) for u in unis]
    matchings = iter(da_match_product(q.rank_table(), [[rankings[t] for t in u] for u in ids]))
    # depth d asks the d-th applicant with two or more types, one child per type
    asks = [Internal(i, tuple(range(len(u)))) for i, u in enumerate(ids) if len(u) > 1]
    # type j of applicant i's universe is set j of its table (none if it never acts)
    type_sets = tuple(tuple(1 << t for t in u) if len(u) > 1 else () for u in ids)
    nodes: list[Node] = []
    leaves: dict[Ranking, Leaf] = {}  # one Leaf per distinct matching
    depths = [0]  # the depths of the nodes still to list, the next one last
    while depths:
        d = depths.pop()
        if d == len(asks):
            matching = next(matchings)
            nodes.append(leaves.get(matching) or leaves.setdefault(matching, Leaf(matching)))
            continue
        nodes.append(asks[d])
        depths += [d + 1] * len(asks[d].sets)
    return MechanismTree(n, unis, type_sets, nodes)


def player_move_bound(tree: MechanismTree) -> int:
    """Largest number of times any applicant acts on one root-to-leaf path."""
    best = 0
    counts = {0: (0,) * tree.n}
    for nid, node in enumerate(tree.nodes):
        here = counts.pop(nid)
        if isinstance(node, Leaf):
            best = max(best, max(here, default=0))
            continue
        bumped = here[: node.player] + (here[node.player] + 1,) + here[node.player + 1 :]
        for _, child in tree.children[nid]:
            counts[child] = bumped
    return best


def max_active_applicants(tree: MechanismTree) -> int:
    """Most applicants simultaneously active at any node: those who already
    acted on the path but whose matched position still varies among the
    node's descendant leaves."""
    nodes = tree.nodes
    # per node, each applicant's reachable positions below it as a bitmask
    position_sets: list[tuple[int, ...]] = [()] * len(nodes)
    for nid in range(len(nodes) - 1, -1, -1):
        node = nodes[nid]
        if isinstance(node, Leaf):
            position_sets[nid] = tuple(1 << pos for pos in node.matching)
            continue
        acc = [0] * tree.n
        for _, child in tree.children[nid]:
            for i, m in enumerate(position_sets[child]):
                acc[i] |= m
        position_sets[nid] = tuple(acc)
    best = 0
    acted: dict[int, frozenset[int]] = {0: frozenset()}
    for nid, node in enumerate(nodes):
        players = acted.pop(nid)
        here = position_sets[nid]
        best = max(best, sum(1 for i in players if here[i] & (here[i] - 1)))
        if isinstance(node, Internal):
            for _, child in tree.children[nid]:
                acted[child] = players | {node.player}
    return best
