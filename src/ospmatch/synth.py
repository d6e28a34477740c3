"""Build an OSP mechanism tree for any limited-cyclic priority set.

The construction follows the inductive recipe: resolve the top dominance
block with the gadget its size calls for (a lone pick, the two-applicant
trade, or the three-active lurker gadget), then recurse on the remaining
applicants and positions.  Residual block structure is recomputed at each
step, which automatically realizes the role swap of the lurker gadget's
all-x branch (removing the lead applicant turns the u-list into the new
v-list and vice versa) and the fall-through to smaller gadgets.

Every internal node is one question, made by ``ask(player, types,
offered, then)``, where ``types`` is the player's type set, a bitmask of
type ids: the player's types are grouped by their favorite w among
``offered``, one edge per group in ascending order of w, each with the
subtree ``then(w, group)``; the favorites in ``last`` share one final
edge, with ``then(None, group)``.  A group is ``types`` ``&`` the mask
:func:`ospmatch.core.favorites` gives for w.  ``ask`` appends its node,
and enters its new sets in the player's table, before the subtrees
``then`` appends, so the nodes come in preorder and each table lists its
sets in order of first use.  Within one call of :func:`synthesize`,
``ask`` groups each distinct question (player, ``types``, ``offered``
and ``last``) once and makes one node for it, which every ask of it
shares.  ``fix`` pins (applicant, position) pairs and recurses
on the rest, the residual market.  A residual's subtree depends only on
its applicants and positions, apart from the leaf entries of those pinned
above it, since every gadget starts its asks from the full universe.  So
within one call each residual is built once; a residual met again replays
the preorder slice of nodes its first build appended, each Internal as
the same object and each Leaf remapped to the new pins.
:func:`synthesize` unbinds its self-calling ``build`` on return, so
reference counting frees the working tables.  The trade asks
its lead applicant once: one edge per favorite in its half U, where it
clinches, and the pass edge (favorites outside U) last.  The lurker
gadget on applicants a1, a2, a3 and positions u, v is one ask per step:

  root       a1, all positions, v last: keeps any favorite but v
  a2_node    a2, all positions, u last: a favorite outside {u, v} sends a1 to v
  node_i     a1, all but v (a2 took v)
  a3_node    a3, all but v, u last: a favorite but u sends a1 to v, a2 to u
  a2_second  a2, all but u: a favorite but v sends a1 to v, a3 to u
  node_ii    a1, all but v (a2 took v): a favorite but u leaves u to a3
  node_iii   a3, all but u and v (a1 took u back)
"""
from __future__ import annotations

from collections.abc import Callable, Set

from .classify import Classification, classify, dominance_blocks, taa_labeling_table
from .core import PrioritySet, favorites, restrict_table
from .mechanism import Internal, Leaf, MechanismTree, full_universe


class NotLimitedCyclicError(ValueError):
    """Raised when synthesis is asked for priorities that admit no OSP
    implementation; carries the classification with its witness."""

    def __init__(self, classification: Classification):
        self.classification = classification
        witness = classification.witness
        detail = ""
        if witness is not None:
            restriction, letter = witness
            detail = (
                f" (forbidden pattern ({letter}) on applicants"
                f" {restriction.applicants} x positions {restriction.positions})"
            )
        super().__init__("priorities are not limited cyclic" + detail)


def synthesize(q: PrioritySet) -> MechanismTree:
    classification = classify(q)
    if not classification.limited_cyclic:
        raise NotLimitedCyclicError(classification)

    n = q.n
    lists = q.rankings
    universe = full_universe(n)
    nodes: list = []  # in preorder
    # per applicant: its distinct edge sets -> their index, in order of first use
    tables: list[dict[int, int]] = [{} for _ in range(n)]
    # (player, types, offered mask, last mask) -> (its node, ((w, group), ...))
    questions: dict[tuple[int, int, int, int], tuple[Internal, list[tuple[int | None, int]]]] = {}
    leaves: dict[tuple[int, ...], Leaf] = {}  # one Leaf per distinct matching
    # residual (rem_apps, rem_pos) -> the slice of nodes its first build
    # appended, and the pins that build's leaves hold
    built: dict[tuple[frozenset[int], frozenset[int]], tuple[slice, dict[int, int]]] = {}

    def ask(player: int, types: int, offered: frozenset[int],
            then: Callable[[int | None, int], None], last: Set[int] = frozenset()) -> None:
        """The question node: ``player`` names its favorite among ``offered``."""
        mask = sum(1 << pos for pos in offered)
        key = (player, types, mask, sum(1 << pos for pos in last))
        found = questions.get(key)
        if found is None:
            favorite = favorites(n, mask)
            groups = [(w, types & favorite[w]) for w in range(n) if w not in last]
            groups.append((None, types & sum(favorite[w] for w in last)))
            groups = [(w, g) for w, g in groups if g]
            table = tables[player]
            sets = tuple(table.setdefault(g, len(table)) for _, g in groups)
            found = questions[key] = (Internal(player, sets), groups)
        nodes.append(found[0])
        for w, group in found[1]:
            then(w, group)

    def build(rem_apps: frozenset[int], rem_pos: frozenset[int], assigned: dict[int, int]) -> None:
        if not rem_apps:
            matching = tuple(assigned[i] for i in range(n))
            nodes.append(leaves.get(matching) or leaves.setdefault(matching, Leaf(matching)))
            return

        def fix(*moves: tuple[int, int]) -> None:
            """Pin each (applicant, position) and recurse on the rest; a rest
            built before is replayed, each leaf given the pins that differ."""
            pinned = dict(moves)
            rest = rem_apps.difference(pinned), rem_pos.difference(pinned.values())
            pins = {**assigned, **pinned}
            first = built.get(rest)
            if first is None:
                start = len(nodes)
                build(*rest, pins)
                built[rest] = slice(start, len(nodes)), pins
                return
            span, first_pins = first
            changed = [(i, w) for i, w in pins.items() if first_pins[i] != w]
            for node in nodes[span]:
                if isinstance(node, Leaf):
                    entries = list(node.matching)
                    for i, w in changed:
                        entries[i] = w
                    matching = tuple(entries)
                    node = leaves.get(matching) or leaves.setdefault(matching, Leaf(matching))
                nodes.append(node)

        apps = tuple(sorted(rem_apps))
        block = tuple(apps[i] for i in dominance_blocks(restrict_table(lists, apps, rem_pos))[0])
        if len(block) == 1:
            s, = block
            return ask(s, universe, rem_pos, lambda w, _: fix((s, w)))
        if len(block) == 2:
            # a has top priority on U, b on V; both nonempty in a finest block
            a, b = sorted(block, key=lists[min(rem_pos)].index)
            u_set = {p for p in rem_pos if lists[p].index(a) < lists[p].index(b)}
            assert u_set and u_set != rem_pos, "size-2 block without a disagreement"

            def a_first(u: int | None, passers: int) -> None:
                if u is not None:  # a clinched u
                    return ask(b, universe, rem_pos - {u}, lambda w, _: fix((a, u), (b, w)))
                ask(b, universe, rem_pos, lambda w, _: ask(  # a passed, b took w
                    a, passers, rem_pos - {w}, lambda w2, _: fix((b, w), (a, w2))))

            return ask(a, universe, rem_pos, a_first, last=rem_pos - u_set)

        poss = sorted(rem_pos)
        labeling = taa_labeling_table(restrict_table(lists, block, poss))
        assert labeling is not None, "limited-cyclic input lost TAA structure"
        a1, a2, a3 = (block[i] for i in labeling.applicant_order[:3])
        u, v = poss[labeling.u_position], poss[labeling.v_position]
        no_u, no_v = rem_pos - {u}, rem_pos - {v}

        def a2_node(a1_types: int) -> None:
            ask(a2, universe, rem_pos, lambda w, a2_types: (
                a3_node(a1_types, a2_types) if w is None else node_i(a1_types) if w == v
                else fix((a1, v), (a2, w))), last={u})

        def node_i(a1_types: int) -> None:
            ask(a1, a1_types, no_v, lambda w, _: fix((a2, v), (a1, w)))

        def a3_node(a1_types: int, a2_types: int) -> None:
            ask(a3, universe, no_v, lambda w, a3_types: (
                a2_second(a1_types, a2_types, a3_types) if w is None
                else fix((a1, v), (a2, u), (a3, w))), last={u})

        def a2_second(a1_types: int, a2_types: int, a3_types: int) -> None:
            ask(a2, a2_types, no_u, lambda w, _: (
                node_ii(a1_types, a3_types) if w == v else fix((a1, v), (a3, u), (a2, w))))

        def node_ii(a1_types: int, a3_types: int) -> None:
            ask(a1, a1_types, no_v, lambda w, _: (
                node_iii(a3_types) if w == u else fix((a2, v), (a1, w), (a3, u))))

        def node_iii(a3_types: int) -> None:
            ask(a3, a3_types, no_v - {u}, lambda w, _: fix((a2, v), (a1, u), (a3, w)))

        ask(a1, universe, rem_pos, lambda w, a1_types: (
            a2_node(a1_types) if w is None else fix((a1, w))), last={v})

    build(frozenset(range(n)), frozenset(range(n)), {})
    del build  # the closure refers to itself; unbinding frees it now
    return MechanismTree(n, (universe,) * n, tables, nodes)
