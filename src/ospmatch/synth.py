"""Build an OSP mechanism tree for any limited-cyclic priority set.

The construction follows the inductive recipe: resolve the top dominance
block with the gadget its size calls for (a lone pick, the two-applicant
trade, or the three-active lurker gadget), then recurse on the remaining
applicants and positions.  Residual block structure is recomputed at each
step, which automatically realizes the role swap of the lurker gadget's
all-x branch (removing the lead applicant turns the u-list into the new
v-list and vice versa) and the fall-through to smaller gadgets.

Every internal node is one question, made by ``ask(player, types,
offered, then)``: the player's types are grouped by their favorite w
among ``offered``, one edge per group in ascending order of w, each with
the subtree ``then(w, group)``; the favorites in ``last`` share one final
edge, with ``then(None, group)``.  ``ask`` appends its node before the
subtrees ``then`` appends, so the nodes come in preorder.  Within one
call of :func:`synthesize`, ``ask`` groups each distinct question (the
types object, ``offered`` and ``last``) once and hands out one shared
tuple per distinct group, so equal edge sets are one object; every
``types`` it is given is the full universe or a group it handed out.
``fix`` pins
(applicant, position) pairs and recurses on the rest.  The trade asks its
lead applicant once: one edge per favorite in its half U, where it
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

from collections.abc import Callable, Sequence, Set

from .classify import Classification, classify, dominance_blocks, taa_labeling_table
from .core import PrioritySet, favorites, restrict_table
from .mechanism import Internal, Leaf, MechanismTree, full_universe

Types = Sequence[int]  # type ids in ascending order


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
    everyone = full_universe(n)
    nodes: list = []  # in preorder; each ask reserves its slot first

    # (id(types), offered mask, last mask) -> (types, ((w, group), ...)); each
    # value holds its types, so a key's id cannot be reused while it is in here
    questions: dict[tuple[int, int, int], tuple[Types, tuple]] = {}
    shared: dict[Types, Types] = {everyone: everyone}  # one tuple per distinct group

    def ask(player: int, types: Types, offered: frozenset[int],
            then: Callable[[int | None, Types], None], last: Set[int] = frozenset()) -> None:
        """The question node: ``player`` names its favorite among ``offered``."""
        mask = sum(1 << pos for pos in offered)
        key = (id(types), mask, sum(1 << pos for pos in last))
        if key not in questions:
            favorite = favorites(n, mask)
            groups: dict[int | None, list[int]] = {}
            for t in types:
                w = favorite[t]
                groups.setdefault(None if w in last else w, []).append(t)
            edges = []
            for w in sorted(groups, key=lambda w: (w is None, w)):
                group = tuple(groups[w])
                edges.append((w, shared.setdefault(group, group)))
            questions[key] = (types, tuple(edges))
        slot = len(nodes)
        nodes.append(None)
        children = []
        for w, group in questions[key][1]:
            children.append((group, len(nodes)))
            then(w, group)
        nodes[slot] = Internal(player, tuple(children))

    def build(rem_apps: frozenset[int], rem_pos: frozenset[int], assigned: dict[int, int]) -> None:
        if not rem_apps:
            nodes.append(Leaf(tuple(assigned[i] for i in range(n))))
            return

        def fix(*moves: tuple[int, int]) -> None:
            """Pin each (applicant, position) and recurse on the rest."""
            pinned = dict(moves)
            build(rem_apps.difference(pinned), rem_pos.difference(pinned.values()),
                  {**assigned, **pinned})

        apps = tuple(sorted(rem_apps))
        block = tuple(apps[i] for i in dominance_blocks(restrict_table(lists, apps, rem_pos))[0])
        if len(block) == 1:
            s, = block
            return ask(s, everyone, rem_pos, lambda w, _: fix((s, w)))
        if len(block) == 2:
            # a has top priority on U, b on V; both nonempty in a finest block
            a, b = sorted(block, key=lists[min(rem_pos)].index)
            u_set = {p for p in rem_pos if lists[p].index(a) < lists[p].index(b)}
            assert u_set and u_set != rem_pos, "size-2 block without a disagreement"

            def a_first(u: int | None, passers: Types) -> None:
                if u is not None:  # a clinched u
                    return ask(b, everyone, rem_pos - {u}, lambda w, _: fix((a, u), (b, w)))
                ask(b, everyone, rem_pos, lambda w, _: ask(  # a passed, b took w
                    a, passers, rem_pos - {w}, lambda w2, _: fix((b, w), (a, w2))))

            return ask(a, everyone, rem_pos, a_first, last=rem_pos - u_set)

        poss = sorted(rem_pos)
        labeling = taa_labeling_table(restrict_table(lists, block, poss))
        assert labeling is not None, "limited-cyclic input lost TAA structure"
        a1, a2, a3 = (block[i] for i in labeling.applicant_order[:3])
        u, v = poss[labeling.u_position], poss[labeling.v_position]
        no_u, no_v = rem_pos - {u}, rem_pos - {v}

        def a2_node(a1_types: Types) -> None:
            ask(a2, everyone, rem_pos, lambda w, a2_types: (
                a3_node(a1_types, a2_types) if w is None else node_i(a1_types) if w == v
                else fix((a1, v), (a2, w))), last={u})

        def node_i(a1_types: Types) -> None:
            ask(a1, a1_types, no_v, lambda w, _: fix((a2, v), (a1, w)))

        def a3_node(a1_types: Types, a2_types: Types) -> None:
            ask(a3, everyone, no_v, lambda w, a3_types: (
                a2_second(a1_types, a2_types, a3_types) if w is None
                else fix((a1, v), (a2, u), (a3, w))), last={u})

        def a2_second(a1_types: Types, a2_types: Types, a3_types: Types) -> None:
            ask(a2, a2_types, no_u, lambda w, _: (
                node_ii(a1_types, a3_types) if w == v else fix((a1, v), (a3, u), (a2, w))))

        def node_ii(a1_types: Types, a3_types: Types) -> None:
            ask(a1, a1_types, no_v, lambda w, _: (
                node_iii(a3_types) if w == u else fix((a2, v), (a1, w), (a3, u))))

        def node_iii(a3_types: Types) -> None:
            ask(a3, a3_types, no_v - {u}, lambda w, _: fix((a2, v), (a1, u), (a3, w)))

        ask(a1, everyone, rem_pos, lambda w, a1_types: (
            a2_node(a1_types) if w is None else fix((a1, w))), last={v})

    build(frozenset(range(n)), frozenset(range(n)), {})
    tree = MechanismTree(n, (everyone,) * n, nodes)
    # the recursive closures keep these alive until a gc pass
    nodes.clear()
    questions.clear()
    shared.clear()
    return tree
