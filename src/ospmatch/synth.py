"""Build an OSP mechanism tree for any limited-cyclic priority set.

The construction follows the inductive recipe: resolve the top dominance
block with the gadget its size calls for (a lone pick, the two-applicant
trade, or the three-active lurker gadget), then recurse on the remaining
applicants and positions.  Residual block structure is recomputed at each
step, which automatically realizes the role swap of the lurker gadget's
all-x branch (removing the lead applicant turns the u-list into the new
v-list and vice versa) and the fall-through to smaller gadgets.
"""
from __future__ import annotations

from .classify import Classification, classify, dominance_blocks, taa_labeling_table
from .core import PrioritySet, favorites, restrict_table
from .mechanism import Internal, Leaf, MechanismTree, Node, full_universe

TypeSet = frozenset[int]


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
    everyone: TypeSet = frozenset(full_universe(n))

    def split(types: TypeSet, among: frozenset[int]) -> dict[int, TypeSet]:
        """Group types by their favorite position among ``among``."""
        favorite = favorites(n, sum(1 << pos for pos in among))
        groups: dict[int, set[int]] = {}
        for t in types:
            groups.setdefault(favorite[t], set()).add(t)
        return {pos: frozenset(ts) for pos, ts in groups.items()}

    def branch(types: TypeSet, node: Node) -> tuple[tuple[int, ...], Node]:
        return tuple(sorted(types)), node

    def build(rem_apps: frozenset[int], rem_pos: frozenset[int],
              types: dict[int, TypeSet], assigned: dict[int, int]) -> Node:
        if not rem_apps:
            return Leaf(tuple(assigned[i] for i in range(n)))
        apps = tuple(sorted(rem_apps))
        poss = tuple(sorted(rem_pos))
        table = restrict_table(lists, apps, poss)
        first = dominance_blocks(table)[0]
        block = tuple(apps[i] for i in first)
        if len(block) == 1:
            return build_serial(block[0], rem_apps, rem_pos, types, assigned)
        if len(block) == 2:
            return build_trade(block, rem_apps, rem_pos, types, assigned)
        labeling = taa_labeling_table(restrict_table(lists, block, poss))
        assert labeling is not None, "limited-cyclic input lost TAA structure"
        order = tuple(block[i] for i in labeling.applicant_order)
        x_set = frozenset(poss[i] for i in labeling.x_positions)
        return build_lurker(order, x_set, poss[labeling.u_position],
                            poss[labeling.v_position],
                            rem_apps, rem_pos, types, assigned)

    def settle(rem_apps, rem_pos, types, assigned, *moves: tuple[int, int, TypeSet]):
        """Pin each (applicant, position, remaining types) and recurse."""
        for applicant, position, tset in moves:
            rem_apps = rem_apps - {applicant}
            rem_pos = rem_pos - {position}
            types = {**types, applicant: tset}
            assigned = {**assigned, applicant: position}
        return build(rem_apps, rem_pos, types, assigned)

    def build_serial(s, rem_apps, rem_pos, types, assigned) -> Node:
        groups = split(types[s], rem_pos)
        return Internal(s, tuple(
            branch(g, settle(rem_apps, rem_pos, types, assigned, (s, w, g)))
            for w, g in sorted(groups.items())
        ))

    def build_trade(block, rem_apps, rem_pos, types, assigned) -> Node:
        # a has top priority on U, b on V; both nonempty in a finest block
        lead = min(rem_pos)
        x, y = block
        a, b = (x, y) if lists[lead].index(x) < lists[lead].index(y) else (y, x)
        u_set = frozenset(p for p in rem_pos if lists[p].index(a) < lists[p].index(b))
        v_set = rem_pos - u_set
        assert u_set and v_set, "size-2 block without a disagreement"
        groups = split(types[a], rem_pos)

        def after_clinch(u: int, a_types: TypeSet) -> Node:
            b_groups = split(types[b], rem_pos - {u})
            return Internal(b, tuple(
                branch(g, settle(rem_apps, rem_pos, types, assigned,
                                 (a, u, a_types), (b, w, g)))
                for w, g in sorted(b_groups.items())
            ))

        def after_pass(a_types: TypeSet) -> Node:
            def a_again(w: int, b_types: TypeSet) -> Node:
                a_groups = split(a_types, rem_pos - {w})
                return Internal(a, tuple(
                    branch(g, settle(rem_apps, rem_pos, types, assigned,
                                     (b, w, b_types), (a, w2, g)))
                    for w2, g in sorted(a_groups.items())
                ))

            b_groups = split(types[b], rem_pos)
            return Internal(b, tuple(
                branch(g, a_again(w, g)) for w, g in sorted(b_groups.items())
            ))

        passers = frozenset().union(*(groups[w] for w in v_set if w in groups))
        children = [
            branch(groups[w], after_clinch(w, groups[w]))
            for w in sorted(u_set) if w in groups
        ]
        children.append(branch(passers, after_pass(passers)))
        return Internal(a, tuple(children))

    def build_lurker(order, x_set, u, v, rem_apps, rem_pos, types, assigned) -> Node:
        a1, a2, a3 = order[:3]
        a1_groups = split(types[a1], rem_pos)

        def fix(*moves):
            return settle(rem_apps, rem_pos, types, assigned, *moves)

        def node_i(a1_types: TypeSet, a2_types: TypeSet) -> Node:
            # a2 clinched v; a1 may take anything else it was offered
            a1_again = split(a1_types, rem_pos - {v})
            return Internal(a1, tuple(
                branch(g, fix((a2, v, a2_types), (a1, w2, g)))
                for w2, g in sorted(a1_again.items())
            ))

        def node_iii(a1_types, a2_types, a3_types) -> Node:
            # a1 reclaimed u, so a3 falls back to the shared-list positions
            a3_again = split(a3_types, rem_pos - {v, u})
            return Internal(a3, tuple(
                branch(g, fix((a2, v, a2_types), (a1, u, a1_types), (a3, w3, g)))
                for w3, g in sorted(a3_again.items())
            ))

        def node_ii(a1_types, a2_types, a3_types) -> Node:
            a1_again = split(a1_types, rem_pos - {v})
            children = []
            for w2, g in sorted(a1_again.items()):
                if w2 == u:
                    children.append(branch(g, node_iii(g, a2_types, a3_types)))
                else:
                    children.append(branch(g, fix(
                        (a2, v, a2_types), (a1, w2, g), (a3, u, a3_types))))
            return Internal(a1, tuple(children))

        def a2_second(a1_types, a2_types, a3_types) -> Node:
            a2_again = split(a2_types, rem_pos - {u})
            children = []
            for w, g in sorted(a2_again.items()):
                if w == v:
                    children.append(branch(g, node_ii(a1_types, g, a3_types)))
                else:
                    children.append(branch(g, fix(
                        (a1, v, a1_types), (a3, u, a3_types), (a2, w, g))))
            return Internal(a2, tuple(children))

        def a3_node(a1_types, a2_types) -> Node:
            # v is already out of reach for a3 here
            a3_groups = split(types[a3], rem_pos - {v})
            children = [
                branch(g, fix((a1, v, a1_types), (a2, u, a2_types), (a3, w, g)))
                for w, g in sorted(a3_groups.items()) if w != u
            ]
            children.append(branch(
                a3_groups[u], a2_second(a1_types, a2_types, a3_groups[u])))
            return Internal(a3, tuple(children))

        def a2_node(a1_types: TypeSet) -> Node:
            a2_groups = split(types[a2], rem_pos)
            children = []
            for w, g in sorted(a2_groups.items()):
                if w == u:
                    continue
                if w == v:
                    children.append(branch(g, node_i(a1_types, g)))
                else:
                    children.append(branch(g, fix((a1, v, a1_types), (a2, w, g))))
            children.append(branch(a2_groups[u], a3_node(a1_types, a2_groups[u])))
            return Internal(a2, tuple(children))

        children = []
        for w, g in sorted(a1_groups.items()):
            if w == v:
                continue
            children.append(branch(g, fix((a1, w, g))))
        children.append(branch(a1_groups[v], a2_node(a1_groups[v])))
        return Internal(a1, tuple(children))

    types0 = {i: everyone for i in range(n)}
    root = build(frozenset(range(n)), frozenset(range(n)), types0, {})
    return MechanismTree(n, tuple(full_universe(n) for _ in range(n)), root)
