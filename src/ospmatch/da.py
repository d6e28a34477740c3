"""Applicant-proposing deferred acceptance and its correctness oracles.

Three kernels compute the same applicant-optimal stable matching.
:func:`da_match` runs one profile in plain Python; ``run_da`` uses it,
and it is the oracle of the other two.  :func:`da_match_product` runs
every profile of a product of per-applicant type lists in one
depth-first pass, so profiles that share their first k types share those
k applicants' DA work; ``check_witness`` reads a subdomain's outcomes
from it, and ``reveal_tree`` its leaves in preorder.
:func:`da_match_batch` runs a whole (M, n) array of type ids in numpy,
one proposal per profile per step, for the exhaustive and sampled checks
of a mechanism tree.  All follow McVitie and Wilson ("The stable
marriage problem", CACM 1971): applicants enter one at a time and a
rejected applicant proposes again at once.  The first two admit
applicants in index order; since DA's outcome does not depend on the
order of proposals, the batch can advance every profile in lockstep.
numpy is imported only inside :func:`da_match_batch`, so the two scalar
kernels run without it.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import TYPE_CHECKING, Sequence

from .core import Matching, PreferenceProfile, PrioritySet, Ranking, all_rankings, inverse

if TYPE_CHECKING:
    import numpy as np

# Round-by-round proposal cells: cells[position][round] is the ascending
# list of applicants proposing to that position in that round.
Transcript = list[list[list[int]]]


def da_match(rank_by_pos: Sequence[Sequence[int]], prefs: Sequence[Ranking]) -> Ranking:
    """Fast core: applicant-optimal stable matching on raw tables.

    Proposals are processed one applicant at a time (McVitie-Wilson);
    the outcome is order-independent, so this matches the simultaneous
    round form used for transcripts.
    """
    n = len(prefs)
    next_choice = [0] * n
    held: list[int] = [-1] * n
    free = list(range(n - 1, -1, -1))
    while free:
        a = free.pop()
        pref = prefs[a]
        while True:
            x = pref[next_choice[a]]
            next_choice[a] += 1
            incumbent = held[x]
            if incumbent < 0:
                held[x] = a
                break
            ranks = rank_by_pos[x]
            if ranks[a] < ranks[incumbent]:
                held[x] = a
                a = incumbent
                pref = prefs[a]
            # rejected: continue down the same applicant's list
    return inverse(held)


def da_match_product(rank_by_pos: Sequence[Sequence[int]],
                     type_lists: Sequence[Sequence[Ranking]]) -> list[Ranking]:
    """:func:`da_match` on every profile of ``itertools.product(*type_lists)``,
    in that order.

    Applicant k enters at depth k of a depth-first walk: each of its types
    starts from a copy of the state its parent left and runs
    :func:`da_match`'s rejection chain.  Since :func:`da_match` admits
    applicants 0..n-1 in this order with the same chain, each leaf holds
    :func:`da_match`'s final state for its profile.  Profiles that share
    their first k types share those k entries: the walk makes
    ``sum_k prod_{j<=k} |T_j|`` entries instead of ``n * prod_j |T_j|``.
    """
    n = len(type_lists)
    if not n:
        return [()]
    prefs: list[Ranking] = [()] * n
    out: list[Ranking] = []

    def enter(k: int, held: list[int], next_choice: list[int]) -> None:
        types = type_lists[k]
        last = len(types) - 1
        for index, pref in enumerate(types):
            # the last type may take over the parent's state, which is spent
            h, nc = (held, next_choice) if index == last else (held[:], next_choice[:])
            prefs[k] = pref
            a = k
            while True:
                x = pref[nc[a]]
                nc[a] += 1
                incumbent = h[x]
                if incumbent < 0:
                    h[x] = a
                    break
                ranks = rank_by_pos[x]
                if ranks[a] < ranks[incumbent]:
                    h[x] = a
                    a = incumbent
                    pref = prefs[a]
            if k + 1 < n:
                enter(k + 1, h, nc)
            else:
                out.append(inverse(h))

    enter(0, [-1] * n, [0] * n)
    del enter  # the closure refers to itself; unbinding frees it now
    return out


@lru_cache(maxsize=None)
def _rankings_array(n: int) -> np.ndarray:
    """``all_rankings(n)`` as a read-only (n!, n) int8 array, built once per n."""
    import numpy as np

    rankings = np.array(all_rankings(n), dtype=np.int8)
    rankings.flags.writeable = False  # shared by every call
    return rankings


def da_match_batch(rank_by_pos: Sequence[Sequence[int]], type_ids) -> np.ndarray:
    """:func:`da_match` on every row of an (M, n) array of type ids (row m
    holds the profile ``all_rankings(n)[type_ids[m, a]]`` for each
    applicant a); returns the (M, n) array of matched positions.

    Each step makes one proposal in every unfinished profile: the
    proposer takes its next choice, and a rejected or displaced applicant
    becomes the proposer of the next step.  When a proposal lands on a
    free position the next applicant in index order enters, and the
    profile is done once every applicant has entered.  A profile makes at
    most n² proposals.
    """
    import numpy as np

    type_ids = np.asarray(type_ids, dtype=np.intp)
    m, n = type_ids.shape
    # flat views: prefs[(row*n + a)*n + choice], ranks[x*n + a],
    # held[row*n + x] (applicant or -1), next_choice[row*n + a]
    prefs = _rankings_array(n)[type_ids].reshape(-1)
    ranks = np.asarray(rank_by_pos, dtype=np.intp).reshape(-1)
    held = np.full(m * n, -1, dtype=np.intp)
    next_choice = np.zeros(m * n, dtype=np.intp)
    rows = np.arange(m, dtype=np.intp)  # unfinished profiles
    proposer = np.zeros(m, dtype=np.intp)
    newcomer = np.ones(m, dtype=np.intp)
    while rows.size:
        slot = rows * n + proposer
        choice = next_choice[slot]
        next_choice[slot] = choice + 1
        x = prefs[slot * n + choice].astype(np.intp)
        cell = rows * n + x
        incumbent = held[cell]
        free = incumbent < 0
        # a free position's rank lookup reads a stray cell; ``free`` wins
        wins = free | (ranks[x * n + proposer] < ranks[x * n + incumbent])
        held[cell[wins]] = proposer[wins]
        proposer = np.where(wins, np.where(free, newcomer, incumbent), proposer)
        newcomer += free
        going = proposer < n
        rows, proposer, newcomer = rows[going], proposer[going], newcomer[going]
    return np.argsort(held.reshape(m, n), axis=1)


def run_da(q: PrioritySet, p: PreferenceProfile) -> Matching:
    """DA^q: the applicant-optimal stable matching for profile p."""
    if q.n != p.n:
        raise ValueError("priorities and profile disagree on market size")
    return Matching(da_match(q.rank_table(), p.rankings))


def proposal_rounds(q: PrioritySet, p: PreferenceProfile) -> tuple[Transcript, Matching]:
    """Run DA in simultaneous rounds, recording who proposes where.

    In each round every currently unheld applicant proposes (in ascending
    index order) to their favorite position not yet proposed to; each
    position then keeps its highest-priority proposer.
    """
    if q.n != p.n:
        raise ValueError("priorities and profile disagree on market size")
    n = q.n
    ranks = q.rank_table()
    prefs = p.rankings
    next_choice = [0] * n
    held: list[int] = [-1] * n
    unmatched = set(range(n))
    rounds: list[dict[int, list[int]]] = []
    while unmatched:
        proposals: dict[int, list[int]] = {}
        for a in sorted(unmatched):
            x = prefs[a][next_choice[a]]
            next_choice[a] += 1
            proposals.setdefault(x, []).append(a)
        rounds.append(proposals)
        for x, proposers in proposals.items():
            contenders = proposers if held[x] < 0 else proposers + [held[x]]
            winner = min(contenders, key=ranks[x].__getitem__)
            for loser in contenders:
                if loser is not winner:
                    unmatched.add(loser)
            unmatched.discard(winner)
            held[x] = winner
    assert len(rounds) <= n * n
    cells = [[rnd.get(x, []) for rnd in rounds] for x in range(n)]
    return cells, Matching(inverse(held))


def render_transcript(cells: Transcript, applicant_names: Sequence[str],
                      position_names: Sequence[str]) -> str:
    """Format proposal rounds as the usual table: rows are positions,
    columns are rounds, cell entries are the proposing applicants."""
    body = [[" ".join(applicant_names[a] for a in cell) for cell in row]
            for row in cells]
    n_rounds = len(body[0]) if body else 0
    widths = [max(len(row[r]) for row in body) for r in range(n_rounds)]
    name_w = max(len(name) for name in position_names)
    lines = []
    for x, row in enumerate(body):
        padded = [row[r].ljust(widths[r]) for r in range(n_rounds)]
        lines.append(" | ".join([position_names[x].ljust(name_w)] + padded).rstrip())
    return "\n".join(lines)


def is_stable(q: PrioritySet, p: PreferenceProfile, mu: Matching) -> bool:
    """True iff no applicant-position pair blocks mu."""
    if not (q.n == p.n == mu.n):
        raise ValueError("inconsistent market sizes")
    ranks, prefs = q.rank_table(), p.rank_table()
    for a in range(q.n):
        liked = prefs[a][mu.position_of(a)]
        for x in range(q.n):
            if prefs[a][x] < liked and ranks[x][a] < ranks[x][mu.applicant_at(x)]:
                return False
    return True


def all_stable_matchings(q: PrioritySet, p: PreferenceProfile) -> list[Matching]:
    """Brute-force oracle: every stable matching, by trying all n! bijections."""
    if q.n > 6:
        raise ValueError("brute-force stability oracle is capped at n = 6")
    out = []
    for perm in permutations(range(q.n)):
        mu = Matching(perm)
        if is_stable(q, p, mu):
            out.append(mu)
    return out
