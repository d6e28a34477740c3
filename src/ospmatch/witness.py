"""Negative certificates: restricted type spaces on which deferred
acceptance provably admits no OSP implementation.

A witness subdomain gives each applicant one to three full preference
orders.  It certifies non-implementability when, for every applicant with
two types, some lie beats some truth (against possibly different
opponents), and for every applicant with three types, every truth is
beaten by some lie.  The bundled fixtures are the worked case analyses
for each forbidden pattern; ``lift_witness`` embeds one in any market that
is not limited cyclic, and ``find_witness`` searches for fresh witnesses.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .core import (
    PrioritySet,
    Ranking,
    Restriction,
    inverse,
    is_permutation,
    relabel_table,
    relabelings,
    restrict,
)
from .da import da_match_product


@dataclass(frozen=True)
class Subdomain:
    """Per-applicant lists of full preference orders (1 to 3 each)."""

    type_lists: tuple[tuple[Ranking, ...], ...]

    def __post_init__(self) -> None:
        lists = tuple(tuple(map(tuple, ts)) for ts in self.type_lists)
        object.__setattr__(self, "type_lists", lists)
        full = set(range(len(lists)))
        for i, ts in enumerate(lists):
            if not 1 <= len(ts) <= 3:
                raise ValueError(f"applicant {i} needs 1 to 3 types, got {len(ts)}")
            if len(set(ts)) != len(ts):
                raise ValueError(f"applicant {i} repeats a type")
            for r in ts:
                if not is_permutation(r, full):
                    raise ValueError(f"applicant {i} holds a malformed order {r}")
        if all(len(ts) == 1 for ts in lists):
            raise ValueError("some applicant must hold more than one type")

    @property
    def n(self) -> int:
        return len(self.type_lists)


@dataclass(frozen=True)
class Improvement:
    """One realized strict gain: under ``truth`` the applicant would get
    ``truth_position`` against one opponent profile, while lying with
    ``lie`` against another yields the strictly better ``lie_position``."""

    applicant: int
    truth: Ranking
    lie: Ranking
    truth_profile: tuple[Ranking, ...]
    lie_profile: tuple[Ranking, ...]
    truth_position: int
    lie_position: int


@dataclass(frozen=True)
class WitnessReport:
    ok: bool
    improvements: tuple[Improvement, ...]
    failed_applicant: int | None = None
    failed_truth: Ranking | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_witness(q: PrioritySet, subdomain: Subdomain) -> WitnessReport:
    """Exhaustively test both witness conditions against DA under q.

    Every truth and lie is judged against every opponent combination, so
    the check needs DA on the whole product of the type lists: prod_j |T_j|
    profiles, at most 3^n.  One depth-first pass (:func:`da_match_product`)
    computes them all, and profiles that share their first k types share
    those DA entries: ``sum_k prod_{j<=k} |T_j|`` applicant entries instead
    of n per profile (1,092 instead of 4,374 at n = 6 with three types
    each).  Profiles are then read by mixed-radix index, opponents in
    product order, so the first improvement found is the same as when
    each profile is run on its own.
    """
    if subdomain.n != q.n:
        raise ValueError("subdomain size does not match the priorities")
    n = q.n
    lists = subdomain.type_lists
    outcomes = da_match_product(q.rank_table(), lists)
    strides = [1] * n
    for j in range(n - 1, 0, -1):
        strides[j - 1] = strides[j] * len(lists[j])

    def profile(index: int) -> tuple[Ranking, ...]:
        return tuple(ts[index // s % len(ts)] for ts, s in zip(lists, strides))

    def beat(i: int, t: int, offsets: list[int]) -> Improvement | None:
        # a lie beats the truth iff the best lie outcome improves on the
        # worst truthful outcome, each over all opponent combinations
        truth = lists[i][t]
        rank_of = inverse(truth)
        stride = strides[i]
        base = t * stride
        worst_rank, worst = -1, base
        for off in offsets:
            rank = rank_of[outcomes[base + off][i]]
            if rank > worst_rank:
                worst_rank, worst = rank, base + off
        for lie in range(len(lists[i])):
            if lie == t:
                continue
            base = lie * stride
            for off in offsets:
                got = outcomes[base + off][i]
                if rank_of[got] < worst_rank:
                    return Improvement(i, truth, lists[i][lie], profile(worst),
                                       profile(base + off), truth[worst_rank], got)
        return None

    improvements: list[Improvement] = []
    for i, ts in enumerate(lists):
        if len(ts) == 1:
            continue
        offsets = [0]
        for j, other in enumerate(lists):
            if j != i:
                offsets = [off + k * strides[j] for off in offsets for k in range(len(other))]
        if len(ts) == 2:
            found = beat(i, 0, offsets) or beat(i, 1, offsets)
            if found is None:
                return WitnessReport(False, tuple(improvements), i)
            improvements.append(found)
        else:
            for t, truth in enumerate(ts):
                found = beat(i, t, offsets)
                if found is None:
                    return WitnessReport(False, tuple(improvements), i, truth)
                improvements.append(found)
    return WitnessReport(True, tuple(improvements))


# ---------------------------------------------------------------------------
# Randomized search
# ---------------------------------------------------------------------------

_SIZE_CHOICES = (1, 2, 2, 2, 3, 3, 3)


def _draw_lists(rng: random.Random, n: int) -> Iterator[tuple[Ranking, ...]]:
    """The type lists of a random subdomain, one applicant at a time,
    biased so the types of one applicant tend to disagree already in their
    top two positions."""
    sizes = [rng.choice(_SIZE_CHOICES) for _ in range(n)]
    if max(sizes) == 1:
        sizes[rng.randrange(n)] = 2
    base = list(range(n))
    for size in sizes:
        chosen: list[Ranking] = []
        tops: set[tuple[int, int]] = set()
        while len(chosen) < size:
            candidate = None
            for _ in range(6):
                rng.shuffle(base)
                candidate = tuple(base)
                if candidate not in chosen and candidate[:2] not in tops:
                    break
            if candidate in chosen:
                continue
            chosen.append(candidate)
            tops.add(candidate[:2])
        yield tuple(chosen)


def _doomed(firsts: Sequence[int], i: int, ts: tuple[Ranking, ...]) -> bool:
    """Whether applicant i's list ts fails check_witness whatever the other
    lists are, ``firsts[x]`` being the applicant first at position x."""
    safe = sum(firsts[t[0]] == i for t in ts)
    return safe == len(ts) == 2 or (safe > 0 and len(ts) == 3)


def find_witness(q: PrioritySet, budget: int, seed: int) -> Subdomain | None:
    """Sample subdomains until one passes check_witness or the budget runs
    out.  Iteration i draws from its own stream derived from (seed, i), so
    the result is reproducible and a search that first succeeds at
    iteration i returns the same subdomain for every budget above i.

    A sample is dropped at the first list that cannot pass: one of three
    types, or both of two, whose top position ranks the applicant first.
    Such a truth gets its top position in every profile (the applicant
    proposes there first and nobody displaces it), so no lie beats it.

    Markets with fewer than three applicants get None without sampling:
    every such market is limited cyclic, so no witness exists.  (The
    sampler could not serve them either: it may ask for three distinct
    orders, and one or two positions have at most two.)"""
    if q.n < 3:
        return None
    firsts = [r[0] for r in q.rankings]
    for i in range(budget):
        lists: list[tuple[Ranking, ...]] = []
        for ts in _draw_lists(random.Random(f"{seed}/{i}"), q.n):
            if _doomed(firsts, len(lists), ts):
                break
            lists.append(ts)
        else:
            candidate = Subdomain(tuple(lists))
            if check_witness(q, candidate).ok:
                return candidate
    return None


# ---------------------------------------------------------------------------
# Bundled fixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessFixture:
    label: str
    pattern_letter: str
    priorities: PrioritySet
    subdomain: Subdomain


def _q(*rows: str) -> PrioritySet:
    return PrioritySet.from_rankings(
        tuple(tuple("abcd".index(ch) for ch in row) for row in rows)
    )


def _pref(*positions_1based: int) -> Ranking:
    return tuple(p - 1 for p in positions_1based)


def _transport(
    fixture_q: PrioritySet, subdomain: Subdomain, target: PrioritySet
) -> Subdomain | None:
    """Carry a witness onto an equivalent table: take the first applicant
    relabeling sigma (in :func:`relabelings` order) that makes the fixture's
    lists equal the target's as a multiset, and send each list to the least
    unused target slot that holds it.  None when no sigma fits, i.e. when the
    tables are not relabelings of one another (or differ in size)."""
    wanted = target.rankings
    goal = tuple(sorted(wanted))
    for sigma, table in relabelings(fixture_q.rankings):
        if table != goal:
            continue
        slots: dict[Ranking, list[int]] = {}
        for j, lst in enumerate(wanted):
            slots.setdefault(lst, []).append(j)
        pi = [slots[lst].pop(0) for lst in relabel_table(fixture_q.rankings, sigma)]
        out: list[tuple[Ranking, ...]] = [()] * subdomain.n
        for i, ts in enumerate(subdomain.type_lists):
            out[sigma[i]] = tuple(tuple(pi[p] for p in order) for order in ts)
        return Subdomain(tuple(out))
    return None


# Two identical lists on top; only the third list's ranking of c above a
# matters, so one subdomain serves all three tables.
_TWO_SAME_SUBDOMAIN = Subdomain((
    (_pref(3, 1, 2), _pref(3, 2, 1)),
    (_pref(1, 2, 3), _pref(2, 1, 3)),
    (_pref(1, 2, 3), _pref(1, 3, 2), _pref(2, 3, 1)),
))

# Two lists sharing only their top applicant.
_SHARED_TOP_SUBDOMAIN = Subdomain((
    (_pref(3, 1, 2), _pref(3, 2, 1)),
    (_pref(1, 2, 3), _pref(2, 1, 3), _pref(2, 3, 1)),
    (_pref(1, 2, 3), _pref(1, 3, 2), _pref(2, 3, 1)),
))

# All three lists with distinct top applicants.
_DISTINCT_TOPS_Q = _q("abc", "bac", "cab")
_DISTINCT_TOPS_SUBDOMAIN = Subdomain((
    (_pref(2, 1, 3), _pref(3, 1, 2), _pref(3, 2, 1)),
    (_pref(3, 2, 1), _pref(1, 3, 2)),
    (_pref(2, 3, 1), _pref(1, 2, 3), _pref(1, 3, 2)),
))

# The fully cyclic table.  No worked case analysis exists for it, so this
# subdomain was produced by find_witness (seed 7, found at iteration 153)
# and frozen after verification by check_witness.
_FULLY_CYCLIC_SUBDOMAIN = Subdomain((
    (_pref(2, 3, 1), _pref(2, 1, 3), _pref(3, 2, 1)),
    (_pref(3, 2, 1), _pref(1, 2, 3), _pref(1, 3, 2)),
    (_pref(1, 3, 2), _pref(2, 1, 3)),
))

# The four-applicant table; unstated tail positions complete ascending.
_FOUR_SUBDOMAIN = Subdomain((
    (_pref(4, 2, 1, 3), _pref(4, 3, 1, 2)),
    (_pref(3, 1, 2, 4), _pref(3, 4, 1, 2)),
    (_pref(2, 3, 1, 4), _pref(3, 1, 2, 4)),
    (_pref(1, 2, 3, 4), _pref(2, 1, 3, 4)),
))


@lru_cache(maxsize=1)
def fixtures() -> tuple[WitnessFixture, ...]:
    """The bundled witnesses, covering every forbidden pattern letter."""
    out = [
        WitnessFixture("fully-cyclic", "a", _q("abc", "bca", "cab"),
                       _FULLY_CYCLIC_SUBDOMAIN),
        WitnessFixture("two-same/cab", "b", _q("abc", "abc", "cab"),
                       _TWO_SAME_SUBDOMAIN),
        WitnessFixture("two-same/cba", "b", _q("abc", "abc", "cba"),
                       _TWO_SAME_SUBDOMAIN),
        WitnessFixture("two-same/bca", "b", _q("abc", "abc", "bca"),
                       _TWO_SAME_SUBDOMAIN),
        WitnessFixture("shared-top", "c", _q("abc", "acb", "cba"),
                       _SHARED_TOP_SUBDOMAIN),
        WitnessFixture("distinct-tops/cab", "d", _DISTINCT_TOPS_Q,
                       _DISTINCT_TOPS_SUBDOMAIN),
    ]
    for suffix in ("cba", "bca"):
        target = _q("abc", "bac", "cba") if suffix == "cba" else _q("abc", "cba", "bca")
        out.append(WitnessFixture(
            f"distinct-tops/{suffix}", "d", target,
            _transport(_DISTINCT_TOPS_Q, _DISTINCT_TOPS_SUBDOMAIN, target),
        ))
    out.append(WitnessFixture("four-applicants", "e",
                              _q("abcd", "abdc", "acbd", "bacd"),
                              _FOUR_SUBDOMAIN))
    return tuple(out)


def lift_witness(q: PrioritySet, r: Restriction) -> Subdomain:
    """Witness for q from a forbidden restriction r = A x P (as found by
    ``scan_forbidden``): the first fixture that :func:`_transport` carries
    onto ``restrict(q, r)``, lifted to the whole market.  Each applicant in A keeps
    its fixture orders over P, then the positions outside P ascending; each
    applicant outside A gets one type, the positions outside P, then P.

    Deferred acceptance then splits into two markets that never meet.  A and
    P have the same size and A ranks P first, so A fills P and no applicant of
    A proposes outside P.  The applicants outside A are as many as the
    positions outside P, which they rank first, so none of them proposes into
    P.  Every truth and every lie thus gives A the positions it gets on the
    restriction, and the fixture's improvements carry over.  A restriction
    that is not a forbidden pattern raises ``ValueError``.
    """
    small = restrict(q, r)
    local = next((
        found for f in fixtures()
        if (found := _transport(f.priorities, f.subdomain, small)) is not None
    ), None)
    if local is None:
        raise ValueError(f"{r} is not a forbidden pattern of the table")
    inside = r.positions
    outside = tuple(x for x in range(q.n) if x not in inside)
    type_lists = [(outside + inside,)] * q.n
    for k, applicant in enumerate(r.applicants):
        type_lists[applicant] = tuple(
            tuple(inside[p] for p in order) + outside for order in local.type_lists[k]
        )
    return Subdomain(tuple(type_lists))
