"""Priority-structure predicates: cyclicity, block partitions, the
two-adjacent-alternating pattern, limited-cyclic classification, and the
forbidden-pattern restriction scanner.

Each predicate has one implementation, on ranking tables: a table is a
tuple of ranking tuples, one per position (``PrioritySet.rankings``).
Each ranking's ranks, its restriction to an applicant set
(:func:`ospmatch.core.restricted_rankings`) and its u and v lists are
memoized per ranking as they are first needed, and the forbidden tables
are matched through their relabeling orbits.  The kernels are
``dominance_blocks``, ``block_bases``, ``taa_base``, ``taa_labeling_table``
and ``scan_table``; ``classify`` and ``scan_forbidden`` are thin wrappers
over them, and the exhaustive sweeps in :mod:`ospmatch.sweep` and the
synthesizer call them directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Sequence

from .core import (
    Memo,
    PrioritySet,
    Ranking,
    Restriction,
    canonical_table,
    checked_ranks,
    relabelings,
    restricted_rankings,
)

# The irreducible non-implementable priority tables, keyed by the letter of
# the subfigure they appear under.  Letter "b" covers three concrete tables
# that are *not* relabelings of one another (the two repeated lists pin the
# applicant labels); the other letters each name a single relabeling class.
def _tbl(*rows: str) -> tuple[Ranking, ...]:
    return tuple(tuple("abcd".index(c) for c in row) for row in rows)


FORBIDDEN_TABLES: tuple[tuple[str, tuple[Ranking, ...]], ...] = (
    ("a", _tbl("abc", "bca", "cab")),
    ("b", _tbl("abc", "abc", "cab")),
    ("b", _tbl("abc", "abc", "cba")),
    ("b", _tbl("abc", "abc", "bca")),
    ("c", _tbl("abc", "acb", "cba")),
    ("d", _tbl("abc", "bac", "cba")),
    ("e", _tbl("abcd", "abdc", "acbd", "bacd")),
)


@lru_cache(maxsize=1)
def forbidden_patterns() -> tuple[tuple[str, tuple[Ranking, ...]], ...]:
    """(letter, canonical table) pairs; canonical tables pairwise distinct."""
    out = tuple((letter, canonical_table(table)) for letter, table in FORBIDDEN_TABLES)
    assert len({tbl for _, tbl in out}) == len(out)
    return out


@dataclass(frozen=True)
class TaaLabeling:
    """Witness that a table is two-adjacent-alternating: the applicant
    order a_1..a_k, the positions carrying the shared list x, and the two
    positions carrying the flipped lists u and v."""

    applicant_order: tuple[int, ...]
    x_positions: tuple[int, ...]
    u_position: int
    v_position: int


@dataclass(frozen=True)
class Classification:
    verdict: str  # "limited-cyclic" | "not-limited-cyclic"
    blocks: tuple[tuple[int, ...], ...] | None = None
    block_labelings: tuple[tuple[int, TaaLabeling], ...] | None = None
    witness: tuple[Restriction, str] | None = None

    @property
    def limited_cyclic(self) -> bool:
        return self.verdict == "limited-cyclic"


def is_cyclic(q: PrioritySet) -> bool:
    """Ergin cyclicity: some position ranks a above b above c while another
    ranks c above a.  Kept as the independent oracle for the dominance
    blocks: q is cyclic iff some block has three or more applicants."""
    tables = q.rank_table()
    n = q.n
    for a in range(n):
        for c in range(n):
            if a == c:
                continue
            if not any(ranks[c] - ranks[a] >= 2 for ranks in tables):
                continue
            if any(ranks[c] < ranks[a] for ranks in tables):
                return True
    return False


def flip_adjacent(seq: Sequence[int]) -> tuple[int, ...]:
    """Swap consecutive pairs, leaving a trailing unpaired element alone."""
    out = list(seq)
    for i in range(0, len(out) - 1, 2):
        out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


def taa_patterns(base: Sequence[int]) -> tuple[Ranking, Ranking, Ranking]:
    """The (x, u, v) lists generated by the applicant order ``base``."""
    x = tuple(base)
    u = (x[0],) + flip_adjacent(x[1:])
    v = flip_adjacent(x)
    return x, u, v


# ---------------------------------------------------------------------------
# Kernels on ranking tables
# ---------------------------------------------------------------------------

Table = tuple[Ranking, ...]

# base list x -> its u and v lists
_uv = Memo(lambda x: taa_patterns(x)[1:])


@lru_cache(maxsize=None)
def forbidden_orbit(size: int) -> dict[Table, str]:
    """Every forbidden table of the given side length, closed under
    relabeling: each table :func:`~ospmatch.core.relabelings` yields, in
    every order of its lists, mapped to its letter.  So a restriction's
    lists are looked up in the order they stand."""
    out: dict[Table, str] = {}
    for letter, table in FORBIDDEN_TABLES:
        if len(table) != size:
            continue
        for _, relabeled in relabelings(table):
            for ordered in permutations(relabeled):
                assert out.get(ordered, letter) == letter
                out[ordered] = letter
    return out


def dominance_blocks(table: Table) -> list[tuple[int, ...]]:
    """Finest ordered partition of the applicants with unanimous dominance
    between blocks.

    Applicants are taken in the first list's order; a boundary falls after
    the first ``end`` of them exactly when every list ranks those ``end``
    applicants on top, i.e. when the worst rank any list gives them is
    ``end - 1``.  Any pair some two positions disagree on therefore shares
    a block, and the result does not depend on which list anchors the order.
    """
    order = table[0]
    rank_rows = [checked_ranks[ranking] for ranking in table]
    blocks: list[tuple[int, ...]] = []
    start = worst = 0
    for end, item in enumerate(order, 1):
        for ranks in rank_rows:
            if ranks[item] > worst:
                worst = ranks[item]
        if worst == end - 1:
            blocks.append(tuple(sorted(order[start:end])))
            start = end
    return blocks


def taa_base(table: Table) -> Ranking | None:
    """Least base list x for which the table is two-adjacent-alternating,
    or None.

    x must occur exactly l - 2 times among the l lists and its u and v
    lists once each; the least such x is the lexicographically first
    applicant order that fits."""
    counts: dict[Ranking, int] = {}
    for ranking in table:
        counts[ranking] = counts.get(ranking, 0) + 1
    target = len(table) - 2
    for x in sorted(r for r, count in counts.items() if count == target):
        u, v = _uv[x]
        if counts.get(u) == 1 and counts.get(v) == 1:
            return x
    return None


def block_bases(
    table: Table, blocks: Sequence[tuple[int, ...]]
) -> list[tuple[int, Table, Ranking]] | None:
    """(block index, restricted table, base list) for every block of three
    or more applicants, or None when one of them is not two-adjacent-
    alternating over all positions, i.e. when the table is not limited
    cyclic."""
    out = []
    for index, block in enumerate(blocks):
        if len(block) < 3:
            continue
        if len(block) == len(table[0]):
            restricted = table
        else:
            rows = restricted_rankings(block)
            restricted = tuple([rows[ranking] for ranking in table])
        x = taa_base(restricted)
        if x is None:
            return None
        out.append((index, restricted, x))
    return out


def scan_table(table: Table) -> tuple[tuple[int, ...], tuple[int, ...], str] | None:
    """First (applicants, positions, letter), in ``restrictions`` order and
    trying size 3 before size 4, whose restricted table is a forbidden
    pattern up to relabeling."""
    n = len(table)
    for m in (3, 4):
        if m > n:
            break
        orbit = forbidden_orbit(m)
        subsets = tuple(combinations(range(n), m))
        for s in subsets:
            if m == n:
                restricted = table
            else:
                rows = restricted_rankings(s)
                restricted = [rows[ranking] for ranking in table]
            for t in subsets:
                letter = orbit.get(tuple([restricted[x] for x in t]))
                if letter is not None:
                    return s, t, letter
    return None


# ---------------------------------------------------------------------------
# Dataclass wrappers
# ---------------------------------------------------------------------------

def _labeling(table: Table, x: Ranking, applicants: Sequence[int]) -> TaaLabeling:
    u, v = _uv[x]
    return TaaLabeling(
        tuple(applicants[a] for a in x),
        tuple(pos for pos, ranking in enumerate(table) if ranking == x),
        table.index(u),
        table.index(v),
    )


def taa_labeling_table(lists: Table) -> TaaLabeling | None:
    """Two-adjacent-alternating detection on a raw table of ``l`` lists over
    k applicants, reporting the lexicographically first applicant order."""
    k = len(lists[0])
    if len(lists) < 3 or k < 3:
        raise ValueError("two-adjacent-alternating needs >= 3 lists over >= 3 applicants")
    x = taa_base(lists)
    return None if x is None else _labeling(lists, x, range(k))


def classify(q: PrioritySet) -> Classification:
    """Decide limited cyclicity via the finest dominance partition, checking
    that every block of three or more applicants restricts to a
    two-adjacent-alternating table over all positions."""
    blocks = tuple(dominance_blocks(q.rankings))
    bases = block_bases(q.rankings, blocks)
    if bases is None:
        return Classification("not-limited-cyclic", witness=scan_forbidden(q))
    # report the labelings in original applicant / position indices
    labelings = tuple(
        (i, _labeling(restricted, x, blocks[i])) for i, restricted, x in bases
    )
    return Classification("limited-cyclic", blocks=blocks, block_labelings=labelings)


def scan_forbidden(q: PrioritySet) -> tuple[Restriction, str] | None:
    """First restriction of size 3 or 4 that is a forbidden pattern up to
    relabeling, or None.  Sizes beyond 4 never need scanning: the pattern
    list is complete at those sizes."""
    found = scan_table(q.rankings)
    if found is None:
        return None
    s, t, letter = found
    return Restriction(s, t), letter
