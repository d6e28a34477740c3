"""Priority-structure predicates: cyclicity, block partitions, the
two-adjacent-alternating pattern, limited-cyclic classification, and the
forbidden-pattern restriction scanner.

Each predicate has one implementation, on the id layer: a table is a tuple
of ranking ids (see :func:`ospmatch.core.ranking_id`), restricted rows and
the x -> u/v pattern ids are memoized per order id as they are first
needed, and the forbidden tables are matched through their relabeling
orbits.  The dataclass functions (``classify``, ``scan_forbidden``,
``taa_labeling_table``) are thin wrappers over these kernels, and the
exhaustive sweeps in :mod:`ospmatch.sweep` call the kernels directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Sequence

from .core import (
    PrioritySet,
    Ranking,
    Restriction,
    canonical_table,
    inverse,
    ranking_at,
    ranking_id,
    relabelings,
    restrict_ranking,
)

IdTuple = tuple[int, ...]

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
# Id layer
# ---------------------------------------------------------------------------

class _Memo(dict):
    """Dict that computes and keeps an entry on its first lookup."""

    def __init__(self, fill: Callable):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


@lru_cache(maxsize=None)
def _orders(n: int) -> _Memo:
    """order id -> (ranking, rank of each item)."""
    def fill(i: int):
        ranking = ranking_at(n, i)
        return ranking, inverse(ranking)
    return _Memo(fill)


@lru_cache(maxsize=None)
def _restricted_rows(n: int, keep: IdTuple) -> _Memo:
    """order id over n items -> id of its restriction to ``keep``."""
    return _Memo(lambda i: ranking_id(restrict_ranking(ranking_at(n, i), keep)))


@lru_cache(maxsize=None)
def _uv_ids(k: int) -> _Memo:
    """id of a base list x -> ids of its u and v lists."""
    def fill(x: int) -> tuple[int, int]:
        _, u, v = taa_patterns(ranking_at(k, x))
        return ranking_id(u), ranking_id(v)
    return _Memo(fill)


@lru_cache(maxsize=None)
def forbidden_orbit(size: int) -> dict[IdTuple, str]:
    """Every forbidden table of the given side length, closed under
    relabeling: each table :func:`~ospmatch.core.relabelings` yields,
    keyed by its order ids (sorted, as its lists are)."""
    out: dict[IdTuple, str] = {}
    for letter, table in FORBIDDEN_TABLES:
        if len(table) != size:
            continue
        for _, relabeled in relabelings(table):
            key = _table_ids(relabeled)
            assert out.get(key, letter) == letter
            out[key] = letter
    return out


def _blocks(order: Ranking, rank_rows: Sequence[Sequence[int]]) -> list[IdTuple]:
    """Finest ordered partition of the applicants with unanimous dominance
    between blocks, given the first list and every list's rank of each
    applicant.

    Applicants are taken in the first list's order; a boundary falls after
    the first ``end`` of them exactly when every list ranks those ``end``
    applicants on top, i.e. when the worst rank any list gives them is
    ``end - 1``.  Any pair some two positions disagree on therefore shares
    a block, and the result does not depend on which list anchors the order.
    """
    blocks: list[IdTuple] = []
    start = worst = 0
    for end, item in enumerate(order, 1):
        for ranks in rank_rows:
            if ranks[item] > worst:
                worst = ranks[item]
        if worst == end - 1:
            blocks.append(tuple(sorted(order[start:end])))
            start = end
    return blocks


def id_blocks(n: int, ids: IdTuple) -> list[IdTuple]:
    """Dominance blocks of a table of order ids over n applicants."""
    orders = _orders(n)
    return _blocks(orders[ids[0]][0], [orders[i][1] for i in ids])


def restrict_ids(n: int, ids: IdTuple, keep: IdTuple) -> IdTuple:
    """Each list of the table restricted to the applicants in ``keep``."""
    if len(keep) == n:
        return ids
    rows = _restricted_rows(n, keep)
    return tuple(rows[i] for i in ids)


def taa_base(k: int, ids: IdTuple) -> int | None:
    """Least id of a base list x for which the table (ids of lists over k
    applicants) is two-adjacent-alternating, or None.

    x must occur exactly l - 2 times among the l lists and its u and v
    lists once each; the least such id is the lexicographically first
    applicant order that fits."""
    counts: dict[int, int] = {}
    for i in ids:
        counts[i] = counts.get(i, 0) + 1
    target = len(ids) - 2
    uv = _uv_ids(k)
    for x in sorted(i for i, count in counts.items() if count == target):
        u, v = uv[x]
        if counts.get(u) == 1 and counts.get(v) == 1:
            return x
    return None


def block_bases(
    n: int, ids: IdTuple, blocks: Sequence[IdTuple]
) -> list[tuple[int, IdTuple, int]] | None:
    """(block index, restricted ids, base id) for every block of three or
    more applicants, or None when one of them is not two-adjacent-alternating
    over all positions, i.e. when the table is not limited cyclic."""
    out = []
    for index, block in enumerate(blocks):
        k = len(block)
        if k < 3:
            continue
        restricted = restrict_ids(n, ids, block)
        x = taa_base(k, restricted)
        if x is None:
            return None
        out.append((index, restricted, x))
    return out


def scan_ids(n: int, ids: IdTuple) -> tuple[IdTuple, IdTuple, str] | None:
    """First (applicants, positions, letter), in ``restrictions`` order and
    trying size 3 before size 4, whose restricted table is a forbidden
    pattern up to relabeling."""
    for m in (3, 4):
        if m > n:
            break
        orbit = forbidden_orbit(m)
        subsets = tuple(combinations(range(n), m))
        for s in subsets:
            rows = _restricted_rows(n, s)
            restricted = [rows[i] for i in ids]
            for t in subsets:
                letter = orbit.get(tuple(sorted([restricted[x] for x in t])))
                if letter is not None:
                    return s, t, letter
    return None


# ---------------------------------------------------------------------------
# Dataclass wrappers
# ---------------------------------------------------------------------------

def _table_ids(lists: Sequence[Sequence[int]]) -> IdTuple:
    return tuple(ranking_id(lst) for lst in lists)


def _labeling(k: int, ids: IdTuple, x: int, applicants: Sequence[int]) -> TaaLabeling:
    u, v = _uv_ids(k)[x]
    return TaaLabeling(
        tuple(applicants[a] for a in ranking_at(k, x)),
        tuple(pos for pos, i in enumerate(ids) if i == x),
        ids.index(u),
        ids.index(v),
    )


def taa_labeling_table(lists: Sequence[Ranking]) -> TaaLabeling | None:
    """Two-adjacent-alternating detection on a raw table of ``l`` lists over
    k applicants, reporting the lexicographically first applicant order."""
    k = len(lists[0])
    if len(lists) < 3 or k < 3:
        raise ValueError("two-adjacent-alternating needs >= 3 lists over >= 3 applicants")
    ids = _table_ids(lists)
    x = taa_base(k, ids)
    return None if x is None else _labeling(k, ids, x, range(k))


def dominance_blocks(lists: Sequence[Ranking]) -> list[tuple[int, ...]]:
    """Finest ordered partition with unanimous dominance between blocks
    (see :func:`_blocks`)."""
    return _blocks(tuple(lists[0]), [inverse(lst) for lst in lists])


def classify(q: PrioritySet) -> Classification:
    """Decide limited cyclicity via the finest dominance partition, checking
    that every block of three or more applicants restricts to a
    two-adjacent-alternating table over all positions."""
    ids = _table_ids(q.rankings)
    blocks = tuple(id_blocks(q.n, ids))
    bases = block_bases(q.n, ids, blocks)
    if bases is None:
        return Classification("not-limited-cyclic", witness=scan_forbidden(q))
    # report the labelings in original applicant / position indices
    labelings = tuple(
        (i, _labeling(len(blocks[i]), restricted, x, blocks[i]))
        for i, restricted, x in bases
    )
    return Classification("limited-cyclic", blocks=blocks, block_labelings=labelings)


def scan_forbidden(q: PrioritySet) -> tuple[Restriction, str] | None:
    """First restriction of size 3 or 4 that is a forbidden pattern up to
    relabeling, or None.  Sizes beyond 4 never need scanning: the pattern
    list is complete at those sizes."""
    found = scan_ids(q.n, _table_ids(q.rankings))
    if found is None:
        return None
    s, t, letter = found
    return Restriction(s, t), letter
