"""Core domain types for one-sided matching markets with fixed priorities.

Applicants and positions are 0-based indices internally.  Human-facing
names (``a, b, c, ...`` for applicants, ``1, 2, 3, ...`` for positions)
are applied only at the I/O boundary (see :mod:`ospmatch.jsonio`).

A market is two tables of strict rankings: a :class:`PrioritySet` holds
each position's ranking of the applicants and a :class:`PreferenceProfile`
each applicant's ranking of the positions.  Both hold the ranking tuples
themselves as ``rankings`` and build the inverse ``rank_table()`` once,
from :data:`checked_ranks`, which checks and inverts each distinct
ranking once per process.  The predicates and the sweeps read such
tables of ranking tuples as they are.  A ranking's lexicographic index
(:func:`ranking_id`) is used only for the type ids of mechanism trees,
whose sets of type ids are int bitmasks, bit t for id t (:func:`above`,
:func:`favorites`, :func:`ids_mask`, :func:`mask_ids`).

All types here are immutable and hashable, every operation is a pure
function, and nothing here imports numpy.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, combinations, compress, count, permutations, product
from operator import and_, lt
from typing import AbstractSet, Callable, Iterable, Iterator, Sequence, TypeVar

Ranking = tuple[int, ...]


def is_permutation(ranking: Sequence[int], full: AbstractSet[int]) -> bool:
    """Whether ``ranking`` lists each item of ``full`` exactly once, where
    ``full`` is ``set(range(n))``, built once by callers that test many
    rankings."""
    return len(ranking) == len(full) and set(ranking) == full


def _check_permutation(ranking: Sequence[int], full: AbstractSet[int]) -> None:
    if not is_permutation(ranking, full):
        raise ValueError(f"not a permutation of 0..{len(full) - 1}: {ranking!r}")


@lru_cache(maxsize=None)
def all_rankings(n: int) -> tuple[Ranking, ...]:
    """All n! rankings of 0..n-1 in lexicographic order."""
    return tuple(permutations(range(n)))


def ranking_id(ranking: Sequence[int]) -> int:
    """Lexicographic rank of a ranking among all rankings of its length,
    so ``all_rankings(n)[ranking_id(r)] == r``."""
    rest = sorted(ranking)
    out = 0
    for item in ranking:
        spot = rest.index(item)
        out = out * len(rest) + spot
        rest.pop(spot)
    return out


# flag bytes (one per bit) to and from the digits "0" and "1" that int() and format() use
_TO_FLAGS = bytes.maketrans(b"01", b"\0\1")
_FROM_FLAGS = bytes.maketrans(b"\0\1", b"01")


@lru_cache(maxsize=None)
def above(n: int) -> tuple[tuple[int, ...], ...]:
    """``above(n)[d][w]``: the bitmask of the type ids whose ranking puts
    position d above position w (0 for d == w).  n² ints of n! bits, built
    once per n from each position's spot in every ranking."""
    spots = bytes(chain.from_iterable(map(inverse, all_rankings(n))))  # spots[t*n + pos]
    return tuple(tuple(int(bytes(map(lt, spots[d::n], spots[w::n]))[::-1].translate(_FROM_FLAGS), 2)
                       for w in range(n)) for d in range(n))


@lru_cache(maxsize=None)
def favorites(n: int, mask: int) -> tuple[int, ...]:
    """``favorites(n, mask)[w]``: the bitmask of the type ids whose ranking
    puts position w above every other position in the (nonempty) bitmask
    ``mask`` (0 for a position outside it)."""
    table = above(n)
    members = [pos for pos in range(n) if mask >> pos & 1]
    everyone = (1 << len(all_rankings(n))) - 1
    return tuple(reduce(and_, (table[w][d] for d in members if d != w), everyone)
                 if mask >> w & 1 else 0 for w in range(n))


def ids_mask(ids: Iterable[int], size: int, where: str = "type set") -> int:
    """The bitmask of some type ids; ``ValueError``, starting with ``where``,
    for an id that is a bool, not an int or outside ``0..size-1``."""
    flags = bytearray(b"0") * size
    for t in ids:
        if isinstance(t, bool) or not isinstance(t, int) or not 0 <= t < size:
            raise ValueError(f"{where} is not a list of type ids in 0..{size - 1}: {t!r}")
        flags[t] = 49  # "1"
    return int(flags[::-1], 2)


def mask_ids(mask: int) -> tuple[int, ...]:
    """The ids whose bits are set in a nonnegative bitmask, ascending."""
    # one flag byte per bit, lowest first, so compress picks the set ids
    return tuple(compress(count(), format(mask, "b")[::-1].encode().translate(_TO_FLAGS)))


def inverse(ranking: Sequence[int]) -> Ranking:
    """The spot of each item in a ranking of 0..n-1:
    ``inverse(ranking)[ranking[spot]] == spot``."""
    ranks = [0] * len(ranking)
    for spot, item in enumerate(ranking):
        ranks[item] = spot
    return tuple(ranks)


_T = TypeVar("_T", bound="_Table")


@dataclass(frozen=True)
class _Table:
    """n strict rankings of 0..n-1, best first, one per row (n >= 1).

    Tables compare and hash by their rankings, and a table equals only a
    table of its own class."""

    rankings: tuple[Ranking, ...]

    def __post_init__(self) -> None:
        rankings = tuple(tuple(r) for r in self.rankings)
        n = len(rankings)
        if n == 0:
            raise ValueError(f"{type(self).__name__} needs at least one ranking")
        rank_table = []
        for ranking in rankings:
            # checked_ranks checks a ranking on its first sight; later
            # sights need only its length
            if len(ranking) != n:
                raise ValueError(f"not a permutation of 0..{n - 1}: {ranking!r}")
            rank_table.append(checked_ranks[ranking])
        object.__setattr__(self, "rankings", rankings)
        object.__setattr__(self, "_rank_table", tuple(rank_table))

    @classmethod
    def from_rankings(cls: type[_T], rankings: Iterable[Sequence[int]]) -> _T:
        return cls(tuple(rankings))

    @property
    def n(self) -> int:
        return len(self.rankings)

    def rank_table(self) -> tuple[Ranking, ...]:
        """rank_table()[row][item] -> the spot of item in row's ranking
        (0 = best), built once at construction."""
        return self._rank_table  # type: ignore[attr-defined]


@dataclass(frozen=True)
class PrioritySet(_Table):
    """One strict ranking of the n applicants per position."""


@dataclass(frozen=True)
class PreferenceProfile(_Table):
    """One strict ranking of the n positions per applicant."""


@dataclass(frozen=True)
class Matching:
    """A bijection between applicants and positions."""

    applicant_to_position: Ranking

    def __post_init__(self) -> None:
        a2p = tuple(self.applicant_to_position)
        _check_permutation(a2p, set(range(len(a2p))))
        object.__setattr__(self, "applicant_to_position", a2p)
        object.__setattr__(self, "position_to_applicant", inverse(a2p))

    @property
    def n(self) -> int:
        return len(self.applicant_to_position)

    def position_of(self, applicant: int) -> int:
        return self.applicant_to_position[applicant]

    def applicant_at(self, position: int) -> int:
        return self.position_to_applicant[position]  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Restriction:
    """Equal-size subsets of applicants (S) and positions (T)."""

    applicants: tuple[int, ...]
    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        s = tuple(sorted(set(self.applicants)))
        t = tuple(sorted(set(self.positions)))
        if len(s) != len(self.applicants) or len(t) != len(self.positions):
            raise ValueError("restriction subsets must not repeat indices")
        if len(s) != len(t) or not s:
            raise ValueError("restriction needs equal-size nonempty subsets")
        if s[0] < 0 or t[0] < 0:
            raise ValueError("restriction indices must not be negative")
        object.__setattr__(self, "applicants", s)
        object.__setattr__(self, "positions", t)

    @property
    def m(self) -> int:
        return len(self.applicants)


# ---------------------------------------------------------------------------
# Raw-table helpers.  The hot paths (the predicates and the exhaustive
# sweeps) work on plain tuples of ranking tuples rather than on the
# dataclasses above.
# ---------------------------------------------------------------------------

class Memo(dict):
    """Dict that computes and keeps an entry on its first lookup."""

    def __init__(self, fill: Callable):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _checked_inverse(ranking: Ranking) -> Ranking:
    _check_permutation(ranking, set(range(len(ranking))))
    return inverse(ranking)


# ranking -> the spot of each item in it, filled on the ranking's first
# sight once it is checked to be a permutation.  Every table and the
# predicates share it, so each ranking is checked and inverted once.
checked_ranks = Memo(_checked_inverse)


def restrict_ranking(ranking: Ranking, keep: Sequence[int]) -> Ranking:
    """Filter a ranking to ``keep`` and relabel by sorted order to 0..m-1."""
    relabel = {item: i for i, item in enumerate(sorted(keep))}
    return tuple(relabel[x] for x in ranking if x in relabel)


@lru_cache(maxsize=None)
def restricted_rankings(keep: tuple[int, ...]) -> Memo:
    """ranking -> ``restrict_ranking(ranking, keep)``, for an ascending
    ``keep``, filled as rankings are first looked up.  This is the one
    restriction behind :func:`restrict_table`, :func:`restrict` and the
    forbidden-pattern scan."""
    return Memo(lambda ranking: restrict_ranking(ranking, keep))


def restrict_table(
    lists: Sequence[Ranking], applicants: Sequence[int], positions: Sequence[int]
) -> tuple[Ranking, ...]:
    rows = restricted_rankings(tuple(sorted(applicants)))
    return tuple(rows[lists[t]] for t in sorted(positions))


def relabel_table(
    lists: Sequence[Ranking],
    applicant_map: Sequence[int],
    position_map: Sequence[int] | None = None,
) -> tuple[Ranking, ...]:
    """Apply a relabeling: applicant x becomes applicant_map[x]; the list of
    position i moves to slot position_map[i] (identity if omitted)."""
    relabeled = [tuple(applicant_map[x] for x in lst) for lst in lists]
    if position_map is None:
        return tuple(relabeled)
    out: list[Ranking] = [()] * len(lists)
    for i, lst in enumerate(relabeled):
        out[position_map[i]] = lst
    return tuple(out)


def relabelings(lists: Sequence[Ranking]) -> Iterator[tuple[Ranking, tuple[Ranking, ...]]]:
    """Each applicant relabeling sigma (x becomes sigma[x]) in
    ``permutations`` order, with the table's relabeled lists sorted.

    Positions count as an unordered multiset of lists, so two tables are
    relabelings of one another iff some sigma maps the sorted lists of one
    onto the sorted lists of the other.  This is the one search over the
    relabelings of a ranking table.
    """
    for sigma in permutations(range(len(lists[0]))):
        yield sigma, tuple(sorted(tuple(sigma[x] for x in lst) for lst in lists))


def canonical_table(lists: Sequence[Ranking]) -> tuple[Ranking, ...]:
    """Least representative of a priority table under relabeling: the least
    sorted table :func:`relabelings` yields.  Two tables are
    relabel-equivalent iff their canonical tables are equal.
    """
    return min(table for _, table in relabelings(lists))


# ---------------------------------------------------------------------------
# Spec operations on the dataclass layer.
# ---------------------------------------------------------------------------

def restrict(q: PrioritySet, r: Restriction) -> PrioritySet:
    """Priorities induced on r.applicants x r.positions, with indices
    relabeled order-preservingly to 0..m-1."""
    if r.applicants[-1] >= q.n or r.positions[-1] >= q.n:
        raise ValueError("restriction indices out of range for this market")
    return PrioritySet.from_rankings(
        restrict_table(q.rankings, r.applicants, r.positions)
    )


def enumerate_priority_sets(n: int) -> Iterator[PrioritySet]:
    """Yield all (n!)^n priority sets exactly once, in the lexicographic
    order of their tables: ``product(all_rankings(n), repeat=n)``, with
    position 0 the most significant."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return map(PrioritySet, product(all_rankings(n), repeat=n))


def restrictions(n: "int | PrioritySet", m: int) -> Iterator[Restriction]:
    """All C(n,m)^2 restrictions of an n-market to size m, in a fixed order
    (applicant subsets outermost, both in ascending combination order).
    Accepts the market size or a priority set."""
    if isinstance(n, PrioritySet):
        n = n.n
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    for s in combinations(range(n), m):
        for t in combinations(range(n), m):
            yield Restriction(s, t)
