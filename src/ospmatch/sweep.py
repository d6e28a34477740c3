"""Exhaustive sweeps over every priority set at small n.

These back the ``enumerate`` CLI subcommand and the desk-scale checks of
the classifier/scanner equivalence.  Priority sets are walked as ranking
tables (``sweep_equivalence`` every one, ``class_census`` the sorted ones)
and fed to the kernels of :mod:`ospmatch.classify`, the same ones behind
``classify`` and ``scan_forbidden``, so a full pass over the 331,776 sets
at n = 4 stays cheap on one core.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from math import factorial

from .classify import Table, block_bases, dominance_blocks, scan_table
from .core import Ranking, all_rankings, canonical_table


@lru_cache(maxsize=None)
def _sigma_map(n: int) -> tuple[dict[Ranking, Ranking], ...]:
    """For each applicant relabeling sigma: ranking -> relabeled ranking."""
    rankings = all_rankings(n)
    return tuple(
        {r: tuple([sigma[x] for x in r]) for r in rankings}
        for sigma in permutations(range(n))
    )


def _rankings(n: int) -> tuple[Ranking, ...]:
    """``all_rankings(n)``, the lists a table of size n >= 1 is made of."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return all_rankings(n)


def _orderings(table: Table) -> int:
    """How many tables list the rankings of ``table`` in some order."""
    out = factorial(len(table))
    for ranking in set(table):
        out //= factorial(table.count(ranking))
    return out


@dataclass
class SweepResult:
    n: int
    total: int
    limited_cyclic: int
    mismatches: list[tuple[Table, bool, str | None]]
    cyclic_no_small_witness: set[Table]


def sweep_equivalence(n: int) -> SweepResult:
    """Check classify == scan over every priority set at this n, counting
    verdicts and collecting the canonical forms of the cyclic sets that
    carry no size-3 forbidden restriction.

    One pass per set: the dominance blocks give both the verdict and the
    cyclic flag (a block of three or more), and the scan, which tries the
    4x4 restrictions only when no 3x3 one matches, gives both the letter
    and whether a size-3 witness exists."""
    total = lc_count = 0
    mismatches: list[tuple[Table, bool, str | None]] = []
    hard: set[Table] = set()
    for table in product(_rankings(n), repeat=n):
        total += 1
        blocks = dominance_blocks(table)
        lc = block_bases(table, blocks) is not None
        found = scan_table(table)
        letter = None if found is None else found[2]
        if lc != (letter is None):
            mismatches.append((table, lc, letter))
        if lc:
            lc_count += 1
        small = found is not None and len(found[0]) == 3
        if not small and any(len(b) >= 3 for b in blocks):
            hard.add(tuple(sorted(table)))
    canon = {canonical_table(table) for table in hard}
    return SweepResult(n, total, lc_count, mismatches, canon)


@dataclass
class ClassRow:
    canonical: Table
    count: int
    limited_cyclic: bool
    witness_letter: str | None


def class_census(n: int) -> list[ClassRow]:
    """One row per relabeling class: canonical form, member count, verdict,
    and the forbidden-pattern letter when one exists.

    The least table of a class lists its rankings in ascending order, so
    only such sorted tables are walked, and in lexicographic order: a
    class is met at the least table of its orbit, which is its canonical
    table (:func:`ospmatch.core.canonical_table`), and the rows come out
    sorted by it.  A class counts every order of the lists of each sorted
    table in its orbit."""
    sigma_maps = _sigma_map(n)
    visited: set[Table] = set()
    rows: list[ClassRow] = []
    for table in combinations_with_replacement(_rankings(n), n):
        if table in visited:
            continue
        orbit = {tuple(sorted([mapping[r] for r in table])) for mapping in sigma_maps}
        visited |= orbit
        found = scan_table(table)
        rows.append(
            ClassRow(
                table,
                sum(map(_orderings, orbit)),
                block_bases(table, dominance_blocks(table)) is not None,
                None if found is None else found[2],
            )
        )
    return rows
