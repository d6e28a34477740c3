"""Exhaustive sweeps over every priority set at small n.

These back the ``enumerate`` CLI subcommand and the desk-scale checks of
the classifier/scanner equivalence.  Priority sets are handled as tuples
of order ids and fed to the id-layer kernels of :mod:`ospmatch.classify`,
the same ones behind ``classify`` and ``scan_forbidden``, so a full pass
over the 331,776 sets at n = 4 stays cheap on one core.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .classify import IdTuple, block_bases, id_blocks, scan_ids
from .core import Ranking, all_rankings, canonical_table, priority_set_ids, ranking_id


@lru_cache(maxsize=None)
def _sigma_map(n: int) -> tuple[IdTuple, ...]:
    """For each applicant relabeling sigma: order id -> relabeled order id."""
    rankings = all_rankings(n)
    return tuple(
        tuple(ranking_id([sigma[x] for x in r]) for r in rankings)
        for sigma in permutations(range(n))
    )


@dataclass
class SweepResult:
    n: int
    total: int
    limited_cyclic: int
    mismatches: list[tuple[IdTuple, bool, str | None]]
    cyclic_no_small_witness: set[tuple[Ranking, ...]]


def sweep_equivalence(n: int) -> SweepResult:
    """Check classify == scan over every priority set at this n, counting
    verdicts and collecting the canonical forms of the cyclic sets that
    carry no size-3 forbidden restriction.

    One pass per set: the dominance blocks give both the verdict and the
    cyclic flag (a block of three or more), and the scan, which tries the
    4x4 restrictions only when no 3x3 one matches, gives both the letter
    and whether a size-3 witness exists."""
    total = lc_count = 0
    mismatches: list[tuple[IdTuple, bool, str | None]] = []
    hard: set[IdTuple] = set()
    for ids in priority_set_ids(n):
        total += 1
        blocks = id_blocks(n, ids)
        lc = block_bases(n, ids, blocks) is not None
        found = scan_ids(n, ids)
        letter = None if found is None else found[2]
        if lc != (letter is None):
            mismatches.append((ids, lc, letter))
        if lc:
            lc_count += 1
        small = found is not None and len(found[0]) == 3
        if not small and any(len(b) >= 3 for b in blocks):
            hard.add(tuple(sorted(ids)))
    rankings = all_rankings(n)
    canon = {canonical_table(tuple(rankings[i] for i in ids)) for ids in hard}
    return SweepResult(n, total, lc_count, mismatches, canon)


@dataclass
class ClassRow:
    canonical: tuple[Ranking, ...]
    count: int
    limited_cyclic: bool
    witness_letter: str | None


def class_census(n: int) -> list[ClassRow]:
    """One row per relabeling class: canonical form, member count, verdict,
    and the forbidden-pattern letter when one exists.

    Classes are met in ``priority_set_ids`` order, which is lexicographic,
    so a class is met at the least id tuple of its orbit.  Order ids are
    lexicographic too, so that tuple is the class's canonical table
    (:func:`ospmatch.core.canonical_table`), and the rows come out sorted
    by it."""
    rankings = all_rankings(n)
    sigma_maps = _sigma_map(n)
    visited: set[IdTuple] = set()
    rows: list[ClassRow] = []
    for ids in priority_set_ids(n):
        if ids in visited:
            continue
        orbit: set[IdTuple] = set()
        for mapping in sigma_maps:
            relabeled = sorted(mapping[i] for i in ids)
            orbit.update(permutations(relabeled))
        visited.update(orbit)
        found = scan_ids(n, ids)
        rows.append(
            ClassRow(
                tuple(rankings[i] for i in ids),
                len(orbit),
                block_bases(n, ids, id_blocks(n, ids)) is not None,
                None if found is None else found[2],
            )
        )
    return rows
