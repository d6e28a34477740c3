"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain priority
tables; the program only ever receives the ``PrioritySet`` built from
them.  The same seed always gives the same inputs, and
:func:`digest` condenses a list of inputs to one hash so that two runs
can show they measured the same thing.
"""
from __future__ import annotations

import hashlib
import json
import random
from typing import Sequence

Ranking = tuple[int, ...]
Table = tuple[Ranking, ...]

# Six applicants, four shared lists plus the two alternating ones: the
# flagship market of the acceptance suite.
STAR6: Table = (
    (0, 1, 2, 3, 4, 5),
    (0, 1, 2, 3, 4, 5),
    (0, 1, 2, 3, 4, 5),
    (0, 1, 2, 3, 4, 5),
    (0, 2, 1, 4, 3, 5),
    (1, 0, 3, 2, 5, 4),
)


def _rows(*rows: str) -> Table:
    return tuple(tuple("abcd".index(c) for c in row) for row in rows)


# The paper's irreducible non-implementable tables (letters a-e).
FORBIDDEN: tuple[Table, ...] = (
    _rows("abc", "bca", "cab"),
    _rows("abc", "abc", "cab"),
    _rows("abc", "abc", "cba"),
    _rows("abc", "abc", "bca"),
    _rows("abc", "acb", "cba"),
    _rows("abc", "bac", "cba"),
    _rows("abcd", "abdc", "acbd", "bacd"),
)


def _flip_adjacent(seq: Sequence[int]) -> list[int]:
    out = list(seq)
    for i in range(0, len(out) - 1, 2):
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


def random_limited_cyclic(rng: random.Random, sizes: Sequence[int], pair_flips: int) -> Table:
    """A limited-cyclic table with dominance blocks of the given sizes,
    top block first.

    Each block of three or more carries the two-adjacent-alternating
    pattern (shared list x everywhere except one position with u and one
    with v); each pair is reversed on ``pair_flips`` positions, which
    must lie in 1..n-1 so the pair really disagrees.  Applicants, the u/v
    positions and the flipped positions come from ``rng``.  Block sizes
    and flip counts are pinned by the caller because they set the size
    of the synthesized tree; the labels do not.
    """
    n = sum(sizes)
    if 2 in sizes and not 1 <= pair_flips < n:
        raise ValueError("a pair block needs 1..n-1 flipped positions")
    applicants = list(range(n))
    rng.shuffle(applicants)
    segments: list[list[list[int]]] = []  # per block: one ordering per position
    for size in sizes:
        block, applicants = applicants[:size], applicants[size:]
        if size >= 3:
            u = block[:1] + _flip_adjacent(block[1:])
            v = _flip_adjacent(block)
            u_pos, v_pos = rng.sample(range(n), 2)
            segments.append([u if p == u_pos else v if p == v_pos else block
                             for p in range(n)])
        elif size == 2:
            flipped = set(rng.sample(range(n), pair_flips))
            segments.append([block[::-1] if p in flipped else block for p in range(n)])
        else:
            segments.append([block] * n)
    return tuple(tuple(a for seg in segments for a in seg[p]) for p in range(n))


def random_not_limited_cyclic(rng: random.Random, n: int) -> Table:
    """A uniformly random n-table with one forbidden table planted on a
    random set of applicants and positions, so that it is not limited
    cyclic by construction, independently of the classifier."""
    pattern = rng.choice([t for t in FORBIDDEN if len(t) <= n])
    m = len(pattern)
    applicants = rng.sample(range(n), m)  # pattern applicant j -> applicants[j]
    positions = rng.sample(range(n), m)   # pattern row r -> positions[r]
    rows = [rng.sample(range(n), n) for _ in range(n)]
    planted = set(applicants)
    for r, pos in enumerate(positions):
        # keep the row's slots for the planted applicants, refill them in
        # the pattern's order; the other applicants stay where they were
        order = iter(applicants[j] for j in pattern[r])
        rows[pos] = [next(order) if a in planted else a for a in rows[pos]]
    return tuple(tuple(row) for row in rows)


def digest(payload: object) -> str:
    """Short stable hash of JSON-serialisable inputs."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
