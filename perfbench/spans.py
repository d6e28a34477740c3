"""In-memory spans taken by the benchmark around calls into the program.

A span records its name (``<module>.<function>``), start, end, parent
span, the id of the market it belongs to, and counts noted at the same
boundary (nodes built, bytes written, profiles checked, ...).  Spans are
kept in memory and written out once the run ends.  Untraced passes use
:class:`NullTracer`, which has the same interface and records nothing,
or :class:`StepClock`, which only times each call into the program.
:class:`HostSpeed` times a fixed reference unit, so that times taken at
different host speeds can be put on one scale.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass
class Span:
    name: str
    market: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict[str, Any] = field(default_factory=dict)

    def note(self, **counts: Any) -> None:
        self.counts.update(counts)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NullSpan:
    def note(self, **counts: Any) -> None:
        pass


class NullTracer:
    """Tracer for untraced passes: every span is a no-op."""

    _span = _NullSpan()

    @contextmanager
    def span(self, name: str, market: str = "") -> Iterator[_NullSpan]:
        yield self._span


class StepClock(NullTracer):
    """Tracer for the timed untraced passes: it keeps no spans, only the
    wall and CPU seconds of each call into the program (every span not
    named ``perfbench.*``), in call order."""

    def __init__(self) -> None:
        self.steps: list[tuple[str, float, float]] = []

    @contextmanager
    def span(self, name: str, market: str = "") -> Iterator[_NullSpan]:
        if name.startswith("perfbench."):
            yield self._span
            return
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            yield self._span
        finally:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            self.steps.append((name, wall, cpu))


class FastestSteps:
    """For each call of a pass, the fastest wall and CPU seconds over the
    passes added so far.  Every pass must make the same calls in the same
    order."""

    def __init__(self) -> None:
        self.names: list[str] | None = None
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.passes = 0

    def add(self, steps: list[tuple[str, float, float]]) -> None:
        names = [name for name, _, _ in steps]
        if self.names is None:
            self.names = names
            self.wall = [wall for _, wall, _ in steps]
            self.cpu = [cpu for _, _, cpu in steps]
        elif names != self.names:
            raise RuntimeError("passes made different calls")
        else:
            self.wall = [min(a, wall) for a, (_, wall, _) in zip(self.wall, steps)]
            self.cpu = [min(a, cpu) for a, (_, _, cpu) in zip(self.cpu, steps)]
        self.passes += 1

    def totals(self) -> tuple[float, float]:
        """Wall and CPU seconds of one pass at the host's quietest."""
        return sum(self.wall), sum(self.cpu)


# The scale of the timed metrics: they read as seconds on a host where
# the reference unit's fastest run takes exactly this long.
REFERENCE_S = 1e-3


def reference_unit() -> list:
    """Fixed pure-Python work of about a millisecond: tuple keys, dict
    updates and a sort, the operations the program spends its time on.
    It never changes, so no program change can move it."""
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(3000):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


class HostSpeed:
    """Fastest wall and CPU seconds of :func:`reference_unit` so far.

    A slow stretch of a shared host can last the whole run and slow every
    call alike, so that even each call's fastest repeat is slow; the
    reference unit, timed between the passes, slows with them."""

    def __init__(self) -> None:
        self.wall = math.inf
        self.cpu = math.inf

    def sample(self, reps: int = 1) -> None:
        for _ in range(reps):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            reference_unit()
            self.wall = min(self.wall, time.perf_counter() - wall0)
            self.cpu = min(self.cpu, time.process_time() - cpu0)

    def scale(self, wall: float, cpu: float) -> tuple[float, float]:
        """Wall and CPU seconds on the scale of :data:`REFERENCE_S`."""
        return wall * REFERENCE_S / self.wall, cpu * REFERENCE_S / self.cpu


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, market: str = "") -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        span = Span(name, market, parent)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its
    direct children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(i, []), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def to_records(spans: list[Span]) -> list[dict[str, Any]]:
    """Spans as JSON-ready dicts, times in seconds from the first span."""
    origin = spans[0].start if spans else 0.0
    return [
        {
            "name": s.name,
            "market": s.market,
            "parent": s.parent,
            "start": s.start - origin,
            "end": s.end - origin,
            "self": self_s,
            "counts": s.counts,
        }
        for s, self_s in zip(spans, self_times(spans))
    ]
