"""Mergeable run metrics: counters and timings with one-pass semantics.

Instrumented code (result stores, the executor) records into a
*process-local* accumulator through two cheap module-level calls --
:func:`counter_inc` and :func:`timing_observe` -- that cost one dict
update per event.  The accumulator is the observability twin of
:class:`repro.fleet.metrics.FleetAccumulator`: a fixed-size sufficient
statistic whose :meth:`ObsAccumulator.merge` is associative,
commutative, and exact, so any partition of the recorded events -- one
serial process, or N pool workers shipping per-unit deltas back through
the normal result path -- merges to the totals a single serial pass
would have produced.

:func:`observed_call` is the worker-side wrapper the executor's
observed map uses: it runs one work unit, snapshots the process-local
accumulator (everything recorded since the previous unit on that
worker), and returns ``{"result", "obs"}`` so the measurement rides the
existing result path -- same pickling, same submission-order delivery.

Nothing here touches RNG streams, cache keys, or result payloads: the
accumulator is observability state only, and a traced run stays
bit-identical to an untraced one.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "ObsAccumulator",
    "Timing",
    "counter_inc",
    "observed_call",
    "take_global",
    "timed",
    "timing_observe",
]


@dataclass
class Timing:
    """One named duration's mergeable summary: count/total/min/max.

    The min/max fold is exact under merge; percentiles need the raw
    spans, which the tracer keeps per unit -- this class is the cheap
    always-on aggregate.
    """

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def merge(self, other: "Timing") -> "Timing":
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def to_payload(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            # JSON has no Infinity; an empty timing round-trips as null.
            "min": None if math.isinf(self.min) else self.min,
            "max": self.max,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Timing":
        return cls(
            count=int(payload["count"]),
            total=float(payload["total"]),
            min=math.inf if payload["min"] is None else float(payload["min"]),
            max=float(payload["max"]),
        )


@dataclass
class ObsAccumulator:
    """Named counters plus named timings, merged by addition.

    The merge is order-invariant (sums, min/max), so shard deltas from
    any worker layout reduce to exactly one serial pass's totals --
    regression-pinned by ``tests/test_obs_metrics.py``.
    """

    counters: dict[str, float] = field(default_factory=dict)
    timings: dict[str, Timing] = field(default_factory=dict)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, seconds: float) -> None:
        timing = self.timings.get(name)
        if timing is None:
            timing = self.timings[name] = Timing()
        timing.observe(seconds)

    def merge(self, other: "ObsAccumulator") -> "ObsAccumulator":
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, timing in other.timings.items():
            mine = self.timings.get(name)
            if mine is None:
                self.timings[name] = Timing(
                    timing.count, timing.total, timing.min, timing.max
                )
            else:
                mine.merge(timing)
        return self

    def merge_payload(self, payload: dict) -> "ObsAccumulator":
        return self.merge(self.from_payload(payload))

    @property
    def empty(self) -> bool:
        return not self.counters and not self.timings

    def to_payload(self) -> dict:
        """JSON-safe snapshot (sorted keys, so traces diff cleanly)."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "timings": {
                k: self.timings[k].to_payload() for k in sorted(self.timings)
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ObsAccumulator":
        acc = cls()
        for name, value in payload.get("counters", {}).items():
            acc.counters[name] = value
        for name, body in payload.get("timings", {}).items():
            acc.timings[name] = Timing.from_payload(body)
        return acc


# ----------------------------------------------------------------------
# The process-local accumulator instrumented code records into
# ----------------------------------------------------------------------

_GLOBAL = ObsAccumulator()


def counter_inc(name: str, value: float = 1) -> None:
    """Record ``value`` onto a named counter (one dict update)."""
    _GLOBAL.count(name, value)


def timing_observe(name: str, seconds: float) -> None:
    """Record one duration onto a named timing (one dict update)."""
    _GLOBAL.observe(name, seconds)


@contextmanager
def timed(name: str):
    """Time a block onto a named timing."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timing_observe(name, time.perf_counter() - start)


def take_global() -> dict:
    """Snapshot-and-reset the process-local accumulator.

    Returns the payload of everything recorded since the previous take
    (the *delta*, which is what makes per-unit shipping mergeable), and
    starts a fresh accumulator.
    """
    global _GLOBAL
    snapshot, _GLOBAL = _GLOBAL, ObsAccumulator()
    return snapshot.to_payload()


# ----------------------------------------------------------------------
# Worker-side unit wrapper
# ----------------------------------------------------------------------


def observed_call(fn: Callable, unit) -> dict:
    """Evaluate one work unit and attach its observability delta.

    Module-level (shipped via ``functools.partial``) so it pickles into
    any pool.  ``start_mono`` is ``time.monotonic()`` -- comparable
    across processes on the platforms the pool runs on -- so the parent
    can derive queue latency from its own submission timestamp.
    """
    start_mono = time.monotonic()
    start = time.perf_counter()
    result = fn(unit)
    elapsed = time.perf_counter() - start
    return {
        "result": result,
        "obs": {
            "pid": os.getpid(),
            "start_mono": start_mono,
            "exec_s": elapsed,
            "metrics": take_global(),
        },
    }
