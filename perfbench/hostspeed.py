"""Host-speed calibration for the benchmark's timings.

On a shared host the interpreter's speed drifts by tens of percent over
seconds and minutes, because other tenants compete for the same cores
and caches.  Measuring more work does not remove the slow part of that
drift, so the timings of a run are scaled by the host's speed during the
run: a fixed calibration workload is timed between the measured
replays, and the run's timings are divided by ``(ns per calibration
record) / REFERENCE_NS``, its geometric mean over the run.  A figure
therefore reads as it would on a host that runs the calibration at
``REFERENCE_NS`` per record.  The host switches between a fast and a
slow speed every second or so: a median over the samples jumps between
the two, a mean follows the share of each.

Contention slows kinds of work unequally, so the calibration is a toy
of the program's own kind of work: records bisected into time slices
held in slotted objects, running aggregates, and old slices folded and
dropped, over a fixed stream with late records.  A tight loop of
arithmetic and dict stores slowed 1.3 to 1.7 times as much as the
program's replays (in log terms) and over-corrected.  The calibration
never touches the program, so a change to the program moves the scaled
figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

#: Nanoseconds per calibration record that scaled figures refer to,
#: about the calibration's mean speed on the 2-core host the bounds were
#: set on.
REFERENCE_NS = 450.0

#: Records timed per calibration sample (about 10 ms).
_SAMPLE = 20_000
#: Event-time length of a slice, and the slices a window spans.
_SLICE = 50
_WINDOW = 40


def _stream(count: int) -> list:
    """(time, value) records, 20% of them late by up to 400 time units."""
    rng = random.Random(12345)
    records, now = [], 0
    for _ in range(count):
        now += rng.randint(0, 2)
        late = rng.random() < 0.2
        records.append((max(0, now - rng.randint(0, 400)) if late else now, rng.random()))
    return records


_STREAM = _stream(100_000)
#: Where the next sample starts: the samples walk the whole stream.
_cursor = 0


class _Slice:
    __slots__ = ("start", "total", "count", "high", "records")

    def __init__(self, start: int) -> None:
        self.start = start
        self.total = 0.0
        self.count = 0
        self.high = float("-inf")
        self.records: list = []


def _slicing(records: list) -> dict:
    """Add each record to the slice that holds its time, cutting a new
    slice when it passes the last one and folding the slices that leave
    the window into a mean."""
    slices: list = []
    starts: list = []
    folded = {}
    for ts, value in records:
        index = bisect.bisect_right(starts, ts) - 1
        if index < 0 or ts >= starts[index] + _SLICE:
            if not slices or ts >= starts[-1] + _SLICE:
                slices.append(_Slice(ts - ts % _SLICE))
                starts.append(ts - ts % _SLICE)
                if len(slices) > _WINDOW:
                    gone = slices[:-_WINDOW]
                    folded[gone[-1].start] = sum(s.total for s in gone) / max(1, sum(s.count for s in gone))
                    del slices[:-_WINDOW]
                    del starts[:-_WINDOW]
                index = len(slices) - 1
            else:
                # Before the oldest slice, or in a gap between two.
                index = max(index, 0)
        piece = slices[index]
        piece.total += value
        piece.count += 1
        if value > piece.high:
            piece.high = value
        piece.records.append((ts, value))
    return folded


def sample_ns() -> float:
    """Nanoseconds per record of the calibration workload, now."""
    global _cursor
    start = _cursor
    _cursor = (start + _SAMPLE) % (len(_STREAM) - _SAMPLE)
    records = _STREAM[start : start + _SAMPLE]
    began = time.perf_counter_ns()
    _slicing(records)
    return (time.perf_counter_ns() - began) / _SAMPLE


class Monitor:
    """Calibration samples taken over one run."""

    def __init__(self) -> None:
        self.samples: list = []

    def sample(self, count: int = 1) -> None:
        self.samples.extend(sample_ns() for _ in range(count))

    @property
    def slowdown(self) -> float:
        """How much slower than the reference the host ran: divide a
        duration, or multiply a rate, by it."""
        return statistics.geometric_mean(self.samples) / REFERENCE_NS
