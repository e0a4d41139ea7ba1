"""Window oracle and result checker for the benchmark.

The oracle computes every final window value straight from the records,
independently of the slicing code: the records are sorted by event time
once, each window's record range is found by bisection, and its value
comes from a prefix-sum array (sum, count, average) or a sparse table
(max, min).  Building both is O(n log n) and each window costs O(1)
after its two bisections, so the oracle keeps up with streams of
hundreds of thousands of records, where the exact-time oracle of
``repro.reference`` (one scan of the stream per window) does not.  That
oracle still checks this one on a prefix of every stream
(:func:`cross_check`).
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.types import Record, WindowResult
from repro.reference import reference_results
from repro.windows.sliding import SlidingWindow
from repro.windows.tumbling import TumblingWindow

#: (query_id, key, start, end) -> final value.
Expected = Dict[Tuple[int, object, int, int], object]

#: Sums fold in a different order in the operator than here, so they
#: may differ in the last bits; max and min must match exactly.
REL_TOL = 1e-9
ABS_TOL = 1e-9


def _window_bounds(window, lo_ts: int, hi_ts: int) -> Iterable[Tuple[int, int]]:
    """Every ``[start, end)`` of ``window`` that can hold a record in
    ``[lo_ts, hi_ts]`` (windows start at offset 0)."""
    if isinstance(window, TumblingWindow):
        length = slide = window.length
    elif isinstance(window, SlidingWindow):
        length, slide = window.length, window.slide
    else:
        raise TypeError(f"the oracle handles tumbling and sliding windows, not {window!r}")
    if window.offset != 0:
        raise ValueError("the oracle assumes windows at offset 0")
    first = max(0, (lo_ts - length) // slide + 1) * slide
    for start in range(first, hi_ts + 1, slide):
        yield start, start + length


class _Folds:
    """Range folds over one sorted value array."""

    def __init__(self, values: List[float]) -> None:
        self._values = values
        self._prefix = [0.0, *itertools.accumulate(values)]
        self._tables: Dict[str, List[List[float]]] = {}

    @staticmethod
    def _sparse(values: List[float], pick) -> List[List[float]]:
        table = [values]
        width = 1
        while 2 * width <= len(values):
            prev = table[-1]
            table.append(list(map(pick, prev[:-width], prev[width:])))
            width *= 2
        return table

    @staticmethod
    def _query(table: List[List[float]], pick, lo: int, hi: int) -> float:
        level = (hi - lo).bit_length() - 1
        row = table[level]
        return pick(row[lo], row[hi - (1 << level)])

    def value(self, name: str, lo: int, hi: int):
        if name == "sum":
            return self._prefix[hi] - self._prefix[lo]
        if name == "avg":
            return (self._prefix[hi] - self._prefix[lo]) / (hi - lo)
        if name == "count":
            return hi - lo
        pick = {"max": max, "min": min}.get(name)
        if pick is not None:
            table = self._tables.get(name)
            if table is None:
                table = self._tables[name] = self._sparse(self._values, pick)
            return self._query(table, pick, lo, hi)
        raise ValueError(f"the oracle has no fold for aggregation {name!r}")


def expected_windows(
    queries: Sequence[Tuple[int, object, object]],
    records: Sequence[Record],
    *,
    key: object = None,
    horizon: int | None = None,
) -> Expected:
    """Final value of every non-empty window of ``queries`` over ``records``.

    ``queries`` holds ``(query_id, window, aggregation)`` triples.  Only
    windows ending at or before ``horizon`` count; the default takes
    every window, as a flush at the end of the stream does.
    """
    ordered = sorted(records, key=lambda record: record.ts)
    if not ordered:
        return {}
    stamps = [record.ts for record in ordered]
    folds = _Folds([record.value for record in ordered])
    out: Expected = {}
    for query_id, window, aggregation in queries:
        for start, end in _window_bounds(window, stamps[0], stamps[-1]):
            if horizon is not None and end > horizon:
                break
            lo = bisect.bisect_left(stamps, start)
            hi = bisect.bisect_left(stamps, end, lo)
            if hi > lo:
                out[(query_id, key, start, end)] = folds.value(aggregation.name, lo, hi)
    return out


def keyed_expected_windows(queries, records: Sequence[Record]) -> Expected:
    """:func:`expected_windows` per record key, tagged with the key."""
    by_key: Dict[object, List[Record]] = {}
    for record in records:
        by_key.setdefault(record.key, []).append(record)
    out: Expected = {}
    for key, group in by_key.items():
        out.update(expected_windows(queries, group, key=key))
    return out


def _same(value, want) -> bool:
    if isinstance(value, float) or isinstance(want, float):
        return math.isclose(value, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return value == want


class Verdict:
    """Counts of window-level failures of one replay."""

    __slots__ = ("checked", "wrong", "missing", "extra", "duplicated")

    def __init__(self) -> None:
        self.checked = 0
        self.wrong = 0
        self.missing = 0
        self.extra = 0
        self.duplicated = 0

    @property
    def failed(self) -> int:
        return self.wrong + self.missing + self.extra + self.duplicated

    @property
    def attempted(self) -> int:
        """Expected windows, plus every emission that matched none."""
        return self.checked + self.extra + self.duplicated

    def __repr__(self) -> str:
        return (
            f"Verdict(checked={self.checked}, wrong={self.wrong}, missing={self.missing}, "
            f"extra={self.extra}, duplicated={self.duplicated})"
        )


def check(results: Iterable[WindowResult], expected: Expected, *, exactly_once: bool) -> Verdict:
    """Fold emissions to one final value per window and compare.

    An update result (``is_update``) replaces the window's earlier
    value.  A second non-update emission of a window is a duplicate, and
    on an exactly-once pipeline so is an update that repeats the
    previous emission verbatim (a re-delivery rather than a change).
    """
    verdict = Verdict()
    final: Dict[Tuple[int, object, int, int], object] = {}
    for result in results:
        window = (result.query_id, result.key, result.start, result.end)
        if window in final:
            if not result.is_update or (exactly_once and _same(final[window], result.value)):
                verdict.duplicated += 1
                continue
        final[window] = result.value
    verdict.checked = len(expected)
    for window, want in expected.items():
        if window not in final:
            verdict.missing += 1
        elif not _same(final[window], want):
            verdict.wrong += 1
    verdict.extra = sum(1 for window in final if window not in expected)
    return verdict


def self_check(results: List[WindowResult], expected: Expected, *, exactly_once: bool) -> str:
    """Show that :func:`check` counts one perturbed and one dropped result.

    Returns an empty string when it does, or what went wrong.
    """
    finals = [index for index, result in enumerate(results) if not result.is_update]
    if len(finals) < 2:
        return "self-check needs two emitted windows"
    baseline = check(results, expected, exactly_once=exactly_once).failed
    tampered = list(results)
    victim = tampered[finals[0]]
    tampered[finals[0]] = WindowResult(
        victim.query_id, victim.start, victim.end, victim.value + 1.0, victim.is_update, victim.key
    )
    del tampered[finals[1]]
    counted = check(tampered, expected, exactly_once=exactly_once).failed - baseline
    if counted != 2:
        return f"self-check: one perturbed and one dropped result counted as {counted} failures"
    return ""


def cross_check(
    queries: Sequence[Tuple[int, object, object]],
    records: Sequence[Record],
    *,
    key: object = None,
) -> str:
    """Compare this oracle with ``repro.reference`` on ``records``.

    Both see the same records and the horizon ``max_ts + 1`` the
    reference defaults to.  Returns an empty string when every window
    and value agree, or the first disagreement.
    """
    if not records:
        return "cross-check needs records"
    horizon = max(record.ts for record in records) + 1
    mine = expected_windows(queries, records, key=key, horizon=horizon)
    pairs = [(window, aggregation) for _, window, aggregation in queries]
    theirs = reference_results(pairs, list(records), horizon=horizon)
    ids = [query_id for query_id, _, _ in queries]
    translated = {
        (ids[index], key, start, end): value for (index, start, end), value in theirs.items()
    }
    if not translated:
        return "cross-check prefix holds no complete window"
    if mine.keys() != translated.keys():
        differ = sorted(mine.keys() ^ translated.keys(), key=repr)[:3]
        return f"cross-check: oracle and reference disagree on windows {differ}"
    for window, want in translated.items():
        if not _same(mine[window], want):
            return f"cross-check: window {window} is {mine[window]!r}, reference says {want!r}"
    return ""
