"""The fused in-order path of ``GeneralSlicingOperator.process_record``.

An in-order record that stays below the stream slicer's ``bound`` is
folded straight into the open head slice without entering the slicer.
These tests pin that the shortcut is invisible: results, emission order,
slice state and tracer counters match the exact per-record path, every
safety behaviour still fires after the shortcut has run, and query
changes switch it off and on again.
"""

import random

import pytest

from repro import GeneralSlicingOperator, Record, StreamOrderViolation, Watermark
from repro.aggregations import First, Median, Sum
from repro.core.measures import MeasureKind
from repro.core.stream_slicer import StreamSlicer
from repro.reference import reference_results
from repro.runtime.checkpoint import restore, snapshot
from repro.windows import CountTumblingWindow, SessionWindow, SlidingWindow, TumblingWindow

COUNTERS = ("operator.records", "slicer.cuts", "slicer.edge_lookups", "slicer.slices_created")

AGGREGATIONS = {
    "sum": [Sum],
    "sum+median": [Sum, Median],
    "sum+first": [Sum, First],
}


class _ExactSlicer(StreamSlicer):
    """A slicer that never publishes a bound: every record takes the
    exact path while the edge cache stays on."""

    bound = property(lambda self: None, lambda self, value: None)


def build(aggregations, *, eager, in_order, lateness=0):
    operator = GeneralSlicingOperator(
        stream_in_order=in_order, eager=eager, allowed_lateness=lateness
    )
    for make in aggregations:
        operator.add_query(TumblingWindow(10), make())
        operator.add_query(SlidingWindow(30, 10), make())
    return operator


def exact_path(operator):
    """Pin every chain of ``operator`` to the exact path."""
    for chain in operator._chains.values():
        chain.slicer.__class__ = _ExactSlicer
    return operator


def uncached(operator):
    """The edge-cache ablation: no cached edge, hence no bound."""
    for chain in operator._chains.values():
        chain.slicer.cache_edges = False
    return operator


def emitted(operator, elements):
    out = []
    for element in elements:
        out.extend(
            (r.query_id, r.start, r.end, r.value, r.is_update)
            for r in operator.process(element)
        )
    return out


def slice_state(operator):
    return [
        (s.start, s.end, s.first_ts, s.last_ts, s.record_count, list(s.aggs), s.records)
        for chain in operator._chains.values()
        for s in chain.store.slices
    ]


def counters(operator):
    return {name: operator.tracer.value(name) for name in COUNTERS}


@pytest.fixture
def slicer_calls(monkeypatch):
    """Count ``StreamSlicer.ensure_open_slice`` calls on every chain."""
    calls = []
    original = StreamSlicer.ensure_open_slice

    def counting(self, ts, count_position):
        calls.append(ts)
        return original(self, ts, count_position)

    monkeypatch.setattr(StreamSlicer, "ensure_open_slice", counting)
    return calls


def edge_cases_stream():
    """In-order records: exactly at edges, repeats of the newest
    timestamp, and gaps that skip several edges."""
    ts_list = [0, 0, 3, 9, 10, 10, 10, 11, 19, 20, 57, 57, 58, 60, 61, 130, 130, 139, 140]
    rng = random.Random(7)
    ts = 141
    for _ in range(300):
        ts += rng.choice([0, 0, 1, 2, 5, 10, 37])
        ts_list.append(ts)
    return [Record(t, float(i % 13)) for i, t in enumerate(ts_list)]


def ooo_stream_with_evictions():
    """In-order runs, a few late records and watermarks that evict."""
    rng = random.Random(11)
    elements = []
    ts = 0
    for step in range(400):
        ts += rng.choice([0, 1, 3, 10])
        if step % 40 == 39:
            elements.append(Record(max(0, ts - rng.randrange(1, 25)), 100.0))
        elements.append(Record(ts, float(step % 7)))
        if step % 50 == 49:
            elements.append(Watermark(ts - 5))
    elements.append(Watermark(ts + 100))
    return elements


STREAMS = {
    "in-order": (True, edge_cases_stream() + [Watermark(10**6)]),
    "out-of-order": (False, ooo_stream_with_evictions()),
}


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("aggregations", sorted(AGGREGATIONS))
@pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
class TestFusedEqualsExact:
    def _run(self, variant, aggregations, eager, stream):
        in_order, elements = STREAMS[stream]
        operator = variant(
            build(AGGREGATIONS[aggregations], eager=eager, in_order=in_order, lateness=20)
        )
        operator.enable_tracing()
        return operator, emitted(operator, elements)

    def test_identical_to_exact_path(self, eager, aggregations, stream, slicer_calls):
        fused, fused_out = self._run(lambda op: op, aggregations, eager, stream)
        fused_calls = len(slicer_calls)
        exact, exact_out = self._run(exact_path, aggregations, eager, stream)
        assert fused_out == exact_out
        assert slice_state(fused) == slice_state(exact)
        assert counters(fused) == counters(exact)
        # The shortcut really ran: most records skipped the slicer.
        assert fused_calls < (len(slicer_calls) - fused_calls) / 2

    def test_identical_to_uncached_slicer(self, eager, aggregations, stream):
        fused, fused_out = self._run(lambda op: op, aggregations, eager, stream)
        plain, plain_out = self._run(uncached, aggregations, eager, stream)
        assert fused_out == plain_out
        assert slice_state(fused) == slice_state(plain)
        same = [name for name in COUNTERS if name != "slicer.edge_lookups"]
        assert {n: counters(fused)[n] for n in same} == {n: counters(plain)[n] for n in same}
        # Without the cache every record looks its edge up again.
        assert counters(plain)["slicer.edge_lookups"] > counters(fused)["slicer.edge_lookups"]

    def test_record_storing_variants_store_records(self, eager, aggregations, stream):
        operator, _ = self._run(lambda op: op, aggregations, eager, stream)
        stores = aggregations == "sum+median" or (
            aggregations == "sum+first" and stream == "out-of-order"
        )
        assert operator.stores_records == stores


class TestSlicerBound:
    def test_bound_is_the_cached_edge_once_a_record_passed(self):
        operator = build([Sum], eager=False, in_order=True)
        slicer = operator._fused_chain.slicer
        assert slicer.bound is None
        operator.process(Record(3, 1.0))
        assert slicer.bound == slicer.cached_time_edge == 10

    def test_cache_edges_off_clears_the_bound(self):
        operator = build([Sum], eager=False, in_order=True)
        operator.process(Record(3, 1.0))
        slicer = operator._fused_chain.slicer
        slicer.cache_edges = False
        assert slicer.bound is None
        operator.process(Record(4, 1.0))
        assert slicer.bound is None

    def test_eviction_clears_the_bound(self):
        operator = build([Sum], eager=True, in_order=False)
        for ts in range(100):
            operator.process(Record(ts, 1.0))
        slicer = operator._fused_chain.slicer
        assert slicer.bound == 100
        operator.process(Watermark(95))  # evicts the slices ending <= 65
        assert slicer.bound is None
        operator.process(Record(100, 1.0))
        assert slicer.bound == 110

    def test_gap_slice_clears_the_bound(self):
        operator = build([Sum], eager=False, in_order=False, lateness=100)
        for ts in (0, 50, 51):
            operator.process(Record(ts, 1.0))
        slicer = operator._fused_chain.slicer
        assert slicer.bound == 60
        operator.process(Record(25, 1.0))  # late, into a record-free region
        assert slicer.bound is None
        operator.process(Record(52, 1.0))
        assert slicer.bound == 60


def _phase(operator, records, horizon, queries, arrived):
    """Feed one phase and compare it with the reference on its records;
    ``arrived`` records were fed before it."""
    elements = records + [Watermark(horizon)]
    got = {}
    for element in elements:
        for r in operator.process(element):
            got[(r.query_id, r.start, r.end)] = r.value
    ids = [q.query_id for q in operator.queries]
    expected = reference_results(queries, records, horizon=horizon)
    # Count positions are global: the reference counts from zero.
    shift = [arrived if w.measure_kind is MeasureKind.COUNT else 0 for w, _ in queries]
    assert got == {
        (ids[i], s + shift[i], e + shift[i]): v for (i, s, e), v in expected.items()
    }


class TestRecompileOnQueryChange:
    @pytest.mark.parametrize(
        "window", [SessionWindow(7), CountTumblingWindow(5)], ids=["session", "count"]
    )
    def test_change_routes_to_exact_path_and_back(self, window, slicer_calls):
        rng = random.Random(3)

        def records(lo, hi):
            timestamps = sorted(rng.sample(range(lo, hi), 150))
            return [Record(ts, float(rng.randrange(10))) for ts in timestamps]

        operator = GeneralSlicingOperator(stream_in_order=True)
        tumbling = (TumblingWindow(10), Sum())
        operator.add_query(*tumbling)

        phase = records(0, 200)
        _phase(operator, phase, 2000, [tumbling], 0)
        assert len(slicer_calls) < len(phase) / 2

        added = operator.add_query(window, Sum())
        del slicer_calls[:]
        phase = records(3000, 3200)
        _phase(operator, phase, 5000, [tumbling, (window, Sum())], 150)
        assert operator._fused_chain is None or operator._fused_chain.slicer.bound is None
        # Every record went through every chain's slicer.
        assert len(slicer_calls) == len(phase) * len(operator._chains)

        operator.remove_query(added.query_id)
        del slicer_calls[:]
        phase = records(6000, 6200)
        _phase(operator, phase, 8000, [tumbling], 300)
        assert len(slicer_calls) < len(phase) / 2


class TestSafetyAfterFusedRecords:
    def _warm(self, operator, slicer_calls, upto=60):
        for ts in range(0, upto, 2):
            operator.process(Record(ts, 1.0))
        assert len(slicer_calls) < upto / 4  # the fused path served most

    def test_late_record_still_raises_on_in_order_operator(self, slicer_calls):
        operator = build([Sum], eager=False, in_order=True)
        self._warm(operator, slicer_calls)
        with pytest.raises(StreamOrderViolation):
            operator.process(Record(57, 1.0))

    def test_record_beyond_lateness_is_dropped_and_handed_over(self, slicer_calls):
        operator = build([Sum], eager=True, in_order=False, lateness=5)
        late = []
        operator.on_late_record = late.append
        self._warm(operator, slicer_calls)
        operator.process(Watermark(50))
        too_late = Record(40, 1.0)
        assert operator.process(too_late) == []
        assert operator.dropped_late_records == 1
        assert late == [too_late]

    def test_timestamp_extractor_retimes_every_record(self, slicer_calls):
        operator = GeneralSlicingOperator(
            stream_in_order=True, timestamp_of=lambda record: int(record.value)
        )
        query = (TumblingWindow(10), Sum())
        operator.add_query(*query)
        # Event-times are constant; the extracted measure advances.
        records = [Record(0, float(v)) for v in range(0, 95, 3)]
        out = emitted(operator, records + [Watermark(10**6)])
        assert len(slicer_calls) == len(records)
        retimed = [Record(int(r.value), r.value) for r in records]
        expected = reference_results([query], retimed, horizon=10**6)
        assert {(s, e): v for _, s, e, v, _ in out} == {
            (s, e): v for (_, s, e), v in expected.items()
        }

    @pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
    def test_snapshot_between_fused_records_resumes_identically(self, eager, slicer_calls):
        stream = edge_cases_stream()
        head, tail = stream[:200], stream[200:]
        whole = build([Sum, Median], eager=eager, in_order=True)
        expected = emitted(whole, stream + [Watermark(10**6)])

        operator = build([Sum, Median], eager=eager, in_order=True)
        out = emitted(operator, head)
        assert operator._fused_chain.slicer.bound is not None
        resumed = restore(snapshot(operator))
        assert resumed._fused_chain is resumed._chain_list[0]
        assert resumed._fused_chain.slicer.bound == operator._fused_chain.slicer.bound
        del slicer_calls[:]
        out += emitted(resumed, tail + [Watermark(10**6)])
        assert out == expected
        assert len(slicer_calls) < len(tail) / 2
