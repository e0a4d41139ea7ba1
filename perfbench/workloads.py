"""The benchmark's four workloads.

Each workload builds its input stream from the seed with the repo's
``repro.data`` generators, computes the expected windows with the
oracle, and knows how to build the program objects and replay the
stream through them in three ways:

* ``throughput``: the clocked replay, with no timer inside the loop;
* ``latency``: the same replay with a clock read around each hand-off
  to the program and at each result it gives back;
* ``state``: the same replay with the operator state sized at fixed
  points, outside any clock.

Every replay returns its window results, which the caller checks.  All
workloads are closed loops: one caller in one process hands the next
element over only when the program has returned from the previous one.
"""

from __future__ import annotations

import bisect
import random
import resource
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.aggregations import Average, Max, Min, Sum
from repro.core.operator_ import GeneralSlicingOperator
from repro.core.types import Watermark, WindowResult
from repro.data import dashboard_windows, football_keyed_stream, football_stream
from repro.runtime.checkpoint import restore
from repro.runtime.disorder import inject_disorder, with_watermarks
from repro.runtime.durability import DeadLetterQueue, DiskCheckpointStore, InMemoryStore
from repro.runtime.faults import FaultInjectingOperator
from repro.runtime.memory import deep_sizeof
from repro.runtime.pipeline import CollectSink
from repro.runtime.recovery import SupervisedPipeline
from repro.runtime.sharded import ShardedPipeline
from repro.runtime.sources import ReplayableSource
from repro.windows.sliding import SlidingWindow

import oracle

clock = time.perf_counter_ns

#: Operator state is sized at this many evenly spaced stream positions.
STATE_SAMPLES = 20


class Replay:
    """What one pass through the program produced."""

    def __init__(self) -> None:
        self.results: List[WindowResult] = []
        #: Elements handed to the program, and how many of those raised.
        self.calls = 0
        self.failed_calls = 0
        self.seconds = 0.0
        #: Latency pass: per-element durations, and (window, duration)
        #: of the first emission of each window (ns).
        self.element_ns: List[int] = []
        self.emit_ns: List[tuple] = []
        #: State pass: largest deep size seen.
        self.state_bytes = 0
        #: Workload-specific figures (CPU split, recovery counts).
        self.extra: Dict[str, float] = {}


def dashboard_operator() -> GeneralSlicingOperator:
    """Lazy in-order operator with the paper's 20 dashboard windows.

    Module level so that the sharded pipeline can pickle it.
    """
    operator = GeneralSlicingOperator(stream_in_order=True)
    for window in dashboard_windows(20):
        operator.add_query(window, Sum())
    return operator


def _window(result: WindowResult) -> tuple:
    return (result.query_id, result.key, result.start, result.end)


def _queries(operator) -> list:
    return [(query.query_id, query.window, query.aggregation) for query in operator.queries]


class Workload:
    """Inputs, expected output and replays of one workload."""

    name = ""
    why = ""
    #: A window emitted twice is a duplicate even as an update.
    exactly_once = False
    #: Records fed to the program per replay.
    records = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.elements: list = []
        self.expected: oracle.Expected = {}
        self.params: Dict[str, object] = {}

    def setup(self, trace: bool = False):
        """Program objects, ready for the first element."""
        raise NotImplementedError

    def teardown(self, program) -> None:
        """Release what :meth:`setup` acquired outside the process."""

    def throughput(self, program) -> Replay:
        raise NotImplementedError

    def latency(self, program) -> Replay:
        raise NotImplementedError

    def state(self, program) -> Replay:
        raise NotImplementedError

    def counters(self, program) -> Dict[str, int]:
        """The program's tracer counters after a traced replay."""
        return dict(program.tracer.counters)

    def kernel_selection(self, program) -> dict:
        return {}

    def cross_check(self) -> str:
        """Check the oracle against ``repro.reference`` on a prefix."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# single operators fed per element through ``process``


class OperatorWorkload(Workload):
    """One ``GeneralSlicingOperator`` fed element by element."""

    def make_operator(self) -> GeneralSlicingOperator:
        raise NotImplementedError

    def setup(self, trace: bool = False):
        operator = self.make_operator()
        if trace:
            operator.enable_tracing()
        return operator

    def kernel_selection(self, program) -> dict:
        return program.kernel_selection

    def throughput(self, program) -> Replay:
        replay = Replay()
        out = replay.results
        process = program.process
        failed = 0
        began = clock()
        for element in self.elements:
            try:
                emitted = process(element)
            except Exception:
                failed += 1
                continue
            if emitted:
                out.extend(emitted)
        out.extend(program.flush())
        replay.seconds = (clock() - began) / 1e9
        replay.calls = len(self.elements)
        replay.failed_calls = failed
        return replay

    def latency(self, program) -> Replay:
        replay = Replay()
        out = replay.results
        element_ns = replay.element_ns
        emit_ns = replay.emit_ns
        process = program.process
        for element in self.elements:
            began = clock()
            try:
                emitted = process(element)
            except Exception:
                replay.failed_calls += 1
                continue
            took = clock() - began
            element_ns.append(took)
            if emitted:
                out.extend(emitted)
                emit_ns.extend((_window(result), took) for result in emitted)
        # The end-of-stream flush is no element: its results are checked
        # but not timed.
        out.extend(program.flush())
        replay.calls = len(self.elements)
        return replay

    def state(self, program) -> Replay:
        replay = Replay()
        out = replay.results
        step = max(1, len(self.elements) // STATE_SAMPLES)
        largest = 0
        for index, element in enumerate(self.elements):
            try:
                out.extend(program.process(element))
            except Exception:
                replay.failed_calls += 1
            if index % step == step - 1:
                largest = max(largest, deep_sizeof(program.state_objects()))
        out.extend(program.flush())
        replay.calls = len(self.elements)
        replay.state_bytes = largest
        return replay


class InorderDashboard(OperatorWorkload):
    name = "inorder_dashboard"
    why = (
        "Fig. 8: in-order per-record path (operator dispatch, stream slicer, "
        "Slice.add_inorder) with 20 lazy tumbling windows; slice manager and kernels never run"
    )
    records = 560_000

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.params = {
            "generator": "repro.data.football_stream",
            "records": self.records,
            "rate_hz": 2000,
            "gaps_per_minute": 5,
            "seed": seed,
            "queries": "dashboard_windows(20) x Sum, lazy, stream_in_order=True",
        }
        self.elements = football_stream(self.records, seed=seed)
        self.expected = oracle.expected_windows(_queries(self.make_operator()), self.elements)

    def make_operator(self) -> GeneralSlicingOperator:
        return dashboard_operator()

    def cross_check(self) -> str:
        # 10 000 records span 5 s: the 1-5 s windows complete.
        return oracle.cross_check(_queries(self.make_operator()), self.elements[:10_000])


class OooSlidingEager(OperatorWorkload):
    name = "ooo_sliding_eager"
    why = (
        "Figs. 9/12: 20% late records, delays U[0,2s], 10s/100ms sliding Sum/Max/Min/Avg "
        "on an eager store; slice manager, kernels and window manager dominate"
    )
    records = 100_000
    lateness = 2_000

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.params = {
            "generator": "repro.data.football_stream + inject_disorder + with_watermarks",
            "records": self.records,
            "seed": seed,
            "disorder": {"fraction": 0.2, "max_delay_ms": 2000, "seed": seed + 1},
            "watermark_interval_ms": 250,
            "queries": "SlidingWindow(10000, 100) x {Sum, Max, Min, Average}, eager, auto kernel",
            "allowed_lateness_ms": self.lateness,
        }
        records = football_stream(self.records, seed=seed)
        disordered = inject_disorder(records, 0.2, 2_000, seed=seed + 1)
        self.elements = list(with_watermarks(disordered, interval=250, max_delay=2_000))
        self.expected = oracle.expected_windows(_queries(self.make_operator()), records)
        self._records = records

    def make_operator(self) -> GeneralSlicingOperator:
        operator = GeneralSlicingOperator(eager=True, allowed_lateness=self.lateness)
        for aggregation in (Sum(), Max(), Min(), Average()):
            operator.add_query(SlidingWindow(10_000, 100), aggregation)
        return operator

    def cross_check(self) -> str:
        # 24 000 records span 12 s: the first twenty 10 s windows complete.
        return oracle.cross_check(_queries(self.make_operator()), self._records[:24_000])


# ----------------------------------------------------------------------
# runtime pipelines fed the whole stream in one ``run`` call


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class _PullStamps:
    """Iterates the elements, stamping the time of every pull."""

    def __init__(self, elements: list) -> None:
        self.elements = elements
        self.stamps: List[int] = []

    def __iter__(self):
        stamps = self.stamps
        for element in self.elements:
            stamps.append(clock())
            yield element


class _CapturingStore(InMemoryStore):
    """In-memory store (one generation, the default) that also keeps
    every checkpoint blob it is handed, to size the state later."""

    def __init__(self) -> None:
        super().__init__(keep=1)
        self.blobs: List[bytes] = []

    def save(self, blob, *, cursor, records_processed, meta=None) -> int:
        self.blobs.append(bytes(blob))
        return super().save(blob, cursor=cursor, records_processed=records_processed, meta=meta)


class KeyedSharded(Workload):
    name = "keyed_sharded"
    why = (
        "Only workload with routing, queue transport, the watermark-aligned merge and "
        "checkpoint shipping: 32 keys through ShardedPipeline with one worker"
    )
    exactly_once = True
    records = 60_000
    keys = 32

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.params = {
            "generator": "repro.data.football_keyed_stream + with_watermarks",
            "records": self.records,
            "keys": self.keys,
            "seed": seed,
            "watermark_interval_ms": 1000,
            "pipeline": "ShardedPipeline(parallelism=1), default batch_size, queue_capacity, checkpoint_every",
            "per_key_operator": "dashboard_windows(20) x Sum, lazy, stream_in_order=True",
        }
        records = football_keyed_stream(self.records, self.keys, seed=seed)
        self.elements = list(with_watermarks(records, interval=1_000))
        self.expected = oracle.keyed_expected_windows(_queries(dashboard_operator()), records)
        self._records = records

    def setup(self, trace: bool = False):
        return ShardedPipeline(dashboard_operator, 1, trace=trace)

    def _run(self, pipeline, elements, replay: Replay) -> None:
        replay.calls = len(self.elements)
        try:
            replay.results = pipeline.run(elements)
        except Exception:
            replay.failed_calls = replay.calls

    def throughput(self, program) -> Replay:
        replay = Replay()
        coordinator = _cpu_seconds(resource.RUSAGE_SELF)
        workers = _cpu_seconds(resource.RUSAGE_CHILDREN)
        began = clock()
        self._run(program, self.elements, replay)
        replay.seconds = (clock() - began) / 1e9
        replay.extra = {
            "coordinator_cpu_s": _cpu_seconds(resource.RUSAGE_SELF) - coordinator,
            "worker_cpu_s": _cpu_seconds(resource.RUSAGE_CHILDREN) - workers,
            "shard.batches": program.tracer.value("shard.batches"),
            "shard.queue_full_waits": program.tracer.value("shard.queue_full_waits"),
        }
        return replay

    def latency(self, program) -> Replay:
        """Element latency: the time between two pulls of the input, the
        coordinator's cost of taking one element.  Emit latency: from
        the pull of the watermark that closes a result's epoch to
        ``run`` returning, which is when the caller gets its results
        (results of the final flush are not timed)."""
        pulls = _PullStamps(self.elements)
        replay = Replay()
        self._run(program, pulls, replay)
        returned = clock()
        stamps = pulls.stamps
        replay.element_ns = [b - a for a, b in zip(stamps, stamps[1:])]
        replay.emit_ns = [
            (_window(result), returned - stamps[mark])
            for result, mark in zip(replay.results, self._closing_watermarks(replay.results))
            if mark is not None
        ]
        return replay

    def _closing_watermarks(self, results: List[WindowResult]) -> List[Optional[int]]:
        """Stream position of the watermark that closes each result's
        epoch, or None for results of the end-of-stream flush.

        A per-key in-order operator emits window ``[start, end)`` at the
        first record of its key, or the first watermark, at or past
        ``end``; the epoch closes at the first watermark from there on.
        """
        marks: List[int] = []
        mark_ts: List[int] = []
        key_ts: Dict[object, List[int]] = {}
        key_pos: Dict[object, List[int]] = {}
        for position, element in enumerate(self.elements):
            if isinstance(element, Watermark):
                marks.append(position)
                mark_ts.append(element.ts)
            else:
                key_ts.setdefault(element.key, []).append(element.ts)
                key_pos.setdefault(element.key, []).append(position)
        closing: List[Optional[int]] = []
        never = len(self.elements)
        for result in results:
            stamps = key_ts.get(result.key, [])
            at = bisect.bisect_left(stamps, result.end)
            trigger = key_pos[result.key][at] if at < len(stamps) else never
            at = bisect.bisect_left(mark_ts, result.end)
            if at < len(marks):
                trigger = min(trigger, marks[at])
            at = bisect.bisect_left(marks, trigger)
            closing.append(marks[at] if at < len(marks) else None)
        return closing

    def state(self, program) -> Replay:
        """Operator state lives in the worker: it is sized from each
        checkpoint the worker ships, restored outside any clock."""
        store = _CapturingStore()
        pipeline = ShardedPipeline(dashboard_operator, 1, store_factory=lambda _: store)
        replay = Replay()
        self._run(pipeline, self.elements, replay)
        replay.state_bytes = max(
            (deep_sizeof(restore(blob).state_objects()) for blob in store.blobs), default=0
        )
        return replay

    def cross_check(self) -> str:
        prefix = self._records[:10_000]
        queries = _queries(dashboard_operator())
        for key in (0, 1):
            problem = oracle.cross_check(queries, [r for r in prefix if r.key == key], key=key)
            if problem:
                return problem
        return ""


class _SharedSource(ReplayableSource):
    """Replayable source over the caller's list (the base class copies it)."""

    def __init__(self, elements: list) -> None:
        self._elements = elements


class _StampedSource(_SharedSource):
    """Replayable source that stamps every read by cursor."""

    def __init__(self, elements: list) -> None:
        super().__init__(elements)
        self.reads: List[tuple] = []

    def read(self, cursor: int, count: int):
        self.reads.append((cursor, clock()))
        return super().read(cursor, count)


class _StampedSink(CollectSink):
    def __init__(self) -> None:
        super().__init__()
        self.stamps: List[int] = []

    def emit(self, result: WindowResult) -> None:
        self.stamps.append(clock())
        self.results.append(result)


class _SamplingSource(_SharedSource):
    """Replayable source that sizes the operator state at fixed cursors."""

    def __init__(self, elements: list, pipeline, every: int) -> None:
        super().__init__(elements)
        self._pipeline = pipeline
        self._every = every
        self.largest = 0

    def read(self, cursor: int, count: int):
        if cursor and cursor % self._every < count:
            size = deep_sizeof(self._pipeline.operator.state_objects())
            self.largest = max(self.largest, size)
        return super().read(cursor, count)


class SupervisedBatched(Workload):
    name = "supervised_batched"
    why = (
        "Only workload with recovery, checkpoints to disk, the dead-letter queue and the "
        "batched process_batch/Slice.add_run path, with two injected crashes"
    )
    exactly_once = True
    records = 600_000
    batch_size = 256
    #: Checkpoints land in 0.5% of the batches, beyond the p99 of
    #: element latency, whose figure the host's file system otherwise
    #: decides: at 10 000 records (2.6% of batches) its spread over ten
    #: seeds was 0.58, and at the supervised default of 1 000, writes
    #: took about 70% of a replay.  fsync would likewise time the host's
    #: disk rather than the program.
    checkpoint_every = 50_000

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.crash_at = sorted(rng.sample(range(self.records // 4, 3 * self.records // 4), 2))
        self.params = {
            "generator": "repro.data.football_stream",
            "records": self.records,
            "seed": seed,
            "crash_at": "two record positions drawn by random.Random(seed) from the middle half",
            "pipeline": "SupervisedPipeline(batch_size=256, checkpoint_every=50000), "
            "DiskCheckpointStore(keep=3, fsync=False), "
            "DeadLetterQueue(), FaultInjectingOperator(crash_at)",
            "operator": "dashboard_windows(20) x Sum, lazy, stream_in_order=True",
        }
        self.elements = football_stream(self.records, seed=seed)
        # The pipeline does not flush at the end of the stream: the final
        # windows are those the last record closes.
        self.expected = oracle.expected_windows(
            _queries(dashboard_operator()), self.elements, horizon=self.elements[-1].ts
        )
        self._setups = 0

    def setup(self, trace: bool = False):
        self._setups += 1
        directory = self.workdir / f"checkpoints-{self._setups}"
        operator = FaultInjectingOperator(dashboard_operator(), crash_at=self.crash_at)
        tracer = operator.inner.enable_tracing() if trace else None
        return SupervisedPipeline(
            operator,
            CollectSink(),
            batch_size=self.batch_size,
            checkpoint_every=self.checkpoint_every,
            store=DiskCheckpointStore(directory, keep=3, fsync=False),
            dlq=DeadLetterQueue(),
            tracer=tracer,
        )

    def teardown(self, program) -> None:
        shutil.rmtree(program.store.directory, ignore_errors=True)

    def counters(self, program) -> Dict[str, int]:
        """Pipeline counters from the pipeline's tracer; operator counters
        from the operator's, which a restore replaces with the copy its
        checkpoint carried."""
        own = ("checkpoint.", "durability.", "dlq.")
        out = {k: v for k, v in program.tracer.counters.items() if k.startswith(own)}
        operator = program.operator.inner.tracer.counters
        out.update({k: v for k, v in operator.items() if not k.startswith(own)})
        return out

    def _run(self, pipeline, source, replay: Replay):
        replay.calls = len(self.elements)
        try:
            stats = pipeline.run(source)
        except Exception:
            replay.failed_calls = replay.calls
            stats = None
        replay.results = pipeline.sink.results
        return stats

    def throughput(self, program) -> Replay:
        replay = Replay()
        source = _SharedSource(self.elements)
        began = clock()
        stats = self._run(program, source, replay)
        replay.seconds = (clock() - began) / 1e9
        if stats is not None:
            replay.extra = {
                "recovery.replayed_records": stats.replayed_records,
                "recovery.deduped_results": stats.deduped_results,
                "recovery.checkpoints_taken": stats.checkpoints_taken,
            }
        return replay

    def latency(self, program) -> Replay:
        """Element latency: each read hands the program a batch, whose
        records it holds until it reads again (a crash holds them through
        the restore).  Emit latency: from the first read of the batch
        being processed to the sink receiving the result, which includes
        the recovery of a batch that crashed."""
        source = _StampedSource(self.elements)
        sink = _StampedSink()
        program.sink = sink
        replay = Replay()
        self._run(program, source, replay)
        reads = source.reads
        ends = [when for _, when in reads[1:]] + [clock()]
        total = len(self.elements)
        for (cursor, began), ended in zip(reads, ends):
            replay.element_ns.extend([ended - began] * min(self.batch_size, total - cursor))
        first: Dict[int, int] = {}
        for cursor, when in reads:
            first.setdefault(cursor, when)
        read_times = [when for _, when in reads]
        for result, stamp in zip(sink.results, sink.stamps):
            cursor = reads[bisect.bisect_right(read_times, stamp) - 1][0]
            replay.emit_ns.append((_window(result), stamp - first[cursor]))
        return replay

    def state(self, program) -> Replay:
        source = _SamplingSource(self.elements, program, len(self.elements) // STATE_SAMPLES)
        replay = Replay()
        self._run(program, source, replay)
        replay.state_bytes = source.largest
        return replay

    def cross_check(self) -> str:
        return oracle.cross_check(_queries(dashboard_operator()), self.elements[:10_000])


WORKLOADS = {
    workload.name: workload
    for workload in (InorderDashboard, OooSlidingEager, KeyedSharded, SupervisedBatched)
}
