"""Span recording around the program's layer boundaries.

:func:`install` replaces the public methods of each layer's classes (and
two module-level functions, as the runtime imports them) with wrappers
that record one span per call: name, start, end, parent span and run
id.  Spans live in typed arrays while the replay runs and are written
to disk after it.  A layer's self time is its spans' durations minus
the time their direct children cover; calls are synchronous and nest
strictly, so children never overlap and subtraction is exact.

Only the traced run, in its own process, installs the wrappers: they
cost about a microsecond per call and would distort every other
measurement.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from pathlib import Path
from typing import Dict, List, Tuple

#: (layer, module, class, methods).  The layer names the module the
#: methods belong to; kernel classes of two modules share one layer.
CLASS_METHODS: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("operator_", "repro.core.operator_", "GeneralSlicingOperator", ("process", "process_batch")),
    ("stream_slicer", "repro.core.stream_slicer", "StreamSlicer", ("ensure_open_slice", "after_record")),
    ("slice_", "repro.core.slice_", "Slice", ("add_inorder", "add_out_of_order", "add_run")),
    ("slice_manager", "repro.core.slice_manager", "SliceManager", ("add_out_of_order", "split_time")),
    ("window_manager", "repro.core.window_manager", "WindowManager", ("advance", "on_modification", "prune_emitted")),
    ("aggregate_store", "repro.core.aggregate_store", "AggregateStore", ("slice_updated", "range_indices", "query_slices", "evict_before")),
    ("aggregate_store", "repro.core.aggregate_store", "EagerAggregateStore", ("slice_updated", "query_slices", "evict_before")),
    ("aggregate_store", "repro.core.aggregate_store", "SharedQueryPlan", ("execute",)),
    ("kernels", "repro.core.kernels", "TwoStacksKernel", ("update", "query", "insert", "append", "remove_front")),
    ("kernels", "repro.core.kernels", "SubtractOnEvictKernel", ("update", "query", "insert", "append", "remove_front")),
    ("kernels", "repro.core.kernels", "FingerTreeKernel", ("update", "query", "insert", "append", "remove_front")),
    ("kernels", "repro.core.flatfat", "FlatFAT", ("update", "query", "insert", "append", "remove_front")),
    ("sharded", "repro.runtime.sharded", "ShardedPipeline", ("run",)),
    ("recovery", "repro.runtime.recovery", "SupervisedPipeline", ("run",)),
    ("durability", "repro.runtime.durability", "DiskCheckpointStore", ("save",)),
]

#: (span name, module whose global is replaced, global name): functions
#: as the calling module imported them.
FUNCTIONS: List[Tuple[str, str, str]] = [
    ("checkpoint.snapshot", "repro.runtime.recovery", "snapshot"),
    ("partition.stable_hash", "repro.runtime.sharded", "stable_hash"),
]

#: Span of the benchmark's own replay loop: the root of every tree.
ROOT = "bench.replay"

LAYERS = (
    "bench",
    "operator_",
    "stream_slicer",
    "slice_",
    "slice_manager",
    "window_manager",
    "aggregate_store",
    "kernels",
    "sharded",
    "partition",
    "recovery",
    "checkpoint",
    "durability",
)


class Recorder:
    """In-memory span store shared by every wrapper."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.name = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def wrap(self, fn, name: str):
        name_id = self.name_id(name)
        stack = self._stack
        starts, ends, parents, names, runs = self.start, self.end, self.parent, self.name, self.run
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1])
            names.append(name_id)
            runs.append(self.run_id)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def self_ns(self) -> Dict[str, int]:
        """Self time per span name, in nanoseconds."""
        count = len(self.start)
        child = [0] * count
        starts, ends, parents = self.start, self.end, self.parent
        for index in range(count):
            up = parents[index]
            if up >= 0:
                child[up] += ends[index] - starts[index]
        totals = [0] * len(self.names)
        names = self.name
        for index in range(count):
            totals[names[index]] += ends[index] - starts[index] - child[index]
        return {name: totals[i] for i, name in enumerate(self.names)}

    def calls(self) -> Dict[str, int]:
        counts = [0] * len(self.names)
        for name_id in self.name:
            counts[name_id] += 1
        return {name: counts[i] for i, name in enumerate(self.names)}

    def dump(self, directory: Path, stem: str) -> None:
        """Write the spans: ``<stem>.bin`` holds the five columns one
        after another, ``<stem>.json`` their layout and the name table."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = [("start_ns", self.start), ("end_ns", self.end), ("parent", self.parent), ("name", self.name), ("run", self.run)]
        with open(directory / f"{stem}.bin", "wb") as handle:
            for _, column in columns:
                column.tofile(handle)
        header = {
            "spans": len(self.start),
            "columns": [[label, column.typecode, column.itemsize] for label, column in columns],
            "names": self.names,
            "parent": "index of the enclosing span, -1 for a root",
        }
        (directory / f"{stem}.json").write_text(json.dumps(header, indent=1) + "\n")


def install(recorder: Recorder) -> None:
    """Wrap every listed method and function for the rest of the process."""
    for layer, module_name, class_name, methods in CLASS_METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            setattr(cls, method, recorder.wrap(getattr(cls, method), f"{layer}.{method}"))
    for name, module_name, attribute in FUNCTIONS:
        module = importlib.import_module(module_name)
        setattr(module, attribute, recorder.wrap(getattr(module, attribute), name))
