"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload inorder_dashboard --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Either way every emitted window is checked
against the oracle, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Lines before
it show the same figures for a reader.  See ``perfbench/README.md`` for
what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import hostspeed
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for checkpoint directories and span files.
WORKDIR = ROOT / ".perfbench"

#: (name, unit) of the end-to-end metrics, printed with ``--trace 0``.
END_TO_END = [
    ("records_per_s", "records/s"),
    ("element_latency_p50_us", "us"),
    ("element_latency_p99_us", "us"),
    ("emit_latency_p50_us", "us"),
    ("emit_latency_p99_us", "us"),
    ("state_bytes_max", "bytes"),
    ("setup_s", "s"),
]

#: Tracer counters reported as they are.
COUNTERS = [
    "operator.late_drops",
    "slicer.edge_lookups",
    "slicer.cuts",
    "slice_manager.splits",
    "slice_manager.merges",
    "store.slices_combined",
    "store.range_queries",
    "finger_tree.spine_repairs",
    "finger_tree.bulk_evictions",
    "checkpoint.bytes_written",
    "durability.saves",
]

#: Spans whose self time is reported, as ``<span>.self_ms``.
SELF_TIMES = [
    "operator_.process",
    "operator_.process_batch",
    "stream_slicer.ensure_open_slice",
    "stream_slicer.after_record",
    "slice_.add_inorder",
    "slice_.add_out_of_order",
    "slice_.add_run",
    "slice_manager.add_out_of_order",
    "slice_manager.split_time",
    "window_manager.advance",
    "window_manager.on_modification",
    "window_manager.prune_emitted",
    "aggregate_store.slice_updated",
    "aggregate_store.range_indices",
    "aggregate_store.query_slices",
    "aggregate_store.evict_before",
    "aggregate_store.execute",
    "kernels.update",
    "kernels.query",
    "kernels.insert",
    "kernels.append",
    "kernels.remove_front",
    "sharded.run",
    "partition.stable_hash",
    "recovery.run",
    "checkpoint.snapshot",
    "durability.save",
]

KERNEL_KINDS = ["flatfat", "finger_tree", "two_stacks", "subtract_on_evict"]

#: Figures of the untraced passes of ``--trace 1`` (median over passes).
UNTRACED = [
    ("sharded.coordinator_cpu_s", "s"),
    ("sharded.worker_cpu_s", "s"),
    ("sharded.coordinator_idle_s", "s"),
    ("sharded.coordinator_share", "ratio"),
    ("shard.batches", "count"),
    ("shard.queue_full_waits", "count"),
    ("recovery.replayed_records", "count"),
    ("recovery.deduped_results", "count"),
    ("recovery.checkpoints_taken", "count"),
]


def per_layer_metrics():
    """(name, unit, better) of every ``--trace 1`` metric."""
    rows = [("operator_.process.calls", "count", "lower")]
    rows += [(f"{span}.self_ms", "ms", "lower") for span in SELF_TIMES]
    rows += [(name, "count", "lower") for name in COUNTERS]
    rows += [
        ("stream_slicer.cut_ratio", "ratio", "higher"),
        ("window_manager.share_hit_ratio", "ratio", "higher"),
    ]
    rows += [(f"kernels.selected.{kind}", "count", "higher") for kind in KERNEL_KINDS]
    rows += [(name, unit, "lower") for name, unit in UNTRACED]
    rows += [(f"layer.{layer}.share", "ratio", "lower") for layer in spans.LAYERS]
    rows += [
        ("trace.accounted_share", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "higher"),
        ("yardstick.pairs_over_lazy", "ratio", "lower"),
    ]
    return rows


# ----------------------------------------------------------------------
# helpers


class Tally:
    """Attempted and failed operations over every replay of a run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, replay) -> None:
        import oracle

        verdict = oracle.check(
            replay.results, self.workload.expected, exactly_once=self.workload.exactly_once
        )
        self.attempted += replay.calls + verdict.attempted
        self.failed += replay.failed_calls + verdict.failed
        if replay.failed_calls or verdict.failed:
            self.problems.append(f"{replay.failed_calls} calls raised; {verdict!r}")

    def problem(self, text: str) -> None:
        if text:
            self.problems.append(text)


def percentiles(values, *pcts: float) -> list:
    """Nearest-rank percentiles (0 for no values: a run that failed)."""
    ordered = sorted(values)
    if not ordered:
        return [0.0 for _ in pcts]
    return [ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1] for pct in pcts]


def fresh_pass(workload, replay_of, tally: Tally):
    """Build the program, run one replay, release the program, check
    the replay's windows."""
    program = workload.setup()
    gc.collect()
    try:
        replay = replay_of(program)
    finally:
        workload.teardown(program)
    tally.add(replay)
    return replay


def setup_timings(workload, repeats: int) -> list:
    timings = []
    for _ in range(repeats):
        # Garbage of earlier set-ups is the benchmark's, not the program's.
        gc.collect()
        began = time.perf_counter()
        program = workload.setup()
        timings.append(time.perf_counter() - began)
        workload.teardown(program)
    return timings


def check_oracle(workload, replay, tally: Tally) -> None:
    """Check the oracle against ``repro.reference``, and the checker on
    a real replay's results."""
    import oracle

    tally.problem(workload.cross_check())
    tally.problem(oracle.self_check(replay.results, workload.expected, exactly_once=workload.exactly_once))


# ----------------------------------------------------------------------
# end-to-end run

#: Set-ups timed in each round of an end-to-end run.
SETUPS_PER_ROUND = 20
#: Consecutive latency replays whose per-element and per-window medians
#: make one latency sample.
LATENCY_GROUP = 3


def geometric_mean(values) -> float:
    """Geometric mean; 0 when a value is 0 (a run whose calls failed)."""
    values = list(values)
    return statistics.geometric_mean(values) if all(values) else 0.0


def medians(samples: list) -> list:
    """Position by position, the median over equally long ``samples``."""
    middle = len(samples) // 2
    return [sorted(values)[middle] for values in zip(*samples)]


def latency_sample(group: list) -> tuple:
    """Element and emit latency p50 and p99 (us) of a group of latency
    replays.  Each element's duration, and each window's emit latency,
    is its median over the group: a host stall delays one replay's
    calls, not the others'."""
    element_p50, element_p99 = percentiles(medians([r.element_ns for r in group]), 50, 99)
    emits = []
    for replay in group:
        first: dict = {}
        for window, ns in replay.emit_ns:
            first.setdefault(window, ns)
        emits.append(first)
    windows = [window for window in emits[0] if all(window in e for e in emits)]
    emit_p50, emit_p99 = percentiles(medians([[e[w] for w in windows] for e in emits]), 50, 99)
    return element_p50 / 1000, element_p99 / 1000, emit_p50 / 1000, emit_p99 / 1000


def end_to_end(workload, seconds: float, tally: Tally):
    """Rounds of set-ups, one throughput replay and one latency replay,
    for 90% of ``seconds``; then one replay that sizes the state.

    The host's speed drifts over seconds, so the rounds interleave the
    measurements, letting every metric sample the whole run, and the
    run's timings are scaled by the host's slowdown over the run
    (``hostspeed``).  The host switches between a fast and a slow speed
    every second or so; a median over a run jumps between the two,
    while a mean moves with the share of time spent in each.  So host
    stalls are first filtered by medians over short stretches (a
    round's set-ups; a group of ``LATENCY_GROUP`` latency replays, see
    :func:`latency_sample`), and these are then averaged over the run
    with geometric means, as the calibration samples are.  Returns the
    scaled metrics and, for the reader, the unscaled ones.
    """
    speed = hostspeed.Monitor()
    setups, rates, latencies, group = [], [], [], []
    began = time.perf_counter()
    while len(rates) < 100 and (
        len(rates) < LATENCY_GROUP or time.perf_counter() - began < 0.9 * seconds
    ):
        speed.sample()
        setups.append(statistics.median(setup_timings(workload, SETUPS_PER_ROUND)))
        speed.sample()
        replay = fresh_pass(workload, workload.throughput, tally)
        rates.append(workload.records / replay.seconds)
        if len(rates) == 1:
            check_oracle(workload, replay, tally)
        speed.sample()
        replay = fresh_pass(workload, workload.latency, tally)
        replay.element_ns = array("q", replay.element_ns)
        replay.results = []
        group.append(replay)
        if len(group) == LATENCY_GROUP:
            latencies.append(latency_sample(group))
            group = []
    speed.sample()
    state = fresh_pass(workload, workload.state, tally)
    element_p50, element_p99, emit_p50, emit_p99 = (
        geometric_mean(column) for column in zip(*latencies)
    )
    unscaled = {
        "records_per_s": geometric_mean(rates),
        "element_latency_p50_us": element_p50,
        "element_latency_p99_us": element_p99,
        "emit_latency_p50_us": emit_p50,
        "emit_latency_p99_us": emit_p99,
        "state_bytes_max": state.state_bytes,
        "setup_s": geometric_mean(setups),
    }
    slowdown = speed.slowdown
    scaled = {name: value / slowdown for name, value in unscaled.items()}
    scaled["records_per_s"] = unscaled["records_per_s"] * slowdown
    scaled["state_bytes_max"] = state.state_bytes
    print(
        f"# {len(rates)} rounds, {len(setups) * SETUPS_PER_ROUND} set-ups, "
        f"{len(latencies)} latency groups; "
        f"host slowdown {slowdown:.4f} over {len(speed.samples)} calibration samples"
    )
    return scaled, unscaled


# ----------------------------------------------------------------------
# traced run

#: Calibration samples taken before and after the traced replay.
CALIBRATION_SAMPLES = 5


def traced_child(workload, tally: Tally) -> dict:
    """One traced replay; runs in its own process (see :func:`traced`)."""
    recorder = spans.Recorder()
    spans.install(recorder)
    program = workload.setup(True)
    replay_root = recorder.wrap(workload.throughput, spans.ROOT)
    gc.collect()
    speed = hostspeed.Monitor()
    speed.sample(CALIBRATION_SAMPLES)
    began = time.perf_counter_ns()
    replay = replay_root(program)
    wall_ns = time.perf_counter_ns() - began
    speed.sample(CALIBRATION_SAMPLES)
    workload.teardown(program)
    tally.add(replay)
    recorder.dump(WORKDIR, f"spans-{workload.name}")
    selection = {}
    for kinds in workload.kernel_selection(program).values():
        for kind in kinds:
            selection[kind.value] = selection.get(kind.value, 0) + 1
    return {
        "records_per_s": workload.records * speed.slowdown / replay.seconds,
        "wall_ns": wall_ns,
        "self_ns": recorder.self_ns(),
        "calls": recorder.calls(),
        "counters": workload.counters(program),
        "kernels": selection,
        "spans": len(recorder.start),
    }


def yardstick(workload, tally: Tally) -> float:
    """Pairs over lazy general slicing on the in-order dashboard stream,
    replayed alternately; the ratio of median rates."""
    from repro.baselines import PairsOperator
    from repro.data import dashboard_windows
    from repro.aggregations import Sum
    from workloads import InorderDashboard

    if not isinstance(workload, InorderDashboard):
        return 0.0

    def pairs():
        operator = PairsOperator()
        for window in dashboard_windows(20):
            operator.add_query(window, Sum())
        return operator

    rates = {"pairs": [], "lazy": []}
    for _ in range(3):
        for label, build in (("lazy", workload.make_operator), ("pairs", pairs)):
            operator = build()
            gc.collect()
            replay = workload.throughput(operator)
            tally.add(replay)
            rates[label].append(workload.records / replay.seconds)
    return statistics.median(rates["pairs"]) / statistics.median(rates["lazy"])


def traced(workload, args, tally: Tally) -> dict:
    speed = hostspeed.Monitor()
    untraced = []
    began = time.perf_counter()
    while len(untraced) < 3 or time.perf_counter() - began < 0.3 * args.seconds:
        speed.sample()
        untraced.append(fresh_pass(workload, workload.throughput, tally))
    speed.sample()
    check_oracle(workload, untraced[0], tally)
    # Both rates are scaled to the reference host speed: the traced
    # replay runs later, in another process.
    untraced_rate = speed.slowdown * statistics.median(workload.records / r.seconds for r in untraced)
    extras = {}
    for name in untraced[0].extra:
        extras[name] = statistics.median(r.extra[name] for r in untraced)
    walls = [r.seconds for r in untraced]
    ratio = yardstick(workload, tally)

    # The wrappers replace methods for the rest of a process, so the
    # traced replay runs in a process of its own.
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1", "--traced-child",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"traced run failed:\n{done.stderr}")
    child = json.loads(done.stdout.strip().splitlines()[-1])
    tally.attempted += child["attempted"]
    tally.failed += child["failed"]
    tally.problems.extend(child["problems"])
    trace = child["trace"]

    self_ns = trace["self_ns"]
    counters = trace["counters"]
    metrics = {"operator_.process.calls": trace["calls"].get("operator_.process", 0)}
    for span in SELF_TIMES:
        metrics[f"{span}.self_ms"] = self_ns.get(span, 0) / 1e6
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0)
    lookups = counters.get("slicer.edge_lookups", 0)
    metrics["stream_slicer.cut_ratio"] = counters.get("slicer.cuts", 0) / lookups if lookups else 0.0
    requests = counters.get("share.requests", 0)
    metrics["window_manager.share_hit_ratio"] = (
        counters.get("share.hits", 0) / requests if requests else 0.0
    )
    for kind in KERNEL_KINDS:
        metrics[f"kernels.selected.{kind}"] = trace["kernels"].get(kind, 0)

    coordinator = extras.get("coordinator_cpu_s", 0.0)
    workers = extras.get("worker_cpu_s", 0.0)
    metrics["sharded.coordinator_cpu_s"] = coordinator
    metrics["sharded.worker_cpu_s"] = workers
    metrics["sharded.coordinator_idle_s"] = (
        max(0.0, statistics.median(walls) - coordinator) if coordinator else 0.0
    )
    metrics["sharded.coordinator_share"] = (
        coordinator / (coordinator + workers) if coordinator + workers else 0.0
    )
    for name in ("shard.batches", "shard.queue_full_waits", "recovery.replayed_records",
                 "recovery.deduped_results", "recovery.checkpoints_taken"):
        metrics[name] = extras.get(name, 0)

    root_ns = sum(self_ns.values())
    for layer in spans.LAYERS:
        layer_ns = sum(v for k, v in self_ns.items() if k.split(".", 1)[0] == layer)
        metrics[f"layer.{layer}.share"] = layer_ns / root_ns if root_ns else 0.0
    accounted = root_ns / trace["wall_ns"]
    metrics["trace.accounted_share"] = accounted
    if abs(1.0 - accounted) > 0.01:
        tally.problem(f"layer self times cover {accounted:.4f} of the traced replay")
    metrics["trace.overhead_ratio"] = trace["records_per_s"] / untraced_rate
    metrics["yardstick.pairs_over_lazy"] = ratio
    print(f"# traced replay: {trace['spans']} spans, untraced rate {untraced_rate:.0f} records/s")
    return metrics


# ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    # A SIGTERM (a timeout) unwinds like an error, so that the pipelines
    # stop the worker processes they started and scratch files go.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"cannot find the program's sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORKDIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print(f"# {workload.name}: {json.dumps(workload.params)}")
        tally = Tally(workload)
        # Inputs and expected windows stay alive for the whole run: keep
        # the collector from scanning them on every pass.
        gc.collect()
        gc.freeze()
        if args.traced_child:
            trace = traced_child(workload, tally)
            print(json.dumps({"attempted": tally.attempted, "failed": tally.failed,
                              "problems": tally.problems, "trace": trace}))
            return 0
        if args.trace:
            values = traced(workload, args, tally)
            units = {name: unit for name, unit, _ in per_layer_metrics()}
        else:
            values, unscaled = end_to_end(workload, args.seconds, tally)
            units = dict(END_TO_END)
            for name, value in unscaled.items():
                print(f"# unscaled {name:31s} {value:>16.6g} {units[name]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems:
        print(f"# FAILED: {problem}")
    print(f"# failed_share = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    for name, value in values.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    result = {
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
