"""One workload run: set-up, rounds with interleaved kernel slices, checks, metrics.

End-to-end numbers are always taken from top-level rounds with tracing off.
With ``trace=True`` the run alternates top-level rounds with decomposed,
traced rounds of the same ops and reports the per-layer metrics instead.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.titant_bench import inputs as inputs_module
from benchmarks.titant_bench.base import Workload
from benchmarks.titant_bench.calibration import (
    MIN_QUIET_ROUNDS,
    REFERENCE_SLICE_S,
    Kernel,
    quiet_rounds,
)
from benchmarks.titant_bench.offline import OfflineT1
from benchmarks.titant_bench.serving import (
    ServeBatchBasicCold,
    ServeCoalescedFull,
    ServeScalarFull,
)
from benchmarks.titant_bench.stats import (
    RoundResult,
    end_to_end,
    pooled_latency_ms,
    round_spread,
    typical_times,
)
from benchmarks.titant_bench.trace import (
    END,
    PARENT,
    START,
    Tracer,
    empty_span_cost_s,
    self_times,
)

WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (ServeScalarFull, ServeBatchBasicCold, ServeCoalescedFull, OfflineT1)
}

DEFAULT_SEED = 19
DEFAULT_SECONDS = 10
OUT_DIR = Path(__file__).resolve().parent / "out"

#: ``setup_s`` is the median of at least this many set-ups per run; cheap
#: set-ups are repeated (up to MAX_SETUPS) until SETUP_BUDGET_S is spent, so a
#: 0.3 s set-up gets as steady a median as a 2 s one.
MIN_SETUPS = 3
MAX_SETUPS = 9
SETUP_BUDGET_S = 2.0
#: A run never stops before this many measured rounds.
MIN_ROUNDS = 5

E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Span name -> the share metric its self time is accounted to.  Every span
#: the harness records is here, so the shares of one run sum to 1.
SHARE_OF_SPAN: Dict[str, str] = {
    "alipay.op": "alipay.residual_share",
    "alipay.process_batch": "alipay.residual_share",
    "router.route": "router.route_share",
    "admission.on_arrival": "admission.self_share",
    "coalescer.submit": "coalescer.self_share",
    "model_server.predict": "model_server.residual_share",
    "model_server.to_transaction": "model_server.residual_share",
    "plan.assemble": "plan.self_share",
    "hbase.profile_read": "hbase.profile_read_share",
    "hbase.embedding_read": "hbase.embedding_read_share",
    "hbase.aggregate_read": "hbase.aggregate_read_share",
    "hbase.put": "hbase.put_share",
    "hbase.bulk_load": "hbase.bulk_load_share",
    "gbdt.predict": "gbdt.predict_share",
    "gbdt.fit": "gbdt.fit_share",
    "streaming.observe": "streaming.observe_share",
    "streaming.seed_updater": "streaming.seed_updater_share",
    "graph.build_network": "graph.build_network_share",
    "nrl.deepwalk": "nrl.deepwalk_share",
    "maxcompute.backfill_sql": "maxcompute.backfill_sql_share",
    "features.assemble_train": "features.assemble_train_share",
    "features.publish_rows": "features.publish_rows_share",
}

LAYER_UNITS: Dict[str, str] = {
    **{share: "ratio" for share in SHARE_OF_SPAN.values()},
    "router.route_us": "us",
    "router.model_calls_per_op": "count",
    "router.rows_per_model_call": "count",
    "coalescer.flushes_per_op": "count",
    "coalescer.mean_batch": "count",
    "coalescer.deadline_flush_fraction": "ratio",
    "coalescer.mean_wait_ms": "ms",
    "admission.degraded_fraction": "ratio",
    "admission.peak_queue_depth": "count",
    "hbase.read_us_per_row": "us",
    "hbase.rows_read": "count",
    "hbase.cache_hit_rate": "ratio",
    "hbase.default_row_fraction": "ratio",
    "hbase.put_us_per_row": "us",
    "hbase.rows_written": "count",
    "hbase.wal_entries": "count",
    "hbase.bulk_load_s": "s",
    "hbase.rows_published": "count",
    "plan.assemble_us_per_row": "us",
    "gbdt.predict_us_per_row": "us",
    "gbdt.rows_per_call": "count",
    "gbdt.fit_s": "s",
    "streaming.observe_us_per_req": "us",
    "streaming.rows_written_per_req": "count",
    "streaming.seed_updater_s": "s",
    "model_server.residual_us_per_row": "us",
    "graph.build_network_s": "s",
    "nrl.deepwalk_s": "s",
    "maxcompute.backfill_sql_s": "s",
    "maxcompute.partitions_scanned": "count",
    "maxcompute.partitions_skipped": "count",
    "maxcompute.rows_scanned": "count",
    "features.assemble_train_s": "s",
    "features.publish_rows_s": "s",
    "datagen.events_per_s": "1/s",
    "host.calib_ms_min": "ms",
    "host.calib_ms_median": "ms",
    "host.rounds_run": "count",
    "host.quiet_rounds": "count",
    "e2e.round_spread": "ratio",
    "e2e.latency_p99_ms": "ms",
    "e2e.latency_p999_ms": "ms",
    "e2e.failed_fraction": "ratio",
    "trace.overhead_fraction": "ratio",
    "trace.decomposed_vs_toplevel": "ratio",
}

#: Offline stage spans also reported as self seconds per op.
STAGE_SECONDS = {
    "graph.build_network": "graph.build_network_s",
    "nrl.deepwalk": "nrl.deepwalk_s",
    "maxcompute.backfill_sql": "maxcompute.backfill_sql_s",
    "features.assemble_train": "features.assemble_train_s",
    "features.publish_rows": "features.publish_rows_s",
    "gbdt.fit": "gbdt.fit_s",
    "streaming.seed_updater": "streaming.seed_updater_s",
    "hbase.bulk_load": "hbase.bulk_load_s",
}


@dataclass
class Measured:
    """The rounds of one run, in the order they ran."""

    rounds: List[RoundResult] = field(default_factory=list)
    decomposed: List[bool] = field(default_factory=list)
    #: Span index range ``(start, stop)`` of each decomposed round.
    span_ranges: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: The tracer's work counts of each decomposed round.
    round_counts: Dict[int, Dict[str, float]] = field(default_factory=dict)

    def quiet(self) -> List[bool]:
        return quiet_rounds([r.slice_mean_s for r in self.rounds])

    def select(self, decomposed: bool) -> List[RoundResult]:
        return [r for r, kind in zip(self.rounds, self.decomposed) if kind == decomposed]


@dataclass
class RunResult:
    """What a run reports: the contract's JSON plus the lines printed above it."""

    workload: str
    seed: int
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Dict[str, object]]
    checksum: str
    rounds_run: int
    quiet_rounds: int
    problems: List[str]

    def contract_json(self) -> Dict[str, object]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }

    def lines(self) -> List[str]:
        head = (
            f"titant_bench {self.workload} seed={self.seed} rounds={self.rounds_run} "
            f"quiet={self.quiet_rounds} checksum={self.checksum}"
        )
        if self.quiet_rounds < MIN_QUIET_ROUNDS:
            head += f" NOISY: fewer than {MIN_QUIET_ROUNDS} quiet rounds, values are less certain"
        body = [
            f"{self.workload}/{name} {entry['value']!r} {entry['unit']}"
            for name, entry in self.metrics.items()
        ]
        return [head, *body, *(f"PROBLEM {text}" for text in self.problems[:20])]


def _set_up(name: str, seed: int, smoke: bool, tracer: Optional[Tracer], kernel: Kernel):
    """Build the inputs and the system several times; keep the last build."""
    workload_cls = WORKLOAD_CLASSES[name]
    setup_times: List[float] = []
    datagen_rates: List[float] = []
    workload: Optional[Workload] = None
    before = kernel.slice()
    began = time.perf_counter()
    while not setup_times or (
        not smoke
        and len(setup_times) < MAX_SETUPS
        and (len(setup_times) < MIN_SETUPS or time.perf_counter() - began < SETUP_BUDGET_S)
    ):
        workload = None
        gc.collect()
        start = time.perf_counter()
        inputs = inputs_module.generate(name, seed, smoke=smoke)
        generated = time.perf_counter()
        workload = workload_cls(inputs, tracer)
        elapsed = time.perf_counter() - start
        after = kernel.slice()
        # Scaled like an op: by the slices just before and after it.
        setup_times.append(elapsed * REFERENCE_SLICE_S / ((before + after) / 2.0))
        datagen_rates.append(inputs.events_generated / (generated - start))
        before = after
    return workload, statistics.median(setup_times), statistics.median(datagen_rates)


def _measure(
    workload: Workload, kernel: Kernel, seconds: float, trace: bool, smoke: bool
) -> Measured:
    """Warm up, then run identical rounds until the time budget is spent."""
    next_index = 0

    def run(decomposed: bool) -> RoundResult:
        nonlocal next_index
        result = workload.run_round(next_index, kernel, decomposed=decomposed)
        next_index += 1
        return result

    run(False)  # warm-up, discarded: caches fill, lazy set-up finishes
    if trace:
        run(True)
    measured = Measured()
    min_rounds = 2 if smoke else MIN_ROUNDS * (2 if trace else 1)
    started = time.perf_counter()
    while len(measured.rounds) < min_rounds or time.perf_counter() - started < seconds:
        decomposed = trace and len(measured.rounds) % 2 == 1
        gc.collect()
        if decomposed:
            mark = workload.tracer.mark()
            workload.tracer.counts.clear()
        measured.rounds.append(run(decomposed))
        measured.decomposed.append(decomposed)
        if decomposed:
            measured.span_ranges[len(measured.rounds) - 1] = (mark, workload.tracer.mark())
            measured.round_counts[len(measured.rounds) - 1] = dict(workload.tracer.counts)
    return measured


def _layer_metrics(workload: Workload, measured: Measured) -> Dict[str, float]:
    """Per-layer times, shares and counts from the quiet decomposed rounds."""
    tracer = workload.tracer
    quiet = measured.quiet()
    traced = [i for i, kind in enumerate(measured.decomposed) if kind]
    chosen = [i for i in traced if quiet[i]] or traced
    selfs: Dict[str, float] = {}
    root_total = 0.0
    spans = 0
    ops = 0
    for i in chosen:
        start, stop = measured.span_ranges[i]
        for name, value in self_times(tracer.spans, start, stop).items():
            selfs[name] = selfs.get(name, 0.0) + value
        root_total += sum(
            span[END] - span[START] for span in tracer.spans[start:stop] if span[PARENT] < start
        )
        spans += stop - start
        ops += 1 if workload.one_job else len(measured.rounds[i].op_times_s)

    values = {name: 0.0 for name in LAYER_UNITS}
    for span_name, seconds in selfs.items():
        values[SHARE_OF_SPAN[span_name]] += seconds / root_total
    for span_name, metric in STAGE_SECONDS.items():
        values[metric] = selfs.get(span_name, 0.0) / ops

    counts: Dict[str, float] = {}
    for i in chosen:
        for name, value in measured.round_counts[i].items():
            counts[name] = counts.get(name, 0.0) + value
    requests = sum(measured.rounds[i].work for i in chosen)

    def per(seconds: float, count: float) -> float:
        return seconds / count * 1e6 if count else 0.0

    model_rows = counts.get("router.model_rows", 0.0)
    model_calls = counts.get("router.model_calls", 0.0)
    rows_read = counts.get("hbase.rows_read", 0.0)
    rows_written = counts.get("hbase.rows_written", 0.0)
    observed = counts.get("streaming.requests_observed", 0.0)
    if model_calls:
        reads = sum(
            selfs.get(f"hbase.{family}_read", 0.0)
            for family in ("profile", "embedding", "aggregate")
        )
        values["router.route_us"] = per(selfs["router.route"], requests)
        values["router.model_calls_per_op"] = model_calls / ops
        values["router.rows_per_model_call"] = model_rows / model_calls
        values["gbdt.rows_per_call"] = model_rows / model_calls
        values["gbdt.predict_us_per_row"] = per(selfs["gbdt.predict"], model_rows)
        values["plan.assemble_us_per_row"] = per(selfs["plan.assemble"], model_rows)
        values["model_server.residual_us_per_row"] = per(
            selfs["model_server.predict"] + selfs["model_server.to_transaction"], model_rows
        )
        values["hbase.rows_read"] = rows_read / ops
        values["hbase.read_us_per_row"] = per(reads, rows_read)
    if observed:
        values["hbase.rows_written"] = rows_written / ops
        values["hbase.wal_entries"] = rows_written / ops  # every put appends one WAL entry
        values["hbase.put_us_per_row"] = per(selfs["hbase.put"], rows_written)
        values["streaming.observe_us_per_req"] = per(selfs["streaming.observe"], observed)
        values["streaming.rows_written_per_req"] = rows_written / observed
    values.update(workload.counts())

    values["trace.overhead_fraction"] = spans * empty_span_cost_s() / root_total
    values["trace.decomposed_vs_toplevel"] = sum(typical_times(measured.select(True))) / sum(
        typical_times(measured.select(False))
    )
    return values


def run_workload(
    name: str,
    *,
    seed: int = DEFAULT_SEED,
    seconds: float = DEFAULT_SECONDS,
    trace: bool = False,
    smoke: bool = False,
    out_dir: Optional[Path] = None,
) -> RunResult:
    """Run one workload in this process and return everything it reports."""
    tracer = Tracer() if trace else None
    kernel = Kernel()
    workload, setup_s, datagen_rate = _set_up(name, seed, smoke, tracer, kernel)
    measured = _measure(workload, kernel, seconds, trace, smoke)
    workload.verify()

    rounds = measured.select(False)
    slices_ms = [r.slice_mean_s * 1000.0 for r in measured.rounds]
    if trace:
        values = _layer_metrics(workload, measured)
        values.update(
            {
                "datagen.events_per_s": datagen_rate,
                "host.calib_ms_min": min(slices_ms),
                "host.calib_ms_median": statistics.median(slices_ms),
                "host.rounds_run": float(len(measured.rounds)),
                "host.quiet_rounds": float(sum(measured.quiet())),
                "e2e.round_spread": round_spread(rounds),
                "e2e.latency_p99_ms": pooled_latency_ms(rounds, 99.0),
                "e2e.latency_p999_ms": pooled_latency_ms(rounds, 99.9),
                "e2e.failed_fraction": workload.failed / workload.attempted,
            }
        )
        units = LAYER_UNITS
        tracer.write((out_dir or OUT_DIR) / f"trace_{name}.json")
    else:
        values = {
            "setup_s": setup_s,
            **end_to_end(rounds, one_job=workload.one_job),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    return RunResult(
        workload=name,
        seed=seed,
        correct=workload.failed == 0,
        attempted=workload.attempted,
        failed=workload.failed,
        metrics={key: {"value": values[key], "unit": unit} for key, unit in units.items()},
        checksum=workload.decision_checksum,
        rounds_run=len(measured.rounds),
        quiet_rounds=sum(measured.quiet()),
        problems=workload.problems,
    )
