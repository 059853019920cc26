"""Serving latency — the paper's "predict online real-time transaction fraud
within only milliseconds" claim (Sections 1, 4.4, 5).

The benchmark deploys a trained GBDT model (plus its exported FeaturePlan)
and the per-user feature / embedding rows to the simulated Ali-HBase, then
replays a test day's transactions through the Alipay server → Model Server
path, measuring the per-request wall-clock latency of the full online flow
(HBase reads, plan execution, model scoring, alert decision).

Both request shapes are held to the absolute 50 ms budget — the one bound
``titant_bench`` does not make, because its bounds are relative to a parent
commit:

* **scalar** — one request per call: p95 < 50 ms,
* **batch** — ``replay_transactions(batch_size=256)`` (one ``multi_get`` per
  column family, one vectorised assembly, one ``predict_proba`` per batch):
  amortised per-request p99 < 50 ms.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from benchmarks.paper.serving_stack import build_serving_stack
from benchmarks.paper.table1 import preparation_for
from repro.core.config import DetectorName, FeatureSetName, Table1Configuration
from repro.serving import AlipayServer, LatencyTracker

SLA_BUDGET_MS = 50.0
BATCH_SIZE = 256


def _serving_stack(bench_runner):
    dataset = bench_runner.datasets()[0]
    preparation = preparation_for(bench_runner, dataset)
    configuration = Table1Configuration(9, DetectorName.GBDT, FeatureSetName.BASIC_DW)
    bundle, hbase, servers, alipay = build_serving_stack(
        bench_runner, preparation, configuration, sla_budget_ms=SLA_BUDGET_MS
    )
    return dataset, hbase, servers[0], alipay


def test_serving_latency_milliseconds(benchmark, bench_runner):
    dataset, hbase, server, alipay = _serving_stack(bench_runner)
    replay = dataset.test_transactions[:500]

    def _run():
        return alipay.replay_transactions(replay)

    report = run_once(benchmark, _run)
    latency = LatencyTracker.merged_report([server.latency])

    print("\nServing latency — online prediction path (HBase reads + scoring)")
    print(f"  requests served : {latency.count}")
    print(f"  mean latency    : {latency.mean_ms:.2f} ms")
    print(f"  p95 latency     : {latency.p95_ms:.2f} ms")
    print(f"  p99 latency     : {latency.p99_ms:.2f} ms")
    print(f"  interrupted     : {report.interrupted} of {report.total}")
    print(f"  alert precision : {report.alert_precision:.2%}")
    print(f"  alert recall    : {report.alert_recall:.2%}")

    assert latency.count == len(replay)
    # The paper's budget is "tens of milliseconds"; the in-process path should
    # comfortably fit a 50 ms p95.
    assert latency.p95_ms < SLA_BUDGET_MS


def test_batch_path_meets_sla(benchmark, bench_runner):
    """The batch path's amortised per-request p99 against the SLA."""
    dataset, hbase, server, _ = _serving_stack(bench_runner)
    replay = dataset.test_transactions[:512]

    # Warm the row cache and interned city lookups so the run measures the
    # steady state rather than first-touch misses.
    AlipayServer(server).replay_transactions(replay[:64], batch_size=64)

    def _run():
        batch_tracker = LatencyTracker(sla_budget_ms=SLA_BUDGET_MS)
        batch_start_index = len(server.latency)
        AlipayServer(server).replay_transactions(replay, batch_size=BATCH_SIZE)
        for sample in server.latency.latencies_ms[batch_start_index:]:
            batch_tracker.record(sample)
        return LatencyTracker.merged_report([batch_tracker])

    batch_latency = run_once(benchmark, _run)

    print(f"\nBatch serving (size {BATCH_SIZE}, {len(replay)} requests)")
    print(f"  per-request p99 : {batch_latency.p99_ms:.3f} ms "
          f"(SLA budget {SLA_BUDGET_MS:.0f} ms)")

    assert batch_latency.count == len(replay)
    # Amortised per-request latency must still clear the paper's SLA budget.
    assert batch_latency.p99_ms < SLA_BUDGET_MS
