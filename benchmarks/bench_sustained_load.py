"""Sustained-load harness: a sharded fleet rides the diurnal curve (PR 7).

The other serving benchmarks measure a *burst* of requests against a warm
stack.  This one measures the production question the paper's Model Server
fleet actually faces: sustained throughput over a multi-day arrival process
whose instantaneous rate swings with the diurnal curve and transient bursts,
against a population far too large to materialize.

The pipeline under test, end to end:

* **Data layer** — a :class:`~repro.datagen.stream.ScalableWorldStream` with
  O(active-accounts) state generates the full transaction history lazily
  (full mode: one million accounts, multiple days, never a transaction list).
* **Feature store** — a small-world GBDT on basic features is trained and
  deployed through the normal offline pipeline, then the streamed
  population's most active accounts are bulk-loaded into Ali-HBase; colder
  accounts degrade to the neutral default row, exactly as a brand-new
  account would in production.
* **Fleet** — four Model Servers, each on a private row-cache connection,
  behind an account-sharded :class:`~repro.serving.router.ServingRouter`,
  an :class:`~repro.serving.admission.AdmissionController` sized *below* the
  diurnal peak (so evening hours and bursts shed to the rule-based fallback)
  and a deadline-bounded request coalescer.  ``retain_served=False`` keeps
  the front end's memory flat over million-request replays.
* **Arrival clock** — per-event arrival times follow the stream's own
  diurnal curve (bursts included), compressed so the *mean* offered rate is
  ``target_rps``; the admission controller must ride the instantaneous rate.

Asserted on every run (throughput and latency are printed, not asserted —
``titant_bench`` is the performance gate):

* a peak-RSS probe — the streamed data layer against a materialize-everything
  run of the same world, each in its own subprocess so its high-water mark is
  its own: materialized >= 1.4x streamed (skipped only on platforms without
  ``resource``),
* conservation under overload — every streamed request answered, admitted +
  degraded == total, every admitted request latency-tracked,
* the shed-to-rules fraction inside (0, 0.9): the capacity binds at the
  diurnal peak without drowning the replay.

Run ``python -m benchmarks.bench_sustained_load --smoke`` (the CI job) or
without flags for the full million-account run.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.core.config import (
    DetectorName,
    ExperimentConfig,
    FeatureSetName,
    ModelHyperparameters,
    Table1Configuration,
)
from repro.core.experiment import ExperimentRunner
from repro.datagen import generate_world
from repro.datagen.datasets import small_world_config
from repro.datagen.profiles import ProfileConfig
from repro.datagen.schema import Transaction
from repro.datagen.stream import ScalableWorldStream
from repro.datagen.transactions import ArrivalConfig, BurstSpec, WorldConfig
from repro.hbase.client import BASIC_FEATURES_FAMILY
from repro.logging_utils import ProgressTracker
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.serving.alipay import AlipayServer
from repro.serving.coalescer import CoalescerConfig
from repro.serving.feature_source import profile_row
from repro.serving.router import ServingRouter, fleet_cache_stats

REPO_ROOT = Path(__file__).resolve().parents[1]

SEED = 11
FLEET_SIZE = 4
SLA_BUDGET_MS = 50.0
TABLE_NAME = "titant_features"

#: Admission capacity relative to the *mean* offered rate.  The diurnal peak
#: reaches ~2x the mean (plus bursts), so a 1.2x capacity sheds at peak —
#: the overload behaviour this harness is built to observe.
CAPACITY_OVER_MEAN = 1.2

#: Most-active accounts bulk-loaded into HBase in full mode.  Loading all
#: 1M rows would itself materialize gigabytes; production equally publishes
#: hot accounts and serves neutral defaults for the cold tail.
FULL_MODE_HOT_ACCOUNTS = 50_000

#: Memory probe world: large enough that a materialized transaction list
#: dwarfs the streamed run's columnar state + one hour-chunk.
PROBE_ACCOUNTS = 100_000
PROBE_DAYS = 6
PROBE_TX_PER_USER_DAY = 0.5
PROBE_MIN_RSS_RATIO = 1.4


def world_config(
    *,
    num_accounts: int,
    num_days: int,
    transactions_per_user_per_day: float,
) -> WorldConfig:
    """The streamed world under load: diurnal curve + an evening flash sale."""
    return WorldConfig(
        profile=ProfileConfig(
            num_users=num_accounts,
            num_communities=max(8, num_accounts // 5_000),
            fraudster_fraction=0.02,
            seed=SEED,
        ),
        num_days=num_days,
        transactions_per_user_per_day=transactions_per_user_per_day,
        arrival=ArrivalConfig(
            bursts=[BurstSpec(day=1, start_hour=19, duration_hours=2, amplitude=2.5)]
        ),
        seed=SEED,
    )


# ---------------------------------------------------------------------------
# Arrival clock: the stream's own diurnal curve, compressed to target_rps
# ---------------------------------------------------------------------------


class DiurnalArrivalClock:
    """Tags a lazily consumed stream with diurnal arrival times.

    ``transactions()`` yields the stream's events unchanged while recording
    each event's arrival instant; ``times()`` yields those instants in
    lockstep (the replay loop pulls the transaction first, then its time).
    Nothing is buffered beyond the events the replay has pulled but not yet
    clocked, so the pair adds O(1) memory to a million-event replay.

    Each simulated hour maps to a fixed replay window sized so the *mean*
    offered rate over the whole run is ``target_rps``; within an hour,
    events are spaced at the hour's *expected* rate (diurnal multiplier and
    bursts included), so hours that overshoot their estimate pile up at the
    window edge — exactly the instantaneous overload the admission
    controller exists to shed.
    """

    def __init__(self, stream: ScalableWorldStream, *, target_rps: float) -> None:
        if target_rps <= 0:
            raise ValueError("target_rps must be positive")
        self._stream = stream
        config = stream.config
        self._arrival = config.arrival or ArrivalConfig()
        expected_per_day = stream.expected_events_per_day()
        num_hours = 24 * config.num_days
        #: Replay seconds per simulated hour: mean rate == target_rps.
        self.window_s = (expected_per_day * config.num_days / target_rps) / num_hours
        self._expected_per_day = expected_per_day
        self._pending: collections.deque = collections.deque()
        self._last = 0.0
        self._multipliers: Dict[int, np.ndarray] = {}
        self._hour_counts: Dict[int, int] = {}
        self.events = 0
        self.progress = ProgressTracker("sustained replay", unit="requests")

    def _arrival_time(self, txn: Transaction) -> float:
        multipliers = self._multipliers.get(txn.day)
        if multipliers is None:
            multipliers = self._arrival.hour_multipliers(txn.day)
            self._multipliers[txn.day] = multipliers
        hour_index = txn.day * 24 + txn.hour
        expected = max(self._expected_per_day / 24.0 * multipliers[txn.hour], 1.0)
        k = self._hour_counts.get(hour_index, 0)
        self._hour_counts[hour_index] = k + 1
        start = hour_index * self.window_s
        instant = min(start + k * (self.window_s / expected), start + self.window_s)
        self._last = max(self._last, instant)
        return self._last

    def transactions(self) -> Iterator[Transaction]:
        for txn in self._stream:
            self._pending.append(self._arrival_time(txn))
            self.events += 1
            self.progress.advance()
            yield txn

    def times(self) -> Iterator[float]:
        while True:
            if not self._pending:
                return
            yield self._pending.popleft()


# ---------------------------------------------------------------------------
# Stack construction
# ---------------------------------------------------------------------------


def train_and_deploy(*, smoke: bool):
    """Train the small-world GBDT and deploy it to a 4-server routed fleet.

    The model is trained on basic features only, so the exported FeaturePlan
    reads just the profile column family — any account missing from HBase is
    served the neutral default row instead of failing, which is what lets a
    small-world-trained model score a million-account stream.
    """
    world = generate_world(small_world_config(num_users=300, num_days=40, seed=SEED))
    hyper = (
        ModelHyperparameters.fast_test_scale(seed=SEED)
        if smoke
        else ModelHyperparameters.laptop_scale(seed=SEED)
    )
    runner = ExperimentRunner(
        world,
        ExperimentConfig(
            num_datasets=1,
            network_days=25,
            train_days=7,
            hyperparameters=hyper,
            configurations=[Table1Configuration(1, DetectorName.GBDT, FeatureSetName.BASIC)],
        ),
    )
    dataset = runner.datasets()[0]
    preparation = runner.preparation_for(dataset)
    _, hbase, servers, _ = runner.build_serving_stack(
        preparation,
        runner.config.configurations[0],
        num_servers=FLEET_SIZE,
        sla_budget_ms=SLA_BUDGET_MS,
        row_cache_ttl_s=3600.0,
        router=ServingRouter(FLEET_SIZE),
    )
    return hbase, servers


def publish_streamed_population(hbase, stream: ScalableWorldStream, *, smoke: bool) -> int:
    """Bulk-load the streamed population's hottest profile rows into HBase."""
    accounts = stream.accounts
    if smoke or accounts.num_accounts <= FULL_MODE_HOT_ACCOUNTS:
        indices = np.arange(accounts.num_accounts)
    else:
        order = np.argsort(accounts.activity_level)
        indices = order[-FULL_MODE_HOT_ACCOUNTS:]
    rows = {
        profile.user_id: profile_row(profile)
        for profile in accounts.iter_profiles(indices)
    }
    return hbase.bulk_load(TABLE_NAME, BASIC_FEATURES_FAMILY, rows, version=10_000)


# ---------------------------------------------------------------------------
# Memory probe (subprocess children)
# ---------------------------------------------------------------------------


def _probe_config() -> WorldConfig:
    return world_config(
        num_accounts=PROBE_ACCOUNTS,
        num_days=PROBE_DAYS,
        transactions_per_user_per_day=PROBE_TX_PER_USER_DAY,
    )


def run_memory_probe_child(mode: str) -> None:
    """Child entry point: generate the probe world, print peak RSS as JSON."""
    import resource

    stream = ScalableWorldStream(_probe_config())
    if mode == "streamed":
        events = sum(1 for _ in stream)
    elif mode == "materialized":
        transactions = list(stream)
        events = len(transactions)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown probe mode {mode!r}")
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"mode": mode, "events": events, "peak_rss_kb": peak_rss_kb}))


def run_memory_probe() -> None:
    """Assert the streamed run's peak RSS is far below the materialized run's.

    Each mode runs in its own child so the other's allocations cannot
    inflate its high-water mark.  Skipped where the ``resource`` module is
    unavailable.
    """
    try:
        import resource  # noqa: F401
    except ImportError:  # pragma: no cover - non-POSIX platforms
        print("  skipped: resource module unavailable")
        return

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    peak_rss_kb: Dict[str, float] = {}
    for mode in ("streamed", "materialized"):
        completed = subprocess.run(
            [sys.executable, "-m", "benchmarks.bench_sustained_load", "--memory-probe", mode],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        peak_rss_kb[mode] = float(
            json.loads(completed.stdout.strip().splitlines()[-1])["peak_rss_kb"]
        )
        print(f"  {mode:<12} : {peak_rss_kb[mode] / 1024.0:.0f} MB peak RSS")
    ratio = peak_rss_kb["materialized"] / peak_rss_kb["streamed"]
    assert ratio >= PROBE_MIN_RSS_RATIO, (
        f"materialized run peaked at only {ratio:.2f}x the streamed run's "
        f"RSS (need >= {PROBE_MIN_RSS_RATIO}x): the data layer is not "
        "actually bounded-memory"
    )


# ---------------------------------------------------------------------------
# The bench
# ---------------------------------------------------------------------------


def run_bench(*, smoke: bool) -> None:
    if smoke:
        params = {
            "num_accounts": 20_000,
            "num_days": 2,
            "transactions_per_user_per_day": 0.25,
            "target_rps": 800.0,
        }
    else:
        params = {
            "num_accounts": 1_000_000,
            "num_days": 3,
            "transactions_per_user_per_day": 0.1,
            "target_rps": 4_000.0,
        }
    config = world_config(
        num_accounts=params["num_accounts"],
        num_days=params["num_days"],
        transactions_per_user_per_day=params["transactions_per_user_per_day"],
    )

    # -- memory probe --------------------------------------------------------
    # Runs FIRST: the children are forked from this process, and on Linux a
    # forked child's RSS high-water mark starts at the parent's current RSS —
    # probing after the million-account structures exist would report the
    # parent's footprint for both modes and drown the comparison.
    print("running peak-RSS probe (streamed vs materialized subprocesses) ...")
    run_memory_probe()

    # -- generation-only pass: streamed data-layer throughput ---------------
    print(f"generating {params['num_accounts']:,}-account stream ({params['num_days']} days) ...")
    gen_stream = ScalableWorldStream(config)
    gen_progress = ProgressTracker("generation", unit="events")
    started = time.perf_counter()
    gen_events = 0
    for batch in gen_stream.batches(8192):
        gen_events += len(batch)
        gen_progress.advance(len(batch))
    gen_seconds = time.perf_counter() - started
    print(f"  {gen_events:,} events in {gen_seconds:.1f}s "
          f"({gen_events / gen_seconds:,.0f} events/s)")

    # -- train + deploy the fleet ------------------------------------------
    print("training small-world GBDT and deploying the 4-server fleet ...")
    hbase, servers = train_and_deploy(smoke=smoke)
    replay_stream = ScalableWorldStream(config)
    hot_rows = publish_streamed_population(hbase, replay_stream, smoke=smoke)
    print(f"  bulk-loaded {hot_rows:,} hot profile rows into Ali-HBase")

    capacity_rps = CAPACITY_OVER_MEAN * params["target_rps"]
    admission = AdmissionController(
        AdmissionConfig(capacity_rps=capacity_rps, max_queue_depth=256)
    )
    alipay = AlipayServer(
        servers,
        router=ServingRouter(FLEET_SIZE),
        admission=admission,
        retain_served=False,
    )

    # -- the sustained replay ----------------------------------------------
    clock = DiurnalArrivalClock(replay_stream, target_rps=params["target_rps"])
    print(f"replaying at target {params['target_rps']:,.0f} rps "
          f"(admission capacity {capacity_rps:,.0f} rps) ...")
    started = time.perf_counter()
    report = alipay.replay_transactions(
        clock.transactions(),
        arrival_times_s=clock.times(),
        coalescer=CoalescerConfig(max_batch=128, max_delay_ms=4.0),
    )
    replay_seconds = time.perf_counter() - started
    clock.progress.finish()

    latency = alipay.latency_report()
    cache = fleet_cache_stats(servers)
    degraded_fraction = report.degraded / report.total if report.total else 0.0

    assert report.total == clock.events, (
        f"answered {report.total} of {clock.events} streamed requests"
    )
    assert len(clock._pending) == 0, "arrival clock desynchronized from the stream"
    assert admission.admitted + admission.degraded == report.total
    assert int(latency["count"]) == admission.admitted, (
        "every admitted request must cross the scored (latency-tracked) path"
    )
    assert 0.0 < degraded_fraction < 0.9, (
        f"shed fraction {degraded_fraction:.2%} outside (0, 90%): the capacity "
        "must bind at the diurnal peak without drowning the whole replay"
    )
    assert 0.0 <= cache["hit_rate"] <= 1.0

    print(f"\nsustained load — {'smoke' if smoke else 'full'} mode")
    print(f"  sustained serving : {report.total / replay_seconds:10,.0f} req/s "
          f"over {report.total:,} requests")
    print(f"  latency           : p50 {latency['p50_ms']:.3f} ms | "
          f"p99 {latency['p99_ms']:.3f} ms | p999 {latency['p999_ms']:.3f} ms")
    print(f"  fleet cache hits  : {cache['hit_rate']:.1%}")
    print(f"  shed to rules     : {degraded_fraction:.2%} "
          f"(peak queue {report.peak_queue_depth:.0f})")


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--memory-probe",
        choices=("streamed", "materialized"),
        default=None,
        help="internal: run one memory-probe child and print its peak RSS",
    )
    args = parser.parse_args(argv)
    if args.memory_probe is not None:
        run_memory_probe_child(args.memory_probe)
        return
    run_bench(smoke=args.smoke)


if __name__ == "__main__":
    main()
