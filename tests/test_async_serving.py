"""Tests of the asyncio serving front end (PR 6 tentpole, serving half).

The simulated-clock coalescer tests live in ``test_serving_runtime.py``;
here the same :class:`~repro.serving.coalescer.RequestCoalescer` is driven
by a real event loop: concurrent awaiters, a wall-clock flush timer, and the
``clock="wall"`` replay entry point.  The suite has no pytest-asyncio
dependency — each test runs its coroutine with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.registry import ModelRegistry, ModelVersion
from repro.exceptions import ModelNotLoadedError, ServingError
from repro.hbase import HBaseClient
from repro.hbase.client import BASIC_FEATURES_FAMILY
from repro.models.gbdt import GradientBoostingClassifier
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    AlipayServer,
    AsyncServingFrontEnd,
    CoalescerConfig,
    FleetController,
    ModelServer,
    ModelServerConfig,
    TransactionRequest,
)


@pytest.fixture(scope="module")
def async_fleet(world, dataset, feature_matrices):
    """A 2-replica fleet + registry, shared by the event-loop tests."""
    train, _ = feature_matrices
    model = GradientBoostingClassifier(num_trees=10, seed=0).fit(train.values, train.labels)
    hbase = HBaseClient()
    hbase.create_feature_store()
    for profile in world.profiles:
        hbase.put(
            "titant_features",
            profile.user_id,
            BASIC_FEATURES_FAMILY,
            {
                "age": profile.age,
                "gender": profile.gender.value,
                "home_city": profile.home_city,
                "account_age_days": profile.account_age_days,
                "kyc_level": profile.kyc_level,
                "is_merchant": profile.is_merchant,
                "device_count": profile.device_count,
                "community": profile.community,
            },
            version=dataset.spec.test_day,
        )
    fleet = [ModelServer(hbase.connection(), ModelServerConfig()) for _ in range(2)]
    registry = ModelRegistry()
    registry.register(
        ModelVersion(version="v1", model=model, threshold=0.5, feature_names=[])
    )
    FleetController(fleet, registry).deploy("v1")
    return fleet


def _fresh_server(async_fleet, **kwargs) -> AlipayServer:
    return AlipayServer(async_fleet, **kwargs)


def _requests(dataset, count, *, offset=0):
    return [
        TransactionRequest.from_transaction(txn)
        for txn in dataset.test_transactions[offset : offset + count]
    ]


class TestAsyncServingFrontEnd:
    def test_concurrent_submits_coalesce_into_full_batches(self, async_fleet, dataset):
        """A burst of concurrent awaiters is served as max_batch micro-batches."""
        server = _fresh_server(async_fleet)
        requests = _requests(dataset, 24)

        async def _run():
            front_end = AsyncServingFrontEnd(
                server, coalescer=CoalescerConfig(max_batch=8, max_delay_ms=1000.0)
            )
            results = await asyncio.gather(
                *[front_end.submit(request) for request in requests]
            )
            await front_end.drain()
            return results, front_end.stats()

        results, stats = asyncio.run(_run())
        assert len(results) == len(requests)
        # results arrive in submission order, paired with their own request
        assert [served.request.transaction_id for served in results] == [
            request.transaction_id for request in requests
        ]
        assert stats["requests"] == len(requests)
        assert stats["full_flushes"] == 3.0
        assert stats["deadline_flushes"] == 0.0
        # the burst never waited for the (long) deadline
        assert stats["max_wait_ms"] < 1000.0

    def test_deadline_timer_flushes_partial_batch(self, async_fleet, dataset):
        """A lone request is flushed by the wall-clock deadline timer, not a
        full buffer, and its recorded wait equals the max_delay budget."""
        server = _fresh_server(async_fleet)
        (request,) = _requests(dataset, 1)

        async def _run():
            front_end = AsyncServingFrontEnd(
                server, coalescer=CoalescerConfig(max_batch=64, max_delay_ms=20.0)
            )
            start = asyncio.get_running_loop().time()
            served = await front_end.submit(request)
            elapsed_ms = (asyncio.get_running_loop().time() - start) * 1000.0
            return served, elapsed_ms, front_end.stats()

        served, elapsed_ms, stats = asyncio.run(_run())
        assert served.request.transaction_id == request.transaction_id
        # the await outlived the deadline (the timer, nothing else, flushed it)
        assert elapsed_ms >= 20.0 * 0.5  # generous lower bound for coarse timers
        assert stats["deadline_flushes"] == 1.0
        assert stats["full_flushes"] == 0.0
        assert stats["max_wait_ms"] == pytest.approx(20.0)

    def test_waits_never_exceed_the_deadline_budget(self, async_fleet, dataset):
        """Trickled arrivals flush on the oldest request's deadline, so no
        recorded wait ever exceeds max_delay_ms."""
        server = _fresh_server(async_fleet)
        requests = _requests(dataset, 10)

        async def _run():
            front_end = AsyncServingFrontEnd(
                server, coalescer=CoalescerConfig(max_batch=64, max_delay_ms=15.0)
            )
            futures = []
            for request in requests:
                futures.append(front_end.submit_nowait(request))
                await asyncio.sleep(0.004)
            await front_end.drain()
            await asyncio.gather(*futures)
            return front_end.stats()

        stats = asyncio.run(_run())
        assert stats["requests"] == len(requests)
        assert stats["deadline_flushes"] >= 1.0
        assert stats["max_wait_ms"] <= 15.0 + 1e-9

    def test_front_end_rejects_a_second_event_loop(self, async_fleet, dataset):
        server = _fresh_server(async_fleet)
        (request,) = _requests(dataset, 1)
        front_end = AsyncServingFrontEnd(
            server, coalescer=CoalescerConfig(max_batch=1, max_delay_ms=5.0)
        )

        async def _first():
            await front_end.submit(request)

        async def _second():
            front_end.submit_nowait(request)

        asyncio.run(_first())
        with pytest.raises(ServingError, match="another event loop"):
            asyncio.run(_second())


class TestFailedFlush:
    """A flush that raises fails its own batch's futures, nobody else's.

    Regression: the lost batch's futures used to stay at the head of the
    waiter queue, so the next successful flush resolved them with other
    requests' decisions and its own callers hung forever.
    """

    CONFIGS = {
        "full": CoalescerConfig(max_batch=2, max_delay_ms=60_000.0),
        "deadline": CoalescerConfig(max_batch=64, max_delay_ms=10.0),
        "drain": CoalescerConfig(max_batch=64, max_delay_ms=60_000.0),
    }

    @pytest.mark.parametrize("trigger", sorted(CONFIGS))
    def test_failed_flush_fails_exactly_its_batch(self, async_fleet, dataset, trigger):
        champion = async_fleet[0].active_model
        replica = ModelServer(async_fleet[0].hbase, ModelServerConfig())  # no model yet
        server = AlipayServer(replica)
        a, b, c, d = _requests(dataset, 4)

        async def _flush(front_end, futures):
            if trigger == "deadline":
                await asyncio.wait(futures, timeout=5.0)
            elif trigger == "drain":
                assert len(await front_end.drain()) in (0, len(futures))
            # "full": the second submit_nowait already flushed

        async def _run():
            front_end = AsyncServingFrontEnd(server, coalescer=self.CONFIGS[trigger])
            lost = [front_end.submit_nowait(a), front_end.submit_nowait(b)]
            await _flush(front_end, lost)
            replica.load_model(
                champion.model, version="v1", threshold=champion.threshold, plan=champion.plan
            )
            kept = [front_end.submit_nowait(c), front_end.submit_nowait(d)]
            await _flush(front_end, kept)
            return lost, kept, len(front_end.coalescer)

        lost, kept, pending = asyncio.run(_run())
        assert pending == 0
        assert all(future.done() for future in lost + kept)
        assert all(isinstance(future.exception(), ModelNotLoadedError) for future in lost)
        assert [future.result().request.transaction_id for future in kept] == [
            c.transaction_id,
            d.transaction_id,
        ]
        assert server.report().total == 2

    def test_cancelled_wait_does_not_disturb_its_batch(self, async_fleet, dataset):
        server = _fresh_server(async_fleet)
        a, b, c = _requests(dataset, 3)

        async def _run():
            front_end = AsyncServingFrontEnd(
                server, coalescer=CoalescerConfig(max_batch=3, max_delay_ms=60_000.0)
            )
            gone = front_end.submit_nowait(a)
            gone.cancel()
            return await asyncio.gather(front_end.submit(b), front_end.submit(c))

        served = asyncio.run(_run())
        assert [s.request.transaction_id for s in served] == [b.transaction_id, c.transaction_id]
        assert server.report().total == 3

    def test_wall_replay_raises_what_a_flush_raised(self, async_fleet, dataset):
        server = AlipayServer(ModelServer(async_fleet[0].hbase, ModelServerConfig()))
        with pytest.raises(ModelNotLoadedError):
            server.replay_transactions(
                dataset.test_transactions[:6],
                arrival_rate_per_s=5000.0,
                coalescer=CoalescerConfig(max_batch=4, max_delay_ms=2.0),
                clock="wall",
            )


class TestWallClockReplay:
    def test_wall_replay_serves_every_transaction(self, async_fleet, dataset):
        """The acceptance bar: a concurrent wall-clock replay answers every
        submitted request — zero failed, zero dropped."""
        server = _fresh_server(async_fleet)
        transactions = dataset.test_transactions[:150]
        report = server.replay_transactions(
            transactions,
            arrival_rate_per_s=3000.0,
            coalescer=CoalescerConfig(max_batch=16, max_delay_ms=4.0),
            clock="wall",
        )
        assert report.total == len(transactions)
        assert report.approved + report.interrupted == report.total
        stats = server.last_coalescer_stats
        assert stats is not None
        assert stats["requests"] == len(transactions)
        assert stats["max_wait_ms"] <= 4.0 + 1e-9
        assert stats["batches"] >= 2.0

    def test_wall_and_simulated_replay_agree_on_outcomes(self, async_fleet, dataset):
        """Same stream, same fleet policy: the two clocks must agree on every
        decision (outcomes depend on features/models, not on arrival pacing)."""
        transactions = dataset.test_transactions[:80]
        simulated = _fresh_server(async_fleet).replay_transactions(
            transactions,
            arrival_rate_per_s=2000.0,
            coalescer=CoalescerConfig(max_batch=8, max_delay_ms=5.0),
        )
        wall = _fresh_server(async_fleet).replay_transactions(
            transactions,
            arrival_rate_per_s=2000.0,
            coalescer=CoalescerConfig(max_batch=8, max_delay_ms=5.0),
            clock="wall",
        )
        assert wall.total == simulated.total
        assert wall.interrupted == simulated.interrupted
        assert wall.true_alerts == simulated.true_alerts
        assert wall.false_alerts == simulated.false_alerts

    def test_wall_clock_requires_arrival_rate(self, async_fleet, dataset):
        server = _fresh_server(async_fleet)
        with pytest.raises(ServingError, match="arrival_rate_per_s"):
            server.replay_transactions(dataset.test_transactions[:5], clock="wall")

    def test_unknown_clock_rejected(self, async_fleet, dataset):
        server = _fresh_server(async_fleet)
        with pytest.raises(ServingError, match="clock"):
            server.replay_transactions(
                dataset.test_transactions[:5],
                arrival_rate_per_s=100.0,
                clock="logical",
            )

    def test_admission_under_wall_clock_degrades_instead_of_dropping(
        self, async_fleet, dataset
    ):
        """Overload on the event loop sheds to the fallback — still answered."""
        admission = AdmissionController(
            AdmissionConfig(capacity_rps=200.0, max_queue_depth=4)
        )
        server = _fresh_server(async_fleet, admission=admission)
        transactions = dataset.test_transactions[:120]
        report = server.replay_transactions(
            transactions,
            arrival_rate_per_s=4000.0,
            coalescer=CoalescerConfig(max_batch=16, max_delay_ms=3.0),
            clock="wall",
        )
        assert report.total == len(transactions)
        assert report.degraded > 0
        assert report.peak_queue_depth > 0.0
