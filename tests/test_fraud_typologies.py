"""Labelled fraud-typology suite regression tests (PR 10), per stream.

One planner — :class:`~repro.datagen.fraud.TypologyFraudSuite` — sits behind
both stream generators, so every contract is asserted on both: each test
class below runs against :class:`WorldStream` at 260 accounts, and its
``...Scalable`` subclass reruns the same assertions against
:class:`ScalableWorldStream` at 1 500.  The typologies (mule/relay chains,
account takeover, bust-out, merchant collusion, smurfing) must be seeded and
deterministic, batch-size invariant, checkpoint/resume safe, and respect
:meth:`WorldConfig.validate`'s fraud budget.  Each scenario's structural
signature (chain hops, sub-threshold amounts, one-shot bust-outs, business
hours rings) is asserted directly on the emitted, labelled transactions.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import (
    FRAUD_TYPOLOGIES,
    ScalableWorldStream,
    TypologyConfig,
    WorldConfig,
    WorldStream,
)
from repro.datagen.profiles import ProfileConfig
from repro.exceptions import DataGenerationError

TYPOLOGIES = TypologyConfig()


def typology_config(num_users: int = 260, num_days: int = 12, seed: int = 17) -> WorldConfig:
    """A small world whose campaign frauds come from the labelled suite."""
    return WorldConfig(
        profile=ProfileConfig(
            num_users=num_users,
            num_communities=6,
            fraudster_fraction=0.1,
            seed=seed,
        ),
        num_days=num_days,
        transactions_per_user_per_day=0.6,
        typologies=TypologyConfig(),
        seed=seed,
    )


class StreamCase:
    """The stream a test class drains; ``Scalable`` swaps it in the subclasses."""

    stream_class = WorldStream
    num_users = 260

    def config(self, **overrides) -> WorldConfig:
        return typology_config(num_users=self.num_users, **overrides)

    def stream(self, **overrides):
        """A fresh stream over this case's population."""
        return self.stream_class(self.config(**overrides))


class Scalable:
    """Mixin (listed first): the columnar stream, at a size no other test
    asserts the signatures on."""

    stream_class = ScalableWorldStream
    num_users = 1_500


@pytest.fixture(scope="class")
def typology_transactions(request):
    """One drained typology world per test class, shared by its assertions."""
    return list(request.cls().stream())


def by_typology(transactions):
    groups = defaultdict(list)
    for txn in transactions:
        if txn.fraud_typology:
            groups[txn.fraud_typology].append(txn)
    return groups


def test_both_streams_emit_the_same_typology_schedule():
    """One suite fed the same fraud generator: at equal seed the two streams
    carry the same tagged transfers, so a tag names one event process.  Only
    the accounts the transfers land on differ with the population layout."""

    def schedule(stream):
        return sorted(
            (txn.day, txn.hour, txn.fraud_typology, txn.amount, txn.label_available_day)
            for txn in stream
            if txn.fraud_typology
        )

    world = schedule(WorldStream(typology_config(num_users=600)))
    assert world == schedule(ScalableWorldStream(typology_config(num_users=600)))
    assert {tag for _, _, tag, _, _ in world} == set(FRAUD_TYPOLOGIES)


class TestDeterminismAndCoverage(StreamCase):
    def test_world_stream_deterministic_and_emits_all_five(self, typology_transactions):
        assert list(self.stream()) == typology_transactions
        assert set(by_typology(typology_transactions)) == set(FRAUD_TYPOLOGIES)

    def test_only_fraud_rows_carry_typology_tags(self, typology_transactions):
        for txn in typology_transactions:
            if not txn.is_fraud:
                assert txn.fraud_typology == ""
            else:
                # Campaign frauds carry their generating typology; background
                # fraud (if any at this rate) stays untagged by design.
                assert txn.fraud_typology in FRAUD_TYPOLOGIES + ("",)

    def test_batch_size_invariance(self):
        expected = list(self.stream(num_days=8, seed=3))

        # Wrapped here, not on the method: hypothesis refuses one @given
        # test run from two classes (``differing_executors``).
        @settings(max_examples=8, deadline=None)
        @given(batch_size=st.integers(min_value=1, max_value=500))
        def check(batch_size):
            batches = self.stream(num_days=8, seed=3).batches(batch_size)
            assert [txn for batch in batches for txn in batch] == expected

        check()


class TestCoverageScalable(Scalable, TestDeterminismAndCoverage):
    pass


class TestCheckpointResume(StreamCase):
    def test_mid_day_resume_continues_the_exact_sequence(self):
        reference = list(self.stream(seed=41))
        stream = self.stream(seed=41)
        events = stream.events()
        consumed = [next(events) for _ in range(len(reference) // 3)]
        checkpoint = stream.checkpoint()
        assert checkpoint.offset > 0 or checkpoint.day > 0

        resumed = self.stream(seed=41)
        resumed.seek(checkpoint)
        assert consumed + list(resumed) == reference


class TestResumeScalable(Scalable, TestCheckpointResume):
    pass


class TestBudgetAndConfigValidation(StreamCase):
    def test_typology_volume_exceeding_budget_rejected(self):
        config = typology_config(num_users=100)
        typologies = TypologyConfig(
            active_day_probability=1.0,
            takeover_burst=50,
            bust_out_cashouts=50,
            collusion_ring_size=50,
            smurf_transfers=50,
        )
        with pytest.raises(DataGenerationError, match="transaction budget"):
            replace(
                config,
                profile=replace(config.profile, fraudster_fraction=0.2),
                transactions_per_user_per_day=0.35,
                typologies=typologies,
            )

    def test_typology_config_rejects_bad_knobs(self):
        with pytest.raises(DataGenerationError, match="unknown typologies"):
            TypologyConfig(enabled=("mule_chain", "ponzi"))
        with pytest.raises(DataGenerationError, match="duplicates"):
            TypologyConfig(enabled=("smurfing", "smurfing"))
        with pytest.raises(DataGenerationError, match="must not be empty"):
            TypologyConfig(enabled=())
        with pytest.raises(DataGenerationError, match="active_day_probability"):
            TypologyConfig(active_day_probability=1.5)
        with pytest.raises(DataGenerationError, match="smurf_transfers"):
            TypologyConfig(smurf_transfers=0)
        with pytest.raises(DataGenerationError, match="smurf_threshold"):
            TypologyConfig(smurf_threshold=-1.0)
        TypologyConfig()

    def test_enabled_subset_limits_emitted_typologies(self):
        config = replace(
            self.config(seed=47), typologies=TypologyConfig(enabled=("smurfing", "account_takeover"))
        )
        tagged = by_typology(self.stream_class(config))
        assert set(tagged) <= {"smurfing", "account_takeover"}
        assert tagged


class TestEnabledSubsetScalable(Scalable, StreamCase):
    # The class's other two tests read no stream, so only this one reruns.
    test_enabled_subset_limits_emitted_typologies = (
        TestBudgetAndConfigValidation.test_enabled_subset_limits_emitted_typologies
    )


class TestTypologySignatures(StreamCase):
    def test_merchant_collusion_is_round_amounts_in_business_hours(self, typology_transactions):
        rings = by_typology(typology_transactions)["merchant_collusion"]
        assert rings
        for txn in rings:
            assert 9 <= txn.hour < 18
            assert txn.amount % 50.0 == 0.0

    def test_smurfing_stays_below_the_reporting_threshold(self, typology_transactions):
        swarm = by_typology(typology_transactions)["smurfing"]
        assert swarm
        for txn in swarm:
            assert txn.amount < TYPOLOGIES.smurf_threshold

    def test_bust_out_fires_at_most_once_per_account(self, typology_transactions):
        # The fraudster is the *payer* in a bust-out (outbound cash-out, the
        # reverse of the gathering star), and each account busts exactly once.
        bust_days = defaultdict(set)
        for txn in by_typology(typology_transactions)["bust_out"]:
            bust_days[txn.payer_id].add(txn.day)
        assert bust_days
        for payer, days in bust_days.items():
            assert len(days) == 1, f"{payer} busted on multiple days {sorted(days)}"
            assert min(days) >= TYPOLOGIES.bust_out_buildup_days

    def test_account_takeover_drains_one_victim_in_a_tight_burst(self, typology_transactions):
        bursts = defaultdict(list)
        for txn in by_typology(typology_transactions)["account_takeover"]:
            bursts[(txn.payee_id, txn.day)].append(txn)
        assert bursts
        for (payee, _), txns in bursts.items():
            assert len({t.payer_id for t in txns}) == 1  # single compromised victim
            hours = [t.hour for t in txns]
            assert max(hours) - min(hours) <= len(txns)  # same small-hours window

    def test_mule_chains_relay_with_a_skim_at_each_hop(self, typology_transactions):
        hops = defaultdict(list)
        for txn in by_typology(typology_transactions)["mule_chain"]:
            hops[(txn.day, txn.label_available_day)].append(txn)
        relayed = [sorted(txns, key=lambda t: t.hour) for txns in hops.values() if len(txns) > 1]
        assert relayed
        for chain in relayed:
            for upstream, downstream in zip(chain, chain[1:]):
                if upstream.payee_id == downstream.payer_id:  # consecutive hop
                    assert downstream.amount < upstream.amount  # the skim


class TestSignaturesScalable(Scalable, TestTypologySignatures):
    pass
