"""The Model Server (MS).

The MS answers the Alipay server's fraud-check calls.  For each transaction
request it

1. reads the payer's and payee's latest rows from Ali-HBase — one batched
   ``multi_get`` per column family (profiles, embeddings) per request batch,
2. executes the :class:`~repro.features.plan.FeaturePlan` exported by the
   offline trainer, so the online vector is byte-identical to the training
   one — the MS owns no feature-assembly logic of its own,
3. scores the assembled design matrix with one ``predict_proba`` call and
   compares against the alert threshold calibrated offline,
4. reports the decisions together with the measured (amortised) latency.

Model files are replaced periodically ("T+1"): :meth:`ModelServer.load_model`
hot-swaps the detector, its threshold and its plan atomically as one
immutable :class:`ServingModel`, without interrupting serving and without
mutating any shared configuration object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.contracts import POSITIVE, PROBABILITY, check_fields, checked
from repro.datagen.schema import Transaction, TransactionChannel, transfer_value_error
from repro.exceptions import ModelNotLoadedError, ServingError
from repro.features.plan import FeaturePlan, FeaturePlanExecutor
from repro.hbase.client import DEFAULT_FEATURE_TABLE, HBaseClient
from repro.logging_utils import Stopwatch, get_logger
from repro.models.base import BaseDetector
from repro.serving.feature_source import HBaseFeatureSource
from repro.serving.latency import LatencyTracker

logger = get_logger("serving.model_server")


@dataclass
class TransactionRequest:
    """The online request payload: a transaction without a label."""

    transaction_id: str
    payer_id: str
    payee_id: str
    amount: float
    hour: int
    day: int
    channel: TransactionChannel
    trans_city: str
    device_id: str
    is_new_device: bool
    ip_risk_score: float
    payer_recent_txn_count: int = 0
    payer_recent_amount: float = 0.0
    payee_recent_inbound_count: int = 0

    def __post_init__(self) -> None:
        # Before any path — scoring, the rules fallback, the window engine's
        # ingest — can read them: an hour of day is one of 0-23, and the
        # amount and IP risk score keep the schema's rules.  A NaN amount
        # once ingested reads NaN in the payer's window row for good.
        if self.hour not in range(24):
            raise ServingError(f"hour must be an integer in 0-23, got {self.hour!r}")
        value_error = transfer_value_error(self.amount, self.ip_risk_score)
        if value_error is not None:
            raise ServingError(value_error)

    @classmethod
    def from_transaction(cls, transaction: Transaction) -> "TransactionRequest":
        """Strip the label from an offline transaction record."""
        return cls(
            transaction_id=transaction.transaction_id,
            payer_id=transaction.payer_id,
            payee_id=transaction.payee_id,
            amount=transaction.amount,
            hour=transaction.hour,
            day=transaction.day,
            channel=transaction.channel,
            trans_city=transaction.trans_city,
            device_id=transaction.device_id,
            is_new_device=transaction.is_new_device,
            ip_risk_score=transaction.ip_risk_score,
            payer_recent_txn_count=transaction.payer_recent_txn_count,
            payer_recent_amount=transaction.payer_recent_amount,
            payee_recent_inbound_count=transaction.payee_recent_inbound_count,
        )

    def to_transaction(self) -> Transaction:
        """View the request as an (unlabelled) transaction for feature extraction."""
        return Transaction(
            transaction_id=self.transaction_id,
            day=self.day,
            hour=self.hour,
            payer_id=self.payer_id,
            payee_id=self.payee_id,
            amount=self.amount,
            channel=self.channel,
            trans_city=self.trans_city,
            device_id=self.device_id,
            is_new_device=self.is_new_device,
            ip_risk_score=self.ip_risk_score,
            payer_recent_txn_count=self.payer_recent_txn_count,
            payer_recent_amount=self.payer_recent_amount,
            payee_recent_inbound_count=self.payee_recent_inbound_count,
            is_fraud=False,
            label_available_day=self.day,
        )


@dataclass(slots=True)
class PredictionResponse:
    """Result of one online fraud check."""

    transaction_id: str
    fraud_probability: float
    is_fraud_alert: bool
    threshold: float
    model_version: str
    latency_ms: float


@dataclass(frozen=True)
class ModelServerConfig:
    """Immutable server-level configuration.

    Per-model state (threshold, feature plan) lives on the
    :class:`ServingModel` installed by :meth:`ModelServer.load_model`, so two
    servers sharing one config object can never clobber each other;
    ``alert_threshold`` here is only the default for models loaded without a
    calibrated threshold.
    """

    feature_table: str = DEFAULT_FEATURE_TABLE
    alert_threshold: float = checked(PROBABILITY, 0.5)
    sla_budget_ms: float = checked(POSITIVE, 50.0)

    def __post_init__(self) -> None:
        check_fields(self, ServingError)


@dataclass(frozen=True)
class ServingModel:
    """One hot-swappable unit of serving state: model ⊕ threshold ⊕ plan."""

    model: BaseDetector
    version: str
    threshold: float
    plan: FeaturePlan

    def __post_init__(self) -> None:
        if not self.model.is_fitted:
            raise ServingError("cannot serve an unfitted model")
        if not 0.0 <= self.threshold <= 1.0:
            raise ServingError("threshold must be in [0, 1]")


@dataclass
class ShadowReport:
    """Divergence of a shadow-scored challenger from the active champion.

    ``mean_abs_divergence`` is the mean absolute difference of the two fraud
    probabilities; ``decision_flips`` counts requests where the two models'
    alert decisions (each against its own threshold) disagree.
    """

    champion_version: str
    challenger_version: str
    requests: int
    mean_abs_divergence: float
    max_abs_divergence: float
    decision_flips: int


class ModelServer:
    """One Model Server instance."""

    def __init__(
        self,
        hbase: HBaseClient,
        config: Optional[ModelServerConfig] = None,
    ) -> None:
        self.hbase = hbase
        self.config = config or ModelServerConfig()
        self._feature_table = self.config.feature_table
        self._active: Optional[ServingModel] = None
        self._executor: Optional[FeaturePlanExecutor] = None
        self._shadow: Optional[ServingModel] = None
        self._shadow_executor: Optional[FeaturePlanExecutor] = None
        self._reset_shadow_stats()
        self.latency = LatencyTracker(sla_budget_ms=self.config.sla_budget_ms)
        self.requests_served = 0
        self._feature_source: Optional[HBaseFeatureSource] = None
        self._missing_embeddings_base = 0

    # ------------------------------------------------------------------
    # Model lifecycle
    # ------------------------------------------------------------------
    def _serving_model(
        self,
        model: BaseDetector,
        version: str,
        threshold: Optional[float],
        plan: Optional[FeaturePlan],
    ) -> ServingModel:
        """The one way a model becomes servable, champion and shadow alike."""
        return ServingModel(
            model=model,
            version=version,
            threshold=self.config.alert_threshold if threshold is None else float(threshold),
            plan=plan if plan is not None else FeaturePlan(),
        )

    def load_model(
        self,
        model: BaseDetector,
        *,
        version: str,
        threshold: Optional[float] = None,
        plan: Optional[FeaturePlan] = None,
    ) -> None:
        """Hot-swap the served model (the periodic T+1 update).

        The trainer exports a :class:`FeaturePlan` with every model; pass it
        as ``plan``.  Without one the model is served the basic features
        only (an empty plan).
        """
        self._active = self._serving_model(model, version, threshold, plan)
        self._rebuild_executor()
        logger.info(
            "model %s loaded (threshold %.3f, %d features)",
            version,
            self._active.threshold,
            self._active.plan.num_features,
        )

    def load_shadow_model(
        self,
        model: BaseDetector,
        *,
        version: str,
        threshold: Optional[float] = None,
        plan: Optional[FeaturePlan] = None,
    ) -> None:
        """Install a challenger that shadow-scores live traffic.

        Every subsequent :meth:`predict_batch` also assembles the shadow's
        own plan and scores the challenger on the same requests; only the
        champion's decisions are returned to callers, while the divergence
        between the two is accumulated for :meth:`shadow_report`.  Loading a
        new shadow resets the accumulated divergence stats.
        """
        self._shadow = self._serving_model(model, version, threshold, plan)
        self._reset_shadow_stats()
        self._rebuild_executor()

    def _reset_shadow_stats(self) -> None:
        self._shadow_requests = 0
        self._shadow_abs_diff_sum = 0.0
        self._shadow_abs_diff_max = 0.0
        self._shadow_flips = 0

    def clear_shadow_model(self) -> Optional[ShadowReport]:
        """Stop shadow scoring; returns the final divergence report (if any)."""
        report = self.shadow_report()
        self._shadow = None
        self._shadow_executor = None
        self._reset_shadow_stats()
        return report

    def shadow_report(self) -> Optional[ShadowReport]:
        """Champion-vs-challenger divergence so far (None without a shadow)."""
        if self._shadow is None or self._active is None:
            return None
        requests = self._shadow_requests
        return ShadowReport(
            champion_version=self._active.version,
            challenger_version=self._shadow.version,
            requests=requests,
            mean_abs_divergence=self._shadow_abs_diff_sum / requests if requests else 0.0,
            max_abs_divergence=self._shadow_abs_diff_max,
            decision_flips=self._shadow_flips,
        )

    def _rebuild_executor(self) -> None:
        # Executors are rebuilt on every model load / table switch; fold the
        # outgoing active source's missing-row count into the server-level
        # base so the counter survives rotations.
        if self._feature_source is not None:
            self._missing_embeddings_base += self._feature_source.missing_embeddings
            self._feature_source = None
        if self._active is None:
            self._executor = None
        else:
            source = HBaseFeatureSource(self.hbase, self._feature_table)
            self._feature_source = source
            self._executor = FeaturePlanExecutor(self._active.plan, source)
        if self._shadow is None:
            self._shadow_executor = None
        else:
            source = HBaseFeatureSource(self.hbase, self._feature_table)
            self._shadow_executor = FeaturePlanExecutor(self._shadow.plan, source)

    @property
    def missing_embeddings(self) -> int:
        """(user, block) reads on the active scoring path that found no
        stored embedding row at all (served the explicit zero default).

        Accumulated across model rotations and feature-table switches; the
        shadow scoring path is not counted.
        """
        live = (
            self._feature_source.missing_embeddings
            if self._feature_source is not None
            else 0
        )
        return self._missing_embeddings_base + live

    @property
    def feature_table(self) -> str:
        """Name of the HBase table this server reads feature rows from."""
        return self._feature_table

    @feature_table.setter
    def feature_table(self, table_name: str) -> None:
        self._feature_table = table_name
        self._rebuild_executor()

    @property
    def active_model(self) -> Optional[ServingModel]:
        """The champion serving unit currently answering requests."""
        return self._active

    @property
    def plan_executor(self) -> Optional[FeaturePlanExecutor]:
        """The executor assembling this server's vectors (None before load).

        Exposed so tests can prove offline/online parity: the executor is the
        same class the offline :class:`FeatureAssembler` runs, only pointed at
        the HBase-backed source.
        """
        return self._executor

    @property
    def model_version(self) -> str:
        """Version string of the active model ('' before the first load)."""
        return self._active.version if self._active is not None else ""

    @property
    def alert_threshold(self) -> float:
        """The alert threshold decisions are made against right now."""
        return (
            self._active.threshold
            if self._active is not None
            else self.config.alert_threshold
        )

    # ------------------------------------------------------------------
    # Online prediction
    # ------------------------------------------------------------------
    def predict_batch(
        self, requests: Sequence[TransactionRequest]
    ) -> List[PredictionResponse]:
        """Score a micro-batch with one assembly pass and one model call.

        All HBase rows the batch needs are fetched with one ``multi_get`` per
        column family, the design matrix is assembled in one vectorised pass,
        and the model scores it with a single ``predict_proba``.  Each
        response reports the amortised per-request latency (batch wall time
        divided by batch size), which is what the SLA budget constrains.
        The batch's bookkeeping is one pass too: one latency record of
        ``len(requests)`` samples, one counter add, and the responses built
        from the probabilities' ``tolist()`` in one comprehension.
        """
        active, executor = self._active, self._executor
        if active is None or executor is None:
            raise ModelNotLoadedError("the Model Server has no model loaded")
        if not requests:
            return []
        watch = Stopwatch().start()
        probabilities = active.model.predict_proba(executor.feature_values(requests))
        count = len(requests)
        per_request_ms = watch.stop() * 1000.0 / count
        if self._shadow is not None and self._shadow_executor is not None:
            # Shadow scoring is off the latency clock: in production the
            # challenger scores on a mirrored copy of the traffic, not in the
            # caller's critical path.
            shadow_probabilities = self._shadow.model.predict_proba(
                self._shadow_executor.feature_values(requests)
            )
            abs_diffs = np.abs(np.asarray(shadow_probabilities) - np.asarray(probabilities))
            self._shadow_requests += len(requests)
            self._shadow_abs_diff_sum += float(abs_diffs.sum())
            self._shadow_abs_diff_max = max(self._shadow_abs_diff_max, float(abs_diffs.max()))
            self._shadow_flips += int(
                np.sum(
                    (np.asarray(probabilities) >= active.threshold)
                    != (np.asarray(shadow_probabilities) >= self._shadow.threshold)
                )
            )
        self.latency.record(per_request_ms, count)
        self.requests_served += count
        threshold, version = active.threshold, active.version
        return [
            PredictionResponse(
                request.transaction_id,
                probability,
                probability >= threshold,
                threshold,
                version,
                per_request_ms,
            )
            for request, probability in zip(requests, probabilities.tolist())
        ]
