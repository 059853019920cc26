"""Admission control: bounded queues and shed-to-rules overload behaviour.

The paper's serving requirement is an answer for *every* transfer within tens
of milliseconds.  When arrivals exceed the fleet's capacity, queueing
unboundedly breaks that promise for everyone; dropping requests breaks it
outright.  The production-shaped behaviour is *load shedding with graceful
degradation*: past a bounded backlog, new arrivals skip the ML path (HBase
reads + plan execution + GBDT) and are answered immediately by the cheap
rule-based model of :mod:`repro.models.rules` — the explicit IF/THEN rule set
a risk-policy team maintains — evaluated on request-local fields only, so it
needs no feature-store round trip at all.

Every request is still answered (nothing is dropped on the floor); the
:class:`~repro.serving.alipay.ServingReport` reports the fraction degraded to
rules and the peak backlog, which the overload tests bound.

The queue is modelled in simulated time: arrivals carry their event-clock
``now_ms`` (the replay's arrival process) and the backlog drains at the
configured service capacity.  That keeps overload tests deterministic —
wall-clock speed of the test host never changes the admission decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

import numpy as np

from repro.contracts import POSITIVE, check_fields, checked, integer, optional
from repro.exceptions import ServingError
from repro.models.rules import Condition, Rule, RuleSet
from repro.serving.model_server import PredictionResponse, TransactionRequest


class AdmissionDecision(str, Enum):
    """What the controller decided for one arrival."""

    ADMIT = "admit"  # queue for the full ML scoring path
    DEGRADE = "degrade"  # answer now from the rule-based fallback


@dataclass(frozen=True)
class AdmissionConfig:
    """Capacity model and backlog bounds of the admission controller.

    ``capacity_rps`` is the fleet's sustainable ML-path throughput (requests
    per second of simulated time); ``max_queue_depth`` is the backlog at
    which shedding starts, and ``resume_queue_depth`` the low watermark at
    which it stops (hysteresis, so the controller does not flap around the
    threshold request-by-request).
    """

    capacity_rps: float = checked(POSITIVE)
    max_queue_depth: int = checked(integer(1), 64)
    resume_queue_depth: Optional[int] = checked(optional(integer(0)), None)

    def __post_init__(self) -> None:
        check_fields(self, ServingError)
        if self.effective_resume_depth > self.max_queue_depth:
            raise ServingError("resume_queue_depth must be in [0, max_queue_depth]")

    @property
    def effective_resume_depth(self) -> int:
        """The shedding low watermark (defaults to half the queue bound)."""
        if self.resume_queue_depth is not None:
            return self.resume_queue_depth
        return self.max_queue_depth // 2


class AdmissionController:
    """Bounded-backlog admission with shed-to-rules hysteresis.

    The backlog is a fluid queue: each arrival first drains
    ``capacity_rps × elapsed`` of queued work, then either joins the queue
    (ADMIT) or — when the queue is at ``max_queue_depth``, and until it falls
    back to ``resume_queue_depth`` — is diverted to the fallback (DEGRADE).
    """

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self._backlog = 0.0
        self._last_ms: Optional[float] = None
        self._shedding = False
        self.admitted = 0
        self.degraded = 0
        self.peak_queue_depth = 0.0
        self.shed_intervals = 0

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> float:
        """Current modelled backlog, in requests."""
        return self._backlog

    def on_arrival(self, now_ms: float) -> AdmissionDecision:
        """Decide one arrival at simulated time ``now_ms`` (finite, non-decreasing)."""
        if not math.isfinite(now_ms):
            # Checked before it is kept: a NaN clock would pass every later
            # ``now_ms < last`` test and switch the ordering check off.
            raise ServingError(f"admission clock must be finite, got {now_ms!r}")
        if self._last_ms is not None:
            if now_ms < self._last_ms:
                raise ServingError("admission clock must be non-decreasing")
            drained = self.config.capacity_rps * (now_ms - self._last_ms) / 1000.0
            self._backlog = max(0.0, self._backlog - drained)
        self._last_ms = now_ms
        if self._shedding and self._backlog <= self.config.effective_resume_depth:
            self._shedding = False
        if not self._shedding and self._backlog + 1 > self.config.max_queue_depth:
            self._shedding = True
            self.shed_intervals += 1
        if self._shedding:
            self.degraded += 1
            return AdmissionDecision.DEGRADE
        self._backlog += 1.0
        self.admitted += 1
        self.peak_queue_depth = max(self.peak_queue_depth, self._backlog)
        return AdmissionDecision.ADMIT

    def stats(self) -> Dict[str, float]:
        """Counters for the serving report: admissions, sheds, peak backlog."""
        total = self.admitted + self.degraded
        return {
            "admitted": float(self.admitted),
            "degraded": float(self.degraded),
            "degraded_fraction": self.degraded / total if total else 0.0,
            "peak_queue_depth": self.peak_queue_depth,
            "shed_intervals": float(self.shed_intervals),
        }


#: Feature order of the request-local vector the fallback rules see.
FALLBACK_FEATURE_NAMES = (
    "amount",
    "is_night",
    "is_new_device",
    "ip_risk_score",
    "payer_recent_txn_count",
)


def default_fraud_rules() -> RuleSet:
    """A hand-maintained high-precision rule set over request-local fields.

    Thresholds follow the synthetic world's generator: legitimate transfers
    draw ``ip_risk_score`` from Beta(1.2, 12) (median ≈ 0.07) while fraud
    draws from Beta(4, 4) (median 0.5), and fraud amounts sit in the upper
    tail of the lognormal amount distribution.  The rules trade recall for
    precision — under overload it is better to miss some fraud than to
    interrupt legitimate transfers wholesale.
    """
    amount, night, new_device, ip_risk, _ = range(len(FALLBACK_FEATURE_NAMES))
    return RuleSet(
        rules=[
            Rule([Condition(ip_risk, ">", 0.6), Condition(new_device, ">", 0.5)], 0.95),
            Rule([Condition(ip_risk, ">", 0.45), Condition(amount, ">", 500.0)], 0.85),
            Rule([Condition(amount, ">", 2000.0), Condition(night, ">", 0.5)], 0.75),
            Rule([Condition(ip_risk, ">", 0.8)], 0.7),
        ],
        default_value=0.05,
    )


class RuleBasedFallback:
    """Scores shed requests from request-local fields only — no HBase reads.

    Evaluates :func:`default_fraud_rules` and answers in the same
    :class:`~repro.serving.model_server.PredictionResponse` shape as the ML
    path, tagged with its own model version so reports can tell the paths
    apart.
    """

    #: Rule score at or above which a shed request raises an alert.
    THRESHOLD = 0.5
    #: Model version every fallback response carries.
    VERSION = "rules-fallback"

    def __init__(self) -> None:
        self.rules = default_fraud_rules()
        self.requests_served = 0

    @staticmethod
    def request_vector(request: TransactionRequest) -> np.ndarray:
        """The request's :data:`FALLBACK_FEATURE_NAMES` vector."""
        from repro.features.aggregation import is_night_hour

        return np.array(
            [
                request.amount,
                1.0 if is_night_hour(request.hour) else 0.0,
                1.0 if request.is_new_device else 0.0,
                request.ip_risk_score,
                float(request.payer_recent_txn_count),
            ],
            dtype=np.float64,
        )

    def respond(self, request: TransactionRequest) -> PredictionResponse:
        """Answer one shed request immediately from the rule set."""
        probability = float(self.rules.predict_row(self.request_vector(request)))
        self.requests_served += 1
        return PredictionResponse(
            transaction_id=request.transaction_id,
            fraud_probability=probability,
            is_fraud_alert=probability >= self.THRESHOLD,
            threshold=self.THRESHOLD,
            model_version=self.VERSION,
            latency_ms=0.0,
        )
