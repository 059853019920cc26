"""Online real-time prediction: the Model Server and the Alipay front end.

Once offline training finishes, the learned model files, per-user basic
features and node embeddings are uploaded (to the model registry and to
Ali-HBase).  When a user initiates a transfer in the Alipay app, the Alipay
server calls the Model Server (MS); the MS reads the latest per-user rows from
Ali-HBase, assembles the same feature vector the offline trainer used, scores
the transaction within milliseconds, and — if the fraud probability exceeds
the alert threshold — tells the Alipay server to interrupt the on-going
transaction and notify the transferor (paper Figure 5).

Around that scoring core sits the serving *runtime* (see
``docs/ARCHITECTURE.md``): consistent-hash account sharding
(:mod:`repro.serving.router`), deadline-bounded request coalescing
(:mod:`repro.serving.coalescer`), registry-driven hot model rotation with
canaries and shadow scoring (:mod:`repro.serving.rotation`), and bounded
admission control that sheds overload to the rule-based model
(:mod:`repro.serving.admission`).
"""

from repro.serving.latency import LatencyTracker, LatencyReport
from repro.serving.feature_source import HBaseFeatureSource
from repro.serving.model_server import (
    ModelServer,
    ModelServerConfig,
    PredictionResponse,
    ServingModel,
    ShadowReport,
    TransactionRequest,
)
from repro.serving.router import ServingRouter, fleet_cache_stats
from repro.serving.coalescer import CoalescerConfig, RequestCoalescer
from repro.serving.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    RuleBasedFallback,
    default_fraud_rules,
)
from repro.serving.streaming import StreamingFeatureUpdater
from repro.serving.embedding_refresh import (
    EmbeddingRefreshConfig,
    EmbeddingRefreshQueue,
    EmbeddingRefresher,
    RefreshReport,
)
from repro.serving.async_server import AsyncServingFrontEnd
from repro.serving.alipay import (
    AlipayServer,
    ServedTransaction,
    ServingReport,
    TransactionOutcome,
)
from repro.serving.rotation import FleetController, RolloutReport

__all__ = [
    "StreamingFeatureUpdater",
    "EmbeddingRefreshConfig",
    "EmbeddingRefreshQueue",
    "EmbeddingRefresher",
    "RefreshReport",
    "LatencyTracker",
    "LatencyReport",
    "HBaseFeatureSource",
    "ModelServer",
    "ModelServerConfig",
    "PredictionResponse",
    "ServingModel",
    "ShadowReport",
    "TransactionRequest",
    "ServingRouter",
    "fleet_cache_stats",
    "CoalescerConfig",
    "RequestCoalescer",
    "AsyncServingFrontEnd",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "RuleBasedFallback",
    "default_fraud_rules",
    "AlipayServer",
    "ServingReport",
    "TransactionOutcome",
    "ServedTransaction",
    "FleetController",
    "RolloutReport",
]
