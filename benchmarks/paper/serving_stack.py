"""A trained configuration deployed to a fresh online stack, for the serving
benchmarks: Ali-HBase, a Model Server fleet and the Alipay front end."""

from __future__ import annotations

from typing import Optional

from repro.core import ExperimentRunner
from repro.core.config import Table1Configuration
from repro.core.pipeline import SlicePreparation
from repro.hbase.client import HBaseClient
from repro.serving.alipay import AlipayServer
from repro.serving.model_server import ModelServer, ModelServerConfig


def build_serving_stack(
    runner: ExperimentRunner,
    preparation: SlicePreparation,
    configuration: Table1Configuration,
    *,
    num_servers: int = 1,
    sla_budget_ms: float = 50.0,
    row_cache_ttl_s: Optional[float] = None,
    row_cache_rows: Optional[int] = None,
    router=None,
    registry=None,
):
    """Train one configuration and deploy it to a fresh online stack.

    Returns ``(bundle, hbase, servers, alipay)``: the trained bundle, the
    Ali-HBase store populated with per-user features and embeddings, the
    Model Server fleet with the model + exported FeaturePlan hot-loaded,
    and an Alipay front end sharding requests across the fleet.  With sliding
    window aggregation configured, the front end comes wired to the
    pre-seeded streaming feature updater, so replayed transactions keep
    the served aggregates fresh.

    Each server runs on its own :meth:`HBaseClient.connection` (a private
    client-side row cache over the shared store — the real fleet shape;
    size it with ``row_cache_ttl_s``/``row_cache_rows``).  ``router``
    replaces the front end's default policy (a
    :class:`~repro.serving.router.ServingRouter` sharding by account);
    ``registry`` is where the fleet load registers the bundle (a private
    registry when omitted).
    """
    bundle = runner.pipeline.train(preparation, configuration)
    hbase = HBaseClient()
    servers = [
        ModelServer(
            hbase.connection(row_cache_ttl_s=row_cache_ttl_s, row_cache_rows=row_cache_rows),
            ModelServerConfig(sla_budget_ms=sla_budget_ms),
        )
        for _ in range(num_servers)
    ]
    updater = runner.pipeline.deploy_fleet(bundle, preparation, hbase, servers, registry=registry)
    return bundle, hbase, servers, AlipayServer(servers, feature_updater=updater, router=router)
