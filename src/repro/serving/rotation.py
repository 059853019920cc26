"""Registry-driven hot model rotation across a live Model Server fleet.

The offline pipeline registers a new :class:`~repro.core.registry.ModelVersion`
every training day; this module is the control plane that moves the fleet to
it without dropping a request:

* **Atomic per-replica swap.**  ``ModelServer.load_model`` installs the model,
  its threshold and its feature plan as one immutable ``ServingModel`` —
  a replica is always serving either the old version or the new one, never a
  mix, and requests in flight between two replicas' swaps simply see two
  consistent versions.
* **Canary deploys.**  ``deploy(canary_fraction=...)`` rolls the new version
  onto only a deterministic prefix of the fleet; :meth:`FleetController.promote`
  finishes the rollout, :meth:`FleetController.rollback` re-installs an
  earlier registry version everywhere (canary included).
* **Shadow scoring.**  ``start_shadow`` mirrors live traffic onto a
  challenger version on every replica; ``stop_shadow`` returns the pooled
  champion-vs-challenger divergence report that gates promotion.

The replay test in ``tests/test_serving_runtime.py`` drives a rotation in the
middle of a live stream and asserts zero failed requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.exceptions import ServingError
from repro.serving.model_server import ModelServer, ShadowReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.registry import ModelRegistry, ModelVersion


@dataclass
class RolloutReport:
    """What one control-plane action did to the fleet."""

    action: str  # "deploy", "promote" or "rollback"
    version: str
    replicas_updated: List[int]
    fleet_versions: List[str]

    @property
    def is_canary(self) -> bool:
        """True when the rollout left part of the fleet on another version."""
        return len(set(self.fleet_versions)) > 1


class FleetController:
    """Deploy / rollback / canary / shadow over a live Model Server fleet."""

    def __init__(self, fleet: Sequence[ModelServer], registry: "ModelRegistry") -> None:
        if not fleet:
            raise ServingError("FleetController needs at least one Model Server")
        self.fleet: List[ModelServer] = list(fleet)
        self.registry = registry
        self._canary_version: Optional[str] = None

    # ------------------------------------------------------------------
    def fleet_versions(self) -> List[str]:
        """The model version each replica is serving right now."""
        return [server.model_version for server in self.fleet]

    @property
    def canary_version(self) -> Optional[str]:
        """Version of an in-progress canary rollout (None when fully rolled)."""
        return self._canary_version

    def _roll(
        self, action: str, target: "ModelVersion", replicas: List[int]
    ) -> RolloutReport:
        """Install ``target`` on ``replicas``: every control-plane action ends here."""
        for index in replicas:
            self.fleet[index].load_model(
                target.model,
                version=target.version,
                threshold=target.threshold,
                plan=target.plan,
            )
        return RolloutReport(
            action=action,
            version=target.version,
            replicas_updated=replicas,
            fleet_versions=self.fleet_versions(),
        )

    # ------------------------------------------------------------------
    def deploy(
        self,
        version: Optional[str] = None,
        *,
        canary_fraction: Optional[float] = None,
    ) -> RolloutReport:
        """Roll a registry version onto the fleet (default: the latest).

        With ``canary_fraction`` only ``ceil(fraction × fleet)`` replicas
        (a deterministic prefix) receive the new version; the rest keep
        serving the incumbent until :meth:`promote` or :meth:`rollback`.
        """
        target = self.registry.get(version) if version is not None else self.registry.latest()
        count = len(self.fleet)
        if canary_fraction is not None:
            if not 0.0 < canary_fraction <= 1.0:
                raise ServingError("canary_fraction must be in (0, 1]")
            count = min(count, math.ceil(canary_fraction * count))
        self._canary_version = target.version if count < len(self.fleet) else None
        return self._roll("deploy", target, list(range(count)))

    def promote(self) -> RolloutReport:
        """Finish an in-progress canary: roll its version onto every replica."""
        if self._canary_version is None:
            raise ServingError("no canary rollout in progress")
        target = self.registry.get(self._canary_version)
        behind = [
            index
            for index, server in enumerate(self.fleet)
            if server.model_version != target.version
        ]
        report = self._roll("promote", target, behind)
        self._canary_version = None
        return report

    def rollback(self, *, steps: int = 1) -> RolloutReport:
        """Re-install the version ``steps`` registrations before the latest.

        Clears any in-progress canary — a rollback is a fleet-wide statement
        that the newest version is not trusted.
        """
        target = self.registry.rollback(steps=steps)
        self._canary_version = None
        return self._roll("rollback", target, list(range(len(self.fleet))))

    # ------------------------------------------------------------------
    def start_shadow(self, version: str) -> None:
        """Shadow-score a challenger registry version on every replica."""
        target = self.registry.get(version)
        for server in self.fleet:
            server.load_shadow_model(
                target.model,
                version=target.version,
                threshold=target.threshold,
                plan=target.plan,
            )

    def stop_shadow(self) -> Optional[ShadowReport]:
        """Stop shadow scoring and pool the fleet's divergence stats."""
        return self._pool([server.clear_shadow_model() for server in self.fleet])

    def shadow_report(self) -> Optional[ShadowReport]:
        """Pooled divergence so far without stopping the shadow."""
        return self._pool([server.shadow_report() for server in self.fleet])

    @staticmethod
    def _pool(per_replica: Sequence[Optional[ShadowReport]]) -> Optional[ShadowReport]:
        """Request-weighted merge of per-replica divergence reports."""
        reports = [r for r in per_replica if r is not None and r.requests > 0]
        if not reports:
            return None
        requests = sum(report.requests for report in reports)
        return ShadowReport(
            champion_version=reports[0].champion_version,
            challenger_version=reports[0].challenger_version,
            requests=requests,
            mean_abs_divergence=sum(
                report.mean_abs_divergence * report.requests for report in reports
            )
            / requests,
            max_abs_divergence=max(report.max_abs_divergence for report in reports),
            decision_flips=sum(report.decision_flips for report in reports),
        )
