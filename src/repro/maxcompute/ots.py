"""Open Table Service (OTS): job-instance status tracking.

In MaxCompute, the scheduler registers every job instance in OTS via the SQL
planner, marks it "running", and the executor flips it to "terminated" when
all subtasks finish.  The simulation keeps the same lifecycle so that the
client can poll instance status exactly as a developer would from the web
console.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.exceptions import JobNotFoundError


class InstanceStatus(str, Enum):
    """Lifecycle states of a job instance."""

    WAITING = "waiting"
    RUNNING = "running"
    TERMINATED = "terminated"
    FAILED = "failed"


@dataclass
class InstanceRecord:
    """One job instance registered in OTS."""

    instance_id: str
    job_name: str
    job_type: str
    status: InstanceStatus = InstanceStatus.WAITING
    progress: float = 0.0
    message: str = ""
    history: List[InstanceStatus] = field(default_factory=list)

    def transition(self, status: InstanceStatus, *, message: str = "") -> None:
        self.history.append(self.status)
        self.status = status
        if message:
            self.message = message


class OpenTableService:
    """In-memory instance-status registry."""

    def __init__(self) -> None:
        self._instances: Dict[str, InstanceRecord] = {}
        self._counter = itertools.count(1)

    # ------------------------------------------------------------------
    def register(self, job_name: str, job_type: str) -> InstanceRecord:
        """Register a new instance and return its record (status WAITING)."""
        instance_id = f"inst_{next(self._counter):08d}"
        record = InstanceRecord(instance_id=instance_id, job_name=job_name, job_type=job_type)
        self._instances[instance_id] = record
        return record

    def get(self, instance_id: str) -> InstanceRecord:
        try:
            return self._instances[instance_id]
        except KeyError as exc:
            raise JobNotFoundError(f"unknown instance {instance_id!r}") from exc

    def set_status(
        self,
        instance_id: str,
        status: InstanceStatus,
        *,
        progress: Optional[float] = None,
        message: str = "",
    ) -> None:
        record = self.get(instance_id)
        record.transition(status, message=message)
        if progress is not None:
            record.progress = float(progress)

    def update_progress(self, instance_id: str, progress: float) -> None:
        self.get(instance_id).progress = float(progress)

    # ------------------------------------------------------------------
    def list_instances(self, *, status: Optional[InstanceStatus] = None) -> List[InstanceRecord]:
        records = list(self._instances.values())
        if status is not None:
            records = [record for record in records if record.status == status]
        return records

    def summary(self) -> Dict[str, int]:
        """Count of instances per status (the web console's overview widget)."""
        counts: Dict[str, int] = {status.value: 0 for status in InstanceStatus}
        for record in self._instances.values():
            counts[record.status.value] += 1
        return counts
