"""What every workload shares: the round loop, output checksums, failure counts."""

from __future__ import annotations

import abc
import hashlib
import sys
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.titant_bench.calibration import SLICE_INTERVAL_S, Kernel
from benchmarks.titant_bench.inputs import Inputs
from benchmarks.titant_bench.stats import RoundResult
from benchmarks.titant_bench.trace import Tracer

#: One checked output: (key, value, failed) — failed marks an output that is
#: wrong by itself (shed to the rule fallback, or a check that did not hold).
Outcome = Tuple[str, float, bool]

#: Rounds whose checksums make up the printed decision checksum: the warm-up
#: round and the five measured rounds every run is guaranteed to reach.
CHECKSUM_ROUNDS = 6


class Workload(abc.ABC):
    """One closed-loop workload: a built system plus the ops that drive it."""

    name: str
    #: True when every round replays the same inputs against unchanged state,
    #: so every round must produce the same outputs.
    stateless: bool
    #: True when a round's ops are the stages of one job (latency is their sum).
    one_job = False

    def __init__(self, inputs: Inputs, tracer: Optional[Tracer]) -> None:
        self.inputs = inputs
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.round_checksums: List[str] = []
        self.problems: List[str] = []
        self._next_op_id = 0
        self.ops_run = 0

    # -- what a workload defines ------------------------------------------
    @abc.abstractmethod
    def round_ops(self, index: int) -> Sequence[object]:
        """The op inputs of round ``index`` (prepared outside the timed ops)."""

    @abc.abstractmethod
    def op(self, item: object) -> object:
        """One op through the system's top-level entry point."""

    @abc.abstractmethod
    def decomposed_op(self, item: object) -> object:
        """The same op, layer by layer, with a span around each layer call."""

    @abc.abstractmethod
    def outcomes(self, raw: object, item: object) -> List[Outcome]:
        """The op's checked outputs (called outside the timed region)."""

    @abc.abstractmethod
    def work(self, item: object) -> int:
        """Units of work one op completes."""

    @abc.abstractmethod
    def verify(self) -> None:
        """Recompute a seeded sample offline; record mismatches as failures."""

    def between_rounds(self) -> None:
        """Housekeeping outside every timed region (default: nothing)."""

    def begin_decomposed_round(self) -> None:
        """Install tracing proxies for a decomposed round (default: nothing)."""

    def end_decomposed_round(self) -> None:
        """Remove tracing proxies after a decomposed round (default: nothing)."""

    # -- the round loop ---------------------------------------------------
    def run_round(self, index: int, kernel: Kernel, *, decomposed: bool = False) -> RoundResult:
        items = self.round_ops(index)
        call = self.decomposed_op if decomposed else self.op
        op_times: List[float] = []
        raws: List[object] = []
        slice_times: List[float] = []
        if decomposed:
            self.begin_decomposed_round()
        clock = time.perf_counter
        since_slice = SLICE_INTERVAL_S
        for item in items:
            if since_slice >= SLICE_INTERVAL_S:
                slice_times.append(kernel.slice())
                since_slice = 0.0
            if decomposed:
                self.tracer.op_id = self._next_op_id
                self._next_op_id += 1
            start = clock()
            try:
                raw = call(item)
            except Exception:  # an op that raises is a failed op, not a crashed run
                raw = None
                traceback.print_exc(file=sys.stderr)
            elapsed = clock() - start
            since_slice += elapsed
            op_times.append(elapsed)
            raws.append(raw)
        slice_times.append(kernel.slice())
        self.ops_run += len(items)
        if decomposed:
            self.end_decomposed_round()

        sha = hashlib.sha256()
        work = 0
        for raw, item in zip(raws, items):
            units = self.work(item)
            work += units
            self.attempted += units
            if raw is None:
                self.failed += units
                self.problems.append(f"round {index}: an op raised")
                continue
            for key, value, failed in self.outcomes(raw, item):
                sha.update(f"{key}:{value!r};".encode())
                if failed:
                    self.failed += 1
                    self.problems.append(f"round {index}: {key} failed its check")
        checksum = sha.hexdigest()
        if self.stateless and self.round_checksums and checksum != self.round_checksums[0]:
            self.failed += work
            self.problems.append(
                f"round {index} ({'decomposed' if decomposed else 'top-level'}) "
                "returned different outputs than the first round"
            )
        self.round_checksums.append(checksum)
        self.between_rounds()
        return RoundResult(
            op_times_s=op_times,
            slice_times_s=slice_times,
            work=work,
            checksum=checksum,
        )

    # -- results ----------------------------------------------------------
    @property
    def decision_checksum(self) -> str:
        """Checksum of the outputs a run of any length is sure to produce."""
        sha = hashlib.sha256()
        rounds = self.round_checksums[:1] if self.stateless else self.round_checksums[:CHECKSUM_ROUNDS]
        for checksum in rounds:
            sha.update(checksum.encode())
        return sha.hexdigest()[:16]

    def counts(self) -> Dict[str, float]:
        """Work counts read at layer boundaries (filled in by subclasses)."""
        return {}
