"""Round statistics: percentiles, the ten-samples-beyond rule, per-op medians."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from benchmarks.titant_bench.calibration import REFERENCE_SLICE_S

#: Percentiles the harness may report, lowest first.
CANDIDATE_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
SAMPLES_BEYOND = 10


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of pre-sorted values."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = (len(sorted_values) - 1) * q / 100.0
    lower = math.floor(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    fraction = position - lower
    return float(sorted_values[lower] * (1.0 - fraction) + sorted_values[upper] * fraction)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond percentile ``q``."""
    return int(math.floor(count * (100.0 - q) / 100.0 + 1e-9))


def highest_supported_percentile(count: int) -> Optional[float]:
    """The highest candidate percentile with ten samples beyond it.

    100 samples support p90 (exactly ten beyond), 1000 support p99; fewer
    than 20 support none, and the caller falls back to the single value.
    """
    supported = [
        q for q in CANDIDATE_PERCENTILES if samples_beyond(count, q) >= SAMPLES_BEYOND
    ]
    return supported[-1] if supported else None


@dataclass
class RoundResult:
    """What one measured round produced."""

    #: Wall time of every op in the round, seconds, as measured.
    op_times_s: List[float]
    #: The kernel slices interleaved with the ops, seconds.
    slice_times_s: List[float]
    #: Units of work completed (requests for serving, history rows offline).
    work: int
    #: Checksum of the round's outputs (hex digest).
    checksum: str = ""

    @property
    def slice_mean_s(self) -> float:
        """The round's machine speed: its mean kernel slice."""
        return sum(self.slice_times_s) / len(self.slice_times_s)

    @property
    def scaled_times_s(self) -> List[float]:
        """The op times on the reference host: scaled by the round's speed."""
        factor = REFERENCE_SLICE_S / self.slice_mean_s
        return [t * factor for t in self.op_times_s]

    @property
    def throughput(self) -> float:
        """Work per second of measured op time, as measured (not scaled)."""
        return self.work / sum(self.op_times_s)


def typical_times(rounds: Sequence[RoundResult]) -> List[float]:
    """Each op's median scaled time across the rounds, seconds.

    Every round runs the same ops in the same order, so op ``j`` has one
    sample per round; the median over rounds is robust to the stalls that hit
    single samples.  It says how the ops compare with *each other*; how long
    they take together comes from the round totals (:func:`end_to_end`).
    """
    if not rounds:
        raise ValueError("no rounds were measured")
    counts = {len(r.op_times_s) for r in rounds}
    if len(counts) != 1:
        raise ValueError(f"rounds ran different numbers of ops: {sorted(counts)}")
    return [statistics.median(times) for times in zip(*(r.scaled_times_s for r in rounds))]


def end_to_end(rounds: Sequence[RoundResult], *, one_job: bool = False) -> Dict[str, float]:
    """Throughput and latency at reference speed: level × shape.

    The *level* is the median over rounds of a round's scaled total op time:
    a sum over a second of ops averages out interference faster than the
    kernel slices can follow, and the median drops a round an episode ruined.
    The *shape* is each op's share of that total, from the ops' medians over
    rounds.  Latency percentiles are taken over ``share × level``; measured
    on a heavily disturbed host this held p50 to ~1-4 % between runs where a
    percentile of per-op medians alone moved 7 %.

    With ``one_job`` the ops of a round are the stages of one job, so both
    latency percentiles are the job's time: the level itself.
    """
    typical = typical_times(rounds)
    level = statistics.median(sum(r.scaled_times_s) for r in rounds)
    if one_job:
        latencies = [level]
    else:
        total = sum(typical)
        latencies = sorted(t / total * level for t in typical)
    return {
        "throughput_per_s": rounds[0].work / level,
        "latency_p50_ms": percentile(latencies, 50.0) * 1000.0,
        "latency_p90_ms": percentile(latencies, 90.0) * 1000.0,
    }


def round_spread(rounds: Sequence[RoundResult]) -> float:
    """Interquartile range of the rounds' scaled op time over its median.

    How far apart whole rounds still are after scaling: the residue of
    interference the kernel does not track.  1.0 with fewer than four rounds.
    """
    if len(rounds) < 4:
        return 1.0
    totals = [sum(r.scaled_times_s) for r in rounds]
    quartiles = statistics.quantiles(totals, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(totals)


def pooled_latency_ms(rounds: Sequence[RoundResult], q: float) -> float:
    """Percentile ``q`` of scaled op times pooled over every round (ungated tails)."""
    pooled = sorted(t for r in rounds for t in r.scaled_times_s)
    return percentile(pooled, q) * 1000.0
