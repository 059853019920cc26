"""Frozen calibration kernel: machine-speed scaling and round qualification.

The host this benchmark was sized on slows *all* CPU work in episodes that
last from milliseconds to many minutes (CPU time inflates with wall time: the
process keeps running, only slower).  A ~10 ms kernel slice therefore runs
between ops, every ``SLICE_INTERVAL_S`` of measured work, and a round's op
times are scaled by the reference slice time over the round's mean slice:
the reported unit is time on a host that runs the slice in
``REFERENCE_SLICE_S``.  Kernel and ops sample the same episodes, so the ratio
stays put when the machine does not.

The slice is half a tight interpreter loop and half a miniature serving path
(string-keyed row lookups over a 30k-row table, feature lists, small numpy
blocks, vectorised tree scoring, write-back of per-account state).  The mix
was chosen by how well a round's slices track the round's ops as the machine
speed wanders: the loop alone is less sensitive than the workloads (log-log
slope 1.16 on the coalesced workload), the mini path alone more (0.75), the
two together 0.97-1.04 with a 3.6-3.9 % residual per round.

A round whose mean slice is within ``TOLERANCE`` of the run's fastest round
is *quiet*; the count says how disturbed the run was.

The kernel is frozen: it defines the unit every time is reported in, so a
change that claims a performance gain must not edit it.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Sequence

import numpy as np

#: A round is quiet when its mean slice is within this share of the fastest
#: round's.
TOLERANCE = 0.10

#: Fewer quiet rounds than this and the run says so on its first line.
MIN_QUIET_ROUNDS = 5

#: Time one slice takes on the undisturbed sizing host; times are reported as
#: if every slice took this long.
REFERENCE_SLICE_S = 0.0072

#: Measured work between two slices.
SLICE_INTERVAL_S = 0.05

_LOOP_ITERATIONS = 33_000
_ACCOUNTS = 30_000
_PASSES = 7
_BATCH = 6
_TREES = 24


class _Request:
    __slots__ = ("rid", "payer", "payee", "amount", "hour", "flag")

    def __init__(self, rid: str, payer: str, payee: str, amount: float, hour: int, flag: bool):
        self.rid = rid
        self.payer = payer
        self.payee = payee
        self.amount = amount
        self.hour = hour
        self.flag = flag


class Kernel:
    """The frozen kernel and the state its miniature serving path runs over."""

    def __init__(self) -> None:
        self._table: Dict[str, Dict[str, object]] = {
            f"u{i:07d}": {
                "age": 18 + i % 60,
                "city": f"city_{i % 53:03d}",
                "kyc": i % 3,
                "merchant": i % 7 == 0,
                "devices": 1 + i % 4,
                "vec": tuple(float((i * k) % 17) for k in range(1, 9)),
            }
            for i in range(_ACCOUNTS)
        }
        self._counts: Dict[str, Dict[str, object]] = {}
        self._cursor = 12345
        rng = np.random.default_rng(7)
        self._thresholds = rng.random((_TREES, 3)) * 10.0
        self._features = rng.integers(0, 14, size=(_TREES, 3))
        self._leaves = rng.random((_TREES, 8))

    def slice(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        start = time.perf_counter()
        acc = 0
        table: Dict[int, int] = {}
        for i in range(_LOOP_ITERATIONS):
            acc = (acc * 31 + i) % 1_000_003
            table[acc & 1023] = i
        total = float(acc & 1)
        for _ in range(_PASSES):
            total += self._serve_one_batch()
        if total < 0:  # keep the results live
            raise AssertionError("calibration kernel produced an impossible value")
        return time.perf_counter() - start

    def _next(self) -> int:
        self._cursor = (self._cursor * 1103515245 + 12345) % 2147483648
        return self._cursor

    def _serve_one_batch(self) -> float:
        requests = []
        for _ in range(_BATCH):
            payer, payee, draw = self._next() % _ACCOUNTS, self._next() % _ACCOUNTS, self._next()
            requests.append(
                _Request(
                    f"t{draw:010d}", f"u{payer:07d}", f"u{payee:07d}",
                    float(draw % 5000) / 7.0, draw % 24, draw % 5 == 0,
                )  # fmt: skip
            )
        keys = list(dict.fromkeys([r.payer for r in requests] + [r.payee for r in requests]))
        rows = {key: dict(self._table[key]) for key in keys}
        features = []
        for r in requests:
            p, q = rows[r.payer], rows[r.payee]
            features.append(
                [
                    float(p["age"]), float(q["age"]), float(p["kyc"]), float(q["kyc"]),
                    1.0 if p["merchant"] else 0.0, 1.0 if q["merchant"] else 0.0,
                    float(p["devices"]), r.amount, float(r.hour), 1.0 if r.flag else 0.0,
                    1.0 if p["city"] == q["city"] else 0.0, abs(p["age"] - q["age"]) / 10.0,
                    r.amount / (1.0 + p["devices"]), 1.0 if r.hour >= 22 or r.hour < 6 else 0.0,
                ]  # fmt: skip
            )
        embeddings = np.zeros((len(requests), 8))
        for index, r in enumerate(requests):
            embeddings[index] = np.asarray(rows[r.payer]["vec"], dtype=np.float64)
        matrix = np.hstack([np.asarray(features, dtype=np.float64), embeddings])
        score = np.zeros(len(requests))
        for tree in range(_TREES):
            f, th = self._features[tree], self._thresholds[tree]
            leaf = (
                (matrix[:, f[0]] > th[0]) * 4 + (matrix[:, f[1]] > th[1]) * 2 + (matrix[:, f[2]] > th[2])
            )
            score += self._leaves[tree][leaf]
        probabilities = 1.0 / (1.0 + np.exp(-score / _TREES))
        total = 0.0
        for r, probability in zip(requests, probabilities):
            state = self._counts.setdefault(r.payer, {"n": 0, "sum": 0.0, "payees": set()})
            state["n"] += 1
            state["sum"] += r.amount
            state["payees"].add(r.payee)
            written = {"mean": state["sum"] / state["n"], "payees": frozenset(state["payees"])}
            total += float(probability) + written["mean"]
        hashlib.blake2b(requests[0].rid.encode(), digest_size=8).digest()
        if len(self._counts) > 4096:
            self._counts.clear()
        return total


def quiet_rounds(round_slice_means: Sequence[float], tolerance: float = TOLERANCE) -> List[bool]:
    """Which rounds ran on an undisturbed machine, from their mean slice times.

    Nothing makes the kernel run faster than the quiet machine, so the
    fastest round of the run is the reference; a run that was slow from start
    to end cannot be told from a quiet one this way (its values are still
    scaled to reference speed).
    """
    if not round_slice_means:
        return []
    limit = min(round_slice_means) * (1.0 + tolerance)
    return [mean <= limit for mean in round_slice_means]
