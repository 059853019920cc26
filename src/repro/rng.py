"""Deterministic random-number handling.

Every stochastic component in the reproduction (data generation, random walks,
negative sampling, tree subsampling, failure injection) accepts either an
integer seed or a ``numpy.random.Generator``.  Centralising the coercion keeps
experiments reproducible end to end: a single experiment seed fans out into
independent, stable child streams per component.

The per-element world generators draw one value at a time, where numpy's array
API costs more than the draw itself.  :func:`clamp` and :class:`Categorical`
are the scalar spellings of ``np.clip`` and ``Generator.choice(..., p=...)``
they use instead: bit-identical results, and the same generator state after
each call, so every later draw is unchanged.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional, Sequence, TypeVar, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

_Scalar = TypeVar("_Scalar", int, float)

#: How far ``Generator.choice`` lets probabilities sum away from 1.
_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` yields a freshly seeded generator, an ``int`` a deterministic one,
    and an existing generator is passed through untouched.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_child(rng: np.random.Generator, *, salt: int = 0) -> np.random.Generator:
    """Derive an independent child generator from ``rng``.

    The child stream is a deterministic function of the parent's state and the
    ``salt``, so components that each take their own child remain reproducible
    regardless of the order in which they later consume randomness.
    """
    seed = int(rng.integers(0, 2**63 - 1)) ^ (salt * 0x9E3779B97F4A7C15 % 2**63)
    return np.random.default_rng(seed)


def derive_seed(base_seed: Optional[int], component: str) -> int:
    """Derive a stable integer seed for a named component.

    Uses a small FNV-1a hash of the component name mixed with the base seed so
    that, e.g., the DeepWalk walker and the GBDT subsampler never share a
    stream even when the experiment uses one global seed.
    """
    h = 1469598103934665603
    for ch in component.encode("utf-8"):
        h ^= ch
        h = (h * 1099511628211) % 2**64
    if base_seed is None:
        base_seed = 0
    return (h ^ (base_seed * 0x9E3779B97F4A7C15)) % 2**31


def clamp(value: _Scalar, low: _Scalar, high: _Scalar) -> _Scalar:
    """``np.clip(value, low, high)`` for one Python number, bit for bit.

    ``min(max(value, low), high)`` keeps ``value`` on a tie with a bound
    (``-0.0`` against a ``0`` bound stays ``-0.0``) and passes a NaN ``value``
    through, as numpy's clip does.  The bounds are numbers, never NaN (numpy
    would answer NaN).  The result may be ``value``'s type or a bound's, so
    callers keep their ``float()`` / ``int()`` conversion.
    """
    return min(max(value, low), high)


class Categorical:
    """A fixed discrete distribution, drawn like ``Generator.choice(len(p), p=p)``.

    The cdf is numpy's own, built once: ``p.cumsum()`` divided by its last
    entry.  :meth:`draw` consumes the one double numpy's ``choice`` consumes
    and searches the cdf as ``searchsorted(side="right")`` does, so it returns
    the same index and leaves the generator where ``choice`` leaves it.
    ``p`` is checked here as ``choice`` checks it on every call.
    """

    __slots__ = ("_cdf",)

    def __init__(self, p: Sequence[float]) -> None:
        probabilities = np.asarray(p, dtype=np.float64)
        if (
            probabilities.ndim != 1
            or probabilities.size == 0
            or not bool(np.all(probabilities >= 0.0))
            or abs(float(probabilities.sum()) - 1.0) > _SUM_TOLERANCE
        ):
            raise ValueError(f"p must be non-negative probabilities summing to 1, got {p!r}")
        cdf = probabilities.cumsum()
        cdf /= cdf[-1]
        self._cdf: list[float] = cdf.tolist()

    def draw(self, rng: np.random.Generator) -> int:
        """One index, as ``rng.choice(len(p), p=p)`` would return it."""
        return bisect_right(self._cdf, rng.random())
