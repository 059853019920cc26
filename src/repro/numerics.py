"""Training arithmetic the classifiers (``models/``) and the graph learners
(``nrl/``) share, so a same-seed fit cannot differ by which trainer spelled it.

That includes :func:`scatter_add_rows`, the one accumulate of gathered rows
back into a matrix: the SGNS updates (``nrl/word2vec.py``) and the
parameter-server SGD step (``kunpeng/server.py``) both go through it."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid, clipped to ±30 so ``exp`` cannot overflow.  The clip
    is the two ufuncs ``np.clip`` applies (same bits, NaN included) without
    its Python-level wrapper, which costs more than the arithmetic on the
    few-row calls serving makes."""
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -30.0), 30.0)))


def class_weights(labels: np.ndarray, *, balanced: bool) -> np.ndarray:
    """Per-row loss weights for 0/1 ``labels``: ``balanced`` up-weights the
    positive rows by the inverse class frequency; otherwise, or when a class
    is empty, every row weighs 1."""
    positives = labels.sum()
    negatives = labels.shape[0] - positives
    if not balanced or positives == 0 or negatives == 0:
        return np.ones_like(labels)
    return np.where(labels > 0.5, negatives / positives, 1.0)


def column_scaling(features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Column means and standard deviations for ``(features - mean) / std``;
    a constant column gets 1.0 so it standardises to zeros, not NaN."""
    std = features.std(axis=0)
    return features.mean(axis=0), np.where(std == 0.0, 1.0, std)


def scatter_add_rows(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(target, rows, values)`` in place for a 1-D or 2-D
    ``target``, the 2-D case as one 1-D ``add.at`` over the flat view at
    ``rows[..., None] * d + arange(d)``.  Each element still receives its
    addends one at a time in index order, so every non-NaN result has the
    bits of the 2-D call (which NaN survives a NaN + NaN is IEEE-unspecified
    and may differ); only the 1-D form takes numpy's fast indexed loop.  A
    2-D ``target`` must be C-contiguous: a flat *copy* would lose the updates."""
    if target.ndim == 1:
        np.add.at(target, rows, values)
        return
    if target.ndim != 2 or not target.flags.c_contiguous:
        raise ValueError("scatter_add_rows needs a 1-D or C-contiguous 2-D target")
    width = target.shape[1]
    flat = np.asarray(rows, dtype=np.intp).reshape(-1, 1) * width + np.arange(width)
    np.add.at(target.reshape(-1), flat.reshape(-1), np.reshape(values, -1))
