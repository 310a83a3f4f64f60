"""Similarity-based prediction, accuracy, and the no-prompt baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, check_tau, cosine_np
from .errors import ContractError, DataError, DimensionError


@dataclass
class Prediction:
    probs: Tensor
    argmax: np.ndarray


def predict(anchors: Tensor, prototypes: Tensor, tau: float) -> Prediction:
    """Softmax over temperature-scaled cosine similarity to every prototype.

    The denominator runs over all classes. Ties resolve to the lowest class
    index.
    """
    if anchors.cols != prototypes.cols:
        raise DimensionError(
            f"predict: feature dims differ, {anchors.shape} vs {prototypes.shape}")
    if prototypes.rows < 1:
        raise ContractError("predict needs at least one prototype")
    logits = cosine_np(anchors.data, prototypes.data) / check_tau(tau)
    logits = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(logits)
    probs = ex / ex.sum(axis=1, keepdims=True)
    return Prediction(probs=Tensor(probs), argmax=np.argmax(probs, axis=1))


def evaluate(pred: Prediction, truth) -> float:
    """Fraction of argmax predictions equal to the true classes."""
    truth = np.asarray(truth, dtype=np.int64).ravel()
    if truth.size != pred.argmax.size:
        raise ContractError(f"{pred.argmax.size} predictions vs {truth.size} labels")
    return float(np.mean(pred.argmax == truth))


def class_mean_rows(values: Tensor, labeled, n_classes: int) -> Tensor:
    """Row c = mean of the rows of `values` whose labeled item is in class c."""
    sums = np.zeros((n_classes, values.cols))
    counts = np.zeros(n_classes)
    for index, cls in labeled.items:
        if not 0 <= cls < n_classes:
            raise DataError(f"labeled class {cls} out of range [0, {n_classes})")
        sums[cls] += values.data[index]
        counts[cls] += 1
    if np.any(counts == 0):
        raise DataError(f"class {int(np.argmin(counts))} has no labeled items")
    return Tensor(sums / counts[:, None])


def np_prototypes(z2: Tensor, labeled, n_classes: int) -> Tensor:
    """Labeled-mean embeddings used directly as prototypes (no tuning)."""
    return class_mean_rows(z2, labeled, n_classes)
