"""Similarity-based prediction, accuracy, and class-mean prototypes."""

from __future__ import annotations

import numpy as np

from .autodiff import check_tau, row_norms
from .errors import ContractError, DataError, DimensionError


def predict(anchors: np.ndarray, prototypes: np.ndarray, tau: float) -> np.ndarray:
    """Softmax over temperature-scaled cosine similarity to every prototype:
    one row of class probabilities per anchor.

    Cosines come from unit rows, as in the losses. The denominator runs over
    all classes.
    """
    if anchors.shape[1] != prototypes.shape[1]:
        raise DimensionError(
            f"predict: feature dims differ, {anchors.shape} vs {prototypes.shape}")
    if len(prototypes) < 1:
        raise ContractError("predict needs at least one prototype")
    inv_tau = 1.0 / check_tau(tau)
    a_unit = anchors * row_norms(anchors)
    logits = (a_unit * inv_tau) @ (prototypes * row_norms(prototypes)).T
    logits -= logits.max(axis=1, keepdims=True)
    ex = np.exp(logits)
    return ex / ex.sum(axis=1, keepdims=True)


def evaluate(probs: np.ndarray, truth) -> float:
    """Fraction of rows of `probs` whose most probable class is the true class.
    Ties resolve to the lowest class index."""
    truth = np.asarray(truth, dtype=np.int64).ravel()
    if truth.size != len(probs):
        raise ContractError(f"{len(probs)} predictions vs {truth.size} labels")
    if not truth.size:
        raise ContractError("accuracy needs at least one labeled item, got none")
    return float(np.mean(np.argmax(probs, axis=1) == truth))


def class_mean_rows(values: np.ndarray, labeled, n_classes: int) -> np.ndarray:
    """Row c = mean of the rows of `values` whose labeled item is in class c
    (the no-prompt prototypes over the structural view, the prompt's prototype
    attributes over the features, a graph's mean readout over its nodes);
    every class needs a labeled item. Rows add up in item order, so each sum
    is the float a loop over the items gives."""
    bad = np.flatnonzero(labeled.classes >= n_classes)
    if bad.size:
        raise DataError(f"labeled class {labeled.classes[bad[0]]} out of range [0, {n_classes})")
    if labeled.indices.size and labeled.indices.max() >= len(values):
        raise DataError(f"labeled index {labeled.indices.max()} out of range for "
                        f"{len(values)} rows")
    sums = np.zeros((n_classes, values.shape[1]))
    np.add.at(sums, labeled.classes, values[labeled.indices])
    counts = np.bincount(labeled.classes, minlength=n_classes)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise DataError(f"classes {missing.tolist()} have no labeled items")
    return sums / counts[:, None]
