"""Clustering cross-entropy and temporal coherence, with analytic gradients.

Both losses return their gradients alongside the value; nothing here calls
an autograd engine. Both are one softmax cross-entropy on scores: the
clustering loss compares the softmax of each frame's prototype scores
against its transported code, and the coherence loss asks each embedded
frame to recognize its own temporal neighbor among the batch's positives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _log_softmax_in_place, as_matrix, log_softmax_rows


@dataclass(frozen=True)
class LossConfig:
    """Loss hyperparameters.

    The clustering loss reads each frame's code row as a distribution, as
    SwAV does: training scales every row to sum to 1, so the clustering
    loss is the per-frame mean cross-entropy, on the coherence loss's
    scale, and ``alpha`` weighs two per-frame means.

    Attributes:
        temperature: Softmax sharpness of the predicted codes.
        alpha: Weight of the temporal coherence term in the total loss.
        window: Half-width (in frames) of the positive sampling window.
    """

    temperature: float = 0.1
    alpha: float = 1.0
    window: int = 30

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")


def cross_entropy(scores, codes, temperature: float) -> tuple[float, np.ndarray]:
    """Mean per-row cross-entropy of softmax(scores / temperature) against codes.

    With p the row softmax, the loss is -(1/B) sum_ij codes_ij * log(p_ij),
    taken from the max-shifted log-softmax, so it stays exact (and finite)
    however far apart the scores are. Codes are treated as constants: the
    gradient with respect to the scores is

        (1 / (B * temperature)) * (row_mass * p - codes),

    where row_mass is each code row's sum.

    Args:
        scores: B x K pre-softmax scores.
        codes: B x K nonnegative matrix (rows need not sum to one).
        temperature: Positive softmax temperature.

    Returns:
        (loss value, B x K gradient w.r.t. the scores).
    """
    s = as_matrix(scores)
    q = as_matrix(codes)
    if q.shape != s.shape:
        raise ValueError(f"scores {s.shape} and codes {q.shape} differ in shape")
    b = s.shape[0]
    log_p, grad = log_softmax_rows(s, temperature)
    grad *= q.sum(axis=1, keepdims=True)
    grad -= q
    grad /= b * temperature
    return float(-(q * log_p).sum() / b), grad


def _target_cross_entropy(
    log_p: np.ndarray, p: np.ndarray, targets: np.ndarray, temperature: float
) -> tuple[float, np.ndarray]:
    """cross_entropy against one-hot codes given as target columns (mass 1
    on column targets[i] of row i), from the kernel's output.

    ``log_p`` holds each row's target log-probability; the softmax ``p``
    is turned into the gradient in place.
    """
    b = p.shape[0]
    p[np.arange(b), targets] -= 1.0
    p /= b * temperature
    return float(-log_p.sum() / b), p


def temporal_coherence(
    anchors, positives, similarity: np.ndarray | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Each anchor should score its own positive above everyone else's.

    The loss is cross_entropy on the similarities A = anchors @ positives.T
    at temperature 1 with the diagonal as the target: the mean over rows of
    log(sum_j exp(A_ij)) - A_ii. Rows must be aligned (anchor i's neighbor
    is positives row i) and both sides are expected to be unit-norm
    embeddings.

    Args:
        anchors: N x D matrix.
        positives: N x D matrix, row-aligned with anchors.
        similarity: N x N float64 array that holds the similarities and
            then their gradient; a new array when None.

    Returns:
        (loss value, gradient w.r.t. anchors, gradient w.r.t. positives).
    """
    z = as_matrix(anchors)
    mates = as_matrix(positives)
    if z.shape != mates.shape:
        raise ValueError(
            f"anchors {z.shape} and positives {mates.shape} differ in shape"
        )
    rows = np.arange(z.shape[0])
    # The similarity matrix is ours or the caller's scratch, so the kernel
    # may overwrite it.
    sims = np.matmul(z, mates.T, out=similarity)
    loss, dsims = _target_cross_entropy(
        *_log_softmax_in_place(sims, rows), rows, 1.0
    )
    return loss, dsims @ mates, dsims.T @ z

