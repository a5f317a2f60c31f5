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

from .numerics import as_matrix, log_softmax_rows


@dataclass(frozen=True)
class LossConfig:
    """Loss hyperparameters.

    Attributes:
        temperature: Softmax sharpness of the predicted codes.
        alpha: Weight of the temporal coherence term in the total loss.
        window: Half-width (in frames) of the positive sampling window.
        renormalize_codes: Rescale each code row to sum to 1 before the
            clustering loss, instead of consuming rows that sum to 1/B.
    """

    temperature: float = 0.1
    alpha: float = 1.0
    window: int = 30
    renormalize_codes: bool = False

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

    where row_mass is each code row's sum. ``codes`` may instead be a
    length-B vector of target columns: mass 1 on column codes[i] of row i,
    read without building the one-hot matrix.

    Args:
        scores: B x K pre-softmax scores.
        codes: B x K nonnegative matrix (rows need not sum to one), or a
            length-B integer vector of target columns.
        temperature: Positive softmax temperature.

    Returns:
        (loss value, B x K gradient w.r.t. the scores).
    """
    s = as_matrix(scores)
    b = s.shape[0]
    targeted = np.ndim(codes) == 1
    q = np.asarray(codes) if targeted else as_matrix(codes)
    if q.shape != (s.shape[:1] if targeted else s.shape):
        raise ValueError(f"scores {s.shape} and codes {q.shape} differ in shape")
    log_p, p = log_softmax_rows(s, temperature)
    if targeted:
        hits = (np.arange(b), q)
        p[hits] -= 1.0
        return float(-log_p[hits].sum() / b), p / (b * temperature)
    row_mass = q.sum(axis=1, keepdims=True)
    return float(-(q * log_p).sum() / b), (row_mass * p - q) / (b * temperature)


def temporal_coherence(
    anchors, positives
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

    Returns:
        (loss value, gradient w.r.t. anchors, gradient w.r.t. positives).
    """
    z = as_matrix(anchors)
    mates = as_matrix(positives)
    if z.shape != mates.shape:
        raise ValueError(
            f"anchors {z.shape} and positives {mates.shape} differ in shape"
        )
    loss, dsims = cross_entropy(z @ mates.T, np.arange(z.shape[0]), 1.0)
    return loss, dsims @ mates, dsims.T @ z


def total_loss(clustering: float, coherence: float, alpha: float) -> float:
    """Training objective: clustering loss plus alpha times coherence."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return clustering + alpha * coherence
