"""Order-constrained Viterbi smoothing of frame log-probabilities.

Actions are assumed to occur in the fixed order 0..K-1. Decoding finds the
best monotone label path under that order: start in cluster 0, end in
cluster K-1, move by steps of 0 or +1, so every cluster gets at least one
frame. The path maximizes the summed per-frame log probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix

# Lattices floor each probability here, so their logs stay finite.
PROBABILITY_FLOOR = 1e-12


@dataclass(frozen=True)
class SegmentationResult:
    """Decoded path for one video.

    Attributes:
        labels: F cluster ids, monotone non-decreasing, covering 0..K-1.
        log_score: Sum of log_probs along the path.
        segments: Maximal runs of equal labels as (cluster, start, end)
            with half-open frame ranges partitioning [0, F).
    """

    labels: np.ndarray
    log_score: float
    segments: list[tuple[int, int, int]]


def segments_from_labels(labels) -> list[tuple[int, int, int]]:
    """Maximal runs of equal labels as (label, start, end), end exclusive.

    Raises:
        ValueError: On an empty label array.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("cannot segment an empty label sequence")
    boundaries = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [labels.size]])
    return [(int(labels[s]), int(s), int(e)) for s, e in zip(starts, ends)]


def viterbi_fixed_order(log_probs) -> SegmentationResult:
    """Best monotone full-traversal path through an F x K log lattice.

    A path enters cluster j at frame b_j (b_0 = 0 < b_1 < ... < b_{K-1}).
    With column suffix sums R_j(t) = sum over u >= t of lp[u, j], the best
    score of frames t..F-1 when cluster j is entered at t is

        best_j(t) = R_j(t) + max over s > t of (best_{j+1}(s) - R_j(s)),

    and best_{K-1} = R_{K-1}. The decoder keeps the bracket as
    entry_j(s) = best_j(s) - R_{j-1}(s): the suffix sum of the column
    difference lp[:, j] - lp[:, j-1] from s on, plus the running maximum
    of entry_{j+1} beyond s. So each cluster costs one cumulative sum and
    one ``np.maximum.accumulate`` over the frames; no loop runs over them.

    Ties: the boundaries are read off in order from frame 0, each as late
    as the optimum allows. b_j is the latest s > b_{j-1} whose entry score
    is within tol of the best, where tol = (F + K) * eps * sum |column
    differences| bounds the rounding of the suffix sums. So paths that tie
    in exact arithmetic tie here too, and a path that is better only by a
    margin below tol can lose to a later one. ``log_score`` is the sum of
    log_probs along the returned path, added from the last frame back.

    Args:
        log_probs: F x K matrix of finite log probabilities, such as
            the floored lattice ``trainer.embed_dataset`` yields.

    Returns:
        SegmentationResult with labels, path score, and segments.

    Raises:
        ValueError: If F < K (some cluster would get no frame) or the
            lattice is not finite.
    """
    lp = as_matrix(log_probs)
    f, k = lp.shape
    if f < k:
        raise ValueError(
            f"no feasible path: {f} frames cannot cover {k} clusters in order"
        )
    if not np.isfinite(lp).all():
        raise ValueError("log_probs must be finite")

    edges = np.zeros(k + 1, dtype=np.int64)  # entry frame per cluster, then F
    edges[k] = f
    if k > 1:
        # Time runs backwards along these rows: column r is frame F-1-r.
        gains = np.diff(np.ascontiguousarray(lp[::-1].T), axis=0)
        tol = (f + k) * np.finfo(np.float64).eps * np.abs(gains).sum()
        entry = np.cumsum(gains, axis=1, out=gains)  # [j-1, r]: cluster j entered at F-1-r
        for j in range(k - 2, 0, -1):
            entry[j - 1, 1:] += np.maximum.accumulate(entry[j, :-1])
            entry[j - 1, 0] = -np.inf
        for j, row in enumerate(entry, start=1):
            candidates = row[: f - 1 - edges[j - 1]]
            edges[j] = f - 1 - np.argmax(candidates >= candidates.max() - tol)

    labels = np.repeat(np.arange(k), np.diff(edges))
    path = lp.ravel()[np.arange(f) * k + labels]
    return SegmentationResult(
        labels=labels,
        log_score=float(np.add.accumulate(path[::-1])[-1]),
        segments=[(j, int(edges[j]), int(edges[j + 1])) for j in range(k)],
    )
