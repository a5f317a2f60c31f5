"""Cluster-to-action matching and segmentation metrics.

Clusters carry no action names, so scoring first solves a one-to-one
Hungarian assignment between cluster ids and ground-truth action ids,
maximizing co-occurring frames over a whole activity. Metrics follow:

  * MOF: fraction of correctly labeled frames, pooled over all videos of
    an activity (the CLI averages activities for a dataset-level figure);
  * F1: segment-level detection score per video, then averaged. A ground
    truth segment counts as detected when a same-label predicted segment
    covers more than half of it, and each predicted segment may detect at
    most one ground-truth segment.

Background frames can be excluded: those frames are dropped from both
prediction and ground truth before any matching or scoring, so the
metrics cannot be moved by predictions on background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .decode import segments_from_labels
from .errors import DataError

UNMATCHED = -1
OVERLAP_THRESHOLD = 0.5


def contingency(pred, gt, num_pred: int, num_gt: int, frames=1) -> np.ndarray:
    """num_pred x num_gt table of co-occurring frame counts.

    ``frames`` is how many frames each (pred[i], gt[i]) entry stands for,
    such as the length of a run of equal pairs; one each by default.

    Raises:
        ValueError: On length mismatch or ids outside the stated ranges.
    """
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if pred.shape != gt.shape or pred.ndim != 1:
        raise ValueError(
            f"pred and gt must be 1-D and equal length, got {pred.shape} vs {gt.shape}"
        )
    if pred.size and (pred.min() < 0 or pred.max() >= num_pred):
        raise ValueError(f"pred ids outside [0, {num_pred})")
    if gt.size and (gt.min() < 0 or gt.max() >= num_gt):
        raise ValueError(f"gt ids outside [0, {num_gt})")
    table = np.zeros((num_pred, num_gt), dtype=np.int64)
    np.add.at(table, (pred, gt), frames)
    return table


def hungarian_match(counts) -> dict[int, int]:
    """Frame-count-maximizing one-to-one map from cluster id to action id.

    Args:
        counts: num_pred x num_gt contingency table.

    Returns:
        Dict mapping min(num_pred, num_gt) cluster ids to distinct action
        ids; clusters left out when num_pred > num_gt simply stay unmapped.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 2:
        raise ValueError(f"contingency table must be 2-D, got shape {counts.shape}")
    rows, cols = linear_sum_assignment(counts, maximize=True)
    return {int(r): int(c) for r, c in zip(rows, cols)}


def apply_mapping(pred, mapping: dict[int, int]) -> np.ndarray:
    """Rewrite cluster ids to action ids; unmapped clusters become UNMATCHED."""
    pred = np.asarray(pred, dtype=np.int64)
    out = np.full_like(pred, UNMATCHED)
    for cluster, action in mapping.items():
        out[pred == cluster] = action
    return out


def mof(mapped_pred, gt) -> float:
    """Fraction of frames whose mapped prediction equals ground truth."""
    mapped_pred = np.asarray(mapped_pred)
    gt = np.asarray(gt)
    if mapped_pred.shape != gt.shape:
        raise ValueError(
            f"length mismatch: {mapped_pred.shape} predictions vs {gt.shape} labels"
        )
    if gt.size == 0:
        return 0.0
    return float((mapped_pred == gt).mean())


def _overlap(a: tuple[int, int, int], b: tuple[int, int, int]) -> int:
    return max(0, min(a[2], b[2]) - max(a[1], b[1]))


def segment_f1(mapped_pred, gt, overlap: str = "gt") -> float:
    """Segment-detection F1 for one video.

    Each ground-truth segment greedily claims the not-yet-used predicted
    segment with the same label and the highest overlap ratio, and counts
    as a true positive when that ratio exceeds ``OVERLAP_THRESHOLD``. With
    ``overlap="gt"`` the ratio divides by the ground-truth segment length;
    with ``overlap="iou"`` by the union of both segments.

    Returns:
        2PR / (P + R), or 0.0 when nothing was detected.
    """
    if overlap not in ("gt", "iou"):
        raise ValueError(f"overlap must be 'gt' or 'iou', got {overlap!r}")
    pred_segments = segments_from_labels(mapped_pred)
    gt_segments = segments_from_labels(gt)
    used = [False] * len(pred_segments)
    true_positives = 0
    for gseg in gt_segments:
        best_idx = -1
        best_ratio = OVERLAP_THRESHOLD
        for idx, pseg in enumerate(pred_segments):
            if used[idx] or pseg[0] != gseg[0]:
                continue
            inter = _overlap(pseg, gseg)
            if overlap == "gt":
                ratio = inter / (gseg[2] - gseg[1])
            else:
                union = (pseg[2] - pseg[1]) + (gseg[2] - gseg[1]) - inter
                ratio = inter / union
            if ratio > best_ratio:
                best_ratio = ratio
                best_idx = idx
        if best_idx >= 0:
            used[best_idx] = True
            true_positives += 1
    precision = true_positives / len(pred_segments)
    recall = true_positives / len(gt_segments)
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class VideoScore:
    video_id: str
    frame_accuracy: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    """Activity-level metrics plus the cluster-to-action map behind them."""

    activity: str
    mapping: dict[int, int]
    mof: float
    f1: float
    videos: list[VideoScore]

    def to_text(self) -> str:
        lines = [
            f"activity = {self.activity}",
            f"mof = {self.mof:.4f}",
            f"f1 = {self.f1:.4f}",
            "mapping = "
            + " ".join(f"{c}:{a}" for c, a in sorted(self.mapping.items())),
        ]
        for video in self.videos:
            lines.append(
                f"video {video.video_id} acc = {video.frame_accuracy:.4f} "
                f"f1 = {video.f1:.4f}"
            )
        return "\n".join(lines) + "\n"


def evaluate_activity(
    video_ids: list[str],
    predictions: list[np.ndarray],
    ground_truth: list[np.ndarray],
    num_actions: int,
    activity: str = "",
    exclude: set[int] | None = None,
    overlap: str = "gt",
) -> EvalReport:
    """Match clusters to actions over an activity and score every video.

    The Hungarian assignment is solved once on the pooled contingency
    table of all videos, then reused per video, mirroring evaluation at
    the activity level.

    Args:
        video_ids: Names, aligned with predictions and ground_truth.
        predictions: Per-video arrays of nonnegative cluster ids. Only the
            ids that occur are matched, so a cluster that predicts no
            frame stays unmapped.
        ground_truth: Per-video action-id arrays, same lengths.
        num_actions: Number of ground-truth action classes K'.
        activity: Name recorded in the report.
        exclude: Ground-truth ids to drop from both sides before anything
            else (background exclusion), each in 0..num_actions-1.
        overlap: Overlap ratio convention for F1, "gt" or "iou".

    Raises:
        ValueError: Misaligned inputs, per-video length mismatches or a
            negative cluster id.
        DataError: ``exclude`` holds an id that is not an action id, or
            no ground-truth frame is left: the videos have none, or
            ``exclude`` drops every one.
    """
    if not (len(video_ids) == len(predictions) == len(ground_truth)):
        raise ValueError(
            f"got {len(video_ids)} ids, {len(predictions)} predictions, "
            f"{len(ground_truth)} ground-truth arrays"
        )
    if not video_ids:
        raise ValueError("nothing to evaluate")
    unknown = sorted(set(exclude or ()) - set(range(num_actions)))
    if unknown:
        raise DataError(f"activity {activity!r}: excluded id {unknown[0]} is not an action id")

    kept_pred: list[np.ndarray] = []
    kept_gt: list[np.ndarray] = []
    for vid, pred, gt in zip(video_ids, predictions, ground_truth):
        pred = np.asarray(pred, dtype=np.int64)
        gt = np.asarray(gt, dtype=np.int64)
        if pred.shape != gt.shape:
            raise ValueError(
                f"video {vid}: {pred.size} predicted frames vs {gt.size} labels"
            )
        if exclude:
            keep = ~np.isin(gt, list(exclude))
            pred, gt = pred[keep], gt[keep]
        kept_pred.append(pred)
        kept_gt.append(gt)

    all_pred = np.concatenate(kept_pred)
    all_gt = np.concatenate(kept_gt)
    if all_gt.size == 0:
        if any(np.size(gt) for gt in ground_truth):
            reason = "no frames left to match after background exclusion"
        else:
            reason = "its videos have no frames to match"
        raise DataError(f"activity {activity!r}: {reason}")
    # Count runs of equal (prediction, truth) pairs, of which a segmentation
    # has few, with a row per cluster id that occurs, so the table does not
    # grow with the ids' values.
    changes = all_pred[1:] != all_pred[:-1]
    changes |= all_gt[1:] != all_gt[:-1]
    starts = np.r_[0, np.flatnonzero(changes) + 1]
    cluster_ids, rows = np.unique(all_pred[starts], return_inverse=True)
    if cluster_ids[0] < 0:
        raise ValueError(f"pred ids must be >= 0, got {int(cluster_ids[0])}")
    pooled = contingency(
        rows,
        all_gt[starts],
        cluster_ids.size,
        num_actions,
        frames=np.diff(np.r_[starts, all_gt.size]),
    )
    mapping = {
        int(cluster_ids[row]): action
        for row, action in hungarian_match(pooled).items()
    }

    scores = []
    total_correct = 0
    total_frames = 0
    for vid, pred, gt in zip(video_ids, kept_pred, kept_gt):
        mapped = apply_mapping(pred, mapping)
        total_correct += int((mapped == gt).sum())
        total_frames += gt.size
        acc = mof(mapped, gt) if gt.size else 0.0
        f1 = segment_f1(mapped, gt, overlap=overlap) if gt.size else 0.0
        scores.append(VideoScore(video_id=vid, frame_accuracy=acc, f1=f1))

    activity_mof = total_correct / total_frames if total_frames else 0.0
    activity_f1 = float(np.mean([s.f1 for s in scores]))
    return EvalReport(
        activity=activity,
        mapping=mapping,
        mof=activity_mof,
        f1=activity_f1,
        videos=scores,
    )
