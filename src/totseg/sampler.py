"""Temporally ordered mini-batches with positive pairs.

A batch concatenates equal-sized blocks from a few videos. Within a block,
anchors are drawn one per equal temporal bin, so the block covers its video
start to finish in strictly increasing frame order; the solvers downstream
rely on that ordering. Each anchor also gets a positive: a frame drawn
uniformly from a window around it, for the coherence loss; a batch
gathered without positives still draws them, so every mode consumes the
generator alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import FeatureMaps, FeatureSequence


@dataclass(frozen=True)
class Batch:
    """One training batch: equal video blocks of anchors, and their positives
    when the batch was gathered with them.

    Attributes:
        rows: Read-only feature rows, B x dim or 2B x dim: the B anchors, one
            block of consecutive rows per video, each block in increasing
            frame order, then, in a 2B-row batch, the B positives,
            row-aligned with the anchors. The encoder embeds them in one pass
            as they are. They are a view of the array ``build_batch``
            gathered into: in ``train``, the run's workspace, which the next
            batch overwrites.
        batch_size: B, the number of anchors.
    """

    rows: np.ndarray
    batch_size: int

    @property
    def positive_features(self) -> np.ndarray:
        """Positive rows: the rows after the anchors, B x dim in a 2B-row
        batch and none in a B-row one."""
        return self.rows[self.batch_size :]


def sample_ordered(num_frames: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Strictly increasing frame indices, one uniform draw per temporal bin.

    Bin i (0-based) covers frames floor(i*F/n) .. floor((i+1)*F/n) - 1.
    Bins partition the video, so the draws never collide and come out
    sorted. With count == num_frames every frame is selected exactly once.

    Raises:
        ValueError: If ``count`` is not in [1, num_frames].
    """
    if not 1 <= count <= num_frames:
        raise ValueError(
            f"cannot draw {count} ordered frames from a {num_frames}-frame video"
        )
    edges = (np.arange(count + 1, dtype=np.int64) * num_frames) // count
    return rng.integers(edges[:-1], edges[1:])


def sample_positive(anchor, window: int, num_frames: int, rng: np.random.Generator):
    """Uniform frame from [anchor-window, anchor+window] clamped to the video.

    The anchor itself is a legal draw. An int anchor gives an int; an
    array of anchors gives an int64 array from one generator call, which
    consumes the stream exactly as per-anchor calls would.

    Raises:
        ValueError: If ``window < 1`` or an anchor is out of range.
    """
    if window < 1:
        raise ValueError(f"positive window must be >= 1, got {window}")
    anchors = np.asarray(anchor, dtype=np.int64)
    outside = (anchors < 0) | (anchors >= num_frames)
    if outside.any():
        bad = int(anchors[outside].flat[0])
        raise ValueError(f"anchor {bad} outside video of {num_frames} frames")
    # A window past the video's length draws as the whole video does; clamped
    # first, anchors +- window cannot leave int64.
    window = min(window, num_frames)
    lo = np.maximum(0, anchors - window)
    hi = np.minimum(num_frames - 1, anchors + window)
    draws = rng.integers(lo, hi + 1)
    return int(draws) if anchors.ndim == 0 else draws


def block_length(batch_size: int, videos_per_batch: int) -> int:
    """Rows per video block: batch_size / videos_per_batch.

    Raises:
        ValueError: If videos_per_batch < 1, or batch_size is not a
            positive multiple of it.
    """
    if videos_per_batch < 1:
        raise ValueError(f"videos_per_batch must be >= 1, got {videos_per_batch}")
    if batch_size < 1 or batch_size % videos_per_batch != 0:
        raise ValueError(
            f"batch_size ({batch_size}) must be a positive multiple of "
            f"videos_per_batch ({videos_per_batch})"
        )
    return batch_size // videos_per_batch


def build_batch(
    videos: list[FeatureSequence],
    videos_per_batch: int,
    batch_size: int,
    rng: np.random.Generator,
    window: int = 30,
    out: np.ndarray | None = None,
    *,
    maps: FeatureMaps,
) -> Batch:
    """Draw a batch of ``videos_per_batch`` blocks totalling ``batch_size`` rows.

    Args:
        videos: Pool to draw from; every entry must have at least
            batch_size / videos_per_batch frames.
        videos_per_batch: Number of distinct videos per batch.
        batch_size: Total anchors; must divide evenly into blocks.
        rng: Source of randomness; a fixed seed fixes the batch.
        window: Half-width of the positive sampling window, in frames.
        out: Float64 array the rows are gathered into: 2B x dim for anchors
            and positives, or B x dim for the anchors alone (``train`` without
            coherence). The positives are drawn either way, so the generator
            ends in the same state. The batch's rows are a read-only view of
            ``out``, so the next call given the same ``out`` overwrites them.
            A new 2B x dim array when None.
        maps: The ``FeatureMaps`` disk-backed videos are read through.

    Raises:
        ValueError: If batch_size is not a positive multiple of
            videos_per_batch, or the pool is too small.
        DataError: From ``FeatureSequence.load_feature_rows``, which reads
            each block: a row read holds a non-finite value.
    """
    block_len = block_length(batch_size, videos_per_batch)
    too_short = [v.video_id for v in videos if v.num_frames < block_len]
    if too_short:
        raise ValueError(f"videos shorter than block size {block_len}: {too_short}")
    if len(videos) < videos_per_batch:
        raise ValueError(
            f"need {videos_per_batch} videos with at least {block_len} frames, "
            f"only {len(videos)} available"
        )

    if out is None:
        out = np.empty((2 * batch_size, videos[0].dim))
    # Block i's anchors are rows i*L.. of the first B rows, its positives (if
    # read) the same rows of the next B: blocks[:, i] is the pair.
    halves = len(out) // batch_size
    blocks = out.reshape(halves, videos_per_batch, block_len, out.shape[1])
    chosen = rng.choice(len(videos), size=videos_per_batch, replace=False)
    for block, idx in enumerate(chosen):
        video = videos[int(idx)]
        anchors = sample_ordered(video.num_frames, block_len, rng)
        mates = sample_positive(anchors, window, video.num_frames, rng)
        # Positives lie near their anchors, on the same pages: read both at once.
        frames = np.stack((anchors, mates)[:halves])
        video.load_feature_rows(frames, blocks[:, block], maps=maps)
    rows = out.view()
    rows.flags.writeable = False
    return Batch(rows, batch_size)
