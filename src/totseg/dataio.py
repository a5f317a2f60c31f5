"""Dataset layout, binary feature files, labels, and a synthetic generator.

A dataset lives under ``root/<activity>/`` with::

    features/<video>.totf      per-frame feature matrices (format below)
    groundTruth/<video>.txt    one action name per frame (optional)
    mapping.txt                "<id> <name>" per line

Feature files are fixed little-endian binary so they are bit-identical
across machines: magic ``TOTF``, format version as uint16, row count as
uint32, column count as uint32 (14 header bytes), then rows*cols float32
values in row-major order. Readers promote to float64. See
docs/file-formats.md for the byte-level layout.

Videos load lazily: the catalog reads only headers, and training reads
the frame rows it needs through a memory map of the payload, so memory
stays proportional to the batch rather than the dataset.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .errors import (
    BadMagicError,
    CatalogError,
    TruncatedPayloadError,
    UnknownLabelError,
    VersionMismatchError,
)
from .numerics import as_matrix

FEATURE_MAGIC = b"TOTF"
FEATURE_VERSION = 1
_FEATURE_HEADER = struct.Struct("<4sHII")


@dataclass
class FeatureSequence:
    """One video's frame features, resident in memory or loadable from disk.

    Exactly one of ``array`` / ``path`` must be set. ``labels`` holds
    per-frame action ids when known (synthetic data); otherwise ground truth
    is read from ``label_path`` on demand.
    """

    video_id: str
    num_frames: int
    dim: int
    array: np.ndarray | None = None
    path: Path | None = None
    label_path: Path | None = None
    labels: np.ndarray | None = None

    def load_features(self) -> np.ndarray:
        """Full num_frames x dim float64 matrix."""
        if self.array is not None:
            return self.array
        return read_features(self.path).array

    def load_feature_rows(self, rows) -> np.ndarray:
        """Only the requested frame rows, via a per-call memory map when disk-backed.

        Args:
            rows: 1-D integer array of frame indices in [0, num_frames).

        Returns:
            len(rows) x dim float64 matrix, in the order given.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_frames):
            raise ValueError(
                f"frame index out of range for {self.video_id}: "
                f"requested {rows.min()}..{rows.max()} of {self.num_frames} frames"
            )
        if self.array is not None:
            return self.array[rows]
        if not (rows.size and self.dim):
            # Nothing to read, and np.memmap refuses to map zero bytes.
            return np.empty((rows.size, self.dim), dtype=np.float64)
        payload_bytes = self.path.stat().st_size - _FEATURE_HEADER.size
        present = min(self.num_frames, max(0, payload_bytes) // (self.dim * 4))
        missing = rows[rows >= present]
        if missing.size:
            raise TruncatedPayloadError(
                f"{self.path}: row {int(missing[0])} extends past end of file"
            )
        payload = np.memmap(
            self.path, dtype="<f4", mode="r", offset=_FEATURE_HEADER.size,
            shape=(present, self.dim),
        )
        return payload[rows].astype(np.float64)


@contextmanager
def atomic_write(path, mode: str = "w") -> Iterator[IO]:
    """Open a sibling temp file for writing; it replaces ``path`` on success.

    If the body raises, the temp file is removed and whatever ``path`` held
    before stays untouched, so an interrupted run never leaves a truncated
    output for a later command to trip on.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, mode) as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_features(seq: FeatureSequence, path) -> None:
    """Write a feature sequence to ``path`` in the binary feature format."""
    matrix = as_matrix(seq.load_features())
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = _FEATURE_HEADER.pack(
        FEATURE_MAGIC, FEATURE_VERSION, matrix.shape[0], matrix.shape[1]
    )
    payload = np.ascontiguousarray(matrix, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_feature_header(path) -> tuple[int, int]:
    """(rows, cols) from a feature file without touching the payload."""
    path = Path(path)
    with open(path, "rb") as fh:
        raw = fh.read(_FEATURE_HEADER.size)
    if len(raw) < _FEATURE_HEADER.size:
        raise TruncatedPayloadError(f"{path}: file shorter than the header")
    magic, version, rows, cols = _FEATURE_HEADER.unpack(raw)
    if magic != FEATURE_MAGIC:
        raise BadMagicError(f"{path}: expected magic {FEATURE_MAGIC!r}, got {magic!r}")
    if version != FEATURE_VERSION:
        raise VersionMismatchError(
            f"{path}: feature format version {version}, expected {FEATURE_VERSION}"
        )
    return rows, cols


def read_features(path, video_id: str | None = None) -> FeatureSequence:
    """Read a whole feature file into memory.

    Raises:
        BadMagicError / VersionMismatchError: Wrong file type or version.
        TruncatedPayloadError: Header promises more bytes than exist,
            naming the file and both byte counts.
    """
    path = Path(path)
    rows, cols = read_feature_header(path)
    with open(path, "rb") as fh:
        fh.seek(_FEATURE_HEADER.size)
        payload = fh.read()
    expected = rows * cols * 4
    if len(payload) < expected:
        raise TruncatedPayloadError(
            f"{path}: header promises {expected} payload bytes, file has {len(payload)}"
        )
    matrix = np.frombuffer(payload[:expected], dtype="<f4").astype(np.float64)
    matrix = matrix.reshape(rows, cols)
    return FeatureSequence(
        video_id=video_id or path.stem,
        num_frames=rows,
        dim=cols,
        array=matrix,
        path=path,
    )


@dataclass
class LabelMapping:
    """Bidirectional action name <-> integer id table."""

    name_to_id: dict[str, int]
    id_to_name: dict[int, str] = field(init=False)

    def __post_init__(self) -> None:
        self.id_to_name = {v: k for k, v in self.name_to_id.items()}
        if len(self.id_to_name) != len(self.name_to_id):
            raise CatalogError("label mapping assigns one id to several names")

    @property
    def num_actions(self) -> int:
        return len(self.name_to_id)

    def add(self, name: str) -> int:
        if name in self.name_to_id:
            raise CatalogError(f"label {name!r} already mapped")
        new_id = max(self.id_to_name, default=-1) + 1
        self.name_to_id[name] = new_id
        self.id_to_name[new_id] = name
        return new_id

    @classmethod
    def from_file(cls, path) -> "LabelMapping":
        path = Path(path)
        names: dict[str, int] = {}
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(maxsplit=1)
            if len(parts) != 2 or not parts[0].lstrip("-").isdigit():
                raise CatalogError(f"{path}:{lineno}: expected '<id> <name>', got {line!r}")
            if parts[1] in names:
                raise CatalogError(f"{path}:{lineno}: action {parts[1]!r} listed twice")
            names[parts[1]] = int(parts[0])
        if not names:
            raise CatalogError(f"{path}: empty label mapping")
        ids = sorted(names.values())
        if len(set(ids)) < len(ids):
            raise CatalogError(f"{path}: label mapping assigns one id to several names")
        if ids != list(range(len(ids))):
            raise CatalogError(f"{path}: action ids must be 0..{len(ids) - 1}, got {ids}")
        return cls(names)

    def to_file(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [f"{i} {self.id_to_name[i]}" for i in sorted(self.id_to_name)]
        path.write_text("\n".join(lines) + "\n")


def read_labels(path, mapping: LabelMapping) -> np.ndarray:
    """Per-frame action ids from a one-name-per-line ground-truth file.

    Raises:
        UnknownLabelError: Naming the file, line number, and unknown name.
    """
    path = Path(path)
    ids = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        name = line.strip()
        if not name:
            continue
        if name not in mapping.name_to_id:
            raise UnknownLabelError(f"{path}:{lineno}: unknown action name {name!r}")
        ids.append(mapping.name_to_id[name])
    return np.asarray(ids, dtype=np.int64)


def relabel_background_edges(
    labels, background_id: int, start_id: int, end_id: int
) -> np.ndarray:
    """Split a shared background class into leading and trailing classes.

    The run of ``background_id`` at the start of the sequence becomes
    ``start_id`` and the run at the end becomes ``end_id``; background
    frames in the middle keep their id. On an all-background sequence the
    leading rewrite wins and the whole sequence becomes ``start_id``.
    """
    labels = np.asarray(labels, dtype=np.int64).copy()
    action = np.flatnonzero(labels != background_id)
    # All background: the leading run is the whole sequence.
    first, last = (action[0], action[-1]) if action.size else (labels.size, labels.size)
    labels[:first] = start_id
    labels[last + 1 :] = end_id
    return labels


@dataclass
class DatasetCatalog:
    """All videos of one activity plus its label mapping.

    ``true_means`` is set only for synthetic data (K x dim matrix of the
    generating cluster centers, row index = action id).
    ``background_split`` is (background_id, start_id, end_id) when the
    shared background class has been split into edge classes.
    """

    activity: str
    mapping: LabelMapping
    videos: list[FeatureSequence]
    true_means: np.ndarray | None = None
    background_split: tuple[int, int, int] | None = None

    @property
    def num_actions(self) -> int:
        return self.mapping.num_actions

    @property
    def dim(self) -> int:
        return self.videos[0].dim

    @property
    def total_frames(self) -> int:
        return sum(v.num_frames for v in self.videos)

    def video_labels(self, seq: FeatureSequence) -> np.ndarray:
        """Ground-truth ids for one video, applying any background split."""
        if seq.labels is not None:
            labels = np.asarray(seq.labels, dtype=np.int64)
        elif seq.label_path is not None:
            labels = read_labels(seq.label_path, self.mapping)
        else:
            raise CatalogError(f"video {seq.video_id} has no ground-truth labels")
        if labels.size != seq.num_frames:
            raise CatalogError(
                f"video {seq.video_id}: {labels.size} labels for {seq.num_frames} frames"
            )
        if self.background_split is not None:
            labels = relabel_background_edges(labels, *self.background_split)
        return labels


def load_catalog(root, activity: str, split_background: str | None = None) -> DatasetCatalog:
    """Scan ``root/<activity>/`` into a catalog without reading payloads.

    Args:
        root: Dataset root directory.
        activity: Subdirectory name.
        split_background: Name of a shared background action to split into
            ``<name>_start`` / ``<name>_end`` edge classes, or None.

    Raises:
        CatalogError: Missing directories, no feature files, inconsistent
            feature dimensions, or an unknown ``split_background`` name.
    """
    base = Path(root) / activity
    features_dir = base / "features"
    if not features_dir.is_dir():
        raise CatalogError(f"{base}: no features/ directory")
    mapping_path = base / "mapping.txt"
    if not mapping_path.is_file():
        raise CatalogError(f"{base}: no mapping.txt")
    mapping = LabelMapping.from_file(mapping_path)

    videos: list[FeatureSequence] = []
    gt_dir = base / "groundTruth"
    for path in sorted(features_dir.glob("*.totf")):
        rows, cols = read_feature_header(path)
        label_path = gt_dir / f"{path.stem}.txt"
        videos.append(
            FeatureSequence(
                video_id=path.stem,
                num_frames=rows,
                dim=cols,
                path=path,
                label_path=label_path if label_path.is_file() else None,
            )
        )
    if not videos:
        raise CatalogError(f"{features_dir}: no .totf feature files")
    dims = {v.dim for v in videos}
    if len(dims) != 1:
        raise CatalogError(
            f"{features_dir}: feature dimensions differ across videos: {sorted(dims)}"
        )

    background_split = None
    if split_background is not None:
        if split_background not in mapping.name_to_id:
            raise CatalogError(
                f"background action {split_background!r} not in {mapping_path}"
            )
        background_id = mapping.name_to_id[split_background]
        start_id = mapping.add(f"{split_background}_start")
        end_id = mapping.add(f"{split_background}_end")
        background_split = (background_id, start_id, end_id)

    return DatasetCatalog(
        activity=activity,
        mapping=mapping,
        videos=videos,
        background_split=background_split,
    )


def write_catalog(catalog: DatasetCatalog, root) -> Path:
    """Materialize a catalog (typically synthetic) as an on-disk dataset."""
    base = Path(root) / catalog.activity
    catalog.mapping.to_file(base / "mapping.txt")
    for seq in catalog.videos:
        write_features(seq, base / "features" / f"{seq.video_id}.totf")
        if seq.labels is not None:
            names = [catalog.mapping.id_to_name[int(i)] for i in seq.labels]
            gt_path = base / "groundTruth" / f"{seq.video_id}.txt"
            gt_path.parent.mkdir(parents=True, exist_ok=True)
            gt_path.write_text("\n".join(names) + "\n")
    return base


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic segmented-video generator.

    Each video is a sequence of action segments in canonical order
    0..num_actions-1; adjacent actions may swap with ``permute_prob`` and
    individual actions may drop with ``drop_prob``. Frames are the action's
    mean plus isotropic Gaussian noise. Cluster means are mutually
    orthogonal with pairwise distance exactly ``cluster_separation``, which
    requires ``dim >= num_actions``.
    """

    num_videos: int = 20
    num_actions: int = 5
    dim: int = 16
    mean_segment_len: int = 40
    len_jitter: float = 0.25
    cluster_separation: float = 10.0
    noise_sigma: float = 1.0
    permute_prob: float = 0.0
    drop_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_videos < 1:
            raise ValueError(f"num_videos must be >= 1, got {self.num_videos}")
        if self.num_actions < 2:
            raise ValueError(f"num_actions must be >= 2, got {self.num_actions}")
        if self.dim < self.num_actions:
            raise ValueError(
                f"dim ({self.dim}) must be >= num_actions ({self.num_actions}) "
                "for mutually orthogonal cluster means"
            )
        if self.mean_segment_len < 2:
            raise ValueError(
                f"mean_segment_len must be >= 2, got {self.mean_segment_len}"
            )
        if not 0.0 <= self.len_jitter < 1.0:
            raise ValueError(f"len_jitter must be in [0, 1), got {self.len_jitter}")
        if self.cluster_separation <= 0:
            raise ValueError(
                f"cluster_separation must be positive, got {self.cluster_separation}"
            )
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.permute_prob <= 1.0:
            raise ValueError(f"permute_prob must be in [0, 1], got {self.permute_prob}")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError(f"drop_prob must be in [0, 1), got {self.drop_prob}")


def generate_synthetic(spec: SyntheticSpec) -> DatasetCatalog:
    """Deterministic synthetic dataset of segmented videos.

    The same spec (including seed) always produces byte-identical features
    and labels. Cluster means are scaled columns of a QR orthonormal basis,
    so every pair of means is exactly ``cluster_separation`` apart.
    """
    rng = np.random.default_rng(spec.seed)
    k, d = spec.num_actions, spec.dim
    basis, _ = np.linalg.qr(rng.normal(size=(d, k)))
    # ||a*q_i - a*q_j|| = a*sqrt(2) for orthonormal q, hence the scale.
    means = (spec.cluster_separation / np.sqrt(2.0)) * basis.T

    videos: list[FeatureSequence] = []
    for v in range(spec.num_videos):
        order = list(range(k))
        for pos in range(k - 1):
            if rng.random() < spec.permute_prob:
                order[pos], order[pos + 1] = order[pos + 1], order[pos]
        kept = [a for a in order if rng.random() >= spec.drop_prob]
        if not kept:
            kept = order  # dropping everything leaves nothing to segment
        pieces = []
        labels = []
        for action in kept:
            jitter = rng.uniform(-spec.len_jitter, spec.len_jitter)
            length = max(2, round(spec.mean_segment_len * (1.0 + jitter)))
            noise = rng.normal(scale=spec.noise_sigma, size=(length, d))
            pieces.append(means[action] + noise)
            labels.extend([action] * length)
        frames = np.concatenate(pieces, axis=0)
        videos.append(
            FeatureSequence(
                video_id=f"video_{v:03d}",
                num_frames=frames.shape[0],
                dim=d,
                array=frames,
                labels=np.asarray(labels, dtype=np.int64),
            )
        )

    mapping = LabelMapping({f"action_{i}": i for i in range(k)})
    return DatasetCatalog(
        activity="synthetic",
        mapping=mapping,
        videos=videos,
        true_means=means,
    )
