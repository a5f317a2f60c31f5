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

Videos load lazily: the catalog reads only headers, and every frame any
command reads goes through ``FeatureSequence.load_feature_rows``, which
gathers from a memory map of the payload and checks finiteness with one
sum per read, so memory stays proportional to the batch rather than the
dataset. ``train`` passes it one ``FeatureMaps`` per run, which maps each
video once, before the first step, and releases the pages of a video's
map after each read; ``segment`` maps a file for each chunk it reads. A
payload shorter than its header is a DataError whenever it is mapped.
"""

from __future__ import annotations

import errno
import mmap
import os
import re
import struct
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .decode import segments_from_labels
from .errors import DataError
from .numerics import check_addressable

FEATURE_MAGIC = b"TOTF"
FEATURE_VERSION = 1
_FEATURE_HEADER = struct.Struct("<4sHII")

# Maps a FeatureMaps holds open at once. Before Python 3.13 each map keeps a
# duplicated file descriptor, so the cap stays well under common soft limits.
_MAX_OPEN_MAPS = 256

# Bytes of source rows one step of a gather copies, so its temporary stays
# well under 64 KiB.
_GATHER_BYTES = 32768


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
        return self.load_feature_rows(np.arange(self.num_frames))

    def load_feature_rows(
        self, rows, out: np.ndarray | None = None, maps: FeatureMaps | None = None
    ) -> np.ndarray:
        """Frame ``rows`` of this video, gathered into ``out`` and returned:
        every frame any command reads comes through here.

        Args:
            rows: Integer array (..., n) of frames in [0, num_frames).
            out: Float64 array (..., n, dim) that receives the rows; a new
                array when None.
            maps: The ``FeatureMaps`` a disk-backed video is read through;
                when None, the file is mapped for this call alone.

        Raises:
            DataError: The video's file, mapped here, is shorter than its
                header, or a row read holds a NaN or an infinity (names the
                file, or the in-memory video, and the lowest such frame).
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_frames):
            raise ValueError(
                f"frame index out of range for {self.video_id}: "
                f"requested {rows.min()}..{rows.max()} of {self.num_frames} frames"
            )
        if out is None:
            out = np.empty((*rows.shape, self.dim))
        if maps is not None:
            maps.read(self, rows, out)
        else:
            with FeatureMaps() as maps:
                maps.read(self, rows, out)
        # One sum per read; only a read that fails it is searched for the
        # frame to name. A sum that overflows on finite rows finds nothing
        # there and passes.
        if not np.isfinite(out.sum()):
            bad = rows[~np.isfinite(out).all(axis=-1)]
            if bad.size:
                source = self.path or f"video {self.video_id}"
                raise DataError(f"{source}: non-finite feature value in frame {int(bad.min())}")
        return out


def _map_payload(path: Path, num_frames: int, dim: int) -> tuple[mmap.mmap, np.ndarray]:
    """A feature file's payload, mapped read-only: (the map, its
    num_frames x dim rows as a float32 array).

    The file's descriptor is closed before this returns; the map can close
    only once no array of it is left.

    Raises:
        DataError: The payload is shorter than the header claims; names the
            first missing row.
    """
    with open(path, "rb") as fh:
        payload_bytes = os.fstat(fh.fileno()).st_size - _FEATURE_HEADER.size
        present = max(0, payload_bytes) // (dim * 4) if dim else num_frames
        if present < num_frames:
            raise DataError(f"{path}: row {present} extends past end of file")
        view = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    payload = np.frombuffer(
        view, dtype="<f4", count=num_frames * dim, offset=_FEATURE_HEADER.size
    )
    return view, payload.reshape(num_frames, dim)


def _copy_rows(source: np.ndarray, frames: np.ndarray, out: np.ndarray) -> None:
    """``out[..., i, :] = source[frames[..., i]]``, cast to out's dtype.

    Consecutive frames (a chunk of ``embed_dataset``) copy as one slice,
    which is cheaper than a gather. Otherwise it copies a few frames of the
    last axis at a time, so the gathered temporary stays within
    ``_GATHER_BYTES`` (or one frame of each part).
    """
    if frames.ndim == 1 and frames.size:
        first, last = int(frames[0]), int(frames[-1])
        if last - first == frames.size - 1 and (frames[1:] > frames[:-1]).all():
            np.copyto(out, source[first : last + 1])
            return
    # One frame of the last axis, in every part of the leading axes.
    frame_bytes = source.itemsize * source.shape[1] * (frames.size // max(1, frames.shape[-1]))
    step = max(1, _GATHER_BYTES // max(1, frame_bytes))
    for start in range(0, frames.shape[-1], step):
        span = slice(start, start + step)
        np.copyto(out[..., span, :], source[frames[..., span]])


class FeatureMaps:
    """Read-only maps of disk-backed videos, each opened once and kept open.

    ``train`` holds one for its run: it maps the pool when it starts, so a
    file shorter than its header stops the run before the first step, and
    every batch then reads through the maps. After each read the map's
    pages are released (``MADV_DONTNEED``), so resident memory stays that
    of one batch; the next read faults them back in from the page cache.
    At most ``_MAX_OPEN_MAPS`` maps stay open: the least recently read one
    is closed, and mapped again when it is next read. ``close`` (or leaving
    a ``with`` block) closes them all.

    A feature file must not be truncated or rewritten while it is mapped:
    reading past the end of a truncated map is a SIGBUS, not a DataError.
    """

    def __init__(self, videos=()) -> None:
        self._maps: OrderedDict[Path, tuple[mmap.mmap, np.ndarray]] = OrderedDict()
        try:
            for video in videos:
                if video.array is None:
                    self._payload(video)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "FeatureMaps":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        while self._maps:
            self._close_oldest()

    def read(self, video: FeatureSequence, frames: np.ndarray, out: np.ndarray) -> None:
        """Copy ``video``'s rows ``frames`` into ``out``, then release the pages read.

        Args:
            frames: Integer array (..., n) of frames in [0, num_frames).
            out: Float array (..., n, dim) that receives the rows, cast from
                the file's float32 (or from an in-memory video's array).
                ``FeatureSequence.load_feature_rows`` checks that they are
                finite.

        Raises:
            DataError: The video's file was first mapped here and is
                shorter than its header.
        """
        if video.array is not None:
            _copy_rows(video.array, frames, out)
            return
        view, payload = self._payload(video)
        _copy_rows(payload, frames, out)
        view.madvise(mmap.MADV_DONTNEED)

    def _payload(self, video: FeatureSequence) -> tuple[mmap.mmap, np.ndarray]:
        """The video's map and its num_frames x dim rows, mapped on a miss."""
        entry = self._maps.get(video.path)
        if entry is None:
            entry = _map_payload(video.path, video.num_frames, video.dim)
            self._maps[video.path] = entry
            if len(self._maps) > _MAX_OPEN_MAPS:
                self._close_oldest()
        else:
            self._maps.move_to_end(video.path)
        return entry

    def _close_oldest(self) -> None:
        _, (view, payload) = self._maps.popitem(last=False)
        del payload  # the map cannot close while an array still exports its buffer
        view.close()


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


def _read_text(path: Path) -> str:
    """A text input's contents; bytes that are not UTF-8 are a DataError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text (byte {err.start})") from None


def write_features(frames, path) -> None:
    """Write a frames x dim matrix to ``path`` in the binary feature format.

    The values are stored as float32; a float32 matrix is written as it is.
    """
    frames = np.ascontiguousarray(frames, dtype="<f4")
    if frames.ndim != 2:
        raise ValueError(f"expected a frames x dim matrix, got shape {frames.shape}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = _FEATURE_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, *frames.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(frames)


def read_feature_header(path) -> tuple[int, int]:
    """(rows, cols) from a feature file without touching the payload."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            raw = fh.read(_FEATURE_HEADER.size)
    except OSError as err:
        raise DataError(f"{path}: cannot read feature file: {err.strerror}") from None
    if len(raw) < _FEATURE_HEADER.size:
        raise DataError(f"{path}: file shorter than the header")
    magic, version, rows, cols = _FEATURE_HEADER.unpack(raw)
    if magic != FEATURE_MAGIC:
        raise DataError(f"{path}: expected magic {FEATURE_MAGIC!r}, got {magic!r}")
    if version != FEATURE_VERSION:
        raise DataError(
            f"{path}: feature format version {version}, expected {FEATURE_VERSION}"
        )
    return rows, cols


@dataclass
class LabelMapping:
    """Bidirectional action name <-> integer id table."""

    name_to_id: dict[str, int]
    id_to_name: dict[int, str] = field(init=False)

    def __post_init__(self) -> None:
        self.id_to_name = {v: k for k, v in self.name_to_id.items()}
        if len(self.id_to_name) != len(self.name_to_id):
            raise DataError("label mapping assigns one id to several names")

    @property
    def num_actions(self) -> int:
        return len(self.name_to_id)

    @classmethod
    def from_file(cls, path) -> "LabelMapping":
        path = Path(path)
        names: dict[str, int] = {}
        for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(maxsplit=1)
            if len(parts) != 2 or not parts[0].removeprefix("-").isdecimal():
                raise DataError(f"{path}:{lineno}: expected '<id> <name>', got {line!r}")
            if parts[1] in names:
                raise DataError(f"{path}:{lineno}: action {parts[1]!r} listed twice")
            names[parts[1]] = int(parts[0])
        if not names:
            raise DataError(f"{path}: empty label mapping")
        ids = sorted(names.values())
        if len(set(ids)) < len(ids):
            raise DataError(f"{path}: label mapping assigns one id to several names")
        if ids != list(range(len(ids))):
            raise DataError(f"{path}: action ids must be 0..{len(ids) - 1}, got {ids}")
        return cls(names)

    def to_file(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [f"{i} {self.id_to_name[i]}" for i in sorted(self.id_to_name)]
        path.write_text("\n".join(lines) + "\n")


# One run of equal "\n"-ended lines. The repeat is bounded so the regex
# engine's state stays small: a longer run matches as several runs.
_RUN_CAP = 4096
_RUN = re.compile(r"([^\n]*)\n(?:\1\n){0,%d}" % (_RUN_CAP - 1))
_BYTES_RUN = re.compile(rb"([^\n]*)\n(?:\1\n){0,%d}" % (_RUN_CAP - 1))
# The line boundaries of str.splitlines other than "\n" and "\r\n".
_ASCII_BREAKS = "\r\v\f\x1c\x1d\x1e"
_STR_BREAKS = str.maketrans(dict.fromkeys(_ASCII_BREAKS + "\x85\u2028\u2029", "\n"))


def _read_runs(text: str | bytes, parse) -> np.ndarray:
    """One int64 id per line of ``text``, parsing each run of equal lines once.

    Lines split where ``str.splitlines`` (or, for bytes, ``bytes.splitlines``)
    splits them, and a missing final line break changes nothing. ``parse(line,
    lineno)`` gets the first line of each run with its 1-based number and
    returns the id of every line in the run, or None to skip them.
    """
    # The membership tests are memchr scans; a "\n"-only file skips the rewrite.
    if isinstance(text, str):
        if not text.isascii() or any(c in text for c in _ASCII_BREAKS):
            text = text.replace("\r\n", "\n").translate(_STR_BREAKS)
        newline, pattern = "\n", _RUN
    else:
        if b"\r" in text:
            text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        newline, pattern = b"\n", _BYTES_RUN
    if text and not text.endswith(newline):
        text += newline
    ids, counts = [], []
    lineno = 1
    for run in pattern.finditer(text):
        line = run[1]
        count = (run.end() - run.start()) // (len(line) + 1)
        value = parse(line, lineno)
        if value is not None:
            ids.append(value)
            counts.append(count)
        lineno += count
    return np.repeat(np.asarray(ids, dtype=np.int64), counts)


def read_labels(path, mapping: LabelMapping) -> np.ndarray:
    """Per-frame action ids from a one-name-per-line ground-truth file.

    Surrounding whitespace is ignored and blank lines are skipped; lines
    split as ``str.splitlines`` splits them (docs/file-formats.md).

    Raises:
        DataError: Naming the file, line number, and unknown name, or
            the file is not UTF-8 text.
    """
    path = Path(path)

    def action_id(line: str, lineno: int) -> int | None:
        name = line.strip()
        if not name:
            return None
        if name not in mapping.name_to_id:
            raise DataError(f"{path}:{lineno}: unknown action name {name!r}")
        return mapping.name_to_id[name]

    return _read_runs(_read_text(path), action_id)


def read_predictions(path) -> np.ndarray:
    """Cluster ids of a prediction file, one per non-blank line.

    ``int`` parses the file's bytes directly, so no decode step can fail:
    any line that is not an integer, UTF-8 or not, is a data error. Lines
    split as ``bytes.splitlines`` splits them (docs/file-formats.md).
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        raise DataError(f"missing prediction file: {path}") from None
    except IsADirectoryError:
        raise DataError(f"{path}: a directory, not a prediction file") from None
    try:
        ids = _read_runs(data, lambda line, _: int(line) if line.strip() else None)
    except ValueError:
        raise DataError(f"{path}: prediction lines must be integer cluster ids") from None
    except OverflowError:
        raise DataError(f"{path}: prediction ids must be below 2**63") from None
    if ids.size and ids.min() < 0:
        raise DataError(f"{path}: prediction ids must be >= 0, got {int(ids.min())}")
    return ids


@dataclass
class DatasetCatalog:
    """All videos of one activity plus its label mapping.

    ``true_means`` is set only for synthetic data (K x dim matrix of the
    generating cluster centers, row index = action id).
    """

    activity: str
    mapping: LabelMapping
    videos: list[FeatureSequence]
    true_means: np.ndarray | None = None

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
        """Ground-truth ids for one video."""
        if seq.labels is not None:
            labels = np.asarray(seq.labels, dtype=np.int64)
        elif seq.label_path is not None:
            labels = read_labels(seq.label_path, self.mapping)
        else:
            raise DataError(f"video {seq.video_id} has no ground-truth labels")
        if labels.size != seq.num_frames:
            raise DataError(
                f"video {seq.video_id}: {labels.size} labels for {seq.num_frames} frames"
            )
        return labels


def load_catalog(root, activity: str) -> DatasetCatalog:
    """Scan ``root/<activity>/`` into a catalog without reading payloads.

    Args:
        root: Dataset root directory.
        activity: Subdirectory name.

    Raises:
        DataError: Missing directories, no feature files, or inconsistent
            or zero feature dimensions.
    """
    base = Path(root) / activity
    features_dir = base / "features"
    if not features_dir.is_dir():
        raise DataError(f"{base}: no features/ directory")
    mapping_path = base / "mapping.txt"
    if not mapping_path.is_file():
        raise DataError(f"{base}: no mapping.txt")
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
        raise DataError(f"{features_dir}: no .totf feature files")
    dims = {v.dim for v in videos}
    if len(dims) != 1:
        raise DataError(
            f"{features_dir}: feature dimensions differ across videos: {sorted(dims)}"
        )
    if 0 in dims:
        raise DataError(f"{features_dir}: feature files have 0 columns")

    return DatasetCatalog(
        activity=activity,
        mapping=mapping,
        videos=videos,
    )


def write_catalog(catalog: DatasetCatalog, root) -> Path:
    """Materialize a catalog (typically synthetic) as an on-disk dataset.

    Every output path inside the activity directory is checked before the
    first write: a file where ``features/`` or ``groundTruth/`` goes, or a
    directory where a file goes, raises the OSError that the write would
    have raised, and nothing of the activity is written. So are the
    features: a value that is not finite in float32 (one beyond its range
    overflows in the cast) raises DataError naming the video and frame.
    """
    base = Path(root) / catalog.activity
    mapping_path = base / "mapping.txt"
    feature_paths = [base / "features" / f"{seq.video_id}.totf" for seq in catalog.videos]
    truth_paths = [
        None if seq.labels is None else base / "groundTruth" / f"{seq.video_id}.txt"
        for seq in catalog.videos
    ]
    for folder, paths in (
        (base, [mapping_path]),
        (base / "features", feature_paths),
        (base / "groundTruth", [path for path in truth_paths if path is not None]),
    ):
        if folder.is_dir():
            for path in paths:
                if path.is_dir():
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        elif folder.exists():
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(folder))
    with np.errstate(over="ignore"):  # an overflow is reported by frame below
        payloads = [
            np.ascontiguousarray(seq.load_features(), dtype="<f4") for seq in catalog.videos
        ]
    for seq, frames in zip(catalog.videos, payloads):
        finite = np.isfinite(frames)
        if not finite.all():
            bad = int(np.flatnonzero(~finite.all(axis=1))[0])
            raise DataError(
                f"video {seq.video_id}: feature value in frame {bad} is not finite in float32"
            )
    catalog.mapping.to_file(mapping_path)
    for seq, frames, feature_path, truth_path in zip(
        catalog.videos, payloads, feature_paths, truth_paths
    ):
        write_features(frames, feature_path)
        if truth_path is not None:
            # One name line per frame, written a run of equal labels at a
            # time; no labels make a file of one empty line.
            names = catalog.mapping.id_to_name
            runs = segments_from_labels(seq.labels) if len(seq.labels) else []
            text = "".join(f"{names[label]}\n" * (end - start) for label, start, end in runs)
            truth_path.parent.mkdir(parents=True, exist_ok=True)
            truth_path.write_text(text or "\n")
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        check_addressable("the cluster-mean basis", self.dim, self.num_actions)
        # A segment length past numpy's limit fails as it is; one below it
        # keeps the float product finite.
        longest = self.mean_segment_len
        if longest <= np.iinfo(np.intp).max:
            longest = round(longest * (1.0 + self.len_jitter))
        check_addressable("the longest segment", longest, self.dim)


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
        noise, lengths = [], []
        for action in kept:
            jitter = rng.uniform(-spec.len_jitter, spec.len_jitter)
            lengths.append(max(2, round(spec.mean_segment_len * (1.0 + jitter))))
            noise.append(rng.normal(scale=spec.noise_sigma, size=(lengths[-1], d)))
        labels = np.repeat(np.asarray(kept, dtype=np.int64), lengths)
        frames = np.concatenate(noise, axis=0)
        # An inf from overflow is reported by write_catalog's float32 check.
        with np.errstate(over="ignore"):
            frames += means[labels]
        videos.append(
            FeatureSequence(
                video_id=f"video_{v:03d}",
                num_frames=frames.shape[0],
                dim=d,
                array=frames,
                labels=labels,
            )
        )

    mapping = LabelMapping({f"action_{i}": i for i in range(k)})
    return DatasetCatalog(
        activity="synthetic",
        mapping=mapping,
        videos=videos,
        true_means=means,
    )
