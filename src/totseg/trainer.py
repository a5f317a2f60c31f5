"""The online training loop: sample, encode, solve codes, step.

Each iteration draws an ordered batch from a couple of videos, embeds it,
solves optimal transport per video block for pseudo-label codes (with or
without the temporal prior, depending on mode), evaluates the losses, and
takes one Adam step. Working memory stays proportional to the batch:
nothing here ever holds a matrix with a dataset-length dimension, which is
what makes the clustering online.

The four training modes differ only in two switches: whether the transport
kernel includes the temporal prior (ot vs tot) and whether the coherence
term is added (+tcl). Everything else is shared code, so ablations compare
exactly what they claim to compare.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, TextIO

import numpy as np

from . import encoder, losses, transport
from .dataio import DatasetCatalog
from .errors import NumericalError, TooFewVideosError
from .numerics import row_softmax
from .sampler import block_length, build_batch, eligible_videos

MODES = ("ot", "ot+tcl", "tot", "tot+tcl")

LOG_HEADER = "iter,L_CE,L_TC,L,row_err,col_err"


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run besides the data.

    ``iterations`` overrides the epoch-derived budget when set. One epoch
    is len(videos) // videos_per_batch iterations. ``num_clusters``
    defaults to the catalog's action count and, when given, must agree
    with it.
    """

    mode: str = "tot"
    epochs: int = 30
    iterations: int | None = None
    batch_size: int = 512
    videos_per_batch: int = 2
    freeze_iterations: int = 100
    seed: int = 0
    num_clusters: int | None = None
    embed_dim: int = 30
    hidden_dim: int | None = None
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    normalize: bool = True
    prior_scope: str = "block"
    loss: losses.LossConfig = field(default_factory=losses.LossConfig)
    transport: transport.TransportConfig = field(
        default_factory=transport.TransportConfig
    )

    def __post_init__(self) -> None:
        if self.mode.lower() not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode != self.mode.lower():
            object.__setattr__(self, "mode", self.mode.lower())
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        block_length(self.batch_size, self.videos_per_batch)  # raises on a bad split
        if self.freeze_iterations < 0:
            raise ValueError(
                f"freeze_iterations must be >= 0, got {self.freeze_iterations}"
            )
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.prior_scope not in ("block", "batch"):
            raise ValueError(
                f"prior_scope must be 'block' or 'batch', got {self.prior_scope!r}"
            )

    @property
    def uses_prior(self) -> bool:
        return self.mode.startswith("tot")

    @property
    def uses_coherence(self) -> bool:
        return self.mode.endswith("+tcl")


@dataclass(frozen=True)
class TrainRecord:
    """One training-log line; see LOG_HEADER for the text order."""

    iteration: int
    clustering_loss: float
    coherence_loss: float
    total_loss: float
    row_error: float
    col_error: float

    def to_line(self) -> str:
        return (
            f"{self.iteration},{self.clustering_loss:.6f},"
            f"{self.coherence_loss:.6f},{self.total_loss:.6f},"
            f"{self.row_error:.3e},{self.col_error:.3e}"
        )


class MatrixLedger:
    """Peak sizes of every matrix the training loop allocates.

    ``record`` keeps, per name, the largest observed byte count and shape.
    ``max_dimension`` is the largest single axis seen anywhere, which is
    what the online-memory property constrains.
    """

    def __init__(self) -> None:
        self.entries: dict[str, tuple[tuple[int, ...], int]] = {}

    def record(self, name: str, array: np.ndarray) -> None:
        nbytes = int(array.nbytes)
        if name not in self.entries or nbytes > self.entries[name][1]:
            self.entries[name] = (tuple(array.shape), nbytes)

    def max_dimension(self) -> int:
        return max(
            (dim for shape, _ in self.entries.values() for dim in shape), default=0
        )

    def peak_bytes(self, name: str) -> int:
        return self.entries[name][1]

    def shape(self, name: str) -> tuple[int, ...]:
        return self.entries[name][0]


@dataclass
class TrainResult:
    params: encoder.EncoderParams
    state: encoder.AdamState
    records: list[TrainRecord]
    ledger: MatrixLedger
    elapsed_seconds: float


def solve_codes(
    scores: np.ndarray,
    blocks: list[tuple[str, int, int]],
    config: TrainConfig,
    ledger: MatrixLedger | None = None,
) -> tuple[np.ndarray, float, float]:
    """Pseudo-label codes for a batch, one transport solve per video block.

    Temporal order only means something inside a video, so by default each
    block of ``scores`` is solved on its own equal-partition polytope
    (with its own prior in tot modes). Block solutions are scaled by
    block_len / B so the assembled batch matrix again has rows summing to
    1/B and columns to 1/K. ``prior_scope="batch"`` instead treats the
    concatenated batch as one sequence: a single solve, single prior.

    Returns:
        (B x K codes, max row error, max col error) across block solves.
    """
    total = scores.shape[0]
    if config.prior_scope == "batch":
        blocks = [("batch", 0, total)]
    codes = np.empty_like(scores)
    row_err = 0.0
    col_err = 0.0
    cfg = config.transport
    for _, start, length in blocks:
        block_scores = scores[start : start + length]
        if config.uses_prior:
            prior = transport.temporal_prior(length, scores.shape[1], cfg.sigma)
            if ledger is not None:
                ledger.record("prior", prior)
            solved = transport.sinkhorn_tot(
                block_scores,
                prior,
                cfg.rho,
                iterations=cfg.iterations,
                tolerance=cfg.marginal_tolerance,
            )
        else:
            solved = transport.sinkhorn_ot(
                block_scores,
                cfg.epsilon,
                iterations=cfg.iterations,
                tolerance=cfg.marginal_tolerance,
            )
        codes[start : start + length] = solved.values * (length / total)
        row_err = max(row_err, solved.row_error)
        col_err = max(col_err, solved.col_error)
    if ledger is not None:
        ledger.record("codes", codes)
    return codes, row_err, col_err


def _maybe_normalize(matrix: np.ndarray, normalize: bool):
    """Row normalization, or identity pass-through with norms=None."""
    if normalize:
        return encoder.normalize_rows(matrix)
    return matrix, None


def _maybe_normalize_backward(
    grad: np.ndarray, normalized: np.ndarray, norms: np.ndarray | None
) -> np.ndarray:
    if norms is None:
        return grad
    return encoder.normalize_rows_backward(grad, normalized, norms)


class _Forward(NamedTuple):
    """Forward half of a step: normalized anchor rows, then any positive rows,
    and the B x K anchor/prototype ``scores`` that transport, the clustering
    loss and the predicted codes all read."""

    cache: encoder.ForwardCache
    embeddings: np.ndarray
    norms: np.ndarray | None
    prototypes: np.ndarray
    prototype_norms: np.ndarray | None
    batch_size: int
    scores: np.ndarray


def _forward(
    params: encoder.EncoderParams,
    anchors: np.ndarray,
    positives: np.ndarray | None,
    normalize: bool,
    ledger: MatrixLedger | None = None,
) -> _Forward:
    """Stacked encoder pass over anchors (and positives), normalization, scores."""
    batch_size = anchors.shape[0]
    stacked = anchors if positives is None else np.concatenate([anchors, positives])
    embeddings, cache = encoder.forward(params, stacked)
    normalized, norms = _maybe_normalize(embeddings, normalize)
    protos, proto_norms = _maybe_normalize(params.prototypes, normalize)
    scores = normalized[:batch_size] @ protos.T
    if ledger is not None:
        ledger.record("batch_features", anchors)
        if positives is not None:
            ledger.record("positive_features", positives)
        ledger.record("embeddings", embeddings[:batch_size])
        ledger.record("hidden", cache.hidden)
        ledger.record("scores", scores)
    return _Forward(cache, normalized, norms, protos, proto_norms, batch_size, scores)


def _backward(
    step: _Forward,
    codes: np.ndarray,
    blocks: list[tuple[str, int, int]],
    loss_config: losses.LossConfig,
    ledger: MatrixLedger | None = None,
) -> tuple[float, float, dict[str, np.ndarray]]:
    """Losses and parameter gradients of a forward half, codes held fixed.

    The coherence term is on exactly when the forward half saw positives.
    """
    cache, normalized, norms, protos, proto_norms, batch_size, scores = step
    anchor_rows = normalized[:batch_size]

    if loss_config.renormalize_codes:
        codes = codes / codes.sum(axis=1, keepdims=True)
    clustering, grad_scores = losses.cross_entropy(
        scores, codes, loss_config.temperature
    )

    grad_normalized = np.zeros_like(normalized)
    grad_normalized[:batch_size] = grad_scores @ protos
    grad_protos = grad_scores.T @ anchor_rows

    coherence = 0.0
    if normalized.shape[0] > batch_size:
        positive_rows = normalized[batch_size:]
        for _, start, length in blocks:
            weight = length / batch_size
            piece, grad_anchor, grad_positive = losses.temporal_coherence(
                anchor_rows[start : start + length],
                positive_rows[start : start + length],
            )
            coherence += weight * piece
            scale = loss_config.alpha * weight
            grad_normalized[start : start + length] += scale * grad_anchor
            rows = slice(batch_size + start, batch_size + start + length)
            grad_normalized[rows] += scale * grad_positive

    grad_embeddings = _maybe_normalize_backward(grad_normalized, normalized, norms)
    grads = encoder.backward(cache, grad_embeddings)
    grads["prototypes"] = _maybe_normalize_backward(grad_protos, protos, proto_norms)

    if ledger is not None:
        ledger.record("grad_scores", grad_scores)
        ledger.record("grad_embeddings", grad_embeddings)
    return clustering, coherence, grads


def loss_and_grads(
    params: encoder.EncoderParams,
    anchors: np.ndarray,
    positives: np.ndarray | None,
    codes: np.ndarray,
    blocks: list[tuple[str, int, int]],
    loss_config: losses.LossConfig,
    normalize: bool = True,
) -> tuple[float, float, dict[str, np.ndarray]]:
    """Losses and analytic gradients for one batch with codes held fixed.

    This is the complete differentiable path of a training step, and
    ``train`` runs the same two halves with the transport solve between
    them: stacked forward pass over anchors (and positives when given),
    row normalization of embeddings and prototypes inside the graph
    (unless disabled), the clustering loss on anchor rows, and the
    per-block coherence loss between anchor and positive rows.

    Args:
        params: Current encoder parameters.
        anchors: B x D_in anchor features.
        positives: B x D_in positive features, or None to skip coherence.
        codes: B x K pseudo-label codes, treated as constants.
        blocks: (video_id, start, length) spans of ``anchors``.
        loss_config: Temperature, alpha, renormalization flag.
        normalize: Row-normalize embeddings and prototypes before dots.

    Returns:
        (clustering loss, coherence loss, gradient dict covering every
        parameter including prototypes).
    """
    step = _forward(params, anchors, positives, normalize)
    return _backward(step, codes, blocks, loss_config)


def train(
    catalog: DatasetCatalog,
    config: TrainConfig,
    log_stream: TextIO | None = None,
) -> TrainResult:
    """Run the full loop and return trained parameters plus the log.

    Deterministic for a fixed config seed on one thread. Raises
    NumericalError naming the iteration if the loss leaves the reals, and
    TooFewVideosError when fewer than ``videos_per_batch`` videos are at
    least one block (batch_size / videos_per_batch frames) long.

    Args:
        catalog: Videos of one activity.
        config: See TrainConfig.
        log_stream: Optional text sink receiving LOG_HEADER and one line
            per iteration.
    """
    if config.num_clusters is not None and config.num_clusters != catalog.num_actions:
        raise ValueError(
            f"config asks for {config.num_clusters} prototypes but catalog "
            f"{catalog.activity!r} has {catalog.num_actions} actions"
        )
    clusters = catalog.num_actions
    block_len = config.batch_size // config.videos_per_batch
    # Counted before eligible_videos warns about each short video, so a run
    # that cannot train reports one line.
    found = sum(video.num_frames >= block_len for video in catalog.videos)
    if found < config.videos_per_batch:
        raise TooFewVideosError(
            f"activity {catalog.activity!r}: need {config.videos_per_batch} videos "
            f"with >= {block_len} frames for batches of {config.batch_size}, "
            f"found {found}"
        )
    videos = eligible_videos(catalog, block_len)
    iterations = config.iterations
    if iterations is None:
        iterations = config.epochs * max(1, len(videos) // config.videos_per_batch)

    rng = np.random.default_rng(config.seed)
    hidden_dim = config.hidden_dim or 2 * config.embed_dim
    params = encoder.init_params(
        catalog.dim, hidden_dim, config.embed_dim, clusters, rng
    )
    state = encoder.AdamState.for_params(
        params,
        learning_rate=config.learning_rate,
        weight_decay=config.weight_decay,
    )

    ledger = MatrixLedger()
    records: list[TrainRecord] = []
    if log_stream is not None:
        log_stream.write(LOG_HEADER + "\n")

    started = time.perf_counter()
    for iteration in range(iterations):
        batch = build_batch(
            videos,
            config.videos_per_batch,
            config.batch_size,
            rng,
            window=config.loss.window,
        )
        positives = batch.positive_features if config.uses_coherence else None
        step = _forward(params, batch.features, positives, config.normalize, ledger)
        codes, row_err, col_err = solve_codes(step.scores, batch.blocks, config, ledger)
        clustering, coherence, grads = _backward(
            step, codes, batch.blocks, config.loss, ledger
        )
        total = losses.total_loss(clustering, coherence, config.loss.alpha)
        if not np.isfinite(total):
            raise NumericalError(
                f"training diverged at iteration {iteration}: loss={total}"
            )

        state.prototypes_frozen = iteration < config.freeze_iterations
        encoder.adam_step(params, grads, state)

        record = TrainRecord(
            iteration=iteration,
            clustering_loss=clustering,
            coherence_loss=coherence,
            total_loss=total,
            row_error=row_err,
            col_error=col_err,
        )
        records.append(record)
        if log_stream is not None:
            log_stream.write(record.to_line() + "\n")

    return TrainResult(
        params=params,
        state=state,
        records=records,
        ledger=ledger,
        elapsed_seconds=time.perf_counter() - started,
    )


def embed_dataset(
    params: encoder.EncoderParams,
    catalog: DatasetCatalog,
    temperature: float = 0.1,
    chunk_size: int = 4096,
    normalize: bool = True,
) -> Iterator[tuple[str, np.ndarray]]:
    """Predicted cluster probabilities for every frame, one video at a time.

    Videos are processed independently and frames within a video in
    chunks, so peak memory follows the longest single video, never the
    dataset.  `normalize` must match the setting the checkpoint was
    trained with, otherwise scores live on a different scale than the
    prototypes expect.

    Yields:
        (video_id, F x K row-stochastic matrix) per video, catalog order.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    for video in catalog.videos:
        pieces = []
        for start in range(0, video.num_frames, chunk_size):
            stop = min(start + chunk_size, video.num_frames)
            rows = video.load_feature_rows(np.arange(start, stop))
            scores = _forward(params, rows, None, normalize).scores
            pieces.append(row_softmax(scores, temperature))
        yield video.video_id, np.concatenate(pieces, axis=0)
