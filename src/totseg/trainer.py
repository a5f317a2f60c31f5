"""The online training loop: sample, encode, solve codes, step.

Each iteration draws an ordered batch of equal blocks from a couple of
videos, embeds it, solves optimal transport on each block for pseudo-label
codes (with or without the temporal prior, depending on mode; the blocks go
to the solver as one stack, a view of the batch's scores), evaluates the
losses, and takes one Adam step.
Working memory stays proportional to the batch: nothing here ever holds a
matrix with a dataset-length dimension, which is what makes the clustering
online. ``test_online_memory_does_not_grow_with_the_dataset`` in
``tests/test_acceptance.py`` measures that claim: it traces the peak
allocation of ``train`` and of ``segment`` on datasets of n and 16n videos.
``train`` owns that memory: it maps each video its batches draw once
(``dataio.FeatureMaps``) and allocates one ``Workspace`` of batch-sized
arrays per run, which every step overwrites, so a batch's rows and a
step's activations last only until the next ``build_batch`` and
``forward``. Segmentation allocates once per call too: ``embed_dataset``
encodes every chunk of every video in one ``Workspace`` of chunk-sized
arrays, and writes each chunk's log-probabilities into its video's lattice.

The four training modes differ only in two switches: whether the transport
kernel includes the temporal prior (ot vs tot) and whether the coherence
term is added (+tcl). Everything else is shared code, so ablations compare
exactly what they claim to compare.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from . import decode, encoder, losses, transport
from .dataio import DatasetCatalog, FeatureMaps
from .errors import DataError, NumericalError
from .numerics import check_addressable, log_softmax_rows
from .sampler import block_length, build_batch

logger = logging.getLogger(__name__)

MODES = ("ot", "ot+tcl", "tot", "tot+tcl")

LOG_HEADER = "iter,L_CE,L_TC,L,row_err,col_err"

# Frames ``embed_dataset`` encodes at once: bounds segmentation's peak memory.
_CHUNK_SIZE = 4096


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run besides the data.

    ``iterations`` overrides the epoch-derived budget when set. One epoch
    is len(videos) // videos_per_batch iterations. The encoder's hidden
    layer is ``2 * embed_dim`` wide, and there is one prototype per action
    of the catalog.
    """

    mode: str = "tot"
    epochs: int = 30
    iterations: int | None = None
    batch_size: int = 512
    videos_per_batch: int = 2
    freeze_iterations: int = 100
    seed: int = 0
    embed_dim: int = 30
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    normalize: bool = True
    loss: losses.LossConfig = field(default_factory=losses.LossConfig)
    transport: transport.TransportConfig = field(
        default_factory=transport.TransportConfig
    )

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        block_length(self.batch_size, self.videos_per_batch)  # raises on a bad split
        if self.freeze_iterations < 0:
            raise ValueError(
                f"freeze_iterations must be >= 0, got {self.freeze_iterations}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {self.embed_dim}")
        check_addressable("the encoder's w2", 2 * self.embed_dim, self.embed_dim)
        encoder.AdamState.check_settings(self.learning_rate, self.weight_decay)

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


@dataclass
class TrainResult:
    params: encoder.EncoderParams
    records: list[TrainRecord]
    elapsed_seconds: float


@dataclass(frozen=True)
class Workspace:
    """Batch-sized arrays, and the parameter gradient, that a step writes into
    instead of allocating.

    ``train`` allocates one per run (``for_run``) and passes it to
    ``build_batch``, ``forward`` and ``backward`` at every step, which
    overwrite it. ``embed_dataset`` is the third user: it allocates one
    of chunk-sized arrays per call (``for_chunks``), and each chunk reads,
    encodes and exponentiates its rows in the first rows of it (``head``).
    A field left None is allocated by the call that needs it, which is all
    that the default ``Workspace()`` does. With N = 2B rows when coherence
    is on (anchors and positives) and B otherwise, or N frames of a chunk:

    Attributes:
        rows: N x dim batch rows (``Batch.rows`` is a view of them): without
            coherence ``build_batch`` reads no positive rows.
        hidden, grad_hidden: N x hidden activations and their gradient.
        outputs: N x embed encoder outputs.
        normalized, norm_work: N x embed unit rows and the work array of
            their backward; unused without normalization.
        grad_normalized: N x embed gradient of the embedding rows.
        similarity: L x L similarities of one video block, for coherence.
        grads: The gradient in the parameters' layout (one vector), which
            ``backward`` fills and returns.
        exponentials: N x K exponentials of a chunk's shifted scores, which
            segmentation's softmax reads only for their row sums.
    """

    rows: np.ndarray | None = None
    hidden: np.ndarray | None = None
    grad_hidden: np.ndarray | None = None
    outputs: np.ndarray | None = None
    normalized: np.ndarray | None = None
    norm_work: np.ndarray | None = None
    grad_normalized: np.ndarray | None = None
    similarity: np.ndarray | None = None
    grads: encoder.EncoderParams | None = None
    exponentials: np.ndarray | None = None

    @classmethod
    def for_run(cls, config: TrainConfig, params: encoder.EncoderParams) -> "Workspace":
        """The arrays a run of ``config`` that trains ``params`` uses."""
        dim = params.dims[0]
        batch, embed = config.batch_size, config.embed_dim
        rows = 2 * batch if config.uses_coherence else batch
        block = block_length(batch, config.videos_per_batch)
        return cls(
            rows=np.empty((rows, dim)),
            hidden=np.empty((rows, 2 * embed)),
            grad_hidden=np.empty((rows, 2 * embed)),
            outputs=np.empty((rows, embed)),
            normalized=np.empty((rows, embed)) if config.normalize else None,
            norm_work=np.empty((rows, embed)) if config.normalize else None,
            grad_normalized=np.empty((rows, embed)),
            similarity=np.empty((block, block)) if config.uses_coherence else None,
            grads=params.zeros_like(),
        )

    @classmethod
    def for_chunks(
        cls, params: encoder.EncoderParams, rows: int, normalize: bool
    ) -> "Workspace":
        """The arrays ``embed_dataset`` encodes chunks of up to ``rows``
        frames with ``params`` in."""
        dim, hidden, embed, clusters = params.dims
        return cls(
            rows=np.empty((rows, dim)),
            hidden=np.empty((rows, hidden)),
            outputs=np.empty((rows, embed)),
            normalized=np.empty((rows, embed)) if normalize else None,
            exponentials=np.empty((rows, clusters)),
        )

    def head(self, rows: int) -> "Workspace":
        """Views of the first ``rows`` rows of every array held: for a
        workspace of row arrays alone, as ``for_chunks`` makes."""
        return Workspace(
            **{name: None if array is None else array[:rows] for name, array in vars(self).items()}
        )


def solve_codes(
    scores: np.ndarray,
    num_blocks: int,
    config: TrainConfig,
    prior: np.ndarray | None = None,
) -> tuple[np.ndarray, float, float]:
    """Pseudo-label codes for a batch of ``num_blocks`` equal video blocks.

    Temporal order only means something inside a video, so each block of
    L = B / num_blocks rows of ``scores`` is solved on its own
    equal-partition polytope. The blocks go to the solver as one
    n x L x K view of ``scores``, solved as one stack; each comes back
    exactly as it would alone. The codes are the block solutions as solved,
    each on its own polytope (rows summing to 1/L, columns to 1/K, to the
    reported errors): ``backward`` reads each code row as a distribution,
    so only a row's proportions matter.

    Args:
        prior: The L x K temporal prior (``transport.temporal_prior``);
            required in tot modes, unused in ot modes.

    Returns:
        (B x K codes, max row error, max col error) across the blocks.
    """
    total, clusters = scores.shape
    length = total // num_blocks
    stack = scores.reshape(num_blocks, length, clusters)
    cfg = config.transport
    if config.uses_prior:
        solved = transport.sinkhorn_tot(
            stack,
            prior,
            cfg.rho,
            iterations=cfg.iterations,
            tolerance=cfg.marginal_tolerance,
        )
    else:
        solved = transport.sinkhorn_ot(
            stack,
            cfg.epsilon,
            iterations=cfg.iterations,
            tolerance=cfg.marginal_tolerance,
        )
    return solved.values.reshape(total, clusters), solved.row_error, solved.col_error


def _maybe_normalize(matrix: np.ndarray, normalize: bool, out=None):
    """Row normalization (into ``out`` if given), or identity pass-through
    with norms=None."""
    if normalize:
        return encoder.normalize_rows(matrix, out)
    return matrix, None


def _maybe_normalize_backward(
    grad: np.ndarray, normalized: np.ndarray, norms: np.ndarray | None, work=None
) -> np.ndarray:
    """``grad`` pulled back through ``_maybe_normalize``, built in ``grad``."""
    if norms is None:
        return grad
    return encoder.normalize_rows_backward(grad, normalized, norms, work)


class Step(NamedTuple):
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


def forward(
    params: encoder.EncoderParams,
    rows: np.ndarray,
    batch_size: int,
    normalize: bool,
    workspace: Workspace = Workspace(),
) -> Step:
    """Encoder pass over ``rows`` as given (B = ``batch_size`` anchors, then
    any positives row-aligned with them, as in ``Batch.rows``), row
    normalization of embeddings and prototypes inside the graph unless
    ``normalize`` is off, and the anchor/prototype scores. The activations
    and unit rows are written into ``workspace``."""
    embeddings, cache = encoder.forward(
        params, rows, workspace.hidden, workspace.outputs
    )
    normalized, norms = _maybe_normalize(embeddings, normalize, workspace.normalized)
    protos, proto_norms = _maybe_normalize(params.prototypes, normalize)
    scores = normalized[:batch_size] @ protos.T
    return Step(cache, normalized, norms, protos, proto_norms, batch_size, scores)


def backward(
    step: Step,
    codes: np.ndarray,
    num_blocks: int,
    loss_config: losses.LossConfig,
    workspace: Workspace = Workspace(),
) -> tuple[float, float, encoder.EncoderParams]:
    """Losses and parameter gradients of a forward half, codes held fixed.

    ``train`` runs this after the transport solve; with ``forward`` it is
    the complete differentiable path of a step. It writes to no array of
    ``step`` or ``codes``, so a second call gives the same result; its
    batch-sized work is one gradient row per embedding row, built and
    pulled back in place, and it goes into ``workspace``'s gradient, work
    and similarity arrays. Each code row is scaled to
    sum to 1 before the clustering loss, so the loss reads it as the
    frame's target distribution whatever its mass on the transport
    polytope (the per-frame mean cross-entropy). The coherence term, one
    per video block weighted by its share of the batch, is on exactly when
    the forward half saw positives.

    Args:
        step: The forward half.
        codes: B x K pseudo-label codes with positive row sums, treated
            as constants; only each row's proportions matter.
        num_blocks: Equal video blocks the anchors split into, in order.
        loss_config: Temperature and alpha.

    Returns:
        (clustering loss, coherence loss, the gradient of every parameter
        including prototypes, in one vector of the parameters' layout:
        ``workspace.grads``, which the next call overwrites, or a new one).
    """
    cache, normalized, norms, protos, proto_norms, batch_size, scores = step
    anchor_rows = normalized[:batch_size]

    codes = codes / codes.sum(axis=1, keepdims=True)
    clustering, grad_scores = losses.cross_entropy(
        scores, codes, loss_config.temperature
    )

    grad_normalized = workspace.grad_normalized
    if grad_normalized is None:
        grad_normalized = np.empty_like(normalized)
    np.matmul(grad_scores, protos, out=grad_normalized[:batch_size])
    grad_normalized[batch_size:] = 0.0

    coherence = 0.0
    if normalized.shape[0] > batch_size:
        positive_rows = normalized[batch_size:]
        length = batch_size // num_blocks
        weight = length / batch_size
        scale = loss_config.alpha * weight
        for start in range(0, batch_size, length):
            piece, grad_anchor, grad_positive = losses.temporal_coherence(
                anchor_rows[start : start + length],
                positive_rows[start : start + length],
                workspace.similarity,
            )
            coherence += weight * piece
            grad_anchor *= scale
            grad_normalized[start : start + length] += grad_anchor
            rows = slice(batch_size + start, batch_size + start + length)
            grad_positive *= scale
            grad_normalized[rows] += grad_positive

    grad_embeddings = _maybe_normalize_backward(
        grad_normalized, normalized, norms, workspace.norm_work
    )
    grads = encoder.backward(cache, grad_embeddings, workspace.grad_hidden, workspace.grads)
    np.matmul(grad_scores.T, anchor_rows, out=grads.prototypes)
    _maybe_normalize_backward(grads.prototypes, protos, proto_norms)
    return clustering, coherence, grads


def train(catalog: DatasetCatalog, config: TrainConfig) -> TrainResult:
    """Run the full loop and return trained parameters plus one record per
    iteration; nothing is written.

    Deterministic for a fixed config seed on one thread. Videos shorter
    than one block (batch_size / videos_per_batch frames) are skipped with
    a warning each. Raises NumericalError naming the iteration if the loss
    leaves the reals, and DataError when a batch reads a non-finite feature
    value or fewer than ``videos_per_batch`` videos are one block long.

    Args:
        catalog: Videos of one activity.
        config: See TrainConfig.
    """
    block_len = config.batch_size // config.videos_per_batch
    videos = [video for video in catalog.videos if video.num_frames >= block_len]
    # Raised before any warning, so a run that cannot train reports one line.
    if len(videos) < config.videos_per_batch:
        raise DataError(
            f"activity {catalog.activity!r}: need {config.videos_per_batch} videos "
            f"with >= {block_len} frames for batches of {config.batch_size}, "
            f"found {len(videos)}"
        )
    for video in catalog.videos:
        if video.num_frames < block_len:
            logger.warning(
                "skipping video %s: %d frames < block size %d",
                video.video_id,
                video.num_frames,
                block_len,
            )
    iterations = config.iterations
    if iterations is None:
        iterations = config.epochs * max(1, len(videos) // config.videos_per_batch)

    with FeatureMaps() as maps:
        rng = np.random.default_rng(config.seed)
        params = encoder.init_params(
            catalog.dim, 2 * config.embed_dim, config.embed_dim, catalog.num_actions, rng
        )
        state = encoder.AdamState.for_params(
            params,
            learning_rate=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        workspace = Workspace.for_run(config, params)

        records: list[TrainRecord] = []
        prior = None
        if config.uses_prior:
            prior = transport.temporal_prior(
                block_len, catalog.num_actions, config.transport.sigma
            )

        started = time.perf_counter()
        for iteration in range(iterations):
            batch = build_batch(
                videos,
                config.videos_per_batch,
                config.batch_size,
                rng,
                window=config.loss.window,
                out=workspace.rows,
                maps=maps,
            )
            step = forward(
                params, batch.rows, config.batch_size, config.normalize, workspace
            )
            codes, row_err, col_err = solve_codes(
                step.scores, config.videos_per_batch, config, prior
            )
            clustering, coherence, grads = backward(
                step, codes, config.videos_per_batch, config.loss, workspace
            )
            total = clustering + config.loss.alpha * coherence
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

    return TrainResult(
        params=params,
        records=records,
        elapsed_seconds=time.perf_counter() - started,
    )


def embed_dataset(
    params: encoder.EncoderParams,
    catalog: DatasetCatalog,
    temperature: float = 0.1,
    normalize: bool = True,
) -> Iterator[tuple[str, np.ndarray]]:
    """Per-frame cluster log-probabilities, one video at a time: the
    lattice ``decode.viterbi_fixed_order`` takes.

    Videos are processed one at a time, frames in chunks of
    ``_CHUNK_SIZE``, so peak memory follows the longest single video, never
    the dataset. Each video's file is mapped once (``dataio.FeatureMaps``)
    for all its chunks, and closed before its lattice is yielded. One
    ``Workspace`` of min(``_CHUNK_SIZE``, longest video) rows per call holds
    every chunk's feature rows, activations, unit rows and exponentials;
    each chunk's log-probabilities go into its rows of the video's F x K
    lattice, a new array per video. `normalize` must match the setting the
    checkpoint was trained with, otherwise scores live on a different scale
    than the prototypes expect. Each chunk's ``log_softmax_rows`` is floored
    in place at log(decode.PROBABILITY_FLOOR), so the lattice is finite
    wherever the scores are.

    Yields:
        (video_id, F x K floored log-probabilities) per video, catalog order.
    """
    log_floor = np.log(decode.PROBABILITY_FLOOR)
    chunk = _CHUNK_SIZE
    longest = max((video.num_frames for video in catalog.videos), default=0)
    workspace = Workspace.for_chunks(params, min(chunk, longest), normalize)
    for video in catalog.videos:
        lattice = np.empty((video.num_frames, params.prototypes.shape[0]))
        with FeatureMaps() as maps:
            for start in range(0, video.num_frames, chunk):
                stop = min(start + chunk, video.num_frames)
                head = workspace.head(stop - start)
                rows = video.load_feature_rows(np.arange(start, stop), out=head.rows, maps=maps)
                scores = forward(params, rows, len(rows), normalize, head).scores
                log_p, _ = log_softmax_rows(
                    scores, temperature, out=lattice[start:stop], exponentials=head.exponentials
                )
                np.maximum(log_p, log_floor, out=log_p)
        yield video.video_id, lattice
