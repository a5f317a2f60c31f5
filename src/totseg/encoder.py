"""Two-layer sigmoid MLP embedding, cluster prototypes, and their optimizer.

Forward, backward, and the Adam update are written out explicitly so every
gradient in the package is inspectable and testable against finite
differences. The embedding is

    h = sigmoid(x @ w1 + b1)
    z = sigmoid(h @ w2 + b2)

followed (by the caller) by row L2 normalization of both embeddings and
prototypes before any dot products. Prototypes are ordinary parameters
that can be frozen for the opening iterations of training so the encoder
adapts to them first.

The logistic is computed in place as ``1 / (1 + exp(-x))``. Its tails are
exact: 1.0 for x above ~37, and 0.0 for x below ~-709.78, where
``exp(-x)`` overflows. So logistic values below ~1e-308 (about 6e-309 and
less, already subnormal) round to 0.

Ownership: ``backward`` and ``normalize_rows_backward`` overwrite the
gradient they are given and build their results in it. Each batch-sized
result, and the parameter gradient, also has an ``out``-style argument
(``forward``'s ``hidden`` and ``outputs``, ``normalize_rows``' ``out``,
``normalize_rows_backward``'s ``work``, ``backward``'s ``grad_hidden`` and
``grads``): given one, the kernel writes there instead of allocating, and
without one it allocates, in the same code. ``trainer.train`` owns those
arrays, allocates them once per run and passes them at every step, so a
steady-state step makes no batch-sized array. A step's activations last until the next step overwrites them, and
its inputs are the batch's rows, which the next ``build_batch`` overwrites.
A caller that still needs a gradient passes a copy. Nothing here writes to a
``ForwardCache``, to the forward inputs or to normalized rows and norms: a
second backward of the same forward pass gives the same gradients.

Parameters, their gradient and Adam's two moments share one layout
(``EncoderParams``): five arrays that are views into one float64 vector, in
``PARAM_KEYS`` order. ``backward`` writes each layer's gradient into its
view of one gradient vector, and the caller writes the prototypes'.
``adam_step`` updates the parameter and moment vectors in place with a few
whole-vector ufuncs and two parameter-sized temporaries, over a prefix
while the prototypes, the vector's tail, are frozen. A checkpoint's
payload is the parameter vector's bytes.

Checkpoints are a fixed little-endian binary format (magic ``TOTC``); see
docs/file-formats.md.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import atomic_write
from .errors import DataError

PARAM_KEYS = ("w1", "b1", "w2", "b2", "prototypes")

CHECKPOINT_MAGIC = b"TOTC"
CHECKPOINT_VERSION = 2
# magic, version, d_in, hidden, d_embed, clusters, normalized flag, temperature
_CKPT_HEADER = struct.Struct("<4sHIIIIBd")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Entries of the largest temporary a backward kernel makes (64 KiB of float64).
_BLOCK_ELEMENTS = 8192


class EncoderParams(Mapping):
    """Learnable parameters (two dense layers plus cluster prototypes), or a
    gradient, a moment or any other array of their layout.

    The five arrays are views into one float64 ``vector``, flattened in
    ``PARAM_KEYS`` order: the checkpoint payload's order, with the
    prototypes last, so ``adam_step`` freezes them by updating a prefix.
    Writing into a field writes into ``vector``; rebinding one would
    detach it. ``EncoderParams(w1=..., ...)`` copies five arrays into a
    fresh vector, and ``from_vector`` views one without copying. It reads
    as a mapping from ``PARAM_KEYS`` to the arrays.
    """

    def __init__(self, w1, b1, w2, b2, prototypes) -> None:
        arrays = [np.asarray(a, dtype=np.float64) for a in (w1, b1, w2, b2, prototypes)]
        self._bind(np.concatenate([a.ravel() for a in arrays]), [a.shape for a in arrays])

    @classmethod
    def from_vector(cls, vector: np.ndarray, dims: tuple[int, int, int, int]) -> "EncoderParams":
        """Views of a float64 ``vector`` of ``dims``' total size, not a copy."""
        params = cls.__new__(cls)
        params._bind(vector, _param_shapes(dims))
        return params

    def _bind(self, vector: np.ndarray, shapes) -> None:
        self.vector = vector
        offset = 0
        for key, shape in zip(PARAM_KEYS, shapes):
            size = math.prod(shape)
            setattr(self, key, vector[offset : offset + size].reshape(shape))
            offset += size
        if offset != vector.size:
            raise ValueError(f"parameter vector of {vector.size} entries, shapes need {offset}")

    def __getitem__(self, key: str) -> np.ndarray:
        if key not in PARAM_KEYS:
            raise KeyError(key)
        return getattr(self, key)

    def __iter__(self):
        return iter(PARAM_KEYS)

    def __len__(self) -> int:
        return len(PARAM_KEYS)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(input_dim, hidden_dim, embed_dim, num_clusters)."""
        return (
            self.w1.shape[0],
            self.w1.shape[1],
            self.w2.shape[1],
            self.prototypes.shape[0],
        )

    def zeros_like(self) -> "EncoderParams":
        """A zero array of this layout, in a new vector."""
        return EncoderParams.from_vector(np.zeros(self.vector.size), self.dims)


def _param_shapes(dims: tuple[int, int, int, int]) -> tuple[tuple[int, ...], ...]:
    """Shapes of w1, b1, w2, b2 and prototypes for (input, hidden, embed, clusters)."""
    d_in, hidden, d_embed, clusters = dims
    return ((d_in, hidden), (hidden,), (hidden, d_embed), (d_embed,), (clusters, d_embed))


def init_params(
    input_dim: int,
    hidden_dim: int,
    embed_dim: int,
    num_clusters: int,
    rng: np.random.Generator,
) -> EncoderParams:
    """Glorot-uniform weights, zero biases, unit-norm random prototypes."""
    for name, value in (
        ("input_dim", input_dim),
        ("hidden_dim", hidden_dim),
        ("embed_dim", embed_dim),
        ("num_clusters", num_clusters),
    ):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    prototypes = rng.normal(size=(num_clusters, embed_dim))
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
    return EncoderParams(
        w1=glorot(input_dim, hidden_dim),
        b1=np.zeros(hidden_dim),
        w2=glorot(hidden_dim, embed_dim),
        b2=np.zeros(embed_dim),
        prototypes=prototypes,
    )


def sigmoid_in_place(buffer: np.ndarray) -> np.ndarray:
    """Overwrite a float64 array the caller owns with its logistic; returns it.

    ``exp(-x)`` overflows to inf for x below ~-709.78, which gives an exact
    0; the warning for that is silenced here, not raised.
    """
    np.negative(buffer, out=buffer)
    with np.errstate(over="ignore"):
        np.exp(buffer, out=buffer)
    buffer += 1.0
    np.reciprocal(buffer, out=buffer)
    return buffer


@dataclass
class ForwardCache:
    """Activations saved by ``forward`` for the matching ``backward``."""

    inputs: np.ndarray
    hidden: np.ndarray
    outputs: np.ndarray
    params: EncoderParams


def forward(
    params: EncoderParams,
    x,
    hidden: np.ndarray | None = None,
    outputs: np.ndarray | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Embed a batch of rows.

    Args:
        params: Encoder parameters.
        x: B x input_dim matrix.
        hidden, outputs: B x hidden_dim and B x embed_dim float64 arrays
            that receive the activations; new arrays when None.

    Returns:
        (B x embed_dim embeddings in (0, 1), cache for ``backward``).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.w1.shape[0]:
        raise ValueError(
            f"encoder expects rows of dim {params.w1.shape[0]}, got shape {x.shape}"
        )
    hidden = np.matmul(x, params.w1, out=hidden)
    hidden += params.b1
    sigmoid_in_place(hidden)
    outputs = np.matmul(hidden, params.w2, out=outputs)
    outputs += params.b2
    sigmoid_in_place(outputs)
    return outputs, ForwardCache(inputs=x, hidden=hidden, outputs=outputs, params=params)


def backward(
    cache: ForwardCache,
    grad_outputs: np.ndarray,
    grad_hidden: np.ndarray | None = None,
    grads: EncoderParams | None = None,
) -> EncoderParams:
    """Gradients of a scalar loss w.r.t. the two layers.

    Each pre-activation gradient is built in the array it starts from:
    the output layer's in ``grad_outputs``, the hidden layer's in the
    matmul result that carries it back through ``w2``. Each layer's
    gradient is written into its view of one gradient vector.

    Args:
        cache: Cache returned by the forward pass being differentiated;
            left unchanged.
        grad_outputs: dLoss/dZ, a float64 array of the forward output's
            shape. Overwritten: it ends as the output layer's
            pre-activation gradient.
        grad_hidden: Float64 array of the hidden activations' shape that
            receives the hidden layer's gradient; a new array when None.
        grads: Array of the parameters' layout whose w1, b1, w2 and b2
            views receive the gradient, its prototypes left as they are; a
            new one, with zero prototypes, when None.

    Returns:
        ``grads``. Prototypes never enter the forward pass: a caller whose
        loss reads them writes their gradient into that view.
    """
    z = cache.outputs
    hidden = cache.hidden
    if grad_outputs.shape != z.shape:
        raise ValueError(
            f"grad shape {grad_outputs.shape} does not match output shape {z.shape}"
        )
    if grads is None:
        grads = cache.params.zeros_like()
    da2 = grad_outputs
    da2 *= z
    _times_one_minus(da2, z)
    np.matmul(hidden.T, da2, out=grads.w2)
    da2.sum(axis=0, out=grads.b2)
    da1 = np.matmul(da2, cache.params.w2.T, out=grad_hidden)
    da1 *= hidden
    _times_one_minus(da1, hidden)
    np.matmul(cache.inputs.T, da1, out=grads.w1)
    da1.sum(axis=0, out=grads.b1)
    return grads


def _times_one_minus(target: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``target *= 1.0 - values`` for two matrices of one shape; returns target.

    It runs a block of rows at a time, so the ``1.0 - values`` temporary
    is at most ``_BLOCK_ELEMENTS`` entries instead of a second batch-sized
    array. Every entry gets the same two floating-point operations.
    """
    rows = max(1, _BLOCK_ELEMENTS // max(1, target.shape[1]))
    for start in range(0, target.shape[0], rows):
        block = slice(start, start + rows)
        target[block] *= 1.0 - values[block]
    return target


def normalize_rows(
    matrix: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm rows plus the norms needed to backpropagate through this.

    Zero rows pass through unchanged with a recorded norm of 1. The
    squares the norms are summed from are held in the array that then
    receives the unit rows: ``out``, a float64 array of the matrix's shape,
    or else the one batch-sized array this makes.
    """
    normalized = np.multiply(matrix, matrix, out=out)
    norms = np.sqrt(normalized.sum(axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    np.divide(matrix, norms, out=normalized)
    return normalized, norms


def normalize_rows_backward(
    grad_normalized: np.ndarray,
    normalized: np.ndarray,
    norms: np.ndarray,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Pull a gradient back through row normalization.

    For one row, d(z/|z|) maps g to (g - (g . zhat) zhat) / |z|: the
    component of g along the row direction does not change the norm-1
    output and is projected away.

    ``grad_normalized``, a float64 array, is overwritten with the result
    and returned; one work array of its shape is the only other one:
    ``work`` if given, else a new one.
    """
    work = np.multiply(grad_normalized, normalized, out=work)
    along = work.sum(axis=1, keepdims=True)
    np.multiply(along, normalized, out=work)
    grad_normalized -= work
    grad_normalized /= norms
    return grad_normalized


@dataclass
class AdamState:
    """First/second moments and hyperparameters of the Adam update.

    ``m`` and ``v`` have the parameters' layout: each is one vector, which
    ``adam_step`` updates in place.
    """

    m: EncoderParams
    v: EncoderParams
    step: int = 0
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    prototypes_frozen: bool = False

    @staticmethod
    def check_settings(learning_rate: float, weight_decay: float) -> None:
        """Raise ValueError unless learning_rate > 0 and weight_decay >= 0."""
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")

    @classmethod
    def for_params(
        cls,
        params: EncoderParams,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-4,
    ) -> "AdamState":
        cls.check_settings(learning_rate, weight_decay)
        return cls(
            m=params.zeros_like(),
            v=params.zeros_like(),
            learning_rate=learning_rate,
            weight_decay=weight_decay,
        )


def adam_step(params: EncoderParams, grads: EncoderParams, state: AdamState) -> None:
    """One in-place Adam update with decoupled weight decay.

    Bias-corrected moments drive the step; weight decay is applied
    directly to the parameters (not mixed into the gradient). The update
    runs over the parameter vector, or, while ``state.prototypes_frozen``
    is set, over its prefix before the prototypes, which leaves them and
    their moments untouched.

    Args:
        grads: The gradient in the parameters' layout (``backward``'s
            result), read in place.

    Raises:
        ValueError: If ``grads`` has other dimensions than ``params``.
    """
    if grads.dims != params.dims:
        raise ValueError(
            f"gradient dimensions {grads.dims} do not match the parameters' {params.dims}"
        )
    state.step += 1
    t = state.step
    correct1 = 1.0 - ADAM_BETA1**t
    correct2 = 1.0 - ADAM_BETA2**t
    end = params.vector.size
    if state.prototypes_frozen:
        end -= params.prototypes.size
    param, grad = params.vector[:end], grads.vector[:end]
    m, v = state.m.vector[:end], state.v.vector[:end]
    # Each expression is evaluated as in the per-array update
    #   m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g**2
    #   param -= lr * m_hat / (sqrt(v_hat) + eps);  param -= lr * wd * param
    # with its operands in the same order, so the bits are the same.
    work = (1.0 - ADAM_BETA1) * grad
    m *= ADAM_BETA1
    m += work
    np.square(grad, out=work)
    work *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += work
    update = m / correct1
    update *= state.learning_rate
    np.divide(v, correct2, out=work)
    np.sqrt(work, out=work)
    work += ADAM_EPS
    update /= work
    param -= update
    if state.weight_decay > 0:
        np.multiply(param, state.learning_rate * state.weight_decay, out=update)
        param -= update


def save_checkpoint(
    params: EncoderParams,
    path,
    temperature: float = 0.1,
    normalized: bool = True,
) -> None:
    """Write parameters and the inference settings to disk.

    ``temperature`` and ``normalized`` travel with the weights so
    segmentation does not depend on remembering training flags.
    """
    d_in, hidden, d_embed, clusters = params.dims
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = _CKPT_HEADER.pack(
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        d_in,
        hidden,
        d_embed,
        clusters,
        int(normalized),
        temperature,
    )
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(np.asarray(params.vector, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[EncoderParams, dict]:
    """Read a checkpoint back.

    Returns:
        (params, meta) where meta has keys ``temperature`` and
        ``normalized``.

    Raises:
        DataError: Naming the file, on a wrong magic or version, a header
            dimension below 1, a normalized flag other than 0 or 1, a
            temperature that is not finite and positive, or a payload of the
            wrong length.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _CKPT_HEADER.size:
        raise DataError(f"{path}: file shorter than the checkpoint header")
    (
        magic,
        version,
        d_in,
        hidden,
        d_embed,
        clusters,
        normalized,
        temperature,
    ) = _CKPT_HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: expected magic {CHECKPOINT_MAGIC!r}, got {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise DataError(
            f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    if min(d_in, hidden, d_embed, clusters) < 1:
        raise DataError(
            f"{path}: checkpoint dimensions must be >= 1, got input {d_in}, "
            f"hidden {hidden}, embedding {d_embed}, clusters {clusters}"
        )
    if normalized not in (0, 1):
        raise DataError(f"{path}: checkpoint normalized flag must be 0 or 1, got {normalized}")
    if not (math.isfinite(temperature) and temperature > 0):
        raise DataError(
            f"{path}: checkpoint temperature must be finite and positive, "
            f"got {temperature}"
        )

    dims = (d_in, hidden, d_embed, clusters)
    total = sum(math.prod(shape) for shape in _param_shapes(dims))
    expected = _CKPT_HEADER.size + total * 8
    if len(raw) != expected:
        raise DataError(f"{path}: checkpoint promises {expected} bytes, file has {len(raw)}")

    vector = np.frombuffer(raw, dtype="<f8", offset=_CKPT_HEADER.size).astype(np.float64)
    params = EncoderParams.from_vector(vector, dims)
    meta = {"temperature": temperature, "normalized": bool(normalized)}
    return params, meta
