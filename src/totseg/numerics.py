"""Dense float64 matrix kernels used by every other module.

The package's matrix type is a plain 2-D C-contiguous float64 numpy array.
numpy supplies the arithmetic; this module pins down the contracts the rest
of the code relies on: an explicit shape check, a size check for settings
that shape arrays, and one overflow-safe row softmax.
"""

from __future__ import annotations

import math

import numpy as np


def as_matrix(values) -> np.ndarray:
    """Coerce input to a 2-D float64 C-ordered array.

    Args:
        values: Anything numpy can turn into an array.

    Returns:
        A 2-D float64 array. A view when the input already qualifies.

    Raises:
        ValueError: If the result is not two-dimensional.
    """
    matrix = np.ascontiguousarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got array of shape {matrix.shape}")
    return matrix


def check_addressable(what: str, *shape: int) -> None:
    """Raise ValueError if a float64 array of ``shape`` is past numpy's limits.

    The byte size is computed in Python ints, so no setting can overflow
    it, and checked against ``np.iinfo(np.intp).max``; with every dimension
    at least 1, no dimension is then past it either.
    """
    limit = np.iinfo(np.intp).max
    if math.prod(shape) * 8 > limit:
        raise ValueError(
            f"{what} would be a {' x '.join(map(str, shape))} float64 array, "
            f"past numpy's largest ({limit} bytes)"
        )


def log_softmax_rows(matrix, temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """Softmax of each row of ``matrix / temperature``, with its logs.

    The row maximum is subtracted before exponentiation, so entries around
    +-1e3 and sharp temperatures stay finite. The log-probabilities are
    read off the shifted scores before the exp, so they are exact where
    the probabilities underflow to zero. The input is never modified: the
    one scaled copy is shifted, exponentiated and normalized in place and
    returned as the probabilities.

    Args:
        matrix: 2-D array of scores.
        temperature: Positive scale divisor; smaller means sharper.

    Returns:
        (log-probabilities, row-stochastic probabilities), both of the
        input's shape.

    Raises:
        ValueError: If ``temperature <= 0``.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return _log_softmax_in_place(as_matrix(matrix) / temperature)


def _log_softmax_in_place(
    buffer: np.ndarray, targets=None
) -> tuple[np.ndarray, np.ndarray]:
    """log_softmax_rows at temperature 1 that overwrites ``buffer`` with the softmax.

    Only for a C-contiguous float64 array the caller owns. With ``targets``,
    a length-B integer vector of columns, only log_p[i, targets[i]] is kept.
    """
    buffer -= buffer.max(axis=1, keepdims=True)
    if targets is None:
        log_p = buffer.copy()
    else:
        log_p = buffer[np.arange(buffer.shape[0]), targets]
    np.exp(buffer, out=buffer)
    mass = buffer.sum(axis=1, keepdims=True)
    buffer /= mass
    log_p -= np.log(mass if targets is None else mass[:, 0])
    return log_p, buffer
