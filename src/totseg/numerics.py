"""Dense float64 matrix kernels used by every other module.

The package's matrix type is a plain 2-D C-contiguous float64 numpy array.
numpy supplies the arithmetic; this module pins down the contracts the rest
of the code relies on: an explicit shape check and one overflow-safe row
softmax.
"""

from __future__ import annotations

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


def log_softmax_rows(matrix, temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """Log-softmax and softmax of each row of ``matrix / temperature``.

    The row maximum is subtracted before exponentiation, so entries around
    +-1e3 and sharp temperatures stay finite, and the log-probabilities
    are exact where the probabilities underflow to zero.

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
    shifted = as_matrix(matrix) / temperature
    shifted -= shifted.max(axis=1, keepdims=True)
    probabilities = np.exp(shifted)
    mass = probabilities.sum(axis=1, keepdims=True)
    probabilities /= mass
    shifted -= np.log(mass)
    return shifted, probabilities


def row_softmax(matrix, temperature: float) -> np.ndarray:
    """Row-stochastic softmax of ``matrix / temperature``; see log_softmax_rows."""
    return log_softmax_rows(matrix, temperature)[1]
