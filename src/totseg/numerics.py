"""Dense float64 matrix kernels used by every other module.

The package's matrix type is a plain 2-D C-contiguous float64 numpy array.
numpy supplies the arithmetic; this module pins down the contracts the rest
of the code relies on: explicit shape checks and overflow-safe softmax and
log-sum-exp.
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


def matmul(a, b) -> np.ndarray:
    """Dense product ``a @ b`` with an explicit inner-dimension check.

    Raises:
        ValueError: If ``a.shape[1] != b.shape[0]``, naming both shapes.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"matmul inner dimensions differ: {a.shape} @ {b.shape} "
            f"({a.shape[1]} != {b.shape[0]})"
        )
    return a @ b


def row_softmax(matrix, temperature: float) -> np.ndarray:
    """Softmax of each row of ``matrix / temperature``.

    The row maximum is subtracted before exponentiation, so entries around
    +-1e3 and sharp temperatures stay finite.

    Args:
        matrix: 2-D array of scores.
        temperature: Positive scale divisor; smaller means sharper.

    Returns:
        Row-stochastic matrix of the same shape.

    Raises:
        ValueError: If ``temperature <= 0``.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    scaled = as_matrix(matrix) / temperature
    scaled -= scaled.max(axis=1, keepdims=True)
    exps = np.exp(scaled)
    return exps / exps.sum(axis=1, keepdims=True)


def logsumexp_rows(matrix) -> np.ndarray:
    """log(sum(exp(row))) per row, max-subtracted. -inf entries are allowed."""
    matrix = np.asarray(matrix, dtype=np.float64)
    peak = matrix.max(axis=1)
    # Rows of all -inf would turn peak - peak into nan; pin them to -inf.
    finite_peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        out = finite_peak + np.log(np.exp(matrix - finite_peak[:, None]).sum(axis=1))
    return np.where(np.isfinite(peak), out, -np.inf)
