"""Dense float64 matrix kernels used by every other module.

The package's matrix type is a plain 2-D C-contiguous float64 numpy array.
numpy supplies the arithmetic; this module pins down the contracts the rest
of the code relies on: an explicit shape check, a size check for settings
that shape arrays, and one overflow-safe row softmax, whose row maximum
of narrow matrices (``_row_max``) transport's solver shares.
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


# Widest matrix whose row maxima ``_row_max`` takes from column passes.
_NARROW_COLUMNS = 16


def log_softmax_rows(
    matrix, temperature: float, out=None, exponentials=None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Softmax of each row of ``matrix / temperature``, with its logs.

    The row maximum is subtracted before exponentiation, so entries around
    +-1e3 and sharp temperatures stay finite. The log-probabilities are
    read off the shifted scores before the exp, so they are exact where
    the probabilities underflow to zero. The input is never modified: the
    one scaled copy (``out``, if given) is shifted, exponentiated and
    normalized in place and returned as the probabilities.

    Args:
        matrix: 2-D array of scores.
        temperature: Positive scale divisor; smaller means sharper.
        out: Float64 C-contiguous array of the input's shape that receives
            the scaled copy; a new array when None.
        exponentials: Float64 C-contiguous array of the input's shape for
            a caller that reads no probabilities. The exponentials go
            there, the scaled copy becomes the log-probabilities, and no
            probabilities are formed.

    Returns:
        (log-probabilities, row-stochastic probabilities), both of the
        input's shape; with ``exponentials``, (log-probabilities, None).

    Raises:
        ValueError: If ``temperature <= 0``.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    scaled = np.divide(as_matrix(matrix), temperature, out=out)
    return _log_softmax_in_place(scaled, exponentials=exponentials)


def _log_softmax_in_place(
    buffer: np.ndarray, targets=None, exponentials=None
) -> tuple[np.ndarray, np.ndarray | None]:
    """log_softmax_rows at temperature 1 that overwrites ``buffer``.

    Only for a C-contiguous float64 array the caller owns. ``buffer``
    becomes the softmax and the log-probabilities are a copy, unless
    ``exponentials`` (an array of buffer's shape) is given: then ``buffer``
    becomes the log-probabilities, the exponentials go to that array, and
    None stands for the probabilities. With ``targets``, a length-B integer
    vector of columns, only log_p[i, targets[i]] is kept (not with
    ``exponentials``).
    """
    buffer -= _row_max(buffer)[:, None]
    if exponentials is not None:
        log_p = buffer
    elif targets is None:
        log_p = buffer.copy()
    else:
        log_p = buffer[np.arange(buffer.shape[0]), targets]
    probabilities = np.exp(buffer, out=buffer if exponentials is None else exponentials)
    mass = probabilities.sum(axis=1, keepdims=True)
    log_p -= np.log(mass if targets is None else mass[:, 0])
    if exponentials is not None:
        return log_p, None
    probabilities /= mass
    return log_p, probabilities


def _row_max(matrix: np.ndarray) -> np.ndarray:
    """``matrix.max(axis=1)`` of a C-contiguous 2-D float64 array, the same
    bits, in a new array.

    numpy reduces one row at a time, at tens of ns a row whatever its
    width. A matrix of 1 to ``_NARROW_COLUMNS`` columns takes K - 1
    ``np.maximum`` passes over its columns instead, a few ns a row. The
    passes compare in another order than the reduction, which can show
    only in the sign of a zero maximum or the payload of a NaN one, so
    rows whose maximum is zero or NaN take the reduction itself.
    """
    width = matrix.shape[1]
    if not 0 < width <= _NARROW_COLUMNS:
        return matrix.max(axis=1)
    peak = matrix[:, 0].copy()
    for column in range(1, width):
        np.maximum(peak, matrix[:, column], out=peak)
    unsure = np.flatnonzero(~(np.abs(peak) > 0))
    if unsure.size:
        peak[unsure] = matrix[unsure].max(axis=1)
    return peak
