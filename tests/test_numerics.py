"""Matrix kernel contracts: shapes, array sizes and softmax stability."""

import warnings

import numpy as np
import pytest

from totseg import numerics

import oracles


def test_as_matrix_accepts_lists_and_returns_float64():
    out = numerics.as_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.float64
    assert out.flags["C_CONTIGUOUS"]
    assert out.shape == (2, 2)


def test_as_matrix_rejects_wrong_rank():
    with pytest.raises(ValueError, match="2-D"):
        numerics.as_matrix([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="2-D"):
        numerics.as_matrix(np.zeros((2, 2, 2)))


def test_check_addressable_stops_at_numpys_largest_byte_size():
    # Only shapes are passed: nothing is allocated.
    largest = np.iinfo(np.intp).max // 8
    numerics.check_addressable("an array", largest)
    numerics.check_addressable("an array", 3, largest // 3)
    for shape in [(largest + 1,), (2, largest // 2 + 1), (10**400, 1)]:
        with pytest.raises(ValueError, match="an array would be a .* past numpy's largest"):
            numerics.check_addressable("an array", *shape)


def probabilities(matrix, temperature):
    """The row-stochastic half of log_softmax_rows."""
    return numerics.log_softmax_rows(matrix, temperature)[1]


def test_softmax_uniform_on_constant_row():
    out = probabilities([[0.0, 0.0, 0.0]], temperature=1.0)
    np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], rtol=0, atol=1e-15)
    # A single column is constant in every row: certainty, exactly.
    single = np.random.default_rng(1).normal(size=(6, 1))
    np.testing.assert_array_equal(probabilities(single, 0.1), np.ones((6, 1)))


def test_softmax_two_class_closed_form():
    # softmax([a, a+c] / t) = [logistic(-c/t), logistic(c/t)]
    def logistic(x):
        return 1.0 / (1.0 + np.exp(-x))

    for a, c, t in [(0.3, 1.7, 0.5), (-2.0, 0.2, 3.0), (5.0, -1.0, 0.25)]:
        out = probabilities([[a, a + c]], temperature=t)
        np.testing.assert_allclose(
            out, [[logistic(-c / t), logistic(c / t)]], rtol=1e-12
        )
    # Identity scores at temperature 0.1: the hot entry of each row is
    # e^10 / (e^10 + K - 1), every other entry 1 / (e^10 + K - 1).
    k = 4
    out = probabilities(np.eye(k), temperature=0.1)
    want = np.full((k, k), 1.0 / (np.exp(10.0) + (k - 1)))
    np.fill_diagonal(want, np.exp(10.0) / (np.exp(10.0) + (k - 1)))
    np.testing.assert_allclose(out, want, rtol=1e-14)


def test_softmax_extreme_scores_match_high_precision():
    with np.errstate(over="raise"):
        out = probabilities([[1000.0, 0.0]], temperature=0.1)
    expected = oracles.softmax_rows_highprec([[1000.0, 0.0]], temperature=0.1)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)
    assert out[0, 0] == 1.0


def test_softmax_rows_sum_to_one_across_temperatures():
    rng = np.random.default_rng(2)
    m = rng.normal(scale=50.0, size=(7, 5))
    for temperature in (1e-3, 0.1, 1.0, 37.0, 1e3):
        out = probabilities(m, temperature)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 6))
    shifts = rng.normal(size=(4, 1)) * 100.0
    base = probabilities(m, 0.7)
    shifted = probabilities(m + shifts, 0.7)
    np.testing.assert_allclose(base, shifted, rtol=0, atol=1e-12)


def test_log_softmax_rows_rejects_nonpositive_temperature():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="temperature"):
            numerics.log_softmax_rows([[1.0, 2.0]], bad)


def test_log_softmax_rows_is_the_log_of_the_softmax():
    rng = np.random.default_rng(5)
    m = rng.normal(scale=3.0, size=(3, 5))
    log_p, p = numerics.log_softmax_rows(m, 0.5)
    expected = oracles.softmax_rows_highprec(m, temperature=0.5)
    np.testing.assert_allclose(p, expected, rtol=1e-14)
    np.testing.assert_allclose(log_p, np.log(expected), rtol=1e-13, atol=1e-15)


def test_log_softmax_rows_exact_where_softmax_underflows():
    log_p, p = numerics.log_softmax_rows([[1000.0, 0.0]], temperature=0.1)
    np.testing.assert_array_equal(p, [[1.0, 0.0]])
    np.testing.assert_array_equal(log_p, [[0.0, -10000.0]])


@pytest.mark.parametrize("width", range(1, 21))
def test_row_max_is_numpys_reduction_bit_for_bit(width):
    # Widths up to 16 take the column passes, wider ones numpy's reduction.
    # Half the rows draw from values that make ties of signed zeros, NaNs of
    # either sign and infinities common.
    rng = np.random.default_rng(width)
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for rows in range(1, 301):
            matrix = rng.normal(size=(rows, width))
            mask = rng.random((rows, width)) < 0.5
            mask[rows // 2 :] = True
            matrix[mask] = rng.choice(special, size=int(mask.sum()))
            got = numerics._row_max(matrix)
            assert got.tobytes() == matrix.max(axis=1).tobytes(), (rows, matrix)
            assert not np.shares_memory(got, matrix)


@pytest.mark.parametrize("width", [6, 24])
def test_log_softmax_rows_into_caller_arrays_gives_the_same_bits(width):
    rng = np.random.default_rng(width)
    matrix = rng.normal(scale=3.0, size=(40, width))
    before = matrix.copy()
    log_p, p = numerics.log_softmax_rows(matrix, 0.1)
    out = np.empty((50, width))[5:45]  # rows of a larger array
    got_log_p, got_p = numerics.log_softmax_rows(matrix, 0.1, out=out)
    assert got_p is out
    assert got_log_p.tobytes() == log_p.tobytes() and got_p.tobytes() == p.tobytes()
    exponentials = np.empty_like(matrix)
    got_log_p, got_p = numerics.log_softmax_rows(matrix, 0.1, out=out, exponentials=exponentials)
    assert got_log_p is out and got_p is None
    assert got_log_p.tobytes() == log_p.tobytes()
    assert matrix.tobytes() == before.tobytes()
