"""Matrix kernel contracts: shapes and softmax stability."""

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


def test_row_softmax_uniform_on_constant_row():
    out = numerics.row_softmax([[0.0, 0.0, 0.0]], temperature=1.0)
    np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], rtol=0, atol=1e-15)
    # A single column is constant in every row: certainty, exactly.
    single = np.random.default_rng(1).normal(size=(6, 1))
    np.testing.assert_array_equal(numerics.row_softmax(single, 0.1), np.ones((6, 1)))


def test_row_softmax_two_class_closed_form():
    # softmax([a, a+c] / t) = [logistic(-c/t), logistic(c/t)]
    def logistic(x):
        return 1.0 / (1.0 + np.exp(-x))

    for a, c, t in [(0.3, 1.7, 0.5), (-2.0, 0.2, 3.0), (5.0, -1.0, 0.25)]:
        out = numerics.row_softmax([[a, a + c]], temperature=t)
        np.testing.assert_allclose(
            out, [[logistic(-c / t), logistic(c / t)]], rtol=1e-12
        )
    # Identity scores at temperature 0.1: the hot entry of each row is
    # e^10 / (e^10 + K - 1), every other entry 1 / (e^10 + K - 1).
    k = 4
    out = numerics.row_softmax(np.eye(k), temperature=0.1)
    want = np.full((k, k), 1.0 / (np.exp(10.0) + (k - 1)))
    np.fill_diagonal(want, np.exp(10.0) / (np.exp(10.0) + (k - 1)))
    np.testing.assert_allclose(out, want, rtol=1e-14)


def test_row_softmax_extreme_scores_match_high_precision():
    with np.errstate(over="raise"):
        out = numerics.row_softmax([[1000.0, 0.0]], temperature=0.1)
    expected = oracles.softmax_rows_highprec([[1000.0, 0.0]], temperature=0.1)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)
    assert out[0, 0] == 1.0


def test_row_softmax_rows_sum_to_one_across_temperatures():
    rng = np.random.default_rng(2)
    m = rng.normal(scale=50.0, size=(7, 5))
    for temperature in (1e-3, 0.1, 1.0, 37.0, 1e3):
        out = numerics.row_softmax(m, temperature)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_row_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 6))
    shifts = rng.normal(size=(4, 1)) * 100.0
    base = numerics.row_softmax(m, 0.7)
    shifted = numerics.row_softmax(m + shifts, 0.7)
    np.testing.assert_allclose(base, shifted, rtol=0, atol=1e-12)


def test_row_softmax_rejects_nonpositive_temperature():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="temperature"):
            numerics.row_softmax([[1.0, 2.0]], bad)


def test_log_softmax_rows_is_the_log_of_the_softmax():
    rng = np.random.default_rng(5)
    m = rng.normal(scale=3.0, size=(3, 5))
    log_p, p = numerics.log_softmax_rows(m, 0.5)
    expected = oracles.softmax_rows_highprec(m, temperature=0.5)
    np.testing.assert_allclose(p, expected, rtol=1e-14)
    np.testing.assert_allclose(log_p, np.log(expected), rtol=1e-13, atol=1e-15)
    np.testing.assert_array_equal(p, numerics.row_softmax(m, 0.5))


def test_log_softmax_rows_exact_where_softmax_underflows():
    log_p, p = numerics.log_softmax_rows([[1000.0, 0.0]], temperature=0.1)
    np.testing.assert_array_equal(p, [[1.0, 0.0]])
    np.testing.assert_array_equal(log_p, [[0.0, -10000.0]])
