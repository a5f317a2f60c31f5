"""Matrix kernel contracts: shapes, softmax stability, normalization."""

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


def test_matmul_identity():
    a = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(numerics.matmul(np.eye(2), a), a)


def test_matmul_zero_column():
    out = numerics.matmul([[1.0, 2.0], [3.0, 4.0]], [[0.0], [0.0]])
    np.testing.assert_array_equal(out, [[0.0], [0.0]])


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(3, 4))
    np.testing.assert_allclose(
        numerics.matmul(a, b), oracles.naive_matmul(a, b), rtol=0, atol=1e-12
    )


def test_matmul_associative_on_chains():
    rng = np.random.default_rng(1)
    a, b, c = (rng.normal(size=(8, 8)) for _ in range(3))
    left = numerics.matmul(numerics.matmul(a, b), c)
    right = numerics.matmul(a, numerics.matmul(b, c))
    assert oracles.max_relative_error(left, right, floor=1e-9) < 1e-10
    assert oracles.max_relative_error(left, oracles.naive_matmul(oracles.naive_matmul(a, b), c), floor=1e-9) < 1e-10


def test_matmul_dimension_mismatch_names_both_shapes():
    with pytest.raises(ValueError) as err:
        numerics.matmul(np.zeros((2, 3)), np.zeros((4, 5)))
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


def test_row_softmax_uniform_on_constant_row():
    out = numerics.row_softmax([[0.0, 0.0, 0.0]], temperature=1.0)
    np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], rtol=0, atol=1e-15)


def test_row_softmax_two_class_closed_form():
    # softmax([a, a+c] / t) = [logistic(-c/t), logistic(c/t)]
    def logistic(x):
        return 1.0 / (1.0 + np.exp(-x))

    for a, c, t in [(0.3, 1.7, 0.5), (-2.0, 0.2, 3.0), (5.0, -1.0, 0.25)]:
        out = numerics.row_softmax([[a, a + c]], temperature=t)
        np.testing.assert_allclose(
            out, [[logistic(-c / t), logistic(c / t)]], rtol=1e-12
        )


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


def test_logsumexp_rows_matches_direct_evaluation():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 5))
    direct = np.log(np.exp(m).sum(axis=1))
    np.testing.assert_allclose(numerics.logsumexp_rows(m), direct, rtol=1e-12)


def test_logsumexp_rows_handles_minus_inf():
    m = np.array([[-np.inf, 0.0], [-np.inf, -np.inf]])
    out = numerics.logsumexp_rows(m)
    assert out[0] == 0.0
    assert out[1] == -np.inf
