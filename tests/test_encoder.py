"""Tests for the MLP encoder, row normalization, Adam, and checkpoints."""

import math
import struct

import numpy as np
import pytest

from totseg.encoder import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CHECKPOINT_MAGIC,
    PARAM_KEYS,
    AdamState,
    EncoderParams,
    adam_step,
    backward,
    forward,
    init_params,
    load_checkpoint,
    normalize_rows,
    normalize_rows_backward,
    save_checkpoint,
    sigmoid_in_place,
)
from totseg.errors import DataError

import oracles


def make_params(seed=0, dims=(4, 5, 3, 2)):
    return init_params(*dims, rng=np.random.default_rng(seed))


def logistic(x):
    """The in-place kernel ``forward`` runs, on a float64 copy of ``x``."""
    return sigmoid_in_place(np.array(x, dtype=np.float64))


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert logistic(np.array([0.0]))[0] == 0.5

    def test_matches_naive_formula_in_safe_range(self):
        x = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(logistic(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-15)

    def test_extreme_inputs_do_not_overflow(self):
        with np.errstate(over="raise"):
            out = logistic(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0
        assert out[1] == 1.0

    def test_symmetry(self):
        x = np.linspace(-5, 5, 51)
        np.testing.assert_allclose(logistic(-x), 1.0 - logistic(x), atol=1e-15)

    def test_agrees_with_scipy_expit_up_to_700(self):
        expit = pytest.importorskip("scipy.special").expit
        rng = np.random.default_rng(3)
        x = np.concatenate(
            [np.linspace(-700, 700, 140_001), rng.normal(scale=8.0, size=20_000)]
        )
        np.testing.assert_allclose(logistic(x), expit(x), rtol=1e-15, atol=0)

    def test_exact_tails_beyond_exp_overflow(self):
        x = np.array([709.79, 710.0, 745.5, 1e4, 1e308, np.inf])
        np.testing.assert_array_equal(logistic(x), np.ones_like(x))
        np.testing.assert_array_equal(logistic(-x), np.zeros_like(x))

    def test_overwrites_and_returns_its_buffer(self):
        x = np.linspace(-50, 50, 41)
        want = 1.0 / (1.0 + np.exp(-x))
        assert sigmoid_in_place(x) is x
        np.testing.assert_allclose(x, want, rtol=1e-15)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float32])
    def test_other_dtypes_give_float64(self, dtype):
        # forward casts its input to float64 before the kernel runs.
        params = make_params()
        x = np.arange(-6, 6).reshape(3, 4).astype(dtype)
        out, cache = forward(params, x)
        assert out.dtype == cache.hidden.dtype == np.float64
        np.testing.assert_array_equal(out, forward(params, x.astype(np.float64))[0])


class TestForward:
    def test_zero_parameters_give_half_everywhere(self):
        params = EncoderParams(
            w1=np.zeros((4, 5)),
            b1=np.zeros(5),
            w2=np.zeros((5, 3)),
            b2=np.zeros(3),
            prototypes=np.eye(2, 3),
        )
        z, cache = forward(params, np.random.default_rng(0).normal(size=(6, 4)))
        np.testing.assert_array_equal(z, np.full((6, 3), 0.5))
        np.testing.assert_array_equal(cache.hidden, np.full((6, 5), 0.5))

    def test_outputs_strictly_inside_unit_interval(self):
        params = make_params()
        z, _ = forward(params, np.random.default_rng(1).normal(size=(32, 4)) * 50)
        assert np.all(z > 0)
        assert np.all(z < 1)

    def test_rows_are_independent(self):
        params = make_params(seed=2)
        x = np.random.default_rng(3).normal(size=(8, 4))
        batched, _ = forward(params, x)
        single = np.vstack([forward(params, row[None, :])[0] for row in x])
        np.testing.assert_allclose(batched, single, atol=1e-12)

    def test_wrong_input_dim_rejected(self):
        with pytest.raises(ValueError, match="rows of dim 4"):
            forward(make_params(), np.zeros((3, 7)))


class TestBackward:
    def test_zero_upstream_gradient_gives_zero_everywhere(self):
        params = make_params(seed=4)
        _, cache = forward(params, np.random.default_rng(5).normal(size=(6, 4)))
        grads = backward(cache, np.zeros((6, 3)))
        for key in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(grads[key], np.zeros_like(grads[key]))

    def test_matches_finite_differences(self):
        # Scalar loss (Z * R).sum() so the upstream gradient is just R.
        rng = np.random.default_rng(6)
        params = make_params(seed=7)
        x = rng.normal(size=(6, 4))
        r = rng.normal(size=(6, 3))
        _, cache = forward(params, x)
        grads = backward(cache, r.copy())  # backward overwrites its gradient

        def loss_with(key, value):
            trial = EncoderParams(**{**params, key: value})
            return float((forward(trial, x)[0] * r).sum())

        for key in ("w1", "b1", "w2", "b2"):
            numeric = oracles.finite_difference(
                lambda v, key=key: loss_with(key, v), getattr(params, key)
            )
            assert oracles.max_relative_error(grads[key], numeric) < 1e-6, key

    def test_duplicated_batch_doubles_the_gradient(self):
        rng = np.random.default_rng(8)
        params = make_params(seed=9)
        x = rng.normal(size=(3, 4))
        r = rng.normal(size=(3, 3))
        _, cache_one = forward(params, x)
        _, cache_two = forward(params, np.vstack([x, x]))
        grads_one = backward(cache_one, r.copy())  # backward overwrites its gradient
        grads_two = backward(cache_two, np.vstack([r, r]))
        for key in grads_one:
            np.testing.assert_allclose(grads_two[key], 2.0 * grads_one[key], rtol=1e-12)

    def test_gradient_shape_mismatch_rejected(self):
        _, cache = forward(make_params(), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="does not match output shape"):
            backward(cache, np.zeros((2, 5)))


class TestNormalizeRows:
    def test_hand_case(self):
        normalized, norms = normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(normalized, [[0.6, 0.8]], rtol=1e-15)
        np.testing.assert_allclose(norms, [[5.0]])

    def test_zero_row_passes_through_with_unit_norm(self):
        normalized, norms = normalize_rows(np.array([[0.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(normalized[0], [0.0, 0.0])
        assert norms[0, 0] == 1.0

    def test_all_rows_unit_length(self):
        z = np.random.default_rng(10).normal(size=(20, 6))
        normalized, _ = normalize_rows(z)
        np.testing.assert_allclose(np.linalg.norm(normalized, axis=1), 1.0, rtol=1e-13)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(5, 4))
        r = rng.normal(size=(5, 4))
        normalized, norms = normalize_rows(z)
        grad = normalize_rows_backward(r.copy(), normalized, norms)  # overwrites its gradient
        numeric = oracles.finite_difference(
            lambda v: float((normalize_rows(v)[0] * r).sum()), z
        )
        assert oracles.max_relative_error(grad, numeric) < 1e-6

    def test_backward_output_orthogonal_to_unit_rows(self):
        # The norm-1 output cannot move along its own direction, so the
        # pulled-back gradient has no component along each unit row.
        rng = np.random.default_rng(12)
        z = rng.normal(size=(6, 3))
        normalized, norms = normalize_rows(z)
        grad = normalize_rows_backward(rng.normal(size=(6, 3)), normalized, norms)
        np.testing.assert_allclose((grad * normalized).sum(axis=1), 0.0, atol=1e-14)


class TestKernelsMatchTheAllocatingOracle:
    """The in-place kernels give the bits of the expressions they replace.

    1024 rows of a 60-wide hidden layer span eight of the blocks that
    ``backward`` multiplies a block at a time, 300 rows three, the last
    one short.
    """

    ROWS = [1, 7, 300, 1024]

    @pytest.mark.parametrize("rows", ROWS)
    def test_backward(self, rows):
        rng = np.random.default_rng(rows)
        params = init_params(9, 60, 30, 4, rng)
        _, cache = forward(params, 3.0 * rng.normal(size=(rows, 9)))
        upstream = rng.normal(size=(rows, 30))
        want = oracles.encoder_backward_allocating(
            cache.inputs, cache.hidden, cache.outputs, params.w2, upstream
        )
        got = backward(cache, upstream.copy())
        # Prototypes never enter the forward pass: their gradient is zero.
        assert sorted(got) == sorted([*want, "prototypes"])
        np.testing.assert_array_equal(got["prototypes"], 0.0)
        for key, grad in want.items():
            np.testing.assert_array_equal(got[key], grad, err_msg=key)

    def test_backward_writes_only_its_gradient(self):
        rng = np.random.default_rng(13)
        params = init_params(9, 60, 30, 4, rng)
        _, cache = forward(params, rng.normal(size=(50, 9)))
        kept = [a.copy() for a in (cache.inputs, cache.hidden, cache.outputs)]
        upstream = rng.normal(size=(50, 30))
        first = backward(cache, upstream.copy())
        second = backward(cache, upstream.copy())
        for now, before in zip((cache.inputs, cache.hidden, cache.outputs), kept):
            np.testing.assert_array_equal(now, before)
        for key in first:
            np.testing.assert_array_equal(first[key], second[key])

    @pytest.mark.parametrize("rows", ROWS)
    def test_normalize_rows(self, rows):
        rng = np.random.default_rng(100 + rows)
        matrix = rng.normal(size=(rows, 30)) * rng.uniform(1e-3, 1e3, size=(rows, 1))
        matrix[::4] = 0.0
        want = oracles.normalize_rows_allocating(matrix)
        for got, expected in zip(normalize_rows(matrix), want):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("rows", ROWS)
    def test_normalize_rows_backward(self, rows):
        rng = np.random.default_rng(200 + rows)
        normalized, norms = normalize_rows(rng.normal(size=(rows, 30)))
        grad = rng.normal(size=(rows, 30))
        want = oracles.normalize_rows_backward_allocating(grad, normalized, norms)
        owned = grad.copy()
        got = normalize_rows_backward(owned, normalized, norms)
        assert got is owned
        np.testing.assert_array_equal(got, want)


class TestAdam:
    def zero_grads(self, params):
        return params.zeros_like()

    def test_zero_gradients_without_decay_change_nothing(self):
        params = make_params(seed=13)
        before = {k: v.copy() for k, v in params.items()}
        state = AdamState.for_params(params, weight_decay=0.0)
        adam_step(params, self.zero_grads(params), state)
        assert state.step == 1
        for key, value in params.items():
            np.testing.assert_array_equal(value, before[key])

    def test_first_step_is_signed_learning_rate(self):
        # With bias correction, the first update is lr * g / (|g| + eps),
        # which for |g| well above eps is lr * sign(g).
        params = make_params(seed=14)
        before = {k: v.copy() for k, v in params.items()}
        rng = np.random.default_rng(15)
        grads = {}
        for key, value in params.items():
            g = rng.uniform(0.1, 1.0, size=value.shape)
            grads[key] = g * rng.choice([-1.0, 1.0], size=value.shape)
        state = AdamState.for_params(params, learning_rate=1e-3, weight_decay=0.0)
        adam_step(params, EncoderParams(**grads), state)
        for key, value in params.items():
            delta = value - before[key]
            np.testing.assert_allclose(
                delta, -1e-3 * np.sign(grads[key]), atol=1e-9
            )

    def test_descends_a_quadratic(self):
        # Minimize sum(w^2); gradient 2w. The norm should shrink steadily
        # once the moment estimates settle.
        params = make_params(seed=16)
        state = AdamState.for_params(params, learning_rate=1e-2, weight_decay=0.0)
        norms = []
        for _ in range(100):
            grads = EncoderParams(**{k: 2.0 * v for k, v in params.items()})
            adam_step(params, grads, state)
            norms.append(sum(float((v**2).sum()) for v in params.values()))
        for prev, cur in zip(norms[5:], norms[6:]):
            assert cur < prev

    def test_weight_decay_shrinks_even_with_zero_gradient(self):
        params = make_params(seed=17)
        before = params.w1.copy()
        state = AdamState.for_params(params, learning_rate=1e-2, weight_decay=0.1)
        adam_step(params, self.zero_grads(params), state)
        np.testing.assert_allclose(params.w1, before * (1.0 - 1e-2 * 0.1), rtol=1e-14)

    def test_frozen_prototypes_are_untouched(self):
        params = make_params(seed=18)
        state = AdamState.for_params(params, weight_decay=0.0)
        state.prototypes_frozen = True
        rng = np.random.default_rng(19)
        grads = EncoderParams(**{k: rng.normal(size=v.shape) for k, v in params.items()})
        protos_before = params.prototypes.copy()
        w1_before = params.w1.copy()
        adam_step(params, grads, state)
        np.testing.assert_array_equal(params.prototypes, protos_before)
        np.testing.assert_array_equal(state.m["prototypes"], 0.0)
        np.testing.assert_array_equal(state.v["prototypes"], 0.0)
        assert not np.array_equal(params.w1, w1_before)

        state.prototypes_frozen = False
        adam_step(params, grads, state)
        assert not np.array_equal(params.prototypes, protos_before)

    def test_gradient_shape_mismatch_rejected(self):
        params = make_params(seed=21)
        state = AdamState.for_params(params)
        grads = make_params(seed=21, dims=(4, 5, 4, 2)).zeros_like()
        with pytest.raises(ValueError, match=r"gradient dimensions \(4, 5, 4, 2\) do not match"):
            adam_step(params, grads, state)
        assert state.step == 0

    def test_bad_hyperparameters_rejected(self):
        params = make_params(seed=22)
        with pytest.raises(ValueError, match="learning_rate"):
            AdamState.for_params(params, learning_rate=0.0)
        with pytest.raises(ValueError, match="weight_decay"):
            AdamState.for_params(params, weight_decay=-1.0)


class TestAdamMatchesThePerKeyUpdate:
    """adam_step over the parameter vector gives the bits of the update it
    replaced, which ran one parameter array at a time."""

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_fifty_steps_with_a_frozen_phase_bit_for_bit(self, weight_decay):
        rng = np.random.default_rng(32)
        params = init_params(32, 32, 16, 5, rng)
        state = AdamState.for_params(params, learning_rate=1e-2, weight_decay=weight_decay)
        want = {key: value.copy() for key, value in params.items()}
        m = {key: np.zeros_like(value) for key, value in want.items()}
        v = {key: np.zeros_like(value) for key, value in want.items()}
        for t in range(1, 51):
            frozen = t <= 20
            grads = {key: rng.normal(size=value.shape) for key, value in want.items()}
            state.prototypes_frozen = frozen
            adam_step(params, EncoderParams(**grads), state)

            correct1 = 1.0 - ADAM_BETA1**t
            correct2 = 1.0 - ADAM_BETA2**t
            for key in PARAM_KEYS:
                if key == "prototypes" and frozen:
                    continue
                grad = grads[key]
                m[key] = ADAM_BETA1 * m[key] + (1.0 - ADAM_BETA1) * grad
                v[key] = ADAM_BETA2 * v[key] + (1.0 - ADAM_BETA2) * grad**2
                m_hat = m[key] / correct1
                v_hat = v[key] / correct2
                want[key] = want[key] - 1e-2 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                if weight_decay > 0:
                    want[key] = want[key] - 1e-2 * weight_decay * want[key]
        for key in PARAM_KEYS:
            np.testing.assert_array_equal(params[key], want[key], err_msg=key)
            np.testing.assert_array_equal(state.m[key], m[key], err_msg=key)
            np.testing.assert_array_equal(state.v[key], v[key], err_msg=key)


class TestParameterVector:
    def test_fields_are_views_of_one_vector_in_key_order(self):
        params = make_params(seed=33)
        offset = 0
        for key in PARAM_KEYS:
            field = getattr(params, key)
            assert field.ctypes.data == params.vector.ctypes.data + 8 * offset
            assert field.flags.c_contiguous
            field.flat[0] = 1000.0 + offset
            assert params.vector[offset] == 1000.0 + offset
            offset += field.size
        assert offset == params.vector.size

    def test_keyword_arrays_are_copied_and_a_vector_is_viewed(self):
        arrays = {key: value.copy() for key, value in make_params(seed=34).items()}
        packed = EncoderParams(**arrays)
        assert not any(np.shares_memory(packed.vector, a) for a in arrays.values())
        np.testing.assert_array_equal(
            packed.vector, np.concatenate([arrays[key].ravel() for key in PARAM_KEYS])
        )
        viewed = EncoderParams.from_vector(packed.vector, packed.dims)
        for key in PARAM_KEYS:
            assert np.shares_memory(viewed[key], packed.vector)
            np.testing.assert_array_equal(viewed[key], arrays[key])


class TestInitParams:
    def test_shapes_and_dims(self):
        params = init_params(10, 7, 5, 3, np.random.default_rng(23))
        assert params.w1.shape == (10, 7)
        assert params.b1.shape == (7,)
        assert params.w2.shape == (7, 5)
        assert params.b2.shape == (5,)
        assert params.prototypes.shape == (3, 5)
        assert params.dims == (10, 7, 5, 3)

    def test_biases_start_at_zero(self):
        params = init_params(4, 4, 4, 2, np.random.default_rng(24))
        np.testing.assert_array_equal(params.b1, 0.0)
        np.testing.assert_array_equal(params.b2, 0.0)

    def test_prototypes_start_unit_norm(self):
        params = init_params(4, 4, 6, 5, np.random.default_rng(25))
        np.testing.assert_allclose(
            np.linalg.norm(params.prototypes, axis=1), 1.0, rtol=1e-13
        )

    def test_weights_respect_glorot_bounds(self):
        params = init_params(8, 6, 4, 2, np.random.default_rng(26))
        assert np.abs(params.w1).max() <= math.sqrt(6.0 / (8 + 6))
        assert np.abs(params.w2).max() <= math.sqrt(6.0 / (6 + 4))

    def test_deterministic_under_seed(self):
        a = init_params(5, 4, 3, 2, np.random.default_rng(27))
        b = init_params(5, 4, 3, 2, np.random.default_rng(27))
        for key in PARAM_KEYS:
            np.testing.assert_array_equal(getattr(a, key), getattr(b, key))

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ValueError, match="hidden_dim"):
            init_params(4, 0, 3, 2, np.random.default_rng(0))


class TestCheckpoint:
    def saved(self, tmp_path, **kwargs):
        params = make_params(seed=28)
        path = tmp_path / "checkpoint.totc"
        save_checkpoint(params, path, **kwargs)
        return params, path

    def test_round_trip_is_bitwise(self, tmp_path):
        params, path = self.saved(tmp_path, temperature=0.07, normalized=False)
        loaded_params, meta = load_checkpoint(path)
        for key in PARAM_KEYS:
            np.testing.assert_array_equal(getattr(loaded_params, key), getattr(params, key))
        assert meta == {"temperature": 0.07, "normalized": False}
        raw = path.read_bytes()
        header = struct.unpack_from("<4sHIIIIBd", raw)
        assert header == (CHECKPOINT_MAGIC, 2, *params.dims, 0, 0.07)
        total = sum(value.size for value in params.values())
        assert len(raw) == 31 + 8 * total

    def test_payload_is_each_parameter_in_key_order(self, tmp_path):
        params, path = self.saved(tmp_path, temperature=0.07, normalized=False)
        header = struct.pack("<4sHIIIIBd", CHECKPOINT_MAGIC, 2, *params.dims, 0, 0.07)
        payload = b"".join(
            np.asarray(getattr(params, key), dtype="<f8").tobytes() for key in PARAM_KEYS
        )
        assert path.read_bytes() == header + payload

    def test_interrupted_save_keeps_the_previous_checkpoint(self, tmp_path):
        class FailsMidway:
            # Stands in for the parameter vector: the header is written, then
            # this raises.
            def __array__(self, *args, **kwargs):
                raise OSError("disk full")

        params, path = self.saved(tmp_path)
        before = path.read_bytes()
        broken = make_params(seed=31)
        broken.vector = FailsMidway()
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(broken, path)
        assert path.read_bytes() == before
        loaded_params, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded_params.w1, params.w1)
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.totc"]

    def test_save_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "checkpoint.totc"
        save_checkpoint(make_params(seed=30), path)
        assert path.exists()

    def test_rejects_bad_magic(self, tmp_path):
        _, path = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        bad = tmp_path / "bad.totc"
        bad.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="bad.totc"):
            load_checkpoint(bad)

    def test_rejects_unknown_version(self, tmp_path):
        _, path = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 99)
        bad = tmp_path / "future.totc"
        bad.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="version 99"):
            load_checkpoint(bad)

    def test_rejects_truncated_payload(self, tmp_path):
        _, path = self.saved(tmp_path)
        raw = path.read_bytes()
        bad = tmp_path / "cut.totc"
        bad.write_bytes(raw[:-16])
        with pytest.raises(DataError, match=f"{len(raw)} bytes"):
            load_checkpoint(bad)

    def test_rejects_file_shorter_than_header(self, tmp_path):
        bad = tmp_path / "stub.totc"
        bad.write_bytes(b"TOTC\x01")
        with pytest.raises(DataError, match="shorter than the checkpoint header"):
            load_checkpoint(bad)
