import pathlib

import numpy as np
import pytest

from celltide import lstm, modelio
from celltide.dataset import ScalerParams
from celltide.linalg import ShapeError
from celltide.modelio import ModelFormatError
from oracles import lstm_forward_scalar, max_relative_error, numeric_gradients


def zero_params(hidden=1):
    return lstm.LstmParams(hidden)


class TestInit:
    def test_deterministic(self):
        a = lstm.init_params(6, seed=42)
        b = lstm.init_params(6, seed=42)
        for k in lstm.WEIGHT_KEYS:
            assert np.array_equal(getattr(a, k), getattr(b, k))

    def test_glorot_range(self):
        p = lstm.init_params(8, seed=1)
        limit = np.sqrt(6.0 / ((8 + 1) + 8))
        for k in ("W_f", "W_i", "W_c", "W_o"):
            assert np.max(np.abs(getattr(p, k))) <= limit
        assert np.max(np.abs(p.W_y)) <= np.sqrt(6.0 / (8 + 1))

    def test_bias_initialization(self):
        p = lstm.init_params(5, seed=0)
        assert np.array_equal(p.b_f, np.ones(5))
        for k in ("b_i", "b_c", "b_o", "b_y"):
            assert not np.any(getattr(p, k))


def forward1(window, p):
    """One window as a batch of one: (prediction, caches)."""
    y, caches = lstm.forward_batch(np.asarray(window, dtype=np.float64)[None, :], p)
    return float(y[0]), caches


class TestCellForward:
    """Cell-level checks through forward_batch; a single cell step is a
    window of length 1."""

    def test_zero_everything(self):
        _, caches = forward1([0.7], zero_params(3))
        assert np.array_equal(caches["a_final"], np.zeros((1, 3)))
        assert np.array_equal(caches["c"], np.zeros((1, 1, 3)))

    def test_matches_scalar_oracle_single_step(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            h = int(rng.integers(1, 5))
            p = lstm.init_params(h, seed=int(rng.integers(1 << 30)))
            x = rng.uniform(-1, 1, 1)
            assert forward1(x, p)[0] == pytest.approx(lstm_forward_scalar(x, p), abs=1e-12)

    def test_shape_mismatch(self):
        """The LSTM reads one value per step; any other input size is refused."""
        with pytest.raises(ValueError, match="input size must be 1, got 3"):
            lstm.init_params(2, 3)
        assert lstm.init_params(2, 1, seed=4).W_f.shape == (2, 3)

    def test_gate_and_state_ranges(self):
        rng = np.random.default_rng(8)
        p = lstm.init_params(4, seed=3)
        window = rng.uniform(0, 1, 10)
        _, caches = forward1(window, p)
        sig, cand = caches["gates"][:, :, :12], caches["gates"][:, :, 12:]  # [f, i, o | c]
        assert np.all((sig > 0) & (sig < 1))
        assert np.all((cand > -1) & (cand < 1))
        assert np.all(np.abs(caches["a_final"]) < 1)


class TestForward:
    def test_zero_params_yield_half(self):
        y, _ = forward1([0.1, 0.9, 0.4], zero_params(3))
        assert y == 0.5

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for seed in range(10):
            p = lstm.init_params(3, seed=seed)
            y, _ = forward1(rng.uniform(-5, 5, 6), p)
            assert 0.0 < y < 1.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = lstm.init_params(2, seed=int(rng.integers(1 << 30)))
            window = rng.uniform(0, 1, 3)
            y, _ = forward1(window, p)
            assert y == pytest.approx(lstm_forward_scalar(window, p), abs=1e-12)

    def test_empty_window_rejected(self):
        with pytest.raises(ShapeError):
            forward1([], zero_params(2))

    def test_determinism(self):
        p = lstm.init_params(5, seed=2)
        w = np.linspace(0, 1, 8)
        assert forward1(w, p)[0] == forward1(w, p)[0]

    def test_time_reversal_sensitivity(self):
        rng = np.random.default_rng(13)
        differs = 0
        for seed in range(10):
            p = lstm.init_params(4, seed=seed)
            w = rng.uniform(0, 1, 8)
            differs += forward1(w, p)[0] != forward1(w[::-1], p)[0]
        assert differs >= 9


class TestBackward:
    def test_zero_upstream_gradient(self):
        p = lstm.init_params(3, seed=5)
        _, caches = forward1([0.2, 0.4], p)
        grads = lstm.backward_batch(caches, np.zeros(1), p)
        for g in grads.values():
            assert not np.any(g)

    def test_output_bias_closed_form(self):
        p = lstm.init_params(4, seed=9)
        y, caches = forward1([0.3, 0.1, 0.8], p)
        grads = lstm.backward_batch(caches, np.array([1.7]), p)
        assert grads["b_y"][0] == pytest.approx(1.7 * y * (1 - y), rel=1e-12)

    def test_finite_differences_spot_check(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            h = int(rng.integers(1, 6))
            t_len = int(rng.integers(1, 6))
            p = lstm.init_params(h, seed=int(rng.integers(1 << 30)))
            window = rng.uniform(0, 1, t_len)
            _, caches = forward1(window, p)
            analytic = lstm.backward_batch(caches, np.ones(1), p)
            numeric = numeric_gradients(lambda w, q: forward1(w, q)[0],
                                        window, p, lstm.WEIGHT_KEYS)
            assert max_relative_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("batch", [2, 7, 32])
    def test_batch_gradient_is_sum_of_window_gradients(self, batch):
        rng = np.random.default_rng(batch)
        h = int(rng.integers(1, 9))
        t_len = int(rng.integers(1, 13))
        p = lstm.init_params(h, seed=int(rng.integers(1 << 30)))
        windows = rng.uniform(0, 1, (batch, t_len))
        upstream = rng.uniform(-2, 2, batch)
        _, caches = lstm.forward_batch(windows, p)
        got = lstm.backward_batch(caches, upstream, p)
        want = {k: np.zeros_like(v) for k, v in p.items()}
        for window, d in zip(windows, upstream):
            _, c = forward1(window, p)
            for k, g in lstm.backward_batch(c, np.array([d]), p).items():
                want[k] += g
        for k in lstm.WEIGHT_KEYS:
            scale = np.max(np.abs(want[k]))
            assert np.max(np.abs(got[k] - want[k])) <= 1e-12 * scale, k

    def test_gradients_are_views_of_one_buffer(self):
        p = lstm.init_params(3, seed=4)
        _, caches = lstm.forward_batch(np.linspace(0, 1, 10).reshape(2, 5), p)
        grads = lstm.backward_batch(caches, np.array([1.0, -0.5]), p)
        assert grads.flat.shape == p.flat.shape
        for k in lstm.WEIGHT_KEYS:
            assert np.shares_memory(grads[k], grads.flat), k
        assert isinstance(grads, lstm.LstmParams)
        assert np.array_equal(grads.W[:3], grads.W_f) and np.array_equal(grads.b[9:], grads.b_c)

    def test_cache_mismatch(self):
        p = lstm.init_params(3, seed=1)
        _, caches = forward1([0.1, 0.2], p)
        other = lstm.init_params(4, seed=1)
        with pytest.raises(ShapeError):
            lstm.backward_batch(caches, np.ones(1), other)


class TestInference:
    @pytest.mark.parametrize("batch", [1, 7, 893])
    def test_uncached_pass_equals_cached_pass(self, batch):
        p = lstm.init_params(lstm.HIDDEN_UNITS, seed=batch)
        windows = np.random.default_rng(batch).uniform(0, 1, (batch, 12))
        y, caches = lstm.forward_batch(windows, p)
        y_free, none = lstm.forward_batch(windows, p, cache=False)
        assert caches is not None and none is None
        assert np.array_equal(y, y_free)

    def test_uncached_single_step(self):
        p = lstm.init_params(3, seed=5)
        windows = np.linspace(0, 1, 4).reshape(4, 1)
        assert np.array_equal(lstm.forward_batch(windows, p)[0],
                              lstm.forward_batch(windows, p, cache=False)[0])


class TestPackedStorage:
    def test_fields_are_contiguous_views_of_one_buffer(self):
        p = lstm.init_params(4, seed=2)
        for k, v in p.items():
            assert v.flags.c_contiguous and np.shares_memory(v, p.flat), k
            assert getattr(p, k) is v, k
        assert sorted(p) == sorted(lstm.WEIGHT_KEYS)
        assert p.flat.size == sum(v.size for v in p.values())

    def test_in_place_write_changes_forward(self):
        p = lstm.init_params(4, seed=2)
        window = np.linspace(0.1, 0.9, 6)
        before = forward1(window, p)[0]
        p.W_c[...] += 0.5
        assert forward1(window, p)[0] != before

    def test_copy_owns_its_buffer(self):
        p = lstm.init_params(4, seed=2)
        q = lstm.LstmParams(4, flat=p.flat.copy())
        assert not np.shares_memory(p.flat, q.flat)
        assert np.array_equal(p.flat, q.flat)
        q.W_c[...] += 0.5
        q.b_o[...] -= 1.0
        assert not np.array_equal(p.W_c, q.W_c)
        assert not np.array_equal(p.b_o, q.b_o)


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestSerialization:
    def test_model_file_from_unpacked_layout_loads(self):
        # lstm_h3.json was written by the serializer of the unpacked
        # per-gate implementation; the predictions below are its outputs.
        text = (FIXTURES / "lstm_h3.json").read_text()
        p, window_len, scaler = modelio.loads_neural(text, lstm.LstmParams)
        assert (p.hidden, window_len) == (3, 6)
        assert (scaler.min, scaler.max) == (2.0, 50.0)
        windows = np.random.default_rng(3).uniform(0, 1, (4, 6))
        y, _ = lstm.forward_batch(windows, p)
        expected = [0.16372606889320465, 0.14822154178029878,
                    0.12566812692667684, 0.15016611321767062]
        assert np.max(np.abs(y - expected)) < 1e-12
        assert modelio.dumps_neural(p, window_len, scaler) == text

    def test_roundtrip(self):
        p = lstm.init_params(7, seed=31)
        text = modelio.dumps_neural(p, 12, ScalerParams(0.5, 3.0))
        q, window_len, scaler = modelio.loads_neural(text, lstm.LstmParams)
        assert window_len == 12 and scaler == ScalerParams(0.5, 3.0)
        for k in lstm.WEIGHT_KEYS:
            assert np.array_equal(getattr(p, k), getattr(q, k))

    def test_missing_field_named(self):
        p = lstm.init_params(2, seed=0)
        text = modelio.dumps_neural(p, 4, ScalerParams(0, 1)).replace('"W_f"', '"W_x"')
        with pytest.raises(ModelFormatError, match="W_f"):
            modelio.loads_neural(text, lstm.LstmParams)

    def test_h50_scalar_count(self):
        import json
        p = lstm.init_params(50, seed=0)
        obj = json.loads(modelio.dumps_neural(p, 12, ScalerParams(0, 1)))
        count = 0
        for arr in obj["weights"].values():
            count += np.asarray(arr).size
        assert count == 10_451

    def test_scaler_roundtrip(self):
        p = lstm.init_params(2, seed=1)
        text = modelio.dumps_neural(p, 3, ScalerParams(1.5, 9.25))
        _, _, scaler = modelio.loads_neural(text, lstm.LstmParams)
        assert scaler == ScalerParams(1.5, 9.25)
