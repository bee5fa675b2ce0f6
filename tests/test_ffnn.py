import json

import numpy as np
import pytest

from celltide import ffnn
from celltide.dataset import ScalerParams
from oracles import ffnn_forward_scalar, max_relative_error, numeric_gradients
from test_modelio import model_file


def zero_params(t_len=3, hidden=5):
    return ffnn.FfnnParams(hidden, t_len)


def forward1(window, p):
    """One window as a batch of one: (prediction, cache)."""
    y, cache = ffnn.forward_batch(np.asarray(window, dtype=np.float64)[None, :], p)
    return float(y[0]), cache


class TestInit:
    def test_deterministic(self):
        a = ffnn.init_params(12, seed=3)
        b = ffnn.init_params(12, seed=3)
        for k in ffnn.WEIGHT_KEYS:
            assert np.array_equal(getattr(a, k), getattr(b, k))

    def test_zero_biases(self):
        p = ffnn.init_params(9, seed=1)
        assert not np.any(p.b1) and not np.any(p.b2)

    def test_glorot_range(self):
        p = ffnn.init_params(12, seed=5)
        assert np.max(np.abs(p.W1)) <= np.sqrt(6.0 / (12 + 5))


class TestForward:
    def test_zero_params_yield_half(self):
        y, _ = forward1(np.array([1.0, 2.0, 3.0]), zero_params())
        assert y == 0.5

    def test_relu_dead_path(self):
        p = zero_params(3)
        p.W1[:] = -1.0
        p.W2[:] = 5.0
        p.b2[:] = 0.25
        y, cache = forward1(np.array([1.0, 2.0, 3.0]), p)
        assert not np.any(cache["h"])
        assert y == pytest.approx(1.0 / (1.0 + np.exp(-0.25)), abs=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = ffnn.init_params(3, seed=int(rng.integers(1 << 30)))
            window = rng.uniform(-1, 1, 3)
            y, _ = forward1(window, p)
            assert y == pytest.approx(ffnn_forward_scalar(window, p), abs=1e-12)


class TestBackward:
    def test_zero_upstream(self):
        p = ffnn.init_params(4, seed=2)
        _, cache = forward1(np.array([0.1, 0.2, 0.3, 0.4]), p)
        assert not np.any(ffnn.backward_batch(cache, np.zeros(1), p))

    def test_finite_differences_spot_check(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            t_len = int(rng.integers(1, 8))
            p = ffnn.init_params(t_len, seed=int(rng.integers(1 << 30)))
            window = rng.uniform(-1, 1, t_len)
            _, cache = forward1(window, p)
            analytic = ffnn.backward_batch(cache, np.ones(1), p)
            numeric = numeric_gradients(lambda w, q: forward1(w, q)[0], window, p)
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_dead_unit_gets_zero_gradient(self):
        p = ffnn.init_params(3, seed=4)
        p.W1[2, :] = -1.0  # unit 2 dead on positive input
        _, cache = forward1(np.array([1.0, 2.0, 3.0]), p)
        grads = ffnn.FfnnParams(p.hidden, 3)
        grads.flat[...] = ffnn.backward_batch(cache, np.ones(1), p)
        assert not np.any(grads.W1[2])
        assert grads.b1[2] == 0.0


class TestPackedStorage:
    def test_fields_are_contiguous_views_of_one_buffer(self):
        p = ffnn.init_params(7, seed=2)
        assert vars(p).keys() == {*ffnn.WEIGHT_KEYS, "flat", "hidden"}
        for k in ffnn.WEIGHT_KEYS:
            v = getattr(p, k)
            assert v.flags.c_contiguous and np.shares_memory(v, p.flat), k
        parts = [getattr(p, k).ravel() for k in ffnn.WEIGHT_KEYS]
        assert np.array_equal(p.flat, np.concatenate(parts))


class TestSerialization:
    def test_roundtrip(self):
        p = ffnn.init_params(6, seed=12)
        obj = json.loads(model_file("ffnn", p, 6, ScalerParams(-1.0, 2.5)))
        assert (obj["type"], obj["T"]) == ("ffnn", 6)
        assert obj["scaler"] == {"min": -1.0, "max": 2.5}
        for k in ffnn.WEIGHT_KEYS:
            assert np.array_equal(getattr(p, k), obj["weights"][k])

    def test_t12_scalar_count(self):
        text = model_file("ffnn", ffnn.init_params(12, seed=0), 12, ScalerParams(0, 1))
        obj = json.loads(text)
        assert sum(np.asarray(a).size for a in obj["weights"].values()) == 71
