import json
import pathlib

import numpy as np
import pytest

from celltide import dataset, lstm, train
from celltide.dataset import ScalerParams
from oracles import lstm_forward_scalar, max_relative_error, numeric_gradients
from test_modelio import model_file


def zero_params(hidden=1):
    return lstm.LstmParams(hidden)


def as_params(grad, hidden):
    """The flat gradient `grad` read through the named views of a fresh LstmParams."""
    views = lstm.LstmParams(hidden)
    views.flat[...] = grad
    return views


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
        assert np.array_equal(caches["a_final"], np.zeros((3, 1)))
        assert np.array_equal(caches["c"], np.zeros((2, 3, 1)))

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
        sig, cand = caches["gates"][:, :12], caches["gates"][:, 12:]  # [f, i, o | c]
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

    def test_eval_batch_matches_scalar_oracle(self):
        """The validation and test passes run B = 893 windows at once; the
        gate GEMM at that shape need not sum in the training batch's order."""
        rng = np.random.default_rng(12)
        p = lstm.init_params(3, seed=5)
        windows = rng.uniform(0, 1, (893, 4))
        want = [lstm_forward_scalar(w, p) for w in windows]
        y = lstm.forward_batch(windows, p)[0]
        assert np.max(np.abs(y - want)) < 1e-12

    def test_saturated_sigmoid_gates_stay_inside_the_open_unit_interval(self):
        """A pre-activation of +-1000 rounds the sigmoid to exactly 1 or 0;
        the gate rows clamp it to the nearest doubles inside (0, 1)."""
        p = lstm.init_params(3, seed=0)
        p.b_f[...], p.b_i[...], p.b_o[...] = 1e3, -1e3, 1e3
        gates = lstm.forward_batch(np.full((2, 4), 0.5), p)[1]["gates"][:, :9]
        assert gates.max() == np.nextafter(1.0, 0.0) and gates.min() == np.nextafter(0.0, 1.0)

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
        assert not np.any(lstm.backward_batch(caches, np.zeros(1), p))

    def test_output_bias_closed_form(self):
        p = lstm.init_params(4, seed=9)
        y, caches = forward1([0.3, 0.1, 0.8], p)
        grads = as_params(lstm.backward_batch(caches, np.array([1.7]), p), 4)
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
            numeric = numeric_gradients(lambda w, q: forward1(w, q)[0], window, p)
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_finite_differences_eval_batch(self):
        """The gradient summed over B = 893 windows, the eval batch size,
        against central differences of the weighted sum of predictions."""
        rng = np.random.default_rng(893)
        p = lstm.init_params(2, seed=17)
        windows = rng.uniform(0, 1, (893, 3))
        upstream = rng.uniform(-2, 2, 893)
        _, caches = lstm.forward_batch(windows, p)
        analytic = lstm.backward_batch(caches, upstream, p)
        numeric = numeric_gradients(lambda w, q: upstream @ lstm.forward_batch(w, q)[0],
                                    windows, p)
        assert max_relative_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("batch", [2, 7, 32, 893])
    def test_batch_gradient_is_sum_of_window_gradients(self, batch):
        rng = np.random.default_rng(batch)
        h = int(rng.integers(1, 9))
        t_len = int(rng.integers(1, 13))
        p = lstm.init_params(h, seed=int(rng.integers(1 << 30)))
        windows = rng.uniform(0, 1, (batch, t_len))
        upstream = rng.uniform(-2, 2, batch)
        _, caches = lstm.forward_batch(windows, p)
        got = as_params(lstm.backward_batch(caches, upstream, p), h)
        want = lstm.LstmParams(h)
        for window, d in zip(windows, upstream):
            _, c = forward1(window, p)
            want.flat += lstm.backward_batch(c, np.array([d]), p)
        for k in lstm.WEIGHT_KEYS:
            scale = np.max(np.abs(want[k]))
            assert np.max(np.abs(got[k] - want[k])) <= 1e-12 * scale, k


class TestPackedStorage:
    def test_fields_are_views_of_the_packed_gate_block(self):
        h = 4
        p = lstm.init_params(h, seed=2)
        for k, v in p.items():
            assert np.shares_memory(v, p.flat), k
            assert getattr(p, k) is v, k
        assert sorted(p) == sorted(lstm.WEIGHT_KEYS)
        assert p.flat.size == sum(v.size for v in p.values())
        n = p.Wb.size
        assert p.Wb.shape == (4 * h, h + 2) and p.Wb.flags.c_contiguous
        assert np.shares_memory(p.Wb, p.flat[:n]) and not np.shares_memory(p.Wb, p.flat[n:])
        for g, gate in enumerate(lstm.GATE_ORDER):
            rows = p.Wb[g * h:(g + 1) * h]
            assert np.array_equal(rows, np.column_stack((p[f"W_{gate}"], p[f"b_{gate}"]))), gate
        assert np.array_equal(p.flat[n:], np.concatenate((p.W_y.ravel(), p.b_y)))
        p.W_c[1, 2] = 7.5
        assert p.Wb[3 * h + 1, 2] == 7.5

    def test_in_place_write_changes_forward(self):
        p = lstm.init_params(4, seed=2)
        window = np.linspace(0.1, 0.9, 6)
        before = forward1(window, p)[0]
        p.W_c[...] += 0.5
        assert forward1(window, p)[0] != before

    def test_copy_owns_its_buffer(self):
        p = lstm.init_params(4, seed=2)
        q = lstm.LstmParams(4)
        q.flat[...] = p.flat
        assert not np.shares_memory(p.flat, q.flat)
        assert np.array_equal(p.flat, q.flat)
        q.W_c[...] += 0.5
        q.b_o[...] -= 1.0
        assert not np.array_equal(p.W_c, q.W_c)
        assert not np.array_equal(p.b_o, q.b_o)


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestSerialization:
    def test_model_file_from_unpacked_layout_loads(self):
        # lstm_h3.json holds, bit for bit, the weights that the serializer
        # of the unpacked per-gate implementation wrote, in the current
        # writer's text; the predictions below are that implementation's outputs.
        text = (FIXTURES / "lstm_h3.json").read_text()
        obj = json.loads(text)
        assert (obj["hidden"], obj["T"]) == (3, 6)
        p = lstm.LstmParams(obj["hidden"])
        for k, view in p.items():
            view[...] = obj["weights"][k]
        windows = np.random.default_rng(3).uniform(0, 1, (4, 6))
        y, _ = lstm.forward_batch(windows, p)
        expected = [0.16372606889320465, 0.14822154178029878,
                    0.12566812692667684, 0.15016611321767062]
        assert np.max(np.abs(y - expected)) < 1e-12
        scaler = ScalerParams(obj["scaler"]["min"], obj["scaler"]["max"])
        assert model_file("lstm", p, obj["T"], scaler) == text

    def test_roundtrip(self):
        p = lstm.init_params(7, seed=31)
        obj = json.loads(model_file("lstm", p, 12, ScalerParams(0.5, 3.0)))
        assert obj["T"] == 12
        for k in lstm.WEIGHT_KEYS:
            assert np.array_equal(getattr(p, k), obj["weights"][k])

    def test_h50_scalar_count(self):
        p = lstm.init_params(50, seed=0)
        obj = json.loads(model_file("lstm", p, 12, ScalerParams(0, 1)))
        count = 0
        for arr in obj["weights"].values():
            count += np.asarray(arr).size
        assert count == 10_451

    def test_scaler_roundtrip(self):
        p = lstm.init_params(2, seed=1)
        obj = json.loads(model_file("lstm", p, 3, ScalerParams(1.5, 9.25)))
        assert obj["scaler"] == {"min": 1.5, "max": 9.25}


class TestKernelDrift:
    # lstm_fit_4d.json was written by the batch-major kernels, the last ones
    # before the feature-major layout: a 2-epoch fit at the `compare`
    # defaults on a 4-day series. The layout moves results only at the
    # last-bit level; 1e-10 relative bounds that drift (measured: 0 on the
    # histories, 4.1e-16 on the test predictions) with room for another
    # BLAS's summation order.
    def test_fit_matches_batch_major_kernels(self):
        want = json.loads((FIXTURES / "lstm_fit_4d.json").read_text())
        values = dataset.gen_synthetic(4, seed=0).values
        spec = dataset.split(len(values), want["train_frac"])
        scaler = dataset.fit_scaler(values[:spec.n_train])
        normed = scaler.transform(values)
        sets = [dataset.windows_for_range(normed, want["window"], lo, hi) for lo, hi in
                ((0, spec.n_train), (spec.val_start, spec.test_start),
                 (spec.test_start, spec.test_start + spec.n_test))]
        params, history = train.train_model(
            "lstm", sets[0], sets[1], train.TrainConfig(epochs=want["epochs"], seed=want["seed"]))
        got = {"train_mae": [r.train_mae for r in history],
               "val_mae": [r.val_mae for r in history],
               "test_predictions": train.evaluate("lstm", params, sets[2], scaler)}
        for key, value in got.items():
            np.testing.assert_allclose(value, want[key], rtol=1e-10, atol=0, err_msg=key)
