import numpy as np
import pytest

from celltide import dataset, ffnn, lstm, train


def small_sets(frac=0.4, days=4, data_seed=1, window=12):
    values = dataset.gen_synthetic(days, seed=data_seed).values
    spec = dataset.split(len(values), frac)
    scaler = dataset.fit_scaler(values[:spec.n_train])
    normed = scaler.transform(values)
    tr = dataset.windows_for_range(normed, window, 0, spec.n_train)
    va = dataset.windows_for_range(normed, window, spec.val_start, spec.test_start)
    return values, spec, scaler, tr, va


class TestMae:
    def test_identical(self):
        assert train.mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit(self):
        assert train.mae([0.0, 2.0], [1.0, 1.0]) == 1.0

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=100), rng.normal(size=100)
        naive = sum(abs(x - y) for x, y in zip(a, b)) / 100
        assert train.mae(a, b) == pytest.approx(naive, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            train.mae([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            train.mae([], [])


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        w = np.array([0.0])
        state = train.AdamState.for_params(w)
        train.adam_step(w, np.array([2.5]), state, lr=1e-3)
        assert abs(abs(w[0]) - 1e-3) < 1e-6

    def test_zero_gradient_keeps_params(self):
        w = np.array([1.0, -2.0])
        state = train.AdamState.for_params(w)
        train.adam_step(w, np.zeros(2), state, lr=0.1)
        assert np.array_equal(w, [1.0, -2.0])

    def test_deterministic_trajectory(self):
        def run():
            w = np.array([0.3])
            state = train.AdamState.for_params(w)
            for i in range(50):
                train.adam_step(w, np.array([np.sin(i) + 0.2]), state, 1e-2)
            return w[0]
        assert run() == run()

    def test_shape_mismatch(self):
        w = np.zeros(3)
        state = train.AdamState.for_params(w)
        with pytest.raises(ValueError):
            train.adam_step(w, np.zeros(2), state, 1e-3)

    def test_step_counter(self):
        w = np.zeros(1)
        state = train.AdamState.for_params(w)
        for _ in range(3):
            train.adam_step(w, np.ones(1), state, 1e-3)
        assert state.t == 3


class TestFit:
    def test_history_length_equals_epochs(self):
        _, _, _, tr, va = small_sets()
        _, hist = train.train_model("ffnn", tr, va, train.TrainConfig(epochs=20, seed=0))
        assert len(hist) == 20
        assert all(r[1] >= 0 and r[2] >= 0 for r in hist.rows)

    def test_zero_learning_rate_keeps_params(self):
        _, _, _, tr, va = small_sets()
        cfg = train.TrainConfig(epochs=3, learning_rate=0.0, seed=1)
        params = ffnn.init_params(tr.window_len, seed=1)
        before = {k: v.copy() for k, v in params.items()}
        hist = train.fit("ffnn", params, tr, va, cfg)
        for k, v in params.items():
            assert np.array_equal(v, before[k])
        assert len({r[2] for r in hist.rows}) == 1  # flat validation curve

    def test_reproducible_history(self):
        _, _, _, tr, va = small_sets()
        cfg = train.TrainConfig(epochs=3, seed=5)
        _, h1 = train.train_model("lstm", tr, va, cfg)
        _, h2 = train.train_model("lstm", tr, va, cfg)
        assert [r[:3] for r in h1.rows] == [r[:3] for r in h2.rows]

    def test_normalized_history_is_scale_free(self):
        # scaling raw data by a power of two leaves normalized windows bit-identical
        values, spec, _, tr, va = small_sets()
        scaled = values * 4.0
        scaler4 = dataset.fit_scaler(scaled[:spec.n_train])
        normed4 = scaler4.transform(scaled)
        tr4 = dataset.windows_for_range(normed4, 12, 0, spec.n_train)
        va4 = dataset.windows_for_range(normed4, 12, spec.val_start, spec.test_start)
        cfg = train.TrainConfig(epochs=2, seed=3)
        _, h1 = train.train_model("ffnn", tr, va, cfg)
        _, h2 = train.train_model("ffnn", tr4, va4, cfg)
        assert [r[:3] for r in h1.rows] == [r[:3] for r in h2.rows]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_aborts_with_epoch(self):
        _, _, _, tr, va = small_sets()
        params = ffnn.init_params(tr.window_len, seed=0)
        cfg = train.TrainConfig(epochs=5, learning_rate=1e200, seed=0)
        with pytest.raises(train.TrainingDiverged, match="epoch"):
            train.fit("ffnn", params, tr, va, cfg)

    def test_unknown_kind(self):
        _, _, _, tr, va = small_sets()
        with pytest.raises(ValueError):
            train.train_model("cnn", tr, va, train.TrainConfig())

    def test_lstm_learns_synthetic_medium_split(self):
        values = dataset.gen_synthetic(62, seed=7).values
        spec = dataset.split(len(values), 0.4)
        scaler = dataset.fit_scaler(values[:spec.n_train])
        normed = scaler.transform(values)
        tr = dataset.windows_for_range(normed, 12, 0, spec.n_train)
        va = dataset.windows_for_range(normed, 12, spec.val_start, spec.test_start)
        _, hist = train.train_model("lstm", tr, va, train.TrainConfig(epochs=20, seed=0))
        assert hist.final_val_mae < 0.05


def _test_windows(values, spec, scaler):
    return dataset.windows_for_range(scaler.transform(values), 12, spec.test_start,
                                     spec.test_start + spec.n_test)


class TestEvaluate:
    @staticmethod
    def _midpoint_fixture():
        # train slice alternates 0/10 so the scaler midpoint is 5; the test
        # tail is constant 5, making the all-0.5 stub a perfect predictor
        train_part = np.tile([0.0, 10.0], 60)
        tail = np.full(30, 5.0)
        values = np.concatenate([train_part, tail])
        spec = dataset.SplitSpec(n_train=120, n_val=15, n_test=15)
        scaler = dataset.fit_scaler(values[:120])
        stub = ffnn.FfnnParams(5, 12)
        return values, spec, scaler, stub

    def test_perfect_stub_has_zero_mae(self):
        values, spec, scaler, stub = self._midpoint_fixture()
        test_set = _test_windows(values, spec, scaler)
        preds, test_mae = train.evaluate("ffnn", stub, test_set, values, scaler)
        assert test_mae == 0.0
        assert np.all(preds == 5.0)

    def test_prediction_count_is_n_test(self):
        values, spec, scaler, stub = self._midpoint_fixture()
        test_set = _test_windows(values, spec, scaler)
        preds, _ = train.evaluate("ffnn", stub, test_set, values, scaler)
        assert len(preds) == spec.n_test
        assert test_set.target_slots[0] == spec.test_start

    def test_constant_stub_mae_equals_distance_to_midpoint(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0, 10, 150)
        spec = dataset.SplitSpec(n_train=120, n_val=15, n_test=15)
        scaler = dataset.fit_scaler(values[:120])
        stub = ffnn.FfnnParams(5, 12)
        test_set = _test_windows(values, spec, scaler)
        _, test_mae = train.evaluate("ffnn", stub, test_set, values, scaler)
        midpoint = scaler.inverse(np.array([0.5]))[0]
        expected = np.mean(np.abs(values[spec.test_start:] - midpoint))
        assert test_mae == pytest.approx(expected, abs=1e-12)
