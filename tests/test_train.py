import math
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from celltide import dataset, ffnn, lstm, train
from test_cli import NEURAL


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
        assert train.mae(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_unit(self):
        assert train.mae(np.array([0.0, 2.0]), np.array([1.0, 1.0])) == 1.0

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=100), rng.normal(size=100)
        naive = sum(abs(x - y) for x, y in zip(a, b)) / 100
        assert train.mae(a, b) == pytest.approx(naive, abs=1e-12)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        w = np.array([0.0])
        train.adam_step(w, np.array([2.5]), np.zeros(1), np.zeros(1), 1, lr=1e-3)
        assert abs(abs(w[0]) - 1e-3) < 1e-6

    def test_zero_gradient_keeps_params(self):
        w = np.array([1.0, -2.0])
        train.adam_step(w, np.zeros(2), np.zeros(2), np.zeros(2), 1, lr=0.1)
        assert np.array_equal(w, [1.0, -2.0])

    def test_deterministic_trajectory(self):
        def run():
            w, m, v = np.array([0.3]), np.zeros(1), np.zeros(1)
            for i in range(50):
                train.adam_step(w, np.array([np.sin(i) + 0.2]), m, v, i + 1, 1e-2)
            return w[0]
        assert run() == run()

    def test_step_counter(self):
        # bias correction by the step count makes each step of a constant
        # gradient move the weight by lr; m and v are updated in place
        w, m, v = np.zeros(1), np.zeros(1), np.zeros(1)
        for t in range(1, 4):
            train.adam_step(w, np.ones(1), m, v, t, 1e-3)
        assert w[0] == pytest.approx(-3e-3, rel=1e-6)
        assert m[0] == pytest.approx(1 - 0.9 ** 3) and v[0] == pytest.approx(1 - 0.999 ** 3)


class TestFit:
    def test_history_length_equals_epochs(self):
        _, _, _, tr, va = small_sets()
        _, hist = train.train_model("ffnn", tr, va, train.TrainConfig(epochs=20, seed=0))
        assert len(hist) == 20
        assert all(r.train_mae >= 0 and r.val_mae >= 0 for r in hist)

    def test_zero_learning_rate_keeps_params(self):
        _, _, _, tr, va = small_sets()
        cfg = train.TrainConfig(epochs=3, learning_rate=0.0, seed=1)
        params = ffnn.init_params(tr.inputs.shape[1], seed=1)
        before = {k: getattr(params, k).copy() for k in ffnn.WEIGHT_KEYS}
        hist = train.fit("ffnn", params, tr, va, cfg)
        for k in ffnn.WEIGHT_KEYS:
            assert np.array_equal(getattr(params, k), before[k])
        assert len({r.val_mae for r in hist}) == 1  # flat validation curve

    def test_reproducible_history(self):
        _, _, _, tr, va = small_sets()
        cfg = train.TrainConfig(epochs=3, seed=5)
        _, h1 = train.train_model("lstm", tr, va, cfg)
        _, h2 = train.train_model("lstm", tr, va, cfg)
        assert [r[:3] for r in h1] == [r[:3] for r in h2]

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
        assert [r[:3] for r in h1] == [r[:3] for r in h2]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_aborts_with_epoch(self):
        _, _, _, tr, va = small_sets()
        params = ffnn.init_params(tr.inputs.shape[1], seed=0)
        cfg = train.TrainConfig(epochs=5, learning_rate=1e200, seed=0)
        with pytest.raises(train.TrainingDiverged, match="epoch"):
            train.fit("ffnn", params, tr, va, cfg)

    def test_adam_step_count_runs_on_across_epochs(self, monkeypatch):
        _, _, _, tr, va = small_sets()
        steps = []
        adam_step = train.adam_step
        monkeypatch.setattr(train, "adam_step", lambda w, g, m, v, t, lr: (
            steps.append(t), adam_step(w, g, m, v, t, lr)))
        train.train_model("ffnn", tr, va, train.TrainConfig(epochs=3, seed=0))
        assert steps == list(range(1, 3 * math.ceil(len(tr) / train.BATCH_SIZE) + 1))

    @pytest.mark.parametrize("kind", NEURAL)
    def test_each_step_is_the_mean_gradient_of_its_batch(self, kind, monkeypatch):
        """2 * 32 + 5 windows: the last batch's gradient is divided by its own
        5 windows, like each full batch's by 32. The reference step averages
        one-window gradients at the weights the step started from."""
        _, _, _, tr, va = small_sets()
        tr = dataset.WindowSet(tr.inputs[:2 * train.BATCH_SIZE + 5],
                               tr.targets[:2 * train.BATCH_SIZE + 5])
        steps, adam_step = [], train.adam_step

        def recorded(w, g, m, v, t, lr):
            steps.append((w.copy(), g.copy()))
            adam_step(w, g, m, v, t, lr)

        monkeypatch.setattr(train, "adam_step", recorded)
        model, init = train.FORECASTERS[kind].module, train.FORECASTERS[kind].init
        train.fit(kind, init(tr.inputs.shape[1], 0), tr, va, train.TrainConfig(epochs=1, seed=6))
        order = np.random.default_rng(6).permutation(len(tr))
        batches = [order[lo:lo + train.BATCH_SIZE] for lo in range(0, len(tr), train.BATCH_SIZE)]
        assert [len(idx) for idx in batches] == [32, 32, 5] and len(steps) == 3
        params = init(tr.inputs.shape[1], 0)
        for idx, (w, g) in zip(batches, steps):
            params.flat[:] = w
            one_window = []
            for i in idx:
                y, cache = model.forward_batch(tr.inputs[i:i + 1], params)
                one_window.append(model.backward_batch(cache, np.sign(y - tr.targets[i:i + 1]),
                                                       params))
            np.testing.assert_allclose(g, np.mean(one_window, axis=0), rtol=1e-9, atol=1e-15)

    def test_a_batch_cache_is_freed_before_the_next_forward_pass(self, monkeypatch):
        """`fit` drops a batch's BPTT cache once `backward_batch` returns, so
        no two batches' caches are alive at once: at every `forward_batch`
        call after the first, the previous call's gate array is gone."""
        _, _, _, tr, va = small_sets()
        n = 3 * train.BATCH_SIZE
        tr = dataset.WindowSet(tr.inputs[:n], tr.targets[:n])
        forward, gates, alive = lstm.forward_batch, [], []

        def recorded(windows, params):
            alive.extend(ref() is not None for ref in gates[-1:])
            y, cache = forward(windows, params)
            gates.append(weakref.ref(cache["gates"]))
            return y, cache

        monkeypatch.setattr(lstm, "forward_batch", recorded)
        train.fit("lstm", lstm.init_params(8, seed=0), tr, va, train.TrainConfig(epochs=2))
        assert len(alive) == len(gates) - 1 >= 2 * 3 and not any(alive)

    @pytest.mark.parametrize("kind", NEURAL)
    def test_backward_batch_returns_a_new_flat_array(self, kind):
        """The gradient `fit` hands to `adam_step`: a new 1-D float64 array of
        the weights' size, sharing memory with neither the weights, the
        caches of the forward pass, nor an earlier gradient."""
        model, init = train.FORECASTERS[kind].module, train.FORECASTERS[kind].init
        params = init(5, 4)
        windows = np.random.default_rng(4).uniform(0, 1, (3, 5))
        _, caches = model.forward_batch(windows, params)
        upstream = np.array([1.0, -0.5, 0.25])
        grad = model.backward_batch(caches, upstream, params)
        assert type(grad) is np.ndarray and grad.dtype == np.float64
        assert grad.shape == (params.flat.size,)
        for other in (params.flat, windows, *caches.values(),
                      model.backward_batch(caches, upstream, params)):
            assert not np.shares_memory(grad, other)

    def test_lstm_learns_synthetic_medium_split(self):
        values = dataset.gen_synthetic(62, seed=7).values
        spec = dataset.split(len(values), 0.4)
        scaler = dataset.fit_scaler(values[:spec.n_train])
        normed = scaler.transform(values)
        tr = dataset.windows_for_range(normed, 12, 0, spec.n_train)
        va = dataset.windows_for_range(normed, 12, spec.val_start, spec.test_start)
        _, hist = train.train_model("lstm", tr, va, train.TrainConfig(epochs=20, seed=0))
        assert hist[-1].val_mae < 0.05


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
        preds = train.evaluate("ffnn", stub, test_set, scaler)
        assert train.mae(preds, values[spec.test_start:]) == 0.0
        assert np.all(preds == 5.0)

    def test_prediction_count_is_n_test(self):
        values, spec, scaler, stub = self._midpoint_fixture()
        test_set = _test_windows(values, spec, scaler)
        preds = train.evaluate("ffnn", stub, test_set, scaler)
        assert len(preds) == spec.n_test
        assert np.array_equal(test_set.targets, scaler.transform(values[spec.test_start:]))

    def test_constant_stub_mae_equals_distance_to_midpoint(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0, 10, 150)
        spec = dataset.SplitSpec(n_train=120, n_val=15, n_test=15)
        scaler = dataset.fit_scaler(values[:120])
        stub = ffnn.FfnnParams(5, 12)
        test_set = _test_windows(values, spec, scaler)
        test_mae = train.mae(train.evaluate("ffnn", stub, test_set, scaler),
                             values[spec.test_start:])
        midpoint = scaler.inverse(np.array([0.5]))[0]
        expected = np.mean(np.abs(values[spec.test_start:] - midpoint))
        assert test_mae == pytest.approx(expected, abs=1e-12)


def traced_peak(call) -> int:
    """The peak, in bytes, of the allocations tracemalloc sees while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """On 62 days of synthetic traffic, 12-slot windows and the default split."""

    def test_setup_cuts_views_not_copies(self, capsys):
        """`Neural.setup` holds the normalised series and views of it: below
        0.3 MiB, where a copy of the 7,130 training windows alone is 0.65 MiB."""
        values = dataset.gen_synthetic(62, seed=7).values
        data = types.SimpleNamespace(values=values, spec=dataset.split(len(values), 0.8))
        args = types.SimpleNamespace(window=12, epochs=1, lr=1e-3, seed=0)
        assert traced_peak(lambda: train.FORECASTERS["lstm"].setup(data, args)) < 0.3 * 2**20
        assert len(data.train_set) == 7130 and len(data.val_set) == 893

    def test_an_lstm_evaluation_pass_holds_one_batch_of_step_caches(self):
        """`_predict` over the 893 validation windows peaks below 1.6 MiB: one
        BATCH_SIZE chunk's step caches, not those of a chunk twice as wide."""
        _, _, _, _, va = small_sets(frac=0.8, days=62, data_seed=7)
        params = train.FORECASTERS["lstm"].init(12, 0)
        assert len(va) == 893
        assert traced_peak(lambda: train._predict(lstm, va.inputs, params)) < 1.6 * 2**20


# window count -> `_predict`'s pass widths at a BATCH_SIZE of 32: ceil(n/32) passes, each full
CHUNKS = {1: [32], 15: [32], 16: [32], 17: [32], 31: [32], 33: [32, 32], 65: [32] * 3,
          77: [32] * 3, 893: [32] * 28}


@pytest.mark.parametrize("n", CHUNKS)
@pytest.mark.parametrize("kind", ["lstm", "ffnn"])
def test_evaluation_in_batch_chunks_equals_sixteen_window_passes(kind, n, monkeypatch):
    """`evaluate` and `fit`'s validation pass run `forward_batch` on
    BATCH_SIZE windows at a time, the last pass padded to full width; the
    predictions and the validation MAE equal, bit for bit, the same windows
    run 16 at a time, whatever the window count. OpenBLAS computes each
    full 16-column block of a GEMM alike at any width, so passes that start
    on multiples of 16 give those windows the same bits, and a padded pass
    has no partial block, which can round apart with the width around it.
    The reference's own last pass is ragged, and at these counts it lands
    on the same bits all the same."""
    rng = np.random.default_rng(4)
    big = dataset.WindowSet(rng.uniform(0, 1, (n, 12)), rng.uniform(0, 1, n))
    small = dataset.WindowSet(rng.uniform(0, 1, (40, 12)), rng.uniform(0, 1, 40))
    model, init = train.FORECASTERS[kind].module, train.FORECASTERS[kind].init
    params = init(12, 3)
    scaler = dataset.ScalerParams(2.0, 7.0)
    sizes, forward = [], model.forward_batch

    def sixteens():
        return np.concatenate([forward(chunk, params)[0]
                               for chunk in np.split(big.inputs, range(16, n - 1, 16))])

    def recorded(inputs, params):
        sizes.append(len(inputs))
        return forward(inputs, params)

    want = scaler.inverse(sixteens())
    monkeypatch.setattr(model, "forward_batch", recorded)
    assert train.evaluate(kind, params, big, scaler).tobytes() == want.tobytes()
    assert sizes == CHUNKS[n]
    sizes.clear()
    history = train.fit(kind, params, small, big, train.TrainConfig(epochs=1, seed=0))
    assert sizes == [32, 8, *CHUNKS[n]]
    assert history[0].val_mae == train.mae(sixteens(), big.targets)
