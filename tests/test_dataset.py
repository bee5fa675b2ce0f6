import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from celltide import dataset


class TestScaler:
    def test_basic_transform(self):
        scaler = dataset.fit_scaler(np.array([0.0, 10.0]))
        assert scaler.transform(np.array([0.0, 5.0, 10.0])).tolist() == [0.0, 0.5, 1.0]

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50))
    def test_roundtrip(self, values):
        values = np.asarray(values)
        if values.max() - values.min() < 1e-6:
            return
        scaler = dataset.fit_scaler(values)
        back = scaler.inverse(scaler.transform(values))
        assert np.max(np.abs(back - values)) < 1e-12 * max(1.0, np.max(np.abs(values)))

    def test_out_of_range_not_clipped(self):
        scaler = dataset.fit_scaler(np.array([0.0, 10.0]))
        assert scaler.transform(np.array([12.0]))[0] == pytest.approx(1.2)

    def test_constant_slice_rejected(self):
        with pytest.raises(ValueError):
            dataset.fit_scaler(np.array([3.0, 3.0, 3.0]))

    def test_no_leakage_fit_on_head_only(self):
        values = np.concatenate([np.linspace(1, 5, 50), [1000.0]])
        scaler = dataset.fit_scaler(values[:50])
        assert scaler.min == 1.0 and scaler.max == 5.0


def all_windows(values, window_len):
    """Stride-1 windows over the whole series: one per target in [T, n)."""
    return dataset.windows_for_range(values, window_len, window_len, len(values))


class TestWindows:
    def test_definition(self):
        ws = all_windows(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        assert ws.inputs.tolist() == [[1.0, 2.0], [2.0, 3.0]]
        assert ws.targets.tolist() == [3.0, 4.0]

    def test_count_for_8928(self):
        ws = all_windows(np.arange(8928.0), 12)
        assert len(ws) == 8916

    def test_single_window_boundary(self):
        ws = all_windows(np.array([1.0, 2.0, 3.0]), 2)
        assert len(ws) == 1

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 1, 40)
        ws = all_windows(values, 7)
        rebuilt = np.concatenate([ws.inputs[0], ws.targets])
        assert np.array_equal(rebuilt, values)

    def test_range_windows_use_preceding_history(self):
        values = np.arange(20.0)
        ws = dataset.windows_for_range(values, 4, 10, 15)
        assert ws.targets.tolist() == values[10:15].tolist()
        assert ws.inputs[0].tolist() == [6.0, 7.0, 8.0, 9.0]

    @pytest.mark.parametrize("window_len", [1, 2, 12, 50])
    @pytest.mark.parametrize("frac", [0.1, 0.4, 0.8])
    def test_split_windows_match_the_loop(self, window_len, frac):
        """Each split's windows equal one slice per target, stacked, and are
        read-only views of the series."""
        values = dataset.gen_synthetic(4, seed=2).values
        spec = dataset.split(len(values), frac)
        for start, stop in [(0, spec.n_train), (spec.val_start, spec.test_start),
                            (spec.test_start, spec.test_start + spec.n_test)]:
            ws = dataset.windows_for_range(values, window_len, start, stop)
            first = max(start, window_len)
            loop = np.stack([values[i - window_len:i] for i in range(first, stop)])
            assert np.array_equal(ws.inputs, loop)
            assert not ws.inputs.flags.writeable and np.shares_memory(ws.inputs, values)


class TestSplit:
    @pytest.mark.parametrize("frac,expected_train", [(0.8, 7142), (0.4, 3571), (0.1, 892)])
    def test_reference_counts(self, frac, expected_train):
        spec = dataset.split(8928, frac)
        assert spec.n_train == expected_train
        assert spec.n_val == 893
        assert spec.n_test == 893

    def test_chronological_layout(self):
        spec = dataset.split(8928, 0.8)
        assert spec.val_start == 7142
        assert spec.test_start == 8035

    def test_default_fraction_splits_every_length(self):
        """At 0.8 every series of 3 or more slots splits: validation and test
        keep ceil(0.10*N) slots each, and training floor(0.8*N) slots unless
        that overruns them, when it takes every slot before them."""
        for n in range(1, 2001):
            n_eval = math.ceil(0.10 * n)
            if n < 3:
                with pytest.raises(ValueError, match="empty part"):
                    dataset.split(n, 0.8)
                continue
            spec = dataset.split(n, 0.8)
            assert (spec.n_val, spec.n_test) == (n_eval, n_eval), n
            assert 1 <= spec.n_train <= math.floor(0.8 * n), n
            total = spec.n_train + spec.n_val + spec.n_test
            assert total == n or spec.n_train == math.floor(0.8 * n), n
            assert total <= n, n

    def test_determinism(self):
        assert dataset.split(5000, 0.4) == dataset.split(5000, 0.4)


class TestSynthetic:
    def test_deterministic_per_seed(self):
        a = dataset.gen_synthetic(3, seed=9)
        b = dataset.gen_synthetic(3, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_62_days_length(self):
        assert len(dataset.gen_synthetic(62, seed=0)) == 8928

    def test_nonnegative(self):
        assert np.all(dataset.gen_synthetic(10, seed=2).values >= 0)

    def test_daily_autocorrelation_peak(self):
        values = dataset.gen_synthetic(14, seed=0).values
        x = values - values.mean()
        full = np.correlate(x, x, mode="full")[len(x) - 1:]
        acf = full / full[0]
        # period-144 lag correlates far better than a half-period offset
        assert acf[144] > 0.9
        assert acf[144] > acf[72] + 0.5
