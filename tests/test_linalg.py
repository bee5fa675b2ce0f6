import numpy as np
import pytest
from hypothesis import given, strategies as st

from celltide import linalg


class TestActivations:
    def test_sigmoid_zero(self):
        assert linalg.sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_reference_value(self):
        # 1/(1+e^-2) to full double precision
        assert linalg.sigmoid(np.array([2.0]))[0] == pytest.approx(
            0.8807970779778823, abs=1e-15)

    @given(st.floats(min_value=-700, max_value=700))
    def test_sigmoid_symmetry_and_range(self, x):
        s, s_neg = linalg.sigmoid(np.array([x, -x]))
        assert 0.0 < s < 1.0
        assert s_neg == pytest.approx(1.0 - s, abs=1e-15)

    def test_sigmoid_monotone(self):
        xs = np.linspace(-700, 700, 2001)
        ys = linalg.sigmoid(xs)
        assert np.all(np.diff(ys) >= 0)
        assert np.all((ys > 0) & (ys < 1))


class TestFlatViews:
    LAYOUT = [("a", (2, 3)), ("b", (3,))]

    def test_views_in_layout_order(self):
        views = linalg.FlatViews(self.LAYOUT)
        views.flat[...] = np.arange(9.0)
        assert views["a"].tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        assert views["b"].tolist() == [6.0, 7.0, 8.0]
        views["b"][0] = -1.0
        assert views.flat[6] == -1.0

    def test_default_is_a_fresh_zeroed_buffer(self):
        views = linalg.FlatViews(self.LAYOUT)
        assert views.flat.shape == (9,) and views.flat.dtype == np.float64
        assert not np.any(views.flat)
        assert not np.shares_memory(views.flat, linalg.FlatViews(self.LAYOUT).flat)

    def test_views_read_as_attributes(self):
        views = linalg.FlatViews(self.LAYOUT)
        assert views.a is views["a"] and views.b is views["b"]
        views.a[1, 2] = 4.0
        assert views.flat[5] == 4.0
        with pytest.raises(AttributeError, match="c"):
            views.c
