import itertools
import json
import re
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from celltide import arima, dataset

import golden
import oracles


def simulate_arma(n, phi=(), theta=(), sigma=1.0, seed=0, burn=100):
    rng = np.random.default_rng(seed)
    e = rng.normal(0, sigma, n + burn)
    y = np.zeros(n + burn)
    for t in range(max(len(phi), len(theta)), n + burn):
        y[t] = e[t]
        for i, ph in enumerate(phi, start=1):
            y[t] += ph * y[t - i]
        for j, th in enumerate(theta, start=1):
            y[t] += th * e[t - j]
    return y[burn:]


class TestFit:
    def test_ar1_recovery(self):
        hits = 0
        for seed in range(10):
            y = simulate_arma(2000, phi=(0.8,), seed=seed)
            model = arima.fit(y, 1, 0, 0)
            hits += 0.75 <= model.phi[0] <= 0.85
        assert hits >= 9

    def test_white_noise_phi_near_zero(self):
        y = simulate_arma(2000, seed=3)
        model = arima.fit(y, 1, 0, 0)
        assert abs(model.phi[0]) < 0.1

    def test_ramp_with_noise_mu_is_slope(self):
        rng = np.random.default_rng(4)
        s = 3.0 * np.arange(500.0) + rng.normal(0, 0.01, 500)
        model = arima.fit(s, 0, 1, 0)
        assert model.mu == pytest.approx(3.0, abs=0.01)

    def test_css_not_worse_than_initializer(self):
        y = simulate_arma(1500, phi=(0.6,), theta=(0.3,), seed=7)
        w = y - y.mean()
        phi0, theta0 = arima.hannan_rissanen(w, 1, 1)
        model = arima.fit(y, 1, 0, 1)
        assert arima.css(w, model.phi, model.theta) <= arima.css(w, phi0, theta0) + 1e-9

    def test_series_too_short(self):
        with pytest.raises(ValueError):
            arima.check_length(15, (2, 0, 2))

    @pytest.mark.parametrize("d", [0, 1])
    def test_zero_order_sigma2_is_mean_square(self, d):
        """A zero order goes through the CSS like every other order, and
        with no coefficients that is the mean square of the centred series."""
        series = simulate_arma(300, phi=(0.5,), seed=11) + 7.0
        w = np.diff(series, n=d)
        w = w - float(np.mean(w))
        model = arima.fit(series, 0, d, 0)
        assert model.phi.shape == model.theta.shape == (0,)
        assert model.sigma2 == float(w @ w) / len(w)

    def test_sigma2_is_the_css_over_the_conditioned_length(self):
        """At p = 2 the CSS has len(y) - 2 innovations, so sigma2 divides by
        that count, not by len(y)."""
        series = simulate_arma(300, phi=(0.5, -0.3), theta=(0.2,), seed=12) + 3.0
        model = arima.fit(series, 2, 0, 1)
        y = series - model.mu
        assert model.sigma2 == arima.css(y, model.phi, model.theta) / (len(y) - 2)


class TestAic:
    @pytest.mark.parametrize("p, q, sigma2, n", [(0, 0, 1.0, 300), (2, 1, 0.37, 250),
                                                 (3, 3, 4.0, 1000)])
    def test_penalty_counts_the_mean_too(self, p, q, sigma2, n):
        model = arima.ArimaModel(p, 0, q, np.zeros(p), np.zeros(q), mu=0.0, sigma2=sigma2)
        assert arima.aic(model, n) == pytest.approx(n * np.log(sigma2) + 2 * (p + q + 1),
                                                    rel=1e-12, abs=1e-12)


class TestForecastOne:
    def test_mean_model(self):
        model = arima.ArimaModel(0, 0, 0, [], [], mu=4.5, sigma2=1.0)
        assert arima.forecast_one(model, np.array([1.0, 9.0, 2.0])) == 4.5

    def test_random_walk(self):
        model = arima.ArimaModel(1, 0, 0, [1.0], [], mu=0.0, sigma2=1.0)
        assert arima.forecast_one(model, np.array([3.0, 7.0, 11.5])) == 11.5

    def test_martingale_under_differencing(self):
        model = arima.ArimaModel(0, 1, 0, [], [], mu=0.0, sigma2=1.0)
        assert arima.forecast_one(model, np.array([2.0, 5.0, 8.25])) == 8.25

    def test_mean_model_translation_equivariance(self):
        y = simulate_arma(400, seed=5)
        model = arima.fit(y, 0, 0, 0)
        shifted = arima.fit(y + 10.0, 0, 0, 0)
        f = arima.forecast_one(model, y[:200])
        g = arima.forecast_one(shifted, y[:200] + 10.0)
        assert g == pytest.approx(f + 10.0, abs=1e-9)


class TestRollingForecast:
    def test_length_and_constant_mean(self):
        model = arima.ArimaModel(0, 0, 0, [], [], mu=2.0, sigma2=1.0)
        series = np.arange(100.0)
        preds = arima.rolling_forecast(model, series, (80, 100))
        assert len(preds) == 20
        assert np.all(preds == 2.0)

    def test_causality_poisoned_future(self):
        y = simulate_arma(600, phi=(0.7,), seed=9)
        model = arima.fit(y[:500], 1, 0, 0)
        preds = arima.rolling_forecast(model, y, (500, 550))
        poisoned = y.copy()
        poisoned[550:] = 1e6
        assert np.array_equal(arima.rolling_forecast(model, poisoned, (500, 550)), preds)

    def test_ar1_one_step_mae_near_theoretical(self):
        sigma = 1.0
        y = simulate_arma(2500, phi=(0.8,), sigma=sigma, seed=13)
        model = arima.fit(y[:2000], 1, 0, 0)
        preds = arima.rolling_forecast(model, y, (2000, 2500))
        mae = np.mean(np.abs(preds - y[2000:2500]))
        theoretical = sigma * np.sqrt(2 / np.pi)
        assert abs(mae - theoretical) / theoretical < 0.10

    @pytest.mark.parametrize("order", [
        *itertools.product(range(4), range(3), range(4)), (5, 2, 5)])
    def test_matches_per_slot_oracle(self, order):
        # bit-identical to re-filtering each slot's history, from the
        # earliest slot whose history is a full one, p+q+d, on
        p, d, q = order
        rng = np.random.default_rng(100 + 16 * p + 4 * d + q)
        model = arima.ArimaModel(p, d, q, rng.uniform(-0.5, 0.5, p),
                                 rng.uniform(-0.5, 0.5, q), mu=rng.normal(),
                                 sigma2=1.0)
        series = np.cumsum(rng.normal(size=60)) + 5.0
        for start in (p + q + d, p + q + d + 1, 40):
            want = oracles.arima_rolling_forecast(model, series, start, 60)
            assert np.array_equal(arima.rolling_forecast(model, series, (start, 60)), want)
        # forecast_one is the one-slot case, at every history length
        assert [arima.forecast_one(model, series[:t]) for t in range(40, 60)] == want.tolist()
        want = oracles.arima_rolling_forecast(model, series, p + q + d, 40)
        assert [arima.forecast_one(model, series[:t])
                for t in range(p + q + d, 40)] == want.tolist()


class TestAutoOrder:
    def test_ar1_detects_ar_structure(self):
        hits = 0
        for seed in range(10):
            y = simulate_arma(500, phi=(0.8,), seed=seed)
            hits += arima.auto_order(y).p >= 1
        assert hits >= 8

    def test_selected_never_loses_to_mean_model(self):
        # AIC selection, every candidate on the same n: whatever wins must
        # beat the plain-mean candidate
        y = simulate_arma(500, seed=1)
        chosen = arima.auto_order(y)
        mean_model = arima.fit(y, 0, 0, 0)
        assert arima.aic(chosen, len(y)) <= arima.aic(mean_model, len(y)) + 1e-9

    def test_returns_the_fit_of_the_chosen_order(self):
        y = simulate_arma(500, phi=(0.6,), theta=(0.3,), seed=3)
        chosen = arima.auto_order(y)
        again = arima.fit(y, chosen.p, chosen.d, chosen.q)
        assert arima.serialize(chosen) == arima.serialize(again)

    def test_white_noise_variance_not_overfit(self):
        # on pure noise the chosen model must not explain away real variance
        for seed in range(5):
            y = simulate_arma(1000, sigma=2.0, seed=40 + seed)
            model = arima.auto_order(y)
            assert model.sigma2 == pytest.approx(4.0, rel=0.15)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            arima.check_length(100)

    def test_equal_aics_pick_the_fewest_terms_then_the_lower_d(self, monkeypatch):
        monkeypatch.setattr(arima, "aic", lambda model, n: 0.0)
        chosen = arima.auto_order(simulate_arma(300, phi=(0.6,), seed=5))
        assert (chosen.p, chosen.d, chosen.q) == (0, 0, 0)


class TestSharedWork:
    """The order search centres the series and runs Hannan-Rissanen's first
    stage once per d and hands both to every order's `fit`."""

    SERIES = simulate_arma(300, phi=(0.6,), theta=(0.3,), seed=21) + 4.0

    @staticmethod
    def _bits(model):
        return (model.phi.tobytes(), model.theta.tobytes(), model.mu, model.sigma2)

    def test_every_grid_model_equals_a_lone_fit_bit_for_bit(self):
        fitted = 0
        for d in range(2):
            grid = {(m.p, m.q): m for _, m in arima._fit_grid_at(self.SERIES, d)[0]}
            for p, q in itertools.product(range(4), range(4)):
                try:
                    lone = arima.fit(self.SERIES, p, d, q)
                except arima.ArimaFitError:
                    assert (p, q) not in grid
                    continue
                fitted += 1
                assert self._bits(grid[(p, q)]) == self._bits(lone), (p, d, q)
        assert fitted >= 24

    def test_long_ar_regression_runs_once_per_d(self, monkeypatch):
        calls = []
        long_ar = arima.long_ar_residuals
        monkeypatch.setattr(arima, "long_ar_residuals",
                            lambda y: calls.append(len(y)) or long_ar(y))
        arima.auto_order(self.SERIES)
        assert sorted(calls) == [299, 300]

    def test_singular_first_stage_skips_only_the_orders_that_need_it(self, monkeypatch):
        # a straight line: its lagged copies are collinear at d = 0, and at
        # d = 1 the centred series is all zeros
        ramp = 2.0 * np.arange(300.0) + 1.0
        outcomes = {}
        fit = arima.fit

        def recording_fit(series, p, d, q, *shared):
            try:
                outcomes[(p, d, q)] = fit(series, p, d, q, *shared)
            except arima.ArimaFitError as exc:
                outcomes[(p, d, q)] = str(exc)
                raise
            return outcomes[(p, d, q)]

        monkeypatch.setattr(arima, "fit", recording_fit)
        chosen = arima.auto_order(ramp)
        assert (chosen.p, chosen.d, chosen.q) == (0, 0, 0)
        message = "singular least squares in long-AR step; try lower orders"
        assert len(outcomes) == 32
        for (p, d, q), outcome in outcomes.items():
            if p + q:
                assert outcome == message, (p, d, q)
            else:
                assert isinstance(outcome, arima.ArimaModel), (p, d, q)
        monkeypatch.undo()
        for d in range(2):
            with pytest.raises(arima.ArimaFitError, match=f"^{message}$"):
                arima.fit(ramp, 1, d, 1)

    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("q", range(4))
    def test_residuals_match_the_oracle_and_leave_the_input(self, p, q):
        rng = np.random.default_rng(50 + 4 * p + q)
        y = rng.normal(size=200)
        before = y.copy()
        phi, theta = rng.uniform(-0.5, 0.5, p), rng.uniform(-0.5, 0.5, q)
        assert np.array_equal(arima.residuals(y, phi, theta),
                              oracles._arima_residuals(y, phi, theta))
        assert np.array_equal(y, before)

    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("q", range(1, 6))
    @pytest.mark.parametrize("near_unit", [False, True], ids=["random", "near-unit-root"])
    def test_ma_solve_matches_the_recursion_and_lfilter(self, p, q, near_unit):
        """The MA step's band solve against a per-slot recursion,
        e[t] = u[t] - sum_j theta_j e[t-j], and against `lfilter`, within
        1e-12 of the largest innovation (1.3e-14 measured). The near-unit
        theta puts every root of 1 + theta_1 z + ... at |z| = 1 + 5e-4, so the
        solve's errors carry over thousands of slots; one root pair per
        sector of the half circle, because roots clustered near one point make
        the system so ill-conditioned that the three methods part by 1e-11."""
        from scipy.signal import lfilter
        rng = np.random.default_rng(300 + 10 * p + q)
        y = rng.normal(size=3000)
        phi = rng.uniform(-0.5, 0.5, p)
        if near_unit:
            pairs = q // 2
            angles = (np.arange(pairs) + rng.uniform(0.3, 0.7, pairs)) * np.pi / max(pairs, 1)
            inverse_roots = np.concatenate([np.exp(1j * angles), np.exp(-1j * angles),
                                            [rng.choice([-1.0, 1.0])] * (q % 2)])
            theta = np.poly(inverse_roots / (1 + 5e-4))[1:].real
            assert np.allclose(np.abs(np.roots(np.r_[1.0, theta][::-1])), 1 + 5e-4)
        else:
            theta = rng.uniform(-0.5, 0.5, q)
        u = [y[t] - sum(phi[i - 1] * y[t - i] for i in range(1, p + 1))
             for t in range(p, len(y))]
        e = []
        for t, ut in enumerate(u):
            e.append(ut - sum(theta[j - 1] * e[t - j] for j in range(1, min(q, t) + 1)))
        got = arima.residuals(y, phi, theta)
        for want in (np.array(e), lfilter([1.0], np.r_[1.0, theta], np.array(u))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestFirstStage:
    """`long_ar_residuals` fits on a zero-copy lag view and forms the
    residuals over blocks of rows, with the bits of one product over the
    materialised lag matrix."""

    @staticmethod
    def materialised(y, m):
        n = len(y)
        x_long = np.column_stack([y[m - k:n - k] for k in range(1, m + 1)])
        beta = np.linalg.lstsq(x_long, y[m:], rcond=None)[0]
        return np.concatenate([np.zeros(m), y[m:] - x_long @ beta])

    @pytest.mark.parametrize("d", [0, 1])
    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 2049])
    def test_equals_one_product_over_the_lag_matrix(self, rows, d, monkeypatch):
        """n - m rows: one, and either side of the first and second block
        boundaries. `_long_ar_order` gives m = 20 at these lengths; one row
        needs m = 1, which no length gives, so the order is fixed here."""
        m = 1 if rows == 1 else 20
        monkeypatch.setattr(arima, "_long_ar_order", lambda n: m)
        series = simulate_arma(rows + m + d, phi=(0.6,), theta=(0.3,), seed=rows) + 4.0
        y = arima._centre(series, d)[0]
        assert len(y) - m == rows
        assert arima.long_ar_residuals(y).tobytes() == self.materialised(y, m).tobytes()

    def test_a_straight_line_is_singular(self):
        ramp = arima._centre(2.0 * np.arange(300.0) + 1.0, 0)[0]
        with pytest.raises(arima.ArimaFitError,
                           match="^singular least squares in long-AR step; try lower orders$"):
            arima.long_ar_residuals(ramp)

    def test_peaks_below_one_lag_matrix(self):
        """On 25,000 values, below one n-by-m float64 array (4.0 MB): lstsq's
        own copy of the lag view is made by LAPACK's wrapper, outside the
        allocations tracemalloc sees, and the residual blocks are small."""
        y = arima._centre(simulate_arma(25_000, phi=(0.6,), seed=8), 0)[0]
        tracemalloc.start()
        try:
            arima.long_ar_residuals(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25_000 * 20 * 8


def test_a_missing_blas_extension_is_an_import_error_naming_the_file(tmp_path, monkeypatch):
    """The MA solve has no second path: with no `_fblas` file in scipy's
    `linalg/`, the loader raises ImportError with the file's path and
    registers nothing."""
    import scipy
    monkeypatch.delitem(sys.modules, "scipy.linalg._fblas", raising=False)
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg" / "_fblas"))):
        arima.residuals(np.ones(5), np.empty(0), np.array([0.5]))
    assert "scipy.linalg._fblas" not in sys.modules


class TestScale:
    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e6])
    def test_fit_does_not_depend_on_the_scale_of_the_series(self, scale):
        """The search runs on the series divided by its standard deviation and
        AIC scores every candidate on the same n, so at any scale the fit
        finds the same order and coefficients."""
        v = dataset.gen_synthetic(20, seed=3).values
        v = v[:int(0.8 * len(v))]
        base, scaled = arima.auto_order(v), arima.auto_order(v * scale)
        assert (scaled.p, scaled.d, scaled.q) == (base.p, base.d, base.q)
        assert np.allclose(scaled.phi, base.phi, rtol=0, atol=1e-6)
        assert np.allclose(scaled.theta, base.theta, rtol=0, atol=1e-6)
        assert scaled.mu == pytest.approx(base.mu * scale, rel=1e-6)
        assert scaled.sigma2 == pytest.approx(base.sigma2 * scale**2, rel=1e-6)
        scaled_303 = arima.fit(v * scale, 3, 0, 3)
        assert np.allclose(scaled_303.phi, arima.fit(v, 3, 0, 3).phi, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("d", [0, 1])
    def test_a_spread_that_underflows_fails_before_the_objective(self, d):
        """Values near 1e-300 have a standard deviation that underflows to 0,
        so they have no unit scale: the fit raises rather than divide by it,
        and a zero order raises too rather than keep a variance of 0."""
        tiny = np.random.default_rng(0).normal(size=600) * 1e-300
        for p, q in ((1, 1), (0, 0)):
            with pytest.raises(arima.ArimaFitError,
                               match=rf"^orders \({p},{d},{q}\): .* deviation 0 "):
                arima.fit(tiny, p, d, q)

    @pytest.mark.parametrize("value", [0.1, 0.3, 0.7, 5.0])
    def test_a_constant_series_is_modelled_exactly_at_the_zero_order(self, value):
        """A constant series centres to exact zeros, also where its mean
        rounds (300 slots of 0.1 have mean 0.10000000000000002): the zero
        order models it with its value and `sigma2` 0, and an AR order fails
        in Hannan-Rissanen's first stage, not on the scale check."""
        series = np.full(300, value)
        y, mu = arima._centre(series, 0)
        assert (mu, y.any()) == (value, False)
        model = arima.fit(series, 0, 0, 0)
        assert (model.mu, model.sigma2) == (value, 0.0)
        with pytest.raises(arima.ArimaFitError, match="^singular least squares in long-AR"):
            arima.fit(series, 1, 0, 0)

    def test_the_search_reports_its_first_failure(self):
        """Where no order fits, the error names the first failure of the d = 0
        half, in (p, q) order."""
        tiny = np.random.default_rng(0).normal(size=600) * 1e-300
        assert arima._fit_grid_at(tiny, 1) == ([], "orders (0,1,0): the training series "
                                               "has standard deviation 0 after differencing; "
                                               "rescale the series")
        with pytest.raises(arima.ArimaFitError, match=r"^no ARIMA order in the search grid "
                           r"could be fitted: orders \(0,0,0\): .* deviation 0 "):
            arima.auto_order(tiny)


class TestNelderMead:
    """`_nelder_mead` against the scipy routine it ports, at `fit`'s options:
    the same point, evaluation count and iteration count, to the bit."""

    @staticmethod
    def assert_as_scipy(f, x0):
        from scipy.optimize import minimize
        want = minimize(f, x0, method="Nelder-Mead", options={
            "fatol": 1e-8, "xatol": 1e-8, "maxiter": 2000, "maxfev": 4000})
        x, nfev, nit = arima._nelder_mead(f, x0)
        assert np.array_equal(x, want.x)
        assert (nfev, nit) == (want.nfev, want.nit)
        return nfev, nit

    def test_every_css_objective_of_the_golden_slice(self, monkeypatch):
        values = golden.series()
        y = values[:dataset.split(len(values), golden.SEARCH_FRAC).n_train]
        searches, nelder_mead = [], arima._nelder_mead
        monkeypatch.setattr(arima, "_nelder_mead",
                            lambda f, x0: searches.append((f, x0.copy())) or nelder_mead(f, x0))
        arima.auto_order(y)
        monkeypatch.undo()
        assert len(searches) == 30  # the 15 orders with p + q > 0, at d 0 and 1
        for f, x0 in searches:
            self.assert_as_scipy(f, x0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_random_positive_definite_quadratics(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        hessian, centre = a @ a.T + n * np.eye(n), rng.normal(size=n)
        x0 = rng.normal(size=n)
        x0[0] = 0.0  # a zero coordinate takes the fixed first step
        self.assert_as_scipy(lambda x: float((x - centre) @ hessian @ (x - centre)), x0)

    def test_rosenbrock_stops_on_the_iteration_limit(self):
        def rosenbrock(x):
            return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

        assert self.assert_as_scipy(rosenbrock, np.zeros(10))[1] == 2000

    @pytest.mark.parametrize("n", [3, 10])
    def test_a_rough_objective_stops_inside_a_step_on_the_evaluation_budget(self, monkeypatch, n):
        """A hash has no slope to follow, so the simplex never converges and
        the 4,001st evaluation raises in the middle of a step."""
        raised = []

        class Recorded(arima._OutOfEvaluations):
            def __init__(self):
                raised.append(True)

        monkeypatch.setattr(arima, "_OutOfEvaluations", Recorded)
        nfev, _ = self.assert_as_scipy(lambda x: zlib.crc32(x.tobytes()) / 2**32,
                                       np.arange(float(n)))
        assert nfev == 4000 and raised == [True]


class TestReflectionMap:
    def test_every_point_is_valid_and_the_step_down_inverts_the_map(self):
        # the search space: any u gives roots outside the unit circle, and the
        # margin-free step-down recovers the reflection coefficients tanh(u)
        rng = np.random.default_rng(12)
        for _ in range(2000):
            u = rng.uniform(-2.0, 2.0, int(rng.integers(1, arima.MAX_ORDER + 1)))
            c = arima._from_reflections(u)
            # 1 - c1 z - ... - ck z^k, highest power first
            assert np.all(np.abs(np.roots(np.concatenate((-c[::-1], [1.0])))) > 1.0), u
            assert np.allclose(arima._reflections(c), np.tanh(u), rtol=0, atol=1e-9), u


class TestValidity:
    def test_step_down_matches_root_oracle(self):
        # random, boundary-hugging (roots at radius exp(N(0, 0.05))),
        # zero-trailing and non-finite coefficient vectors of every length
        rng = np.random.default_rng(11)
        cases = []
        for _ in range(3000):
            k = int(rng.integers(0, arima.MAX_ORDER + 1))
            cases.append(rng.uniform(-2.0, 2.0, k) * rng.choice([0.1, 0.5, 1.0]))
            roots = []
            while len(roots) < k:
                r, ang = np.exp(rng.normal(0.0, 0.05)), rng.uniform(0.0, np.pi)
                if len(roots) + 2 <= k and rng.random() < 0.7:
                    roots += [r * np.exp(1j * ang), r * np.exp(-1j * ang)]
                else:
                    roots.append(r * rng.choice([-1.0, 1.0]))
            # 1 - c1 z - ... - ck z^k = prod(1 - z / root)
            cases.append(-np.poly(1.0 / np.array(roots)).real[1:] if k else np.empty(0))
            if k:
                c = cases[-2].copy()
                c[-1] = 0.0
                cases.append(c)
                c = cases[-3].copy()
                c[rng.integers(0, k)] = rng.choice([np.nan, np.inf, -np.inf])
                cases.append(c)
        # a root just inside and just beyond the 1 + 1e-9 margin
        for r in (1.0 + 5e-10, 1.0 + 2e-9):
            cases += [np.array([1.0 / r]), np.array([0.0, 1.0 / r**2])]
        assert len(cases) >= 10_000
        for c in cases:
            assert arima._stable(c) == oracles.arima_stationary(c), c
            assert arima._stable(-c) == oracles.arima_invertible(c), c
        assert not any(arima._stable(c) for c in cases if not np.all(np.isfinite(c)))


class TestSerialization:
    def test_roundtrip(self):
        y = simulate_arma(800, phi=(0.5,), theta=(0.2,), seed=2)
        model = arima.fit(y, 1, 1, 1)
        back = json.loads(arima.serialize(model))
        assert list(back) == ["type", "p", "d", "q", "phi", "theta", "mu", "sigma2"]
        assert (back["type"], back["p"], back["d"], back["q"]) == ("arima", 1, 1, 1)
        assert np.array_equal(back["phi"], model.phi)
        assert np.array_equal(back["theta"], model.theta)
        assert back["mu"] == model.mu and back["sigma2"] == model.sigma2

    def test_heads_of_older_files_ignored(self):
        """Older model files carry `heads`, the first value of each
        differencing level; no forecast reads it, and it is not written."""
        model = arima.fit(simulate_arma(400, phi=(0.4,), theta=(), seed=5), 1, 1, 0)
        assert '"heads"' not in arima.serialize(model)

    def test_exact_bytes(self):
        """Key order and shortest round-trip floats, pinned."""
        model = arima.ArimaModel(2, 1, 0, np.array([0.5, -0.25]), np.empty(0),
                                 mu=1 / 3, sigma2=0.1)
        assert arima.serialize(model) == (
            '{"type": "arima", "p": 2, "d": 1, "q": 0, "phi": [0.5, -0.25], "theta": [], '
            '"mu": 0.3333333333333333, "sigma2": 0.1}')

    def test_exact_fit_round_trips(self):
        """`fit` gives a variance of 0 to a series it models exactly, and its
        model file holds that 0."""
        model = arima.fit(np.full(40, 3.0), 0, 1, 0)
        assert model.sigma2 == 0.0
        back = json.loads(arima.serialize(model))
        assert back["sigma2"] == 0.0 and back["mu"] == model.mu
