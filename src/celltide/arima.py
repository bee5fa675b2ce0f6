"""ARIMA(p,d,q) baseline forecaster.

Fitting works on the d-differenced, mean-centered series in two steps:
Hannan-Rissanen (long-AR least squares, then regression on lagged values and
lagged residuals) for starting coefficients, then Nelder-Mead refinement of
the conditional sum of squared innovations with zero pre-sample residuals,
at unit scale over reflection coefficients tanh(u), where every real u is a
valid model. Forecasts are one-step conditional expectations rolled over
true history.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import modelio

MAX_ORDER = 5


class ArimaFitError(RuntimeError):
    """Estimation failed; message advises what to change."""


@dataclass
class ArimaModel:
    p: int
    d: int
    q: int
    phi: np.ndarray     # AR coefficients, length p
    theta: np.ndarray   # MA coefficients, length q
    mu: float           # mean of the d-differenced training series
    sigma2: float       # innovation variance from the CSS at the optimum


_ROOT_MARGIN = 1.0 + 1e-9  # roots must lie strictly beyond this radius


def _reflections(coeffs):
    """Reflection coefficients k1..kn of 1 - c1 z - ... - cn z^n by the
    Schur-Cohn step-down, the inverse of `_from_reflections`; None once one
    has magnitude 1 or more, or is NaN (a root lies on or inside |z| = 1)."""
    a, ks = list(coeffs), []
    for m in range(len(a) - 1, -1, -1):
        k = a[m]
        if not abs(k) < 1.0:
            return None
        ks.append(k)
        s = 1.0 - k * k
        a = [(a[i] + k * a[m - 1 - i]) / s for i in range(m)]
    return ks[::-1]


def _from_reflections(u) -> np.ndarray:
    """Coefficients c of 1 - c1 z - ... - cn z^n whose reflection coefficients
    are tanh(u): the Durbin-Levinson recursion (Jones 1980)."""
    c = []
    for k in np.tanh(u).tolist():
        c = [a - k * b for a, b in zip(c, reversed(c))] + [k]
    return np.array(c)


def _stable(coeffs) -> bool:
    """True when 1 - c1 z - ... - ck z^k has all roots outside |z| = 1 + 1e-9,
    that is when z = (1 + 1e-9) w, which scales c_i by (1 + 1e-9)**i, leaves
    every reflection coefficient below 1 in magnitude."""
    c = [v * _ROOT_MARGIN ** i for i, v in enumerate(coeffs.tolist(), 1)]
    return _reflections(c) is not None


def residuals(y: np.ndarray, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Innovations of a centered ARMA series, conditioning on the first p values
    and zero pre-sample residuals. Length is len(y) - p."""
    p, n = len(phi), len(y)
    u = y[p:].copy()
    for i, ph in enumerate(phi, start=1):
        u -= ph * y[p - i:n - i]
    if len(theta):
        from scipy.signal import lfilter  # imported here: only ARIMA work pays for scipy
        u = lfilter([1.0], np.concatenate(([1.0], theta)), u)
    return u


def css(y: np.ndarray, phi, theta) -> float:
    """Conditional sum of squared innovations."""
    e = residuals(y, phi, theta)
    return float(e @ e)


def hannan_rissanen(y: np.ndarray, p: int, q: int):
    """Starting (phi, theta) for a centered series via the two-stage regression."""
    n = len(y)
    m = min(20, max(n // 10, p + q + 1))  # long-AR order for the residual proxy
    x_long = np.column_stack([y[m - k:n - k] for k in range(1, m + 1)])
    beta, _, rank, _ = np.linalg.lstsq(x_long, y[m:], rcond=None)
    if rank < m:
        raise ArimaFitError("singular least squares in long-AR step; try lower orders")
    e_proxy = np.concatenate([np.zeros(m), y[m:] - x_long @ beta])

    start = m + max(p, q)
    x2 = np.column_stack([y[start - k:n - k] for k in range(1, p + 1)]
                         + [e_proxy[start - k:n - k] for k in range(1, q + 1)])
    coef, _, rank, _ = np.linalg.lstsq(x2, y[start:], rcond=None)
    if rank < p + q:
        raise ArimaFitError("singular least squares in ARMA regression; try lower orders")
    return coef[:p], coef[p:]


def check_length(n: int, order=None) -> None:
    """Raise ValueError if `n` observations are too few to fit `order` (None: the AIC search)."""
    if order is None and n < 200:
        raise ValueError("need at least 200 observations for order selection")
    p, d, q = order or (0, 0, 0)
    if n < 10 * (p + q + 1) + d:
        raise ValueError(f"need at least {10 * (p + q + 1) + d} observations for orders "
                         f"({p},{d},{q}), got {n}")


def fit(series: np.ndarray, p: int, d: int, q: int) -> ArimaModel:
    """Estimate an ARIMA(p,d,q) model on a training series `check_length` accepts."""
    w = np.diff(series, n=d)
    mu = float(np.mean(w))
    y = w - mu
    phi, theta = np.empty(0), np.empty(0)
    if p + q:
        phi0, theta0 = hannan_rissanen(y, p, q)
        u0 = np.zeros(p + q)  # white noise, where HR lands outside the valid region
        if _stable(phi0) and _stable(-theta0):
            u0 = np.arctanh(_reflections(phi0) + _reflections(-theta0))
        z = y / np.std(y)  # unit scale, so Nelder-Mead's tolerances are relative
        from scipy.optimize import minimize
        res = minimize(lambda u: css(z, _from_reflections(u[:p]), -_from_reflections(u[p:])),
                       u0, method="Nelder-Mead",
                       options={"fatol": 1e-8, "xatol": 1e-8, "maxiter": 2000, "maxfev": 4000})
        phi, theta = _from_reflections(res.x[:p]), -_from_reflections(res.x[p:])
        if not (_stable(phi) and _stable(-theta)):
            raise ArimaFitError(
                f"optimum for orders ({p},{d},{q}) is non-stationary or non-invertible; "
                "try different orders")
    sigma2 = css(y, phi, theta) / (len(y) - p)
    return ArimaModel(p, d, q, phi, theta, mu, sigma2)


def forecast_one(model: ArimaModel, history) -> float:
    """The one-step forecast after `history`, of at least p + q + d values: a
    one-slot `rolling_forecast`."""
    n = len(history)  # the appended NaN slot is never read
    return float(rolling_forecast(model, np.append(history, np.nan), (n, n + 1))[0])


def rolling_forecast(model: ArimaModel, series: np.ndarray, test_range) -> np.ndarray:
    """One-step forecasts for every slot t in [start, stop), each conditioned
    on series[:t]. No refitting; one O(N) pass: every history is a prefix of
    the longest, so one differencing and one residual filter serve them all.
    The sums run in the per-slot order (mu, AR terms, MA terms, then the
    integration levels). Every history is a full one: the caller keeps
    p + q + d <= start < stop <= len(series)."""
    start, stop = test_range
    p, d, q = model.p, model.d, model.q
    lasts = np.zeros(stop - start)
    z = series[:stop - 1]
    for k in range(d):
        lasts += z[start - 1 - k:stop - 1 - k]  # last value of level k per slot
        z = np.diff(z)
    y = z - model.mu
    base = start - d  # len(y[:t - d]) for the first slot
    pred = np.full(stop - start, model.mu)
    for i, ph in enumerate(model.phi, start=1):
        pred += ph * y[base - i:stop - d - i]
    if q:
        e = residuals(y, model.phi, model.theta)  # e[m] is the innovation of y[m + p]
        for j, th in enumerate(model.theta, start=1):
            pred += th * e[base - p - j:stop - d - p - j]
    return pred + lasts


def aic(model: ArimaModel, n: int) -> float:
    return n * np.log(model.sigma2) + 2.0 * (model.p + model.q + 1)


def _fit_grid_at(series: np.ndarray, d: int) -> list:
    """((AIC, p+q, d, p, q), model) of each order (p, d, q), p and q in 0..3, that fits."""
    candidates = []
    for p, q in itertools.product(range(4), range(4)):
        try:
            model = fit(series, p, d, q)
        except (ArimaFitError, ValueError):
            continue
        if model.sigma2 > 0:
            candidates.append(((aic(model, len(series)), p + q, d, p, q), model))
    return candidates


def auto_order(series: np.ndarray, map=map) -> ArimaModel:
    """Grid-search p, q in 0..3 and d in 0..1 by AIC and return the winning
    fitted model; ties prefer fewer AR+MA terms, then lower d. All share one
    n, the series length, so a change of units shifts every AIC alike.
    `map` fits the d = 0 and d = 1 halves; each fit is deterministic and each
    key unique, so a map that runs a half in another process picks the same."""
    from scipy import optimize, signal  # noqa: F401  before `map` forks: the worker inherits them
    halves = map(lambda d: _fit_grid_at(series, d), range(2))
    candidates = list(itertools.chain(*halves))
    if not candidates:
        raise ArimaFitError("no ARIMA order in the search grid could be fitted")
    return min(candidates, key=lambda c: c[0])[1]


def serialize(model: ArimaModel) -> str:
    return modelio.dumps({
        "type": "arima",
        "p": model.p, "d": model.d, "q": model.q,
        "phi": model.phi, "theta": model.theta,
        "mu": model.mu, "sigma2": model.sigma2,
    })

