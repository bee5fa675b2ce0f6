"""ARIMA(p,d,q) baseline forecaster.

Fitting works on the d-differenced, mean-centered series in two steps:
Hannan-Rissanen (long-AR least squares, then regression on lagged values and
lagged residuals) for starting coefficients, then Nelder-Mead refinement of
the conditional sum of squared innovations with zero pre-sample residuals,
at unit scale over reflection coefficients tanh(u), where every real u is a
valid model. Nelder-Mead is an in-package port of scipy's, so of scipy only
the package and the BLAS extension of the MA band solve are loaded, not
`scipy.linalg`. Forecasts are one-step conditional expectations rolled over
true history.
"""

import dataclasses
import importlib.util
import itertools
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from . import Failure, modelio

MAX_ORDER = 5
_LAG_BLOCK = 1024  # rows per product in `long_ar_residuals`: a power of two cuts no BLAS tile


class ArimaFitError(Failure):
    """Estimation failed; message advises what to change."""


@dataclasses.dataclass
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


def _fblas():
    """scipy's f2py BLAS extension, loaded from its file without running
    `scipy.linalg` (74 more modules, about 24 MB) and registered under its
    own name, so that `import scipy.linalg` before or after shares it."""
    name = "scipy.linalg._fblas"
    if name not in sys.modules:
        import scipy  # first, so that Windows wheels set up their DLLs
        folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        spec = FileFinder(folder, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        if spec is None:
            raise ImportError(f"no {os.path.join(folder, '_fblas' + EXTENSION_SUFFIXES[0])}")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def residuals(y: np.ndarray, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Innovations of a centered ARMA series, conditioning on the first p values
    and zero pre-sample residuals. Length is len(y) - p; with p = q = 0 it is
    `y` itself. The AR terms are subtracted in turn, in the order of a per-slot
    sum, the first one straight into the result and each later one through one
    reused buffer. The MA part then solves the unit lower-triangular band
    system (1 + theta_1 B + ... + theta_q B^q) e = u by forward substitution,
    one BLAS call on a band whose every column is (1, theta_1, ..., theta_q);
    only the AR stage's temporary is overwritten, never `y`. Callers keep
    len(y) > p whenever q > 0: with no innovation to solve for, the BLAS
    call raises."""
    p, n = len(phi), len(y)
    u = y
    if p:
        u = np.multiply(phi[0], y[p - 1:n - 1])
        np.subtract(y[p:], u, out=u)
        buf = np.empty_like(u)
        for i in range(2, p + 1):
            u -= np.multiply(phi[i - 1], y[p - i:n - i], out=buf)
    if q := len(theta):
        # the transpose of a C-contiguous (n, q+1) tile is F-contiguous: f2py copies nothing
        band = np.tile(np.concatenate(([1.0], theta)), len(u)).reshape(len(u), q + 1).T
        u = _fblas().dtbsv(q, band, u, lower=1, diag=1, overwrite_x=p > 0)
    return u


def css(y: np.ndarray, phi, theta) -> float:
    """Conditional sum of squared innovations."""
    e = residuals(y, phi, theta)
    return float(e @ e)


def _long_ar_order(n: int) -> int:
    """The first stage's AR order for n values. `check_length` keeps
    n >= 10 * (p + q + 1), so it exceeds p + q at every fitted order."""
    return min(20, n // 10)


def long_ar_residuals(y: np.ndarray) -> np.ndarray:
    """Hannan-Rissanen's first stage: the residuals of a least-squares AR(m)
    fit to a centered series, m = `_long_ar_order(len(y))`, behind m zeros. It
    does not depend on the orders, so the order search runs it once per d.
    Its one n-by-m array is lstsq's own copy of the zero-copy lag view."""
    n, m = len(y), _long_ar_order(len(y))
    lags = np.lib.stride_tricks.sliding_window_view(y[:n - 1], m)[:, ::-1]  # row i: y[i+m-1..i]
    beta, _, rank, _ = np.linalg.lstsq(lags, y[m:], rcond=None)
    if rank < m:
        raise ArimaFitError("singular least squares in long-AR step; try lower orders")
    e = np.zeros(n)
    cuts = [*range(0, max(n - m - _LAG_BLOCK, 0) + 1, _LAG_BLOCK), n - m]
    for lo, hi in itertools.pairwise(cuts):  # C-ordered and never one row, so `@` runs gemv
        e[m + lo:m + hi] = y[m + lo:m + hi] - lags[lo:hi].copy() @ beta
    return e


def hannan_rissanen(y: np.ndarray, p: int, q: int, e_proxy=None):
    """Starting (phi, theta) for a centered series via the two-stage regression:
    lagged values and lagged residual proxies `e_proxy`, which default to
    `long_ar_residuals(y)`."""
    if e_proxy is None:
        e_proxy = long_ar_residuals(y)
    n = len(y)
    start = _long_ar_order(n) + max(p, q)
    x2 = np.column_stack([y[start - k:n - k] for k in range(1, p + 1)]
                         + [e_proxy[start - k:n - k] for k in range(1, q + 1)])
    coef, _, rank, _ = np.linalg.lstsq(x2, y[start:], rcond=None)
    if rank < p + q:
        raise ArimaFitError("singular least squares in ARMA regression; try lower orders")
    return coef[:p], coef[p:]


class _OutOfEvaluations(Exception):
    """`_nelder_mead`'s evaluation budget is spent."""


def _nelder_mead(f, x0):
    """Minimise f from x0 by the simplex of Nelder & Mead (1965): a port of
    scipy 1.17.1's non-adaptive, unbounded Nelder-Mead at fatol = xatol =
    1e-8, maxiter 2000 and maxfev 4000, which takes its steps bit for bit:
    the same simplex, sorts, operand order and budget stop. Returns
    (x, nfev, nit)."""
    tol, maxiter, maxfev = 1e-8, 2000, 4000
    n, nfev, nit = len(x0), 0, 1

    def evaluate(x):  # past the budget it raises, and the step so far stands
        nonlocal nfev
        if nfev >= maxfev:
            raise _OutOfEvaluations
        nfev += 1
        return f(x)

    def ordered(sim, fsim):
        order = np.argsort(fsim)
        return np.take(sim, order, 0), np.take(fsim, order, 0)

    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    # sorted twice, as scipy does: the default argsort need not keep ties in place
    sim, fsim = ordered(*ordered(sim, np.array([evaluate(x) for x in sim])))
    while nfev < maxfev and nit < maxiter:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= tol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= tol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = evaluate(xr)
            if fxr < fsim[0]:  # expand, or else reflect
                xe = 3 * xbar - 2 * sim[-1]
                fxe = evaluate(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:  # reflect
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract outside or inside, or else shrink towards the best
                outside = fxr < fsim[-1]
                xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
                fxc = evaluate(xc)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = evaluate(sim[j])
            nit += 1
        except _OutOfEvaluations:
            pass
        sim, fsim = ordered(sim, fsim)
    return sim[0], nfev, nit


def check_length(n: int, order=None) -> None:
    """Raise ValueError if `n` observations are too few to fit `order` (None: the AIC search)."""
    if order is None and n < 200:
        raise ValueError(f"need at least 200 observations for order selection, got {n}")
    p, d, q = order or (0, 0, 0)
    if n < 10 * (p + q + 1) + d:
        raise ValueError(f"need at least {10 * (p + q + 1) + d} observations for orders "
                         f"({p},{d},{q}), got {n}")


def _centre(series: np.ndarray, d: int):
    """The d-differenced series minus its mean, and that mean: for a
    constant one, whose mean can round (0.1 three hundred times), exact
    zeros and its value."""
    w = np.diff(series, n=d)
    if (w == w[0]).all():
        return np.zeros_like(w), float(w[0])
    mu = float(np.mean(w))
    return w - mu, mu


def fit(series: np.ndarray, p: int, d: int, q: int, shared=None) -> ArimaModel:
    """Estimate an ARIMA(p,d,q) model on a training series `check_length` accepts.
    `shared` is the order search's (y, mu, e_proxy) for this series and d:
    `_centre`'s pair and `long_ar_residuals(y)`, or None where that failed."""
    y, mu, e_proxy = shared or (*_centre(series, d), None)
    scale = np.std(y)
    if not scale > 0 and y.any():  # underflowed: values near 1e-300 have no spread
        raise ArimaFitError(f"orders ({p},{d},{q}): the training series has standard "
                            f"deviation {scale:g} after differencing; rescale the series")
    phi, theta = np.empty(0), np.empty(0)
    if p + q:
        phi0, theta0 = hannan_rissanen(y, p, q, e_proxy)
        u0 = np.zeros(p + q)  # white noise, where HR lands outside the valid region
        if _stable(phi0) and _stable(-theta0):
            u0 = np.arctanh(_reflections(phi0) + _reflections(-theta0))
        z = y / scale  # unit scale, so Nelder-Mead's tolerances are relative
        u = _nelder_mead(lambda v: css(z, _from_reflections(v[:p]), -_from_reflections(v[p:])),
                         u0)[0]
        phi, theta = _from_reflections(u[:p]), -_from_reflections(u[p:])
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


def rolling_forecast(model: ArimaModel, series: np.ndarray, slots) -> np.ndarray:
    """One-step forecasts for every slot t in `slots` = [start, stop), each conditioned
    on series[:t]. No refitting; one O(N) pass: every history is a prefix of
    the longest, so one differencing and one residual filter serve them all.
    The sums run in the per-slot order (mu, AR terms, MA terms, then the
    integration levels). Every history is a full one: the caller keeps
    p + q + d <= start < stop <= len(series)."""
    start, stop = slots
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


def _fit_grid_at(series: np.ndarray, d: int) -> tuple:
    """((AIC, p+q, d, p, q), model) of each order (p, d, q), p and q in 0..3, that
    fits, and the first failure's message, or None. Centring and the first stage
    run once for all 16; each p + q > 0 order raises a singular first stage again."""
    y, mu = _centre(series, d)
    try:
        e_proxy = long_ar_residuals(y)
    except ArimaFitError:
        e_proxy = None
    candidates, failure = [], None
    for p, q in itertools.product(range(4), range(4)):
        try:
            model = fit(series, p, d, q, (y, mu, e_proxy))
        except (ArimaFitError, ValueError) as exc:
            failure = failure or str(exc)
            continue
        if model.sigma2 > 0:
            candidates.append(((aic(model, len(series)), p + q, d, p, q), model))
    return candidates, failure


def auto_order(series: np.ndarray, map=map) -> ArimaModel:
    """Grid-search p, q in 0..3 and d in 0..1 by AIC and return the winning
    fitted model; ties prefer fewer AR+MA terms, then lower d. All share one
    n, the series length, so a change of units shifts every AIC alike.
    `map` fits the d = 0 and d = 1 halves; each fit is deterministic and each
    key unique, so a map that runs a half in another process picks the same."""
    _fblas()  # loaded before `map` forks, so that the worker inherits it
    halves = list(map(lambda d: _fit_grid_at(series, d), range(2)))
    candidates = [c for found, _ in halves for c in found]
    if not candidates:
        why = next(filter(None, (f for _, f in halves)), "no variance is above 0")
        raise ArimaFitError(f"no ARIMA order in the search grid could be fitted: {why}")
    return min(candidates, key=lambda c: c[0])[1]


def serialize(model: ArimaModel) -> str:
    return modelio.dumps({"type": "arima", **dataclasses.asdict(model)})


class Forecaster:
    """The kind table's ARIMA row: the order of `--p/--d/--q`, or for None the
    AIC search, its halves mapped by the `map` it is given; the model is an ArimaModel."""
    report_files = ()  # `report` writes no file

    @staticmethod
    def setup(data, args) -> None:
        check_length(data.spec.n_train, args.order)  # the library does not check again
        data.order = args.order

    def fit(self, data, map) -> tuple:
        y = data.values[:data.spec.n_train]
        if data.order is not None:
            return fit(y, *data.order), []  # the module's `fit`, not this method
        model = auto_order(y, map=map)
        return model, [f"selected order ({model.p},{model.d},{model.q})"]

    def forecast(self, model, data, lo, hi):
        return rolling_forecast(model, data.values, (lo, hi))

    def dumps(self, model, data) -> str:
        return serialize(model)

    def report(self, model, scores, out) -> dict:
        return {"order": [model.p, model.d, model.q], **scores}

