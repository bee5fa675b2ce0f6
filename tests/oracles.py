"""Independent scalar-loop reference implementations used to check the
vectorized models. Pure Python + math on purpose: no shared code paths with
the package internals beyond reading parameter values element by element.
The ARIMA references are the straightforward numpy forms instead (a root
solve, one innovation filter per forecast slot, the same BLAS band solve as
the package's), since the package's one-pass versions must reproduce their
decisions and bits exactly; `tests/test_arima.py` checks that solve against a
per-slot recursion and `scipy.signal.lfilter`. The CDR
ingest reference shares only `cdr.parse_line`, whose checks are tested on
their own, and adds one record at a time."""

import math
import os

import numpy as np
from scipy.linalg.blas import dtbsv

from celltide import cdr

CDR_COLUMNS = ("grid_id", "timestamp_ms", "country_code",
               "sms_in", "sms_out", "call_in", "call_out", "internet")


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def lstm_forward_scalar(window, p) -> float:
    """Evaluate the gate/state recursions element by element, then the
    sigmoid output head, for one window."""
    h = p.hidden
    w_f, w_i, w_c, w_o = p.W_f.tolist(), p.W_i.tolist(), p.W_c.tolist(), p.W_o.tolist()
    b_f, b_i, b_c, b_o = p.b_f.tolist(), p.b_i.tolist(), p.b_c.tolist(), p.b_o.tolist()
    a = [0.0] * h
    c = [0.0] * h
    for x in window:
        z = list(a) + [float(x)]
        g_f = [_sigmoid(sum(w_f[j][k] * z[k] for k in range(h + 1)) + b_f[j]) for j in range(h)]
        g_i = [_sigmoid(sum(w_i[j][k] * z[k] for k in range(h + 1)) + b_i[j]) for j in range(h)]
        c_u = [math.tanh(sum(w_c[j][k] * z[k] for k in range(h + 1)) + b_c[j]) for j in range(h)]
        g_o = [_sigmoid(sum(w_o[j][k] * z[k] for k in range(h + 1)) + b_o[j]) for j in range(h)]
        c = [g_f[j] * c[j] + g_i[j] * c_u[j] for j in range(h)]
        a = [g_o[j] * math.tanh(c[j]) for j in range(h)]
    score = sum(p.W_y[0][j] * a[j] for j in range(h)) + p.b_y[0]
    return _sigmoid(score)


def ffnn_forward_scalar(window, p) -> float:
    hidden = p.hidden
    t_len = p.W1.shape[1]
    h = []
    for j in range(hidden):
        pre = sum(p.W1[j][k] * float(window[k]) for k in range(t_len)) + p.b1[j]
        h.append(pre if pre > 0 else 0.0)
    score = sum(p.W2[0][j] * h[j] for j in range(hidden)) + p.b2[0]
    return _sigmoid(score)


def numeric_gradients(forward_fn, window, params, eps: float = 1e-5):
    """Central finite differences of forward_fn(window, params) w.r.t. every
    entry of the flat weight buffer `params.flat`, as one array in its layout."""
    flat = params.flat
    grads = np.empty_like(flat)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + eps
        y_plus = forward_fn(window, params)
        flat[idx] = orig - eps
        y_minus = forward_fn(window, params)
        flat[idx] = orig
        grads[idx] = (y_plus - y_minus) / (2.0 * eps)
    return grads


def max_relative_error(analytic, numeric, floor: float = 1e-5) -> float:
    """Worst elementwise |a - n| / max(|a|, |n|, floor) over two flat
    gradients of one shape.

    The floor sits at the finite-difference step size: below that scale the
    central-difference estimate is dominated by its own truncation error, so a
    smaller denominator would measure oracle noise rather than gradient bugs.
    """
    assert analytic.shape == numeric.shape, (analytic.shape, numeric.shape)
    worst = 0.0
    for a, n in zip(analytic.tolist(), numeric.tolist()):
        worst = max(worst, abs(a - n) / max(abs(a), abs(n), floor))
    return worst


def arima_stationary(coeffs) -> bool:
    """True when 1 - c1 z - ... - ck z^k has all roots outside |z| = 1 + 1e-9,
    by an eigenvalue root solve; non-finite coefficients are rejected."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if not np.all(np.isfinite(coeffs)):
        return False
    if len(coeffs) == 0:
        return True
    poly = np.concatenate(([1.0], -coeffs))
    roots = np.roots(poly[::-1])  # np.roots wants the z^k coefficient first
    return bool(len(roots) == 0 or np.min(np.abs(roots)) > 1.0 + 1e-9)


def arima_invertible(theta) -> bool:
    """True when 1 + t1 z + ... + tq z^q has all roots outside |z| = 1 + 1e-9."""
    return arima_stationary(-np.asarray(theta, dtype=np.float64))


def _arima_residuals(y, phi, theta):
    p, n = len(phi), len(y)
    u = y[p:].copy()
    for i, ph in enumerate(phi, start=1):
        u -= ph * y[p - i:n - i]
    if q := len(theta):
        # forward substitution through (1 + theta_1 B + ... + theta_q B^q) e = u,
        # the unit lower band stored as one (1, theta) column per slot
        band = np.empty((q + 1, len(u)), order="F")
        band[:] = np.concatenate(([1.0], theta))[:, None]
        u = dtbsv(q, band, u, lower=1, diag=1)
    return u


def arima_forecast_one(model, history) -> float:
    """One-step conditional expectation from the history alone: difference,
    centre and filter the whole history again for this one slot."""
    history = np.asarray(history, dtype=np.float64)
    if len(history) < model.p + model.d:
        raise ValueError("history too short")
    z = history
    lasts = 0.0
    for _ in range(model.d):
        lasts += z[-1]
        z = np.diff(z)
    y = z - model.mu
    pred = model.mu
    for i, ph in enumerate(model.phi, start=1):
        pred += ph * y[-i]
    if model.q and len(y) > model.p:
        e = _arima_residuals(y, model.phi, model.theta)
        for j, th in enumerate(model.theta, start=1):
            if j <= len(e):
                pred += th * e[-j]
    return float(pred + lasts)


def arima_rolling_forecast(model, series, start: int, stop: int) -> np.ndarray:
    """Per-slot loop: slot t forecast from series[:t], O(N) work per slot."""
    series = np.asarray(series, dtype=np.float64)
    return np.array([arima_forecast_one(model, series[:t]) for t in range(start, stop)])


def cdr_ingest_reference(dir_path: str, grid_id: int, channel: str):
    """Per-record ingest of a directory of CDR day files: every parsed line
    becomes a record, records of other grids are dropped, the origin and span
    come from the smallest and largest timestamps, and each record is added
    to its slot one at a time, files in name order and lines in file order.
    Returns (t0_ms, values)."""
    records = []
    for name in sorted(os.listdir(dir_path)):
        with open(os.path.join(dir_path, name), encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                fields = cdr.parse_line(line, lineno)
                if fields is not None:
                    record = dict(zip(CDR_COLUMNS, fields))
                    if record["grid_id"] == grid_id:
                        records.append(record)
    first = min(r["timestamp_ms"] for r in records)
    last = max(r["timestamp_ms"] for r in records)
    t0_ms = first - first % 600_000
    values = [0.0] * ((last - t0_ms) // 600_000 + 1)
    for r in records:
        values[(r["timestamp_ms"] - t0_ms) // 600_000] += r[channel]
    return t0_ms, np.array(values)
