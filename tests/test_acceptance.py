"""End-to-end acceptance gate. Each test prints one PASS/FAIL line so the
whole checklist is visible in `pytest -s` output."""

import csv
import json
import os
import time

import numpy as np
import pytest

from celltide import arima, cdr, cli, dataset, ffnn, lstm, train
from celltide.cli import main
from oracles import (ffnn_forward_scalar, lstm_forward_scalar,
                     max_relative_error, numeric_gradients)

T0 = 1_383_260_400_000


def check(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def forward1(model, window, params):
    """One window through `model.forward_batch` as a batch of one."""
    y, caches = model.forward_batch(np.asarray(window, dtype=np.float64)[None, :], params)
    return float(y[0]), caches


def test_gradient_correctness():
    """Analytic gradients vs central finite differences, 100 random configs
    per model, relative error < 1e-4, under 60 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = {"lstm": 0.0, "ffnn": 0.0}
    for i in range(100):
        h = int(rng.integers(1, 9))
        t_len = int(rng.integers(1, 9))
        upstream = float(rng.uniform(0.5, 2.0)) * (1 if i % 2 else -1)
        window = rng.uniform(0, 1, t_len)

        p = lstm.init_params(h, seed=int(rng.integers(1 << 30)))
        _, caches = forward1(lstm, window, p)
        analytic = lstm.backward_batch(caches, np.array([upstream]), p)
        numeric = numeric_gradients(
            lambda w, q: upstream * forward1(lstm, w, q)[0], window, p)
        worst["lstm"] = max(worst["lstm"], max_relative_error(analytic, numeric))

        f = ffnn.init_params(t_len, seed=int(rng.integers(1 << 30)))
        _, cache = forward1(ffnn, window, f)
        analytic = ffnn.backward_batch(cache, np.array([upstream]), f)
        numeric = numeric_gradients(
            lambda w, q: upstream * forward1(ffnn, w, q)[0], window, f)
        worst["ffnn"] = max(worst["ffnn"], max_relative_error(analytic, numeric))
    elapsed = time.perf_counter() - start
    check("gradient correctness (100 configs each)",
          worst["lstm"] < 1e-4 and worst["ffnn"] < 1e-4 and elapsed < 60,
          f"worst lstm {worst['lstm']:.2e}, ffnn {worst['ffnn']:.2e}, {elapsed:.1f}s")


def test_forward_oracle_equivalence():
    """Vectorized forward pass equals the scalar-loop reference, 50 instances,
    within 1e-12."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        h = int(rng.integers(1, 7))
        t_len = int(rng.integers(1, 9))
        window = rng.uniform(-1, 2, t_len)
        p = lstm.init_params(h, seed=int(rng.integers(1 << 30)))
        worst = max(worst, abs(forward1(lstm, window, p)[0] - lstm_forward_scalar(window, p)))
        f = ffnn.init_params(t_len, seed=int(rng.integers(1 << 30)))
        worst = max(worst, abs(forward1(ffnn, window, f)[0] - ffnn_forward_scalar(window, f)))
    check("forward-pass oracle equivalence (50 instances)", worst < 1e-12,
          f"worst abs diff {worst:.2e}")


def test_split_arithmetic():
    results = {frac: dataset.split(8928, frac) for frac in (0.8, 0.4, 0.1)}
    ok = (results[0.8].n_train, results[0.8].n_val, results[0.8].n_test) == (7142, 893, 893) \
        and results[0.4].n_train == 3571 and results[0.1].n_train == 892 \
        and all(s.n_val == 893 and s.n_test == 893 for s in results.values())
    check("split arithmetic 8928 @ {0.8, 0.4, 0.1}", ok,
          ", ".join(f"{f}: {s.n_train}/{s.n_val}/{s.n_test}" for f, s in results.items()))


def test_arima_ar1_recovery():
    """fit(1,0,0) on simulated AR(1), phi=0.8, n=2000: phi-hat in [0.75, 0.85]
    for >= 95 of 100 seeds, under 120 s."""
    start = time.perf_counter()
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        e = rng.normal(0, 1, 2100)
        y = np.zeros(2100)
        for t in range(1, 2100):
            y[t] = 0.8 * y[t - 1] + e[t]
        model = arima.fit(y[100:], 1, 0, 0)
        hits += 0.75 <= model.phi[0] <= 0.85
    elapsed = time.perf_counter() - start
    check("ARIMA AR(1) recovery (100 seeds)", hits >= 95 and elapsed < 120,
          f"{hits}/100 in range, {elapsed:.1f}s")


def _window_sets(values, frac, window=12):
    spec = dataset.split(len(values), frac)
    scaler = dataset.fit_scaler(values[:spec.n_train])
    normed = scaler.transform(values)
    tr = dataset.windows_for_range(normed, window, 0, spec.n_train)
    va = dataset.windows_for_range(normed, window, spec.val_start, spec.test_start)
    return tr, va


def test_convergence_speed_property():
    """LSTM learns faster than the feed-forward baseline on the synthetic
    62-day series with the fixed 20-epoch budget, in >= 7/10 seeds per regime.
    The 20 (split, seed) cells are independent: `cli._map_in_two` fits half
    of them in its one worker, seeds 5-9 of both splits."""
    start = time.perf_counter()
    values = dataset.gen_synthetic(62, seed=7).values
    windows = {frac: _window_sets(values, frac) for frac in (0.4, 0.1)}

    def epochs_to_threshold(history, threshold=0.05):
        return next((i + 1 for i, v in enumerate(r.train_mae for r in history) if v < threshold),
                    len(history) + 1)

    def lstm_wins(cell):
        frac, seed = cell
        cfg = train.TrainConfig(epochs=20, seed=seed)
        _, h_lstm = train.train_model("lstm", *windows[frac], cfg)
        _, h_ffnn = train.train_model("ffnn", *windows[frac], cfg)
        if frac == 0.4:
            return epochs_to_threshold(h_lstm) <= epochs_to_threshold(h_ffnn)
        return h_lstm[-1].val_mae < 0.1 and h_ffnn[-1].val_mae >= 1.5 * h_lstm[-1].val_mae

    wins = cli._map_in_two(lstm_wins, [(frac, seed) for seed in range(10)
                                       for frac in (0.4, 0.1)])
    medium_wins, small_wins = sum(wins[0::2]), sum(wins[1::2])
    elapsed = time.perf_counter() - start
    check("convergence speed: medium split, LSTM epochs-to-0.05 <= FFNN",
          medium_wins >= 7, f"{medium_wins}/10 seeds")
    check("convergence speed: small split, LSTM val < 0.1 and FFNN >= 1.5x",
          small_wins >= 7, f"{small_wins}/10 seeds")
    check("convergence runtime budget", elapsed < 900, f"{elapsed:.0f}s")


def _write_fixture_dir(root, days=3, slots_per_day=12):
    raw = root / "raw"
    raw.mkdir()
    rng = np.random.default_rng(5)
    total = 0.0
    for day in range(days):
        with open(raw / f"day{day:02d}.txt", "w") as fh:
            for slot in range(slots_per_day):
                ts = T0 + (day * slots_per_day + slot) * 600_000
                for country in (39, 44):
                    v = float(rng.uniform(0, 30))
                    total += v
                    fh.write(f"1\t{ts}\t{country}\t0.1\t0.2\t0.3\t0.4\t{v:.6f}\n")
                fh.write(f"2\t{ts}\t39\t\t\t\t\t99.0\n")
    return raw, total


def test_ingestion_conservation_and_determinism(tmp_path):
    raw, total_mass = _write_fixture_dir(tmp_path)
    outs = []
    for name in ("s1.csv", "s2.csv"):
        assert main(["ingest", "--input-dir", str(raw), "--grid", "1",
                     "--channel", "internet", "--out", str(tmp_path / name)]) == 0
        outs.append((tmp_path / name).read_bytes())
    series = cdr.read_series_csv(str(tmp_path / "s1.csv"))
    mass_ok = abs(series.values.sum() - total_mass) <= 1e-9 * total_mass
    check("ingestion: byte-identical re-ingestion", outs[0] == outs[1])
    check("ingestion: activity mass conserved (1e-9 relative)", mass_ok,
          f"in {total_mass!r} out {series.values.sum()!r}")


def _history_rows_without_wall(path):
    with open(path) as fh:
        return [row[:3] for row in csv.reader(fh)]


def _report_without_wall(path):
    obj = json.loads(path.read_text())
    for model in obj.get("models", {}).values():
        model.pop("train_wall_ms", None)
    return obj


def test_compare_end_to_end_determinism(tmp_path):
    """cmd_compare twice with one seed: predictions byte-identical, histories
    and report identical up to wall-clock columns (which cannot repeat)."""
    series_path = tmp_path / "series.csv"
    assert main(["synth", "--days", "6", "--seed", "4", "--out", str(series_path)]) == 0
    dirs = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        assert main(["compare", "--series", str(series_path), "--train-frac", "0.4",
                     "--epochs", "2", "--seed", "11", "--p", "1",
                     "--out-dir", str(out_dir)]) == 0
        dirs.append(out_dir)
    preds_ok = all(
        (dirs[0] / f"{kind}_predictions.csv").read_bytes()
        == (dirs[1] / f"{kind}_predictions.csv").read_bytes()
        for kind in ("lstm", "ffnn", "arima"))
    hist_ok = all(
        _history_rows_without_wall(dirs[0] / f"{kind}_history.csv")
        == _history_rows_without_wall(dirs[1] / f"{kind}_history.csv")
        for kind in ("lstm", "ffnn"))
    report_ok = (_report_without_wall(dirs[0] / "report.json")
                 == _report_without_wall(dirs[1] / "report.json"))
    check("end-to-end determinism: predictions byte-identical", preds_ok)
    check("end-to-end determinism: histories/report identical sans wall time",
          hist_ok and report_ok)


MILAN_DIR = os.environ.get("CELLTIDE_MILAN_DIR")


@pytest.mark.skipif(not MILAN_DIR, reason="CELLTIDE_MILAN_DIR not set")
def test_real_milan_cdr(tmp_path):
    """Optional gate on the real 62-day Milan record: grid-1 internet series
    has 8928 slots and LSTM beats ARIMA on test MAE in all three regimes."""
    series_path = tmp_path / "milan_grid1.csv"
    assert main(["ingest", "--input-dir", MILAN_DIR, "--grid", "1",
                 "--channel", "internet", "--out", str(series_path)]) == 0
    series = cdr.read_series_csv(str(series_path))
    check("milan: grid-1 internet series has 8928 slots", len(series) == 8928,
          str(len(series)))
    for frac in (0.8, 0.4, 0.1):
        out_dir = tmp_path / f"cmp_{int(frac * 100)}"
        assert main(["compare", "--series", str(series_path),
                     "--train-frac", str(frac), "--epochs", "20", "--seed", "0",
                     "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        lstm_mae = report["models"]["lstm"]["test_mae"]
        arima_mae = report["models"]["arima"]["test_mae"]
        check(f"milan: LSTM <= ARIMA test MAE at train_frac {frac}",
              lstm_mae <= arima_mae, f"lstm {lstm_mae:.4f} arima {arima_mae:.4f}")
