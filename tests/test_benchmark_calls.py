"""The calls into the package that the benchmark under `perfbench/` makes.

`perfbench/run.py` times the model kernels on parameters it builds itself,
and `perfbench/tracer.py` wraps a list of package functions, labelling the
`train.train_model` spans by the kind passed first. These tests make the
same calls, so that a change of signature fails here instead of breaking a
traced benchmark run.
"""

import importlib.util
import inspect
import pathlib

import numpy as np

from celltide import arima, cdr, dataset, ffnn, linalg, lstm, modelio, train
from celltide.cli import main

import golden

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_lstm_kernel_params_are_the_trained_lstm_at_seed_0():
    bench = lstm.init_params(50, 1, seed=0)
    trained = train.FORECASTERS["lstm"].init(12, 0)
    assert bench.hidden == trained.hidden == lstm.HIDDEN_UNITS == 50
    assert np.array_equal(bench.flat, trained.flat)


def test_ffnn_kernel_params_are_the_trained_ffnn_at_seed_0():
    bench = ffnn.init_params(12, seed=0)
    assert bench.W1.shape == (ffnn.HIDDEN_UNITS, 12)
    assert np.array_equal(bench.flat, train.FORECASTERS["ffnn"].init(12, 0).flat)


def test_train_model_takes_kind_first():
    params = list(inspect.signature(train.train_model).parameters)
    assert params == ["kind", "train_set", "val_set", "config"]


def test_kernel_timing_calls(tmp_path):
    """The sequence of calls the benchmark's kernel timings make, on a short
    series: one batch of 32 forward and backward through both models."""
    path = str(tmp_path / "series.csv")
    cdr.write_series_csv(dataset.gen_synthetic(4, seed=0), path)
    values = cdr.read_series_csv(path).values
    spec = dataset.split(len(values), 0.8)
    scaler = dataset.fit_scaler(values[:spec.n_train])
    normed = scaler.transform(values)
    train_set = dataset.windows_for_range(normed, 12, 0, spec.n_train)
    val_set = dataset.windows_for_range(normed, 12, spec.val_start, spec.test_start)
    assert linalg.sigmoid(np.zeros((32, 50))).shape == (32, 50)
    idx = np.random.default_rng(0).permutation(len(train_set))[:32]
    lstm_params = lstm.init_params(50, 1, seed=0)
    for mod, params in ((lstm, lstm_params), (ffnn, ffnn.init_params(12, seed=0))):
        y, cache = mod.forward_batch(train_set.inputs[idx], params)
        grads = mod.backward_batch(cache, np.sign(y - train_set.targets[idx]) / 32, params)
        assert grads.shape == params.flat.shape
    assert lstm.forward_batch(val_set.inputs, lstm_params)[0].shape == (len(val_set),)
    _, history = train.train_model("ffnn", train_set, val_set, train.TrainConfig(epochs=1))
    assert len(history) == 1


def test_every_tracer_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{fn}" for mod, fn, _, _ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(f"celltide.{mod}"), fn, None))]
    assert missing == []


def test_fit_reaches_css_through_the_module(monkeypatch):
    """The tracer counts `arima.css_evals` by replacing `arima.css`; a fit
    that bound `css` at import time would make that count read 0, and a
    search that bound it would leave only the final variance's call."""
    calls = []
    css = arima.css
    monkeypatch.setattr(arima, "css", lambda *args: calls.append(1) or css(*args))
    y = np.random.default_rng(0).normal(size=300)
    arima.fit(y, 1, 0, 1)
    assert len(calls) > 1


def test_search_reaches_fit_and_hannan_rissanen_through_the_module(monkeypatch):
    """The tracer counts `arima.fit_calls` and times `arima.hannan_rissanen`
    by replacing them on the module: the order search calls `fit` once per
    order and `hannan_rissanen` once per order with p + q > 0."""
    calls = []
    fit, hr = arima.fit, arima.hannan_rissanen
    monkeypatch.setattr(arima, "fit", lambda *args: calls.append("fit") or fit(*args))
    monkeypatch.setattr(arima, "hannan_rissanen",
                        lambda *args: calls.append("hr") or hr(*args))
    arima.auto_order(np.random.default_rng(0).normal(size=300))
    assert (calls.count("fit"), calls.count("hr")) == (32, 30)


def test_one_dumps_call_per_json_file(tmp_path, monkeypatch):
    """The tracer wraps `modelio.dumps` and sums `len(result)` over its calls
    as `modelio.bytes_written`; a writer that called itself by that name
    would make a span of every nested row and item, and count their bytes
    again. `compare` writes three model files and report.json."""
    calls = []
    dumps = modelio.dumps
    monkeypatch.setattr(modelio, "dumps", lambda obj: calls.append(obj) or dumps(obj))
    out = tmp_path / "out"
    argv = ["compare", "--p", "1", "--epochs", "1", "--out-dir", str(out)]
    assert main([*argv, "--series", str(golden.write_series(tmp_path))]) == 0
    assert len(calls) == len(list(out.glob("*.json"))) == 4
