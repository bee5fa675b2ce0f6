"""Golden outputs of `compare`, of the AIC order search and of the model
files `train` and `arima` write, read back by test_golden.py and written to
tests/fixtures by running this file with the fixtures to write, one or more
of `compare`, `models` and `search`:

    PYTHONPATH=src python tests/golden.py search

Rewrite only the fixtures a change means to move, and say so where the
change is recorded.
"""

import argparse
import json
import pathlib
import tempfile

import numpy as np

from celltide import arima, cdr, dataset, modelio
from celltide.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
COMPARE_FILE, SEARCH_FILE = FIXTURES / "golden_compare_4d.json", FIXTURES / "golden_search_4d.json"
MODELS_FILE = FIXTURES / "golden_models_4d.json"
SERIES = "gen_synthetic(4, seed=1)"
# no --p: the AIC search. 0.4 leaves 218 training windows, so the last
# batch of each epoch is a partial one of 26
COMPARE_ARGV = ["compare", "--train-frac", "0.4", "--epochs", "2"]
SEARCH_FRAC = 0.8  # a 460-slot training slice
# the model-file runs: each neural kind as `compare` trains it, and ARIMA's search
MODEL_ARGV = {kind: ["train", "--model", kind, *COMPARE_ARGV[1:]] for kind in ("lstm", "ffnn")}
MODEL_ARGV["arima"] = ["arima", "--auto", "--train-frac", "0.4"]


def series() -> np.ndarray:
    return dataset.gen_synthetic(4, seed=1).values


def write_series(tmp_dir) -> pathlib.Path:
    path = pathlib.Path(tmp_dir) / "series.csv"
    cdr.write_series_csv(cdr.ActivitySeries(dataset.DEFAULT_T0_MS, series()), str(path))
    return path


def compare_outputs(tmp_dir) -> dict:
    """`compare` on the series: its report.json without the timings, and each
    prediction CSV as rows of (slot, truth, prediction)."""
    path, out_dir = write_series(tmp_dir), pathlib.Path(tmp_dir) / "out"
    assert main([*COMPARE_ARGV, "--series", str(path), "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    for entry in report["models"].values():
        del entry["train_wall_ms"]
    predictions = {kind: np.loadtxt(out_dir / f"{kind}_predictions.csv", delimiter=",",
                                    skiprows=1).tolist() for kind in report["models"]}
    return {"argv": COMPARE_ARGV, "series": SERIES, "report": report,
            "predictions": predictions}


def model_outputs(tmp_dir) -> dict:
    """The model file each run of MODEL_ARGV writes for the series, read back
    with its keys in file order."""
    path, files = write_series(tmp_dir), {}
    for kind, argv in MODEL_ARGV.items():
        out = pathlib.Path(tmp_dir) / f"{kind}.json"
        second = "--out-history" if argv[0] == "train" else "--out-predictions"
        assert main([*argv, "--series", str(path), "--out-model", str(out),
                     second, str(out.with_suffix(".csv"))]) == 0
        files[kind] = json.loads(out.read_text())
    return {"argv": MODEL_ARGV, "series": SERIES, "files": files}


def search_outputs() -> dict:
    """`auto_order` on the training slice at SEARCH_FRAC: the order it selects,
    the AIC of every candidate that fitted, keyed "p,d,q", and the model."""
    values = series()
    y = values[:dataset.split(len(values), SEARCH_FRAC).n_train]
    halves = []

    def recorded(fn, items):
        halves[:] = map(fn, items)
        return halves

    model = arima.auto_order(y, map=recorded)
    return {"series": SERIES, "train_frac": SEARCH_FRAC, "n": len(y),
            "order": [model.p, model.d, model.q],
            "aic": {f"{m.p},{m.d},{m.q}": key[0] for found, _ in halves for key, m in found},
            "phi": model.phi, "theta": model.theta, "mu": model.mu, "sigma2": model.sigma2}


def write(argv=None) -> None:
    """Write each fixture named in `argv` to its file; with none named, print
    the usage and exit 2."""
    parser = argparse.ArgumentParser(prog="golden.py", description="write golden fixtures")
    parser.add_argument("fixtures", nargs="+", choices=("compare", "models", "search"))
    files = {"compare": (COMPARE_FILE, compare_outputs), "models": (MODELS_FILE, model_outputs),
             "search": (SEARCH_FILE, lambda tmp_dir: search_outputs())}
    for name in dict.fromkeys(parser.parse_args(argv).fixtures):
        path, outputs = files[name]
        with tempfile.TemporaryDirectory() as tmp:
            path.write_text(modelio.dumps(outputs(tmp)) + "\n")


if __name__ == "__main__":
    write()
