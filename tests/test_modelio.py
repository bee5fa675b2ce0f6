import json
import math
import os
import pathlib
import types

import numpy as np
import pytest

from celltide import ffnn, lstm, modelio, train
from celltide.cli import main
from celltide.dataset import ScalerParams
from test_train import traced_peak

# kind -> (module, small fresh parameters, zeroed parameters of the same shape)
MODELS = {"lstm": (lstm, lambda: lstm.init_params(2, seed=0), lambda: lstm.LstmParams(2)),
          "ffnn": (ffnn, lambda: ffnn.init_params(4, seed=0), lambda: ffnn.FfnnParams(5, 4))}

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# --window values, as typed, that are not a positive int
BAD_WINDOWS = ["2.5", "0", "-3", "x", "True", "None"]


def model_file(kind: str, params, window: int, scaler: ScalerParams) -> str:
    """The model file that the kind table's `kind` row writes for `params`
    after a fit on `window`-slot windows scaled by `scaler`."""
    data = types.SimpleNamespace(window=window, scaler=scaler)
    return train.FORECASTERS[kind].dumps((params, []), data)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_envelope_order_and_roundtrip(kind):
    """The envelope's keys come in a fixed order, and weights filled back
    from the file's JSON are the written ones, bit for bit."""
    module, init, zeroed = MODELS[kind]
    p = init()
    text = model_file(kind, p, 4, ScalerParams(1.0, 9.0))
    obj = json.loads(text)
    assert list(obj) == ["type", "hidden", "T", "head", "scaler", "weights"]
    assert (obj["type"], obj["hidden"], obj["T"], obj["head"]) == (kind, p.hidden, 4, "sigmoid")
    assert obj["scaler"] == {"min": 1.0, "max": 9.0}
    assert tuple(obj["weights"]) == module.WEIGHT_KEYS
    q = zeroed()
    for k in module.WEIGHT_KEYS:
        getattr(q, k)[...] = obj["weights"][k]
    assert np.array_equal(p.flat, q.flat)
    assert model_file(kind, q, 4, ScalerParams(1.0, 9.0)) == text


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("value", BAD_WINDOWS)
def test_bad_window_len_rejected(tmp_path, monkeypatch, capsys, kind, value):
    """No file is written with a `T` that is not a positive int: `T` is
    `--window`, which `compare` refuses as a usage error before the series
    (here missing) is read."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--models", kind, "--series", "missing.csv", "--window", value,
              "--out-dir", "out"])
    assert exc.value.code == 2
    assert "--window" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_smallest_model_accepted():
    """One hidden unit and a one-slot window: every weight is written in its
    view's shape, even where it holds a single number."""
    p = lstm.init_params(1, seed=0)
    obj = json.loads(model_file("lstm", p, 1, ScalerParams(0, 1)))
    assert (obj["hidden"], obj["T"], obj["scaler"]) == (1, 1, {"min": 0, "max": 1})
    for k in lstm.WEIGHT_KEYS:
        view = getattr(p, k)
        assert np.array(obj["weights"][k]).shape == view.shape, k
        assert np.array_equal(obj["weights"][k], view), k


def test_every_float_round_trips_exactly():
    """Python's shortest round-trip float text gives back the value of every
    finite float, subnormals and the extremes included, through plain
    `json.loads`."""
    bits = np.random.default_rng(0).integers(0, 2**64, size=5000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = np.concatenate([values[np.isfinite(values)],
                             [1 / 3, 0.1, 5e-324, 1.7976931348623157e308, 1e16, 2.0**53 + 2]])
    back = np.array(json.loads(modelio.dumps(values)), dtype=np.float64)
    assert np.array_equal(back, values)


def test_integral_floats_read_back_as_floats():
    """A float's text always has a `.` or an exponent, so it reads back as a
    float and a negative zero keeps its sign; ints print as ints."""
    text = modelio.dumps([-0.0, 3.0, np.float64(1e16), 0.1, 2, np.int64(-7)])
    assert text == "[-0.0, 3.0, 1e+16, 0.1, 2, -7]"
    back = json.loads(text)
    assert [type(v) for v in back] == [float, float, float, float, int, int]
    assert math.copysign(1.0, back[0]) == -1.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_floats_are_refused(value):
    """No model file holds a bare `NaN` or `Infinity`, which is not JSON."""
    for obj in ({"x": np.array([value])}, {"x": np.array([[0.5, value]])}, {"x": value}):
        with pytest.raises(ValueError):
            modelio.dumps(obj)


def test_text_is_the_standard_writers():
    """Rows and items joined pass by pass give the text of one `json.dumps`
    over the whole, arrays as lists: 2-D and empty arrays, numpy scalars and
    escaped strings included."""
    obj = {"a": np.arange(6.0).reshape(2, 3) / 10, "b": {"c": [1e16, "d"], "e": np.empty((0, 2))},
           "f": np.float64(-0.0), "g": np.ones(3), "h": np.int64(5), "i": "x\"y"}
    assert modelio.dumps(obj) == json.dumps(obj, default=lambda a: a.tolist())


def test_lstm_file_peaks_below_half_a_mebibyte():
    """The H = 50, T = 12 LSTM file is about 0.2 MiB of text. A single encoder
    pass over it holds each of its 10,456 numbers' text until the last join
    and peaks above 1 MiB; one pass per 51-float row stays below 0.5 MiB."""
    data = types.SimpleNamespace(window=12, scaler=ScalerParams(0.0, 1.0))
    model = (train.FORECASTERS["lstm"].init(12, 0), [])
    assert len(train.FORECASTERS["lstm"].dumps(model, data)) > 0.2 * 2**20
    assert traced_peak(lambda: train.FORECASTERS["lstm"].dumps(model, data)) < 0.5 * 2**20


@pytest.mark.parametrize("fixture,init", [
    ("init_lstm_h3.json", lambda: lstm.init_params(3, seed=0)),
    ("init_ffnn_t4.json", lambda: ffnn.init_params(4, seed=0)),
])
def test_initialisers_keep_their_draws(fixture, init):
    """Each file holds the weights an initialiser drew before the parameter
    classes were built from their layouts: the draw order and limits stay."""
    text = (FIXTURES / fixture).read_text()
    assert model_file(fixture.split("_")[1], init(), 4, ScalerParams(0, 1)) == text
