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
    for k, view in q.items():
        view[...] = obj["weights"][k]
    assert np.array_equal(p.flat, q.flat)
    assert model_file(kind, q, 4, ScalerParams(1.0, 9.0)) == text


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("value", BAD_WINDOWS)
def test_bad_window_len_rejected(tmp_path, monkeypatch, capsys, kind, value):
    """No file is written with a `T` that is not a positive int: `T` is
    `--window`, which `train` refuses as a usage error before the series
    (here missing) is read."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--model", kind, "--series", "missing.csv", "--window", value,
              "--out-model", "m.json", "--out-history", "h.csv"])
    assert exc.value.code == 2
    assert "--window" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_smallest_model_accepted():
    """One hidden unit and a one-slot window: every weight is written in its
    view's shape, even where it holds a single number."""
    p = lstm.init_params(1, seed=0)
    obj = json.loads(model_file("lstm", p, 1, ScalerParams(0, 1)))
    assert (obj["hidden"], obj["T"], obj["scaler"]) == (1, 1, {"min": 0, "max": 1})
    for k, view in p.items():
        assert np.array(obj["weights"][k]).shape == view.shape, k
        assert np.array_equal(obj["weights"][k], view), k


def test_every_float_round_trips_exactly():
    """17 significant digits give back the value of every finite float,
    subnormals and the extremes included, through plain `json.loads`."""
    bits = np.random.default_rng(0).integers(0, 2**64, size=5000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = np.concatenate([values[np.isfinite(values)],
                             [1 / 3, 0.1, 5e-324, 1.7976931348623157e308, 1e16, 2.0**53 + 2]])
    back = np.array(json.loads(modelio.dumps(values)), dtype=np.float64)
    assert np.array_equal(back, values)


def test_integral_floats_read_back_as_floats():
    """A float that `.17g` prints as an integer gets a `.0`, so it reads back
    as a float and a negative zero keeps its sign; other floats and the ints
    print as before."""
    text = modelio.dumps([-0.0, 3.0, np.float64(1e16), 0.1, 2])
    assert text == "[-0.0, 3.0, 10000000000000000.0, 0.10000000000000001, 2]"
    back = json.loads(text)
    assert [type(v) for v in back] == [float, float, float, float, int]
    assert math.copysign(1.0, back[0]) == -1.0


@pytest.mark.parametrize("fixture,init", [
    ("init_lstm_h3.json", lambda: lstm.init_params(3, seed=0)),
    ("init_ffnn_t4.json", lambda: ffnn.init_params(4, seed=0)),
])
def test_initialisers_keep_their_draws(fixture, init):
    """Each file holds the weights an initialiser drew before the parameter
    classes were built from their layouts: the draw order and limits stay."""
    text = (FIXTURES / fixture).read_text()
    assert model_file(fixture.split("_")[1], init(), 4, ScalerParams(0, 1)) == text


@pytest.mark.parametrize("value", [True, None, np.bool_(True)])
def test_dumps_refuses_what_no_model_file_holds(value):
    """A bool is not written as 1 and None not as null: no file holds either."""
    with pytest.raises(TypeError):
        modelio.dumps({"hidden": value})
