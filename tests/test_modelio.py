import json
import pathlib
import re

import numpy as np
import pytest

from celltide import ffnn, lstm, modelio
from celltide.dataset import ScalerParams
from celltide.modelio import ModelFormatError

# kind -> (parameter class, module, small fresh parameters)
MODELS = {"lstm": (lstm.LstmParams, lstm, lambda: lstm.init_params(2, seed=0)),
          "ffnn": (ffnn.FfnnParams, ffnn, lambda: ffnn.init_params(4, seed=0))}

BAD_COUNTS = [2.5, 0, -3, "x", "4", True, None]

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def model_file(kind, **changes):
    """A valid model file of `kind` (T=4, scaler 1..9) with top-level fields replaced."""
    obj = json.loads(modelio.dumps_neural(MODELS[kind][2](), 4, ScalerParams(1.0, 9.0)))
    obj.update(changes)
    return json.dumps(obj)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_envelope_order_and_roundtrip(kind):
    cls, module, init = MODELS[kind]
    p = init()
    text = modelio.dumps_neural(p, 4, ScalerParams(1.0, 9.0))
    obj = json.loads(text)
    assert list(obj) == ["type", "hidden", "T", "head", "scaler", "weights"]
    assert obj["type"] == kind
    assert tuple(obj["weights"]) == module.WEIGHT_KEYS
    q, window_len, scaler = modelio.loads_neural(text, cls)
    assert (window_len, scaler) == (4, ScalerParams(1.0, 9.0))
    assert obj["head"] == "sigmoid"
    assert np.array_equal(p.flat, q.flat)
    assert modelio.dumps_neural(q, window_len, scaler) == text


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("value", BAD_COUNTS)
def test_bad_window_len_rejected(kind, value):
    with pytest.raises(ModelFormatError, match="'T'"):
        modelio.loads_neural(model_file(kind, T=value), MODELS[kind][0])


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("value", BAD_COUNTS)
def test_bad_hidden_rejected(kind, value):
    with pytest.raises(ModelFormatError, match="'hidden'"):
        modelio.loads_neural(model_file(kind, hidden=value), MODELS[kind][0])


@pytest.mark.parametrize("lo,hi,field", [
    (5.0, 5.0, "'scaler'"),
    (6.0, 5.0, "'scaler'"),
    ("nan", 5.0, "'scaler.min'"),
    (float("nan"), 5.0, "'scaler.min'"),
    (0.0, float("inf"), "'scaler.max'"),
    (0.0, "9", "'scaler.max'"),
    (False, 9.0, "'scaler.min'"),
])
def test_bad_scaler_rejected(lo, hi, field):
    text = model_file("lstm", scaler={"min": lo, "max": hi})
    with pytest.raises(ModelFormatError, match=field):
        modelio.loads_neural(text, lstm.LstmParams)


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("cell", ["0.5", True, None, {}])
def test_non_numeric_weight_rejected(kind, cell):
    """A weight that is a string, bool, null or object is rejected naming
    the weight, not read as a number."""
    obj = json.loads(model_file(kind))
    key, rows = next(iter(obj["weights"].items()))  # a matrix in both models
    rows[0][0] = cell
    with pytest.raises(ModelFormatError, match=re.escape(f"field 'weights.{key}' holds {cell!r}")):
        modelio.loads_neural(json.dumps(obj), MODELS[kind][0])


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_ragged_weight_rejected(kind):
    """A row of another length is rejected naming the weight, not by numpy."""
    obj = json.loads(model_file(kind))
    key, rows = next(iter(obj["weights"].items()))
    rows[-1].pop()
    with pytest.raises(ModelFormatError, match=f"field 'weights.{key}' is ragged"):
        modelio.loads_neural(json.dumps(obj), MODELS[kind][0])


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_head_other_than_sigmoid_rejected(kind):
    with pytest.raises(ModelFormatError, match="field 'head' is 'linear'"):
        modelio.loads_neural(model_file(kind, head="linear"), MODELS[kind][0])


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_scaler_required(kind):
    with pytest.raises(ModelFormatError, match="'scaler.min'"):
        modelio.loads_neural(model_file(kind, scaler=None), MODELS[kind][0])


def test_smallest_model_accepted():
    p = lstm.init_params(1, seed=0)
    q, window_len, scaler = modelio.loads_neural(
        modelio.dumps_neural(p, 1, ScalerParams(0, 1)), lstm.LstmParams)
    assert (q.hidden, window_len, scaler) == (1, 1, ScalerParams(0.0, 1.0))


def test_hidden_must_match_the_weights():
    text = model_file("ffnn", hidden=4)
    with pytest.raises(ModelFormatError, match="weights.W1"):
        modelio.loads_neural(text, ffnn.FfnnParams)


@pytest.mark.parametrize("fixture,init", [
    ("init_lstm_h3.json", lambda: lstm.init_params(3, seed=0)),
    ("init_ffnn_t4.json", lambda: ffnn.init_params(4, seed=0)),
])
def test_initialisers_keep_their_draws(fixture, init):
    """Each file holds the weights an initialiser drew before the parameter
    classes were built from their layouts: the draw order and limits stay."""
    text = (FIXTURES / fixture).read_text()
    assert modelio.dumps_neural(init(), 4, ScalerParams(0, 1)) == text


@pytest.mark.parametrize("value", [True, None, np.bool_(True)])
def test_dumps_refuses_what_no_model_file_holds(value):
    """A bool is not written as 1 and None not as null: no file holds either."""
    with pytest.raises(TypeError):
        modelio.dumps({"hidden": value})
