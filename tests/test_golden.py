"""The outputs of `compare`, of the AIC order search and the model files of
`train` and `arima` against the golden files that golden.py wrote. A
refactor leaves them within these tolerances; a change that means to move
them rewrites them.

Neural values keep lstm_fit_4d.json's 1e-10 relative: on one machine they
are bit-identical, and another BLAS's summation order moves them at the
last-bit level. ARIMA values allow 1e-6 relative (1e-9 absolute, for a
coefficient near zero): Nelder-Mead stops once its simplex is within 1e-8 of
its best point in the reflection coordinates, so a last-bit difference
on the way can move where it stops by about that much, which a flat CSS
surface can scale up. A fit cut short, such as one with a lower evaluation
budget, lands much further away.
"""

import json

import numpy as np
import pytest

from celltide import modelio

import golden

TOLERANCE = {"lstm": {"rtol": 1e-10, "atol": 0}, "ffnn": {"rtol": 1e-10, "atol": 0},
             "arima": {"rtol": 1e-6, "atol": 1e-9}}


def load(path) -> dict:
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def compared(tmp_path_factory):
    return golden.compare_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("kind", ["lstm", "ffnn", "arima"])
def test_compare_predictions(compared, kind):
    want = load(golden.COMPARE_FILE)["predictions"][kind]
    got = np.array(compared["predictions"][kind])
    assert got.shape == (len(want), 3)
    np.testing.assert_array_equal(got[:, 0], [row[0] for row in want])  # the slots
    np.testing.assert_allclose(got, want, **TOLERANCE[kind])


def test_compare_report(compared):
    want = load(golden.COMPARE_FILE)["report"]
    got = compared["report"]
    assert {k: v for k, v in got.items() if k != "models"} == {
        k: v for k, v in want.items() if k != "models"}
    assert list(got["models"]) == list(want["models"]) == list(TOLERANCE)
    for kind, entry in got["models"].items():
        expected = want["models"][kind]
        assert entry.keys() == expected.keys()
        for key, value in entry.items():
            if key in ("order", "epochs"):
                assert value == expected[key], (kind, key)
            else:
                np.testing.assert_allclose(value, expected[key], **TOLERANCE[kind],
                                           err_msg=f"{kind} {key}")


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    return golden.model_outputs(tmp_path_factory.mktemp("golden"))["files"]


def assert_matches(got, want, tolerance, where):
    """`got` has `want`'s keys in order at every level, its strings and ints,
    and its floats, alone or in nested lists, within `tolerance`."""
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key, value in want.items():
            assert_matches(got[key], value, tolerance, f"{where}.{key}")
    elif isinstance(want, (str, int)):
        assert (type(got), got) == (type(want), want), where
    else:
        np.testing.assert_allclose(got, want, **tolerance, err_msg=where)


@pytest.mark.parametrize("kind", ["lstm", "ffnn", "arima"])
def test_model_file(model_files, kind):
    want = load(golden.MODELS_FILE)
    assert want["argv"] == golden.MODEL_ARGV
    assert_matches(model_files[kind], want["files"][kind], TOLERANCE[kind], kind)


def test_order_search():
    want, got = load(golden.SEARCH_FILE), golden.search_outputs()
    assert got["order"] == want["order"]
    assert got["aic"].keys() == want["aic"].keys()
    for key in ("phi", "theta", "mu", "sigma2"):
        np.testing.assert_allclose(got[key], want[key], **TOLERANCE["arima"], err_msg=key)
    np.testing.assert_allclose([got["aic"][k] for k in want["aic"]], list(want["aic"].values()),
                               **TOLERANCE["arima"], err_msg="aic")


@pytest.fixture
def fixture_files(tmp_path, monkeypatch):
    """The three fixture paths of golden.py, pointed at files in `tmp_path`
    that each hold their own name."""
    files = {}
    for attr in ("COMPARE_FILE", "MODELS_FILE", "SEARCH_FILE"):
        files[attr] = tmp_path / f"{attr}.json"
        files[attr].write_text(attr)
        monkeypatch.setattr(golden, attr, files[attr])
    return files


def test_writer_writes_only_the_named_fixture(fixture_files):
    golden.write(["search"])
    assert {attr: path.read_text() for attr, path in fixture_files.items()} == {
        "COMPARE_FILE": "COMPARE_FILE", "MODELS_FILE": "MODELS_FILE",
        "SEARCH_FILE": modelio.dumps(golden.search_outputs()) + "\n"}


def test_writer_without_a_name_prints_its_usage(fixture_files, capsys):
    with pytest.raises(SystemExit) as exc:
        golden.write([])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: golden.py ")
    assert all(path.read_text() == attr for attr, path in fixture_files.items())
