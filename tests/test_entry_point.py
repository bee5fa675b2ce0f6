"""The checks that need a fresh interpreter: pytest's own session under this
repository's warning filters, and the rest, all started by `run_cli`.

Where the imported celltide is this checkout's `src/`, as under
`PYTHONPATH=src pytest`, a command runs as `python -m celltide.cli` on
`src/`. Where it is an installed copy, as when this module is run from
outside the checkout, the installed `celltide` console script runs, and
every test fails if that script is missing."""

import json
import os
import shutil
import subprocess
import sys
import sysconfig
import textwrap

import numpy as np
import oracles
import pytest

import celltide
from celltide import cdr
from celltide.cli import main
from test_cli import COMPARE_FLAGS, NEURAL, T0, make_days_dir, make_series_csv

TESTS = os.path.dirname(os.path.realpath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
INSTALLED = os.path.dirname(os.path.dirname(os.path.realpath(celltide.__file__))) != SRC


def test_a_failing_property_test_fails_and_the_session_goes_on(tmp_path):
    """Under `pyproject.toml`'s warning filters, a failing hypothesis test is
    one failed test, and the test after it runs. On a failure hypothesis
    imports libcst where it is installed, and libcst's import warns that
    `mypy_extensions.TypedDict` is deprecated: made an error, that warning
    ended the session with INTERNALERROR, exit code 3."""
    shutil.copy(os.path.join(os.path.dirname(TESTS), "pyproject.toml"), tmp_path)
    (tmp_path / "test_property.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
        """))
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_property.py"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1], done.stdout


def run_cli(argv, probe=None, **env):
    """Run `celltide argv` in a fresh interpreter and return the finished
    process. With `probe`, a `python -c` program keeps `main(argv)`'s exit
    code as `status` and then runs `probe`, say a print of
    `'numpy' in sys.modules`; without, the console script runs."""
    if probe is not None:
        command = [sys.executable, "-c", "import sys\nfrom celltide.cli import main\n"
                   f"status = main(sys.argv[1:])\n{probe}"]
    elif INSTALLED:
        script = os.path.join(sysconfig.get_path("scripts"), "celltide")
        assert os.path.isfile(script), f"celltide is installed without its script {script}"
        command = [script]
    else:
        command = [sys.executable, "-m", "celltide.cli"]
    if not INSTALLED:
        env["PYTHONPATH"] = SRC
    return subprocess.run([*command, *map(str, argv)], capture_output=True, text=True,
                          env=dict(os.environ, **env), timeout=120)


def test_every_command_runs_and_writes_strict_json(tmp_path):
    """The console script, on a 3-day series whose 344 training slots are
    enough for the order search: each model command at its defaults, the
    neural ones for one epoch, exits 0, and every JSON file written loads
    with no NaN or Infinity token."""
    series = ["--series", tmp_path / "s.csv"]
    for argv in (["synth", "--days", "3", "--out", tmp_path / "s.csv"],
                 ["arima", *series, "--out-model", tmp_path / "arima.json",
                  "--out-predictions", tmp_path / "arima.csv"],
                 ["arima", "--auto", *series, "--out-model", tmp_path / "arima-auto.json",
                  "--out-predictions", tmp_path / "arima-auto.csv"],
                 *(["train", "--model", model, *series, "--epochs", "1",
                    "--out-model", tmp_path / f"{model}.json",
                    "--out-history", tmp_path / f"{model}.csv"] for model in ("lstm", "ffnn")),
                 ["compare", *series, "--epochs", "1", "--out-dir", tmp_path / "out"]):
        done = run_cli(argv)
        assert done.returncode == 0, (argv, done.stderr)
    written = sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*.json"))
    assert written == ["arima-auto.json", "arima.json", "ffnn.json", "lstm.json",
                       "out/arima_model.json", "out/ffnn_model.json", "out/lstm_model.json",
                       "out/report.json"]
    for name in written:
        with open(tmp_path / name, encoding="utf-8") as fh:
            json.load(fh, parse_constant=lambda token: pytest.fail(f"{name}: {token}"))


@pytest.mark.parametrize("model", sorted(NEURAL))
def test_overflowing_learning_rate_fails_in_one_line(tmp_path, model):
    """An lr so large that the first update overflows fails cleanly, in a
    fresh interpreter so that any numpy warning would reach stderr."""
    series = make_series_csv(tmp_path)
    done = run_cli(["train", "--model", model, "--series", series, "--train-frac", "0.4",
                    "--epochs", "2", "--lr", "1e300", "--out-model", tmp_path / "m.json",
                    "--out-history", tmp_path / "h.csv"])
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    assert lines[0].endswith(" epoch 1")
    assert "RuntimeWarning" not in done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]


@pytest.mark.parametrize("order", [["--p", "1"], []])
def test_real_interpreter_output(tmp_path, order):
    """`compare` in a fresh interpreter whose stdout is a pipe, so that a
    worker flushing its copy of the parent's buffer would show: every
    line once and in order, and the ARIMA predictions of `arima`."""
    series = make_series_csv(tmp_path, days=4)
    done = run_cli(["compare", *COMPARE_FLAGS, *order, "--series", series,
                    "--out-dir", tmp_path / "out"])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    expected = ["split ", "lstm: final val MAE (normalized) ", "lstm: test MAE ",
                "ffnn: final val MAE (normalized) ", "ffnn: test MAE ",
                *(["arima: selected order ("] if not order else []),
                "arima: test MAE "]
    assert len(lines) == len(expected), lines
    assert all(line.startswith(head) for line, head in zip(lines, expected)), lines
    assert done.stderr == ""
    assert main(["arima", "--series", str(series), "--train-frac", "0.4",
                 *(order or ["--auto"]), "--out-model", str(tmp_path / "a.json"),
                 "--out-predictions", str(tmp_path / "a.csv")]) == 0
    assert ((tmp_path / "out" / "arima_predictions.csv").read_bytes()
            == (tmp_path / "a.csv").read_bytes())


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    """Only the model commands need numpy, only the ARIMA code needs scipy
    and only a forking command needs multiprocessing, so importing the CLI,
    and a command that fails before any work, must load none of them."""
    (tmp_path / "empty").mkdir()
    done = run_cli(["ingest", "--input-dir", tmp_path / "empty", "--out", tmp_path / "x.csv"],
                   "print(status, *(m in sys.modules for m in "
                   "('numpy', 'scipy', 'multiprocessing')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1 False False False"


@pytest.mark.parametrize("n_files", [1, 3], ids=["one-file", "three-files-worker"])
def test_ingest_runs_without_numpy(tmp_path, n_files):
    """`ingest`, here and with the worker, writes the per-record oracle's
    series with numpy never imported; so does its error path exit 1. Only
    the worker loads multiprocessing: one file is scanned with none."""
    raw = make_days_dir(tmp_path, n_files)
    probe = "print(status, *(m in sys.modules for m in ('numpy', 'multiprocessing')))"
    done = run_cli(["ingest", "--input-dir", raw, "--out", tmp_path / "out.csv"], probe)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, f"{3 * n_files} slots\n0 False {n_files > 1}\n", "")
    expected = cdr.ActivitySeries(*oracles.cdr_ingest_reference(str(raw), 1, "internet"))
    cdr.write_series_csv(expected, str(tmp_path / "expected.csv"))
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    with open(raw / f"day{n_files - 1}.txt", "a") as fh:
        fh.write("1\tnope\n")
    done = run_cli(["ingest", "--input-dir", raw, "--out", tmp_path / "bad.csv"], probe)
    assert (done.returncode, done.stdout) == (0, f"1 False {n_files > 1}\n")
    assert done.stderr == (f"error: day{n_files - 1}.txt: line 4: bad grid/timestamp field: "
                           "could not convert string to float: 'nope'\n")
    assert not (tmp_path / "bad.csv").exists()


def arima_in_subprocess(tmp_path, order, module, name="a", **env):
    """Run `celltide arima` with `order` on a 4-day series in a fresh
    interpreter, writing `name`.json and `name`.csv; True when it left
    `module` loaded."""
    series = make_series_csv(tmp_path)
    done = run_cli(["arima", "--series", series, "--train-frac", "0.4", *order,
                    "--out-model", tmp_path / f"{name}.json",
                    "--out-predictions", tmp_path / f"{name}.csv"],
                   f"assert status == 0\nprint({module!r} in sys.modules)", **env)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("d", ["0", "1"])
def test_zero_order_arima_leaves_scipy_unloaded(tmp_path, d):
    """A zero-order fit needs neither the optimiser nor the MA filter."""
    assert not arima_in_subprocess(tmp_path, ["--p", "0", "--d", d, "--q", "0"], "scipy")


@pytest.mark.parametrize("module", ["scipy.signal", "scipy.optimize", "scipy.linalg"])
@pytest.mark.parametrize("order", [["--auto"], ["--p", "1", "--q", "1"]], ids=["auto", "p1-q1"])
def test_arima_leaves_scipy_signal_and_optimize_unloaded(tmp_path, order, module):
    """The MA filter is a BLAS band solve through scipy's BLAS extension
    alone, and Nelder-Mead is the package's own: neither a fixed-order fit
    nor the order search's fits load `scipy.signal`, `scipy.optimize` or
    `scipy.linalg`."""
    assert not arima_in_subprocess(tmp_path, order, module)


def test_order_search_is_the_same_under_one_and_two_blas_threads(tmp_path):
    """The MA solve and the regressions give the same bits whatever the
    number of BLAS threads, so same-seed runs write the same files."""
    for threads in ("1", "2"):
        arima_in_subprocess(tmp_path, ["--auto"], "scipy", name=threads,
                            OPENBLAS_NUM_THREADS=threads)
    for suffix in (".json", ".csv"):
        assert (tmp_path / f"1{suffix}").read_bytes() == (tmp_path / f"2{suffix}").read_bytes()


@pytest.mark.parametrize("linalg_first", [False, True], ids=["loader-first", "linalg-first"])
def test_the_blas_loader_and_scipy_linalg_share_one_extension(tmp_path, linalg_first):
    """`arima --auto` loads scipy's BLAS extension under its own name, so an
    `import scipy.linalg.blas` after it, or before it, leaves one `dtbsv`;
    `residuals` then equals the oracle's solve through `scipy.linalg.blas`
    bit for bit, whichever came first. `synth` writes the series first,
    loading no scipy."""
    series = tmp_path / "series.csv"
    arima_argv = ["arima", "--series", str(series), "--train-frac", "0.4", "--auto",
                  "--out-model", str(tmp_path / "a.json"),
                  "--out-predictions", str(tmp_path / "a.csv")]
    probe = f"""
assert status == 0 and "scipy" not in sys.modules
if {linalg_first}:
    import scipy.linalg.blas
import numpy as np
from celltide import arima
assert main({arima_argv!r}) == 0
assert ("scipy.linalg" in sys.modules) == {linalg_first}
rng = np.random.default_rng(7)
cases = [(rng.normal(size=200), rng.uniform(-0.5, 0.5, p), rng.uniform(-0.5, 0.5, q))
         for p in range(4) for q in range(1, 4)]
got = [arima.residuals(*case) for case in cases]
import scipy.linalg.blas
sys.path.append({TESTS!r})
import oracles
assert scipy.linalg.blas.dtbsv is oracles.dtbsv is arima._fblas().dtbsv
assert sys.modules["scipy.linalg._fblas"] is arima._fblas()
assert all(np.array_equal(g, oracles._arima_residuals(*case)) for g, case in zip(got, cases))
print("ok")
"""
    done = run_cli(["synth", "--days", "4", "--seed", "1", "--out", series], probe)
    assert (done.returncode, done.stdout.splitlines()[-1], done.stderr) == (0, "ok", "")


@pytest.mark.parametrize("order", [["--p", "1", "--q", "1"], ["--auto"], ["--p", "0", "--q", "0"]],
                         ids=["p1-q1", "auto", "p0-q0"])
def test_a_series_whose_spread_underflows_fails_without_a_warning(tmp_path, order):
    """Values near 1e-300 have a standard deviation that underflows to 0:
    with RuntimeWarnings made errors, the fit fails in one line that says so,
    for a zero order too, with no division warning first and no output
    file; the order search's error carries its first failure."""
    values = np.random.default_rng(0).normal(size=600) * 1e-300
    cdr.write_series_csv(cdr.ActivitySeries(T0, values), str(tmp_path / "series.csv"))
    done = run_cli(["arima", "--series", tmp_path / "series.csv", *order,
                    "--out-model", tmp_path / "m.json", "--out-predictions", tmp_path / "p.csv"],
                   PYTHONWARNINGS="error::RuntimeWarning")
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    assert lines[0].endswith("the training series has standard deviation 0 after "
                             "differencing; rescale the series"), done.stderr
    assert sorted(os.listdir(tmp_path)) == ["series.csv"]
