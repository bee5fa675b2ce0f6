"""Named one-line mutants of celltide, each run against the tests that should
kill it.

    python tools/mutants.py             # every mutant
    python tools/mutants.py NAME ...    # the named ones
    python tools/mutants.py --list      # names, files and tests

The script copies `src/`, `tests/` and `pyproject.toml` to a temporary
directory, checks that the tests it names pass there unchanged, and then, for
each mutant, replaces one line of the copy, runs that mutant's tests with
pytest on the copy's `src/`, and restores the line. It prints `killed` when
the tests fail and `survived` when they pass, and exits 0 when every mutant
was killed, 1 when one survived, and 2 when a mutant no longer applies (its
line is not found exactly once), when the unchanged copy fails its tests, or
at once when pytest ends a mutant's run with neither a pass nor a failure
(a usage or internal error, no test collected).
Bytecode is not written, so a mutant of the same size as its line is never
read from a stale cache. It needs only the standard library and pytest, and
it is not part of the test suite.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 1800  # per pytest run; a mutant that hangs counts as killed


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    line: str  # the line's text, stripped; it must occur exactly once
    mutated: str  # what the stripped text becomes; the indentation stays
    tests: tuple  # pytest node ids, relative to the repository root


NELDER_MEAD_TESTS = ("tests/test_arima.py::TestNelderMead", "tests/test_golden.py")
FIRST_STAGE_TESTS = ("tests/test_arima.py::TestFirstStage",)

MUTANTS = (
    # the in-package port of scipy's Nelder-Mead (`arima._nelder_mead`)
    Mutant("nm-expand-on-ties", "src/celltide/arima.py",
           "sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)",
           "sim[-1], fsim[-1] = (xe, fxe) if fxe <= fxr else (xr, fxr)", NELDER_MEAD_TESTS),
    Mutant("nm-outside-contraction-strict", "src/celltide/arima.py",
           "if (fxc <= fxr) if outside else (fxc < fsim[-1]):",
           "if (fxc < fxr) if outside else (fxc < fsim[-1]):", NELDER_MEAD_TESTS),
    Mutant("nm-shrink-0.6", "src/celltide/arima.py",
           "sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])",
           "sim[j] = sim[0] + 0.6 * (sim[j] - sim[0])", NELDER_MEAD_TESTS),
    Mutant("nm-budget-one-over", "src/celltide/arima.py",
           "if nfev >= maxfev:",
           "if nfev > maxfev:", NELDER_MEAD_TESTS),
    Mutant("nm-zero-step-0.0003", "src/celltide/arima.py",
           "sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025",
           "sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.0003", NELDER_MEAD_TESTS),
    Mutant("nm-budget-400", "src/celltide/arima.py",
           "tol, maxiter, maxfev = 1e-8, 2000, 4000",
           "tol, maxiter, maxfev = 1e-8, 2000, 400", NELDER_MEAD_TESTS),
    # the first stage's residual blocks (`arima.long_ar_residuals`)
    Mutant("first-stage-last-row-skipped", "src/celltide/arima.py",
           "cuts = [*range(0, max(n - m - _LAG_BLOCK, 0) + 1, _LAG_BLOCK), n - m]",
           "cuts = [*range(0, max(n - m - _LAG_BLOCK, 0) + 1, _LAG_BLOCK), n - m - 1]",
           FIRST_STAGE_TESTS),
    Mutant("first-stage-one-row-tail", "src/celltide/arima.py",
           "cuts = [*range(0, max(n - m - _LAG_BLOCK, 0) + 1, _LAG_BLOCK), n - m]",
           "cuts = [*range(0, n - m, _LAG_BLOCK), n - m]", FIRST_STAGE_TESTS),
    Mutant("first-stage-strided-product", "src/celltide/arima.py",
           "e[m + lo:m + hi] = y[m + lo:m + hi] - lags[lo:hi].copy() @ beta",
           "e[m + lo:m + hi] = y[m + lo:m + hi] - lags[lo:hi] @ beta", FIRST_STAGE_TESTS),
    # the fit loop's cache lifetime (`train.fit`)
    Mutant("fit-keeps-the-batch-cache", "src/celltide/train.py",
           "del cache  # freed before the next batch's forward pass makes its own",
           "pass",
           ("tests/test_train.py::TestFit::"
            "test_a_batch_cache_is_freed_before_the_next_forward_pass",)),
    # compare's peak memory: windows are views, evaluation runs one batch at a time
    Mutant("windows-copied", "src/celltide/dataset.py",
           "values[start - window_len:stop - 1], window_len), values[start:stop])",
           "values[start - window_len:stop - 1], window_len).copy(), values[start:stop])",
           ("tests/test_dataset.py::TestWindows::test_split_windows_match_the_loop",
            "tests/test_train.py::TestPeakMemory::test_setup_cuts_views_not_copies")),
    Mutant("evaluation-in-double-batches", "src/celltide/train.py",
           "chunks = np.split(rows, range(BATCH_SIZE, len(rows), BATCH_SIZE))",
           "chunks = np.split(rows, range(2 * BATCH_SIZE, len(rows), 2 * BATCH_SIZE))",
           ("tests/test_train.py::TestPeakMemory::"
            "test_an_lstm_evaluation_pass_holds_one_batch_of_step_caches",
            "tests/test_train.py::test_evaluation_in_batch_chunks_equals_sixteen_window_passes")),
    # every evaluation pass is BATCH_SIZE wide, so no forecast depends on its range
    Mutant("evaluation-last-chunk-unpadded", "src/celltide/train.py",
           "rows = np.minimum(np.arange(-len(inputs) // BATCH_SIZE * -BATCH_SIZE), "
           "len(inputs) - 1)",
           "rows = np.arange(len(inputs))",
           ("tests/test_cli.py::test_every_row_forecasts_the_range_it_is_given",)),
    # the model commands' schedule (`cli._fit_and_write`)
    Mutant("compare-two-rows-here", "src/celltide/cli.py",
           "groups = [kinds[:1], kinds[1:]][:len(kinds)]",
           "groups = [kinds[:2], kinds[2:]][:len(kinds)]",
           ("tests/test_cli.py::TestCompare::"
            "test_the_lstm_fits_here_and_the_other_rows_in_the_worker",)),
    Mutant("one-row-forks", "src/celltide/cli.py",
           "groups = [kinds[:1], kinds[1:]][:len(kinds)]",
           "groups = [kinds[:1], kinds[1:]]",
           ("tests/test_cli.py::TestCompare::"
            "test_only_compare_the_arima_search_and_multi_file_ingest_fork_and_only_once",)),
    # no model command replaces a file it uses (`cli._resolve_defaults`)
    Mutant("compare-outputs-unchecked", "src/celltide/cli.py",
           'for flag, path in [("--series", args.series), *_output_paths(args).values()]:',
           'for flag, path in [("--series", args.series), '
           '*(_output_paths(args).values() if args.command != "compare" else ())]:',
           ("tests/test_cli.py::test_a_compare_output_naming_the_series_is_usage_error",)),
    Mutant("ingest-out-in-input-dir-unchecked", "src/celltide/cli.py",
           'if args.command == "ingest" and (os.path.realpath(os.path.dirname(args.out))',
           'if False and (os.path.realpath(os.path.dirname(args.out))',
           ("tests/test_cli.py::TestIngest::test_out_in_the_input_dir_is_usage_error",)),
    # each row forecasts the slots it is given (`forecast(model, data, lo, hi)`)
    Mutant("neural-forecast-from-the-test-start", "src/celltide/train.py",
           "windows = dataset.windows_for_range(data.normed, data.window, lo, hi)",
           "windows = dataset.windows_for_range(data.normed, data.window, "
           "data.spec.test_start, hi)",
           ("tests/test_cli.py::test_every_row_forecasts_the_range_it_is_given",)),
    Mutant("arima-forecast-on-the-test-range", "src/celltide/arima.py",
           "return rolling_forecast(model, data.values, (lo, hi))",
           "return rolling_forecast(model, data.values, data.test_range)",
           ("tests/test_cli.py::test_every_row_forecasts_the_range_it_is_given",)),
    # model files: one encoder pass per array row, one `dumps` call per file
    Mutant("model-file-in-one-encoder-pass", "src/celltide/modelio.py",
           "return encode(obj)",
           "return json.dumps(obj, default=lambda a: a.tolist(), allow_nan=False)",
           ("tests/test_modelio.py::test_lstm_file_peaks_below_half_a_mebibyte",)),
    Mutant("dumps-recurses-by-name", "src/celltide/modelio.py",
           'return "{" + ", ".join(f"{json.dumps(k)}: {encode(x)}" for k, x in v.items()) + "}"',
           'return "{" + ", ".join(f"{json.dumps(k)}: {dumps(x)}" for k, x in v.items()) + "}"',
           ("tests/test_benchmark_calls.py::test_one_dumps_call_per_json_file",)),
    # the LSTM kernels: the fused-gate operand is a halved copy of `p.Wb`
    Mutant("gate-operand-not-copied", "src/celltide/lstm.py",
           "wg = p.Wb.copy()",
           "wg = p.Wb",
           ("tests/test_lstm.py::TestForward::test_determinism",)),
    Mutant("candidate-gate-halved", "src/celltide/lstm.py",
           "wg[:3 * h] *= 0.5",
           "wg[:4 * h] *= 0.5",
           ("tests/test_lstm.py::TestForward::test_matches_scalar_oracle",)),
    Mutant("squash-clamps-at-one", "src/celltide/linalg.py",
           "np.minimum(t, _SIG_HI, out=t)",
           "np.minimum(t, 1.0, out=t)",
           ("tests/test_linalg.py::TestActivations::test_sigmoid_symmetry_and_range",
            "tests/test_linalg.py::TestActivations::test_sigmoid_monotone",
            "tests/test_lstm.py::TestForward::"
            "test_saturated_sigmoid_gates_stay_inside_the_open_unit_interval")),
    # the LSTM's gate weights are strided views of `Wb` (`lstm.LstmParams`)
    Mutant("gate-weights-drop-the-input-column", "src/celltide/lstm.py",
           'setattr(self, f"W_{gate}", rows[:, :-1])',
           'setattr(self, f"W_{gate}", rows[:, :-2])',
           ("tests/test_lstm.py::TestPackedStorage::"
            "test_fields_are_views_of_the_packed_gate_block",)),
    # the ARIMA order bound is a flag range (`cli._FLAG_RANGES`)
    Mutant("order-bound-six", "src/celltide/cli.py",
           '**dict.fromkeys(("p", "d", "q"), (lambda v: v is None or 0 <= v <= 5, "in 0..5")),',
           '**dict.fromkeys(("p", "d", "q"), (lambda v: v is None or 0 <= v <= 6, "in 0..5")),',
           ("tests/test_cli.py::TestArima::test_order_out_of_range_is_usage_error",)),
)


def _apply(copy: str, mutant: Mutant) -> str:
    """Mutate the copy's file and return its original text; None when the
    mutant's line is not found exactly once."""
    path = os.path.join(copy, mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == mutant.line]
    if len(hits) != 1:
        return None
    line = lines[hits[0]]
    indent = line[:len(line) - len(line.lstrip())]
    lines[hits[0]] = indent + mutant.mutated + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
    return text


def _pytest_status(copy: str, tests) -> int:
    """pytest's exit code on `tests` in the copy: 0 when they pass, 1 when
    they fail or hang, and another code for any other outcome."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(copy, "src"),
                                                        os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1
    return done.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    if unknown := [name for name in args.names if name not in known]:
        parser.error(f"unknown mutant: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name}  {m.path}  {' '.join(m.tests)}")
        return 0
    with tempfile.TemporaryDirectory(prefix="celltide-mutants-") as copy:
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(copy, name), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)
        baseline = list(dict.fromkeys(t for m in chosen for t in m.tests))
        if code := _pytest_status(copy, baseline):
            print(f"the unchanged copy fails its tests, pytest exited {code}: "
                  + " ".join(baseline))
            return 2
        status = 0
        for m in chosen:
            original = _apply(copy, m)
            if original is None:
                print(f"{m.name}: no longer applies, its line is not in {m.path} exactly once")
                status = 2
                continue
            try:
                code = _pytest_status(copy, m.tests)
            finally:
                with open(os.path.join(copy, m.path), "w", encoding="utf-8") as fh:
                    fh.write(original)
            if code not in (0, 1):
                print(f"{m.name}: error, pytest exited {code}")
                return 2
            print(f"{m.name}: {'survived' if code == 0 else 'killed'}", flush=True)
            if code == 0 and status == 0:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
