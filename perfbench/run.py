#!/usr/bin/env python3
"""celltide benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a celltide source tree. The program is imported from
./src and nothing is installed. Inputs are generated from --seed once, before
any timing, into .perfbench_work/ (which also holds outputs, digests, result
files and spans).

Every workload is a closed loop with one client: the next CLI call starts
only after the previous one has exited. BLAS runs on one thread in every
process.

  compare-62d  `celltide compare` at its defaults (--seed 0) on a 62-day series
  arima-248d   `celltide arima --auto --train-frac 0.7` on a 248-day series
  ingest-cdr   `celltide ingest` of two grid cells from 7 days of CDR files

--trace 0 repeats the workload's CLI calls in child processes until S seconds
have passed (at least once) and reports the end-to-end metrics: medians over
those iterations, and the median of three set-up probes.
--trace 1 alternates untraced and traced iterations, in pairs, until S seconds
have passed (at least one pair). In a traced iteration perfbench/tracer.py
runs `cli.main(argv)` with the module functions wrapped. It reports the
per-layer metrics.

Every iteration's outputs are checked; an iteration that fails a check
counts in `failed`. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

SRC = "src"
WORK = ".perfbench_work"
TRACER = os.path.join(HERE, "tracer.py")
PROBE = os.path.join(HERE, "setup_probe.py")
CLI_MAIN = "import sys; from celltide.cli import main; sys.exit(main())"

COMPARE_EPOCHS = 20   # the CLI default, checked in the histories
WINDOW = 12           # the CLI default
LSTM_HIDDEN = 50      # the default of train.train_model
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
RUN_BUDGET_S = 150    # no iteration starts that would likely end past this

WORKLOADS = {
    "compare-62d": {"kind": "compare", "days": 62, "train_frac": 0.8},
    "arima-248d": {"kind": "arima", "days": 248, "train_frac": 0.7},
    "ingest-cdr": {"kind": "ingest", "days": 7, "cells": 100},
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Printed with every run but not in the final line: each applies to some
# workloads only, and error_rate is 0 on a clean run.
REPORT_UNITS = {"error_rate": "ratio", "lstm_test_mae": "activity",
                "ffnn_test_mae": "activity", "arima_test_mae": "activity",
                "lines_per_s": "1/s"}

# Per-layer metrics and their units. perfbench/README.md gives, for each,
# the end-to-end metric and the workload it should move.
PER_LAYER = {
    "cli.import_s": "s",
    "cdr.lines_parsed": "count",
    "cdr.parse_s": "s",
    "cdr.us_per_line": "us",
    "cdr.records_kept_ratio": "ratio",
    "cdr.lines_per_s": "1/s",
    "cdr.read_series_csv_s": "s",
    "cdr.write_series_csv_s": "s",
    "dataset.windows_s": "s",
    "dataset.windows_built": "count",
    "linalg.sigmoid_us": "us",
    "linalg.sigmoid_calls": "count",
    "lstm.forward_batch_ms": "ms",
    "lstm.backward_batch_ms": "ms",
    "lstm.forward_eval_ms": "ms",
    "lstm.test_mae": "activity",
    "ffnn.forward_batch_us": "us",
    "ffnn.backward_batch_us": "us",
    "ffnn.test_mae": "activity",
    "train.fit_s.lstm": "s",
    "train.fit_s.ffnn": "s",
    "train.epoch_s.lstm": "s",
    "train.adam_step_us": "us",
    "train.adam_steps": "count",
    "train.evaluate_s": "s",
    "arima.auto_order_s": "s",
    "arima.fit_calls": "count",
    "arima.fit_failures": "count",
    "arima.fit_s": "s",
    "arima.fit_self_s": "s",
    "arima.css_evals": "count",
    "arima.css_s": "s",
    "arima.rolling_forecast_s": "s",
    "arima.forecasts": "count",
    "arima.history_slots_refiltered": "count",
    "arima.test_mae": "activity",
    "modelio.dumps_s": "s",
    "modelio.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CELLTIDE_SEED", None)  # the workloads pass --seed or use the default
    env["PYTHONPATH"] = os.path.abspath(SRC)
    return env


def run_child(cmd, log_prefix: str, timeout: float) -> dict:
    """Run one child to exit; wall time from spawn to exit, and its rusage."""
    with open(log_prefix + ".out", "wb") as out, open(log_prefix + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env())
        lock, exited = threading.Lock(), [False]

        def kill():
            with lock:
                if not exited[0]:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # wait without reaping, so that a late kill can only hit a zombie
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            with lock:
                exited[0] = True
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def cli_calls(wl: dict, meta: dict, out_dir: str) -> list:
    kind = wl["kind"]
    if kind == "compare":
        return [["compare", "--series", meta["series"], "--seed", "0", "--out-dir", out_dir]]
    if kind == "arima":
        return [["arima", "--series", meta["series"], "--auto",
                 "--train-frac", str(wl["train_frac"]),
                 "--out-model", os.path.join(out_dir, "arima.json"),
                 "--out-predictions", os.path.join(out_dir, "arima_predictions.csv")]]
    return [["ingest", "--input-dir", meta["input_dir"], "--grid", str(g),
             "--channel", "internet", "--out", os.path.join(out_dir, f"series-{g}.csv")]
            for g in meta["grids"]]


def check_outputs(wl: dict, meta: dict, out_dir: str):
    kind = wl["kind"]
    if kind == "compare":
        return checks.check_compare(out_dir, meta["series"], wl["train_frac"], COMPARE_EPOCHS)
    if kind == "arima":
        return checks.check_arima(out_dir, meta["series"], wl["train_frac"])
    problems, digests = [], {}
    for g in meta["grids"]:
        found, dig = checks.check_ingest(os.path.join(out_dir, f"series-{g}.csv"),
                                         meta["expected"][str(g)])
        problems += found
        digests.update(dig)
    return problems, digests, {}


def run_iteration(wl: dict, meta: dict, out_dir: str, traced: bool) -> dict:
    """One pass over the workload's CLI calls, checked."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    calls, problems = [], []
    for i, argv in enumerate(cli_calls(wl, meta, out_dir)):
        if traced:
            cmd = [sys.executable, TRACER, os.path.join(out_dir, f"trace{i}"), "--", *argv]
        else:
            cmd = [sys.executable, "-c", CLI_MAIN, *argv]
        log = os.path.join(out_dir, f"call{i}")
        res = run_child(cmd, log, CHILD_TIMEOUT_S)
        calls.append(res)
        if res["rc"] != 0:
            with open(log + ".err", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-400:].strip()
            problems.append(f"{argv[0]} call {i} exited with {res['rc']}: {tail}")
            break
    digests, quality = {}, {}
    if not problems:
        problems, digests, quality = check_outputs(wl, meta, out_dir)
    return {"traced": traced,
            "wall_s": sum(c["wall_s"] for c in calls),
            "cpu_s": sum(c["cpu_s"] for c in calls),
            "peak_rss_mb": max(c["peak_rss_mb"] for c in calls),
            "calls": calls, "problems": problems, "digests": digests,
            "quality": quality, "out_dir": out_dir}


def source_digest() -> str:
    names = []
    for base, _, files in os.walk(os.path.join(SRC, "celltide")):
        names += [os.path.join(base, f) for f in files if f.endswith(".py")]
    return inputs.digest_files(sorted(names))


def environment(src_digest: str) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    commit = None
    if os.path.isdir(".git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": metadata.version("scipy"),
            "blas": blas, "blas_threads": BLAS_THREADS, "git_commit": commit,
            "source_digest": src_digest}


def cdr_lines(wl: dict, meta: dict) -> int:
    """CDR lines parsed per iteration: every call re-parses the whole directory."""
    return len(meta["grids"]) * meta["lines"] if wl["kind"] == "ingest" else 0


def setup_probe_cmd(wl: dict, meta: dict) -> list:
    if wl["kind"] == "ingest":
        return [sys.executable, PROBE, "ingest"]
    return [sys.executable, PROBE, wl["kind"], meta["series"],
            str(wl["train_frac"]), str(WINDOW)]


def iterate(wl, meta, store, run_dir, seconds, modes, t_run) -> list:
    """Rounds of one iteration per mode (False: untraced, True: traced) until
    `seconds` have passed, at least one round and within the run budget."""
    its, t0, rounds = [], time.perf_counter(), 0
    while rounds == 0 or time.perf_counter() - t0 < seconds:
        last_round_s = sum(it["wall_s"] for it in its[-len(modes):])
        if rounds and time.perf_counter() - t_run + 1.3 * last_round_s > RUN_BUDGET_S:
            break
        for traced in modes:
            name = f"{'traced' if traced else 'plain'}{rounds}"
            it = run_iteration(wl, meta, os.path.join(run_dir, name), traced)
            store.check(it)
            its.append(it)
            status = "ok" if not it["problems"] else "FAILED: " + "; ".join(it["problems"])
            print(f"iteration {name}: wall_s={it['wall_s']:.4f} cpu_s={it['cpu_s']:.4f} "
                  f"peak_rss_mb={it['peak_rss_mb']:.1f} {status}", flush=True)
        rounds += 1
    return its


# ---- per-layer metrics from spans -------------------------------------------

def load_spans(prefixes) -> tuple:
    """Per-label arrays of duration, self time, value and failed flag, plus the
    import times, sigmoid counts and missing names of the traced calls."""
    groups, import_s, sigmoid_calls, missing = {}, [], 0, set()
    for prefix in prefixes:
        with open(prefix + ".json", encoding="utf-8") as fh:
            meta = json.load(fh)
        import_s.append(meta["import_s"])
        sigmoid_calls += meta["sigmoid_calls"]
        missing.update(meta["missing"])
        with np.load(prefix + ".npz") as z:
            name, parent = z["name"], z["parent"]
            dur = z["end"] - z["start"]
            value, failed = z["value"], z["failed"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_t = dur - child
        for i, label in enumerate(meta["labels"]):
            sel = name == i
            g = groups.setdefault(label, [[], [], [], []])
            for lst, arr in zip(g, (dur, self_t, value, failed)):
                lst.append(arr[sel])
    spans = {k: tuple(np.concatenate(parts) for parts in v) for k, v in groups.items()}
    return spans, import_s, sigmoid_calls, sorted(missing)


def function_stats(spans: dict) -> dict:
    """Calls, busy and self time, p50 and (with >= 1000 samples) p99 per function."""
    out = {}
    for label, (dur, self_t, _, failed) in sorted(spans.items()):
        n = len(dur)
        if n == 0:
            continue
        out[label] = {"calls": n, "busy_s": float(dur.sum()), "self_s": float(self_t.sum()),
                      "p50_s": float(np.median(dur)),
                      "p99_s": float(np.percentile(dur, 99)) if n >= 1000 else None,
                      "failed": int(failed.sum()), "samples": n}
    return out


def layer_metrics(spans: dict, import_s: list, sigmoid_calls: int) -> dict:
    empty = (np.zeros(0),) * 4

    def g(label):
        return spans.get(label, empty)

    def busy(label):
        return float(g(label)[0].sum())

    def calls(label):
        return len(g(label)[0])

    def total(label):
        return float(g(label)[2].sum())

    def p50_us(label):
        return float(np.median(g(label)[0])) * 1e6 if calls(label) else 0.0

    lines = calls("cdr.parse_line")
    lstm_epochs = total("train.fit.lstm")
    return {
        "cli.import_s": statistics.median(import_s),
        "cdr.lines_parsed": lines,
        "cdr.parse_s": busy("cdr.parse_line"),
        "cdr.us_per_line": busy("cdr.parse_line") / lines * 1e6 if lines else 0.0,
        "cdr.records_kept_ratio": total("cdr.aggregate") / lines if lines else 0.0,
        "cdr.read_series_csv_s": busy("cdr.read_series_csv"),
        "cdr.write_series_csv_s": busy("cdr.write_series_csv"),
        "dataset.windows_s": busy("dataset.windows_for_range"),
        "dataset.windows_built": int(total("dataset.windows_for_range")),
        "linalg.sigmoid_calls": sigmoid_calls,
        "train.fit_s.lstm": busy("train.fit.lstm"),
        "train.fit_s.ffnn": busy("train.fit.ffnn"),
        "train.epoch_s.lstm": busy("train.fit.lstm") / lstm_epochs if lstm_epochs else 0.0,
        "train.adam_step_us": p50_us("train.adam_step"),
        "train.adam_steps": calls("train.adam_step"),
        "train.evaluate_s": busy("train.evaluate"),
        "arima.auto_order_s": busy("arima.auto_order"),
        "arima.fit_calls": calls("arima.fit"),
        "arima.fit_failures": int(g("arima.fit")[3].sum()),
        "arima.fit_s": busy("arima.fit"),
        "arima.fit_self_s": float(g("arima.fit")[1].sum()),
        "arima.css_evals": calls("arima.css"),
        "arima.css_s": busy("arima.css"),
        "arima.rolling_forecast_s": busy("arima.rolling_forecast"),
        "arima.forecasts": calls("arima.forecast_one"),
        "arima.history_slots_refiltered": int(total("arima.forecast_one")),
        "modelio.dumps_s": busy("modelio.dumps"),
        "modelio.bytes_written": int(total("modelio.dumps")),
    }


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_metrics(wl: dict, meta: dict) -> dict:
    """Direct timings of kernels that the program binds at import time, so
    that no wrapper sees them: `sigmoid` (from-imported by both models) and
    the model forward and backward passes (held in `train._MODEL_OPS`).

    The model kernels run on the workload's own training windows: one epoch
    of B=32 batches in a seeded order, plus full-validation forward passes.
    Workloads that train no model report 0 for them.
    """
    sys.path.insert(0, os.path.abspath(SRC))
    from celltide import cdr, dataset, ffnn, linalg, lstm

    x = np.random.default_rng(0).normal(0.0, 3.0, size=(32, 50))
    out = {"linalg.sigmoid_us": _median_time(lambda: linalg.sigmoid(x), 2000) * 1e6}
    names = ("lstm.forward_batch_ms", "lstm.backward_batch_ms", "lstm.forward_eval_ms",
             "ffnn.forward_batch_us", "ffnn.backward_batch_us")
    if wl["kind"] != "compare":
        return {**out, **{k: 0.0 for k in names}}
    values = cdr.read_series_csv(meta["series"]).values
    spec = dataset.split(len(values), wl["train_frac"])
    scaler = dataset.fit_scaler(values[:spec.n_train])
    normed = scaler.transform(values)
    train_set = dataset.windows_for_range(normed, WINDOW, 0, spec.n_train)
    val_set = dataset.windows_for_range(normed, WINDOW, spec.val_start, spec.test_start)
    order = np.random.default_rng(0).permutation(len(train_set))
    models = {"lstm": (lstm, lstm.init_params(LSTM_HIDDEN, 1, seed=0), 1e3),
              "ffnn": (ffnn, ffnn.init_params(WINDOW, seed=0), 1e6)}
    for kind, (mod, params, scale) in models.items():
        fwd, bwd = [], []
        for lo in range(0, len(order) - 31, 32):
            idx = order[lo:lo + 32]
            t0 = time.perf_counter()
            y, cache = mod.forward_batch(train_set.inputs[idx], params)
            t1 = time.perf_counter()
            mod.backward_batch(cache, np.sign(y - train_set.targets[idx]) / 32, params)
            t2 = time.perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
        unit = "ms" if kind == "lstm" else "us"
        out[f"{kind}.forward_batch_{unit}"] = statistics.median(fwd) * scale
        out[f"{kind}.backward_batch_{unit}"] = statistics.median(bwd) * scale
    out["lstm.forward_eval_ms"] = _median_time(
        lambda: lstm.forward_batch(val_set.inputs, models["lstm"][1]), 5) * 1e3
    return out


def uncalled_targets(spans: dict, missing: list) -> list:
    """Wrapped functions with no span (by-kind spans count for their base)."""
    called = {label for label, arrays in spans.items() if len(arrays[0])}
    names = [f"{mod}.{fn}" for mod, fn, _, _ in tracer.TARGETS]
    return [n for n in names if n not in missing
            and not any(c == n or c.startswith(n + ".") for c in called)]


def traced_metrics(wl: dict, meta: dict, plain: list, traced: list, run_dir: str,
                   result: dict) -> dict:
    """Per-layer metrics: medians over the traced iterations, kernel timings,
    forecast quality, and the tracing overhead (median over rounds of traced
    minus untraced wall time)."""
    per_it = []
    for it in traced:
        prefixes = [os.path.join(it["out_dir"], f"trace{i}") for i in range(len(it["calls"]))]
        if not all(os.path.exists(p + ".npz") for p in prefixes):
            continue
        spans, import_s, sigmoid_calls, missing = load_spans(prefixes)
        per_it.append(layer_metrics(spans, import_s, sigmoid_calls))
        for p in prefixes:
            shutil.copy(p + ".npz", os.path.join(
                run_dir, f"spans-{os.path.basename(it['out_dir'])}-{os.path.basename(p)}.npz"))
    metrics = {k: statistics.median(m[k] for m in per_it) for k in per_it[0]} if per_it else {}
    if per_it:
        stats = function_stats(spans)
        uncalled = uncalled_targets(spans, missing)
        result.update(functions=stats, missing=missing, uncalled=uncalled)
        print("missing, not traced: " + (", ".join(missing) or "none"))
        print("not called on this workload, their metrics read 0: "
              + (", ".join(uncalled) or "none"))
        for label, st in stats.items():
            p99 = f"{st['p99_s'] * 1e3:.4f}ms" if st["p99_s"] is not None else "n/a"
            print(f"span {label}: calls={st['calls']} busy={st['busy_s']:.4f}s "
                  f"self={st['self_s']:.4f}s p50={st['p50_s'] * 1e3:.4f}ms "
                  f"p99={p99} failed={st['failed']} n={st['samples']}")
    metrics.update(kernel_metrics(wl, meta))
    quality = next((it["quality"] for it in plain if not it["problems"]), {})
    for kind in ("lstm", "ffnn", "arima"):
        metrics[f"{kind}.test_mae"] = quality.get(f"{kind}_test_mae") or 0.0
    metrics["cdr.lines_per_s"] = cdr_lines(wl, meta) / statistics.median(
        it["wall_s"] for it in plain)
    metrics["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    return metrics


# ---- main -------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "celltide", "cli.py")):
        print("error: run from the root of a celltide source tree "
              "(src/celltide/cli.py not found)", file=sys.stderr)
        return 2
    t_run = time.perf_counter()
    wl = dict(WORKLOADS[args.workload], name=args.workload)
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC], check=True)
    meta = inputs.prepare(wl, args.seed, os.path.join(WORK, "inputs"))
    src_digest = source_digest()
    env = environment(src_digest)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"inputs {args.workload} seed={args.seed} digest={meta['input_digest']}")
    store = checks.DigestStore(os.path.join(WORK, "digests", src_digest[:16]),
                               f"{args.workload}-{args.seed}")
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = os.path.join(WORK, "runs", f"{args.workload}-{args.seed}-t{args.trace}-{stamp}")
    os.makedirs(run_dir, exist_ok=True)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "input_digest": meta["input_digest"]}

    if args.trace == 0:
        setup = [run_child(setup_probe_cmd(wl, meta), os.path.join(run_dir, f"setup{i}"),
                           CHILD_TIMEOUT_S) for i in range(SETUP_REPEATS)]
        its = iterate(wl, meta, store, run_dir, args.seconds, (False,), t_run)
        bad_setup = [s["rc"] for s in setup if s["rc"] != 0]
        if bad_setup:
            its[0]["problems"].append(f"set-up probe exited with {bad_setup}")
        metrics = {
            "wall_s": statistics.median(it["wall_s"] for it in its),
            "cpu_s": statistics.median(it["cpu_s"] for it in its),
            "setup_s": statistics.median(s["wall_s"] for s in setup),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in its),
        }
        units = END_TO_END
        result["setup_samples_s"] = [s["wall_s"] for s in setup]
    else:
        its = iterate(wl, meta, store, run_dir, args.seconds, (False, True), t_run)
        plain = [it for it in its if not it["traced"]]
        traced = [it for it in its if it["traced"]]
        metrics = traced_metrics(wl, meta, plain, traced, run_dir, result)
        units = PER_LAYER

    attempted = len(its)
    failed = sum(1 for it in its if it["problems"])
    report = {"error_rate": failed / attempted}
    if args.trace == 0:  # the traced run has these among its per-layer metrics
        quality = next((it["quality"] for it in its if not it["problems"]), {})
        report.update((k, v) for k, v in quality.items() if v is not None)
        if wl["kind"] == "ingest":
            report["lines_per_s"] = cdr_lines(wl, meta) / metrics["wall_s"]
    print("digests " + json.dumps(store.reference, sort_keys=True))
    print(f"attempted={attempted} failed={failed}")
    for key, value in {**metrics, **report}.items():
        print(f"metric {key} = {value} {units.get(key) or REPORT_UNITS[key]}")
    result.update(metrics=metrics, report=report, attempted=attempted, failed=failed,
                  digests=store.reference,
                  iterations=[{k: v for k, v in it.items() if k != "out_dir"} for it in its])
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    for it in its:
        shutil.rmtree(it["out_dir"], ignore_errors=True)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units if k in metrics}}
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
