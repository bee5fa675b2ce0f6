"""Command-line interface: ingest raw CDR files, generate synthetic traffic,
train the neural models, fit the ARIMA baseline, and run the three-way
comparison that emits plot-ready prediction and error-curve CSVs.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

import argparse
import contextlib
import os
import sys
import time

from . import Failure, cdr  # the model modules, and numpy, load in the commands that model


def _write_predictions(path: str, values, test_range, preds) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("slot,truth,prediction\n")
        for s, p in zip(range(*test_range), preds):
            fh.write(f"{s},{values[s]:.17g},{p:.17g}\n")


@contextlib.contextmanager
def _outputs(out_dir: str = ""):
    """Make `out_dir` if it is missing and yield `out(path)`, which returns the
    temporary sibling to write output file `path` to. Once the block has
    succeeded, each temporary replaces its file. A failure or an interrupt
    removes the temporaries instead, and `out_dir` and each parent of it that
    was made here, leaf first, so a file that existed before stays as it was."""
    made, missing = [], out_dir  # made: the directories makedirs will create
    while missing and not os.path.isdir(missing):
        made.append(missing)
        missing = os.path.dirname(missing.rstrip(os.sep))
    temporaries = {}  # output path: its temporary, in the order handed out

    def out(path):
        head, tail = os.path.split(path)
        return temporaries.setdefault(path, os.path.join(head, f".{tail}.{os.getpid()}.tmp"))

    try:
        if made:
            os.makedirs(out_dir)
        yield out
        for path, temporary in temporaries.items():
            os.replace(temporary, path)
    except BaseException as exc:
        outputs = {temporary: path for path, temporary in temporaries.items()}
        if isinstance(exc, OSError) and exc.filename in outputs:  # name the output file
            exc.filename = outputs[exc.filename]
        for path in filter(os.path.isfile, temporaries.values()):
            os.remove(path)
        for path in made:
            with contextlib.suppress(OSError):  # never made, or no longer empty
                os.rmdir(path)
        raise


def _prepare(args, kinds) -> argparse.Namespace:
    """Shared start of `train`, `arima` and `compare`: read and split the series,
    then run each distinct setup of `kinds`' rows of the kind table on it."""
    from . import dataset, train
    values = cdr.read_series_csv(args.series).values
    spec = dataset.split(len(values), args.train_frac)
    data = argparse.Namespace(values=values, spec=spec,
                              test_range=(spec.test_start, spec.test_start + spec.n_test))
    for setup in dict.fromkeys(train.FORECASTERS[kind].setup for kind in kinds):
        setup(data, args)
    return data


def _run(kind: str, data):
    """Fit `kind`'s row on `data`'s training slice, with `_map_in_two` as its `map`,
    and forecast the test slice. Returns (model, the fit's lines, preds, test MAE, fit ms)."""
    from . import train
    forecaster, t0 = train.FORECASTERS[kind], time.perf_counter()
    model, lines = forecaster.fit(data, _map_in_two)
    wall_ms = (time.perf_counter() - t0) * 1e3
    preds = forecaster.forecast(model, data, *data.test_range)
    return model, lines, preds, train.mae(preds, data.values[slice(*data.test_range)]), wall_ms


def _fit_and_write(args) -> int:
    """`train`, `arima` and `compare`: fit and forecast `--model`'s row, or for
    `compare` every row, on one `_prepare`d split; print each row's lines and
    test MAE, headed `kind: ` where there are several; write each row's files
    that `_output_paths` has a path for, and `report.json` where it has one."""
    from . import modelio, train
    kinds = list(train.FORECASTERS) if args.command == "compare" else [args.model]
    data, reports, paths = _prepare(args, kinds), {}, _output_paths(args)
    # entered before the fits, so that an out_dir that cannot be made fails at
    # once; the files are written only once every fit has succeeded
    with _outputs(getattr(args, "out_dir", "")) as out:
        # the first row, compare's LSTM and most of its time, here; the rest in
        # the worker. One row is one item, which starts no worker
        groups = [kinds[:1], kinds[1:]][:len(kinds)]
        rows = _map_in_two(lambda group: [_run(kind, data) for kind in group], groups)
        for kind, (model, lines, preds, test_mae, wall_ms) in zip(kinds, sum(rows, [])):
            row, head = train.FORECASTERS[kind], f"{kind}: " if len(kinds) > 1 else ""

            def file(name):  # the temporary of the row's file `name`, or None for none
                return (path := paths.get(f"{kind}_{name}")) and out(path[1])

            for line in lines:
                print(head + line)
            scores = {"test_mae": test_mae}
            if hasattr(data, "scaler"):  # fitted by a neural row's setup
                scores["test_mae_normalized"] = test_mae / (data.scaler.max - data.scaler.min)
            reports[kind] = {**row.report(model, scores, file), "train_wall_ms": wall_ms}
            if path := file("predictions.csv"):
                _write_predictions(path, data.values, data.test_range, preds)
            if path := file("model.json"):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(row.dumps(model, data))
            print(f"{head}test MAE {test_mae:.6f}")
        if "report.json" in paths:
            config = {"train_frac": args.train_frac, "window": args.window, "epochs": args.epochs,
                      "learning_rate": args.lr, "batch_size": train.BATCH_SIZE,
                      **{n: getattr(data.spec, n) for n in ("n_train", "n_val", "n_test")}}
            with open(out(paths["report.json"][1]), "w", encoding="utf-8") as fh:
                fh.write(modelio.dumps({"seed": args.seed, "config": config,
                                        "models": reports}))
    return 0


def cmd_synth(args) -> int:
    from . import dataset
    series = dataset.gen_synthetic(args.days, seed=args.seed)
    with _outputs() as out:
        cdr.write_series_csv(series, out(args.out))
    print(f"wrote {len(series)} slots to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    series = cdr.ingest_dir(args.input_dir, args.grid, args.channel, map=_map_in_two)
    with _outputs() as out:
        cdr.write_series_csv(series, out(args.out))
    print(f"{len(series)} slots")
    return 0


def _worker(tx, fn, items) -> None:
    """The one process a command starts: it maps `fn` over its share of the
    items and sends back (ok, results or exception)."""
    try:
        message = (True, list(map(fn, items)))
    except BaseException as exc:  # an interrupt too: the parent re-raises it
        message = (False, exc)
    tx.send(message)


def _map_in_two(fn, items):
    """`list(map(fn, items))`, the first ceil(n/2) items mapped here while the
    one worker, a fork of this process, maps the rest. An error of this
    process's share is raised before the worker's result is read; a worker
    that ends without a result is a ChildProcessError naming its exit status.
    Fewer than two items, or any number in the worker itself, are all mapped
    here: no worker, and never a second one."""
    if len(items) > 1:
        import multiprocessing  # here, so that importing the CLI stays cheap
    if len(items) < 2 or multiprocessing.parent_process() is not None:
        return list(map(fn, items))
    cut = (len(items) + 1) // 2
    context = multiprocessing.get_context("fork")
    rx, tx = context.Pipe(duplex=False)
    worker = context.Process(target=_worker, args=(tx, fn, items[cut:]))
    worker.start()
    try:
        tx.close()
        mine, ok, theirs = list(map(fn, items[:cut])), False, None
        with contextlib.suppress(EOFError):  # the worker died without a result
            ok, theirs = rx.recv()
        worker.join()
        if not ok:
            raise theirs or ChildProcessError(f"worker exited with status {worker.exitcode}")
    finally:  # an interrupt too leaves no worker
        worker.kill()  # a no-op once the worker has been reaped
        worker.join()
        rx.close()
    return mine + theirs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="celltide",
        description="Univariate cellular traffic forecasting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, parser=p)  # `parser` reports the subcommand's usage errors
        return p

    def add_common_train_flags(p):
        p.add_argument("--series", required=True, help="series CSV (slot,timestamp_ms,value)")
        p.add_argument("--train-frac", type=float, default=0.8)
        p.add_argument("--window", type=int, default=12)
        p.add_argument("--epochs", type=int, default=20)
        p.add_argument("--lr", type=float, default=1e-3)
        p.add_argument("--seed", type=int, default=0, help="random seed")

    p = add_command("synth", cmd_synth, "generate a synthetic diurnal traffic series")
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", required=True)

    p = add_command("ingest", cmd_ingest, "parse a directory of raw CDR day-files")
    p.add_argument("--input-dir", required=True)
    p.add_argument("--grid", type=int, default=1)
    p.add_argument("--channel", choices=cdr.CHANNELS, default="internet")
    p.add_argument("--out", required=True)

    p = add_command("train", _fit_and_write, "train the LSTM or feed-forward model")
    p.add_argument("--model", choices=("lstm", "ffnn"), required=True)
    add_common_train_flags(p)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-history", required=True)

    p = add_command("arima", _fit_and_write, "fit the ARIMA baseline and forecast the test slice")
    p.set_defaults(model="arima")  # the one row it fits
    p.add_argument("--series", required=True)
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--auto", action="store_true",
                   help="AIC grid search for (p,d,q); excludes --p, --d and --q")
    p.add_argument("--p", type=int, help="AR order (default 1)")
    p.add_argument("--d", type=int, help="differencing order (default 0)")
    p.add_argument("--q", type=int, help="MA order (default 0)")
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-predictions", required=True)

    p = add_command("compare", _fit_and_write, "LSTM vs FFNN vs ARIMA under one split")
    add_common_train_flags(p)
    p.add_argument("--p", type=int, help="ARIMA AR order; omitted = AIC search")
    p.add_argument("--d", type=int, help="differencing order (default 0; needs --p)")
    p.add_argument("--q", type=int, help="MA order (default 0; needs --p)")
    p.add_argument("--out-dir", required=True)
    return parser


# flag: (test of its value, the rule the message states); the library
# functions the commands call assume values that pass
_FLAG_RANGES = {
    "seed": (lambda v: v >= 0, "non-negative"),
    "days": (lambda v: v >= 1, ">= 1"),
    "window": (lambda v: v >= 1, ">= 1"),
    "epochs": (lambda v: v >= 1, ">= 1"),
    "lr": (lambda v: 0 <= v < float("inf"), "finite and >= 0"),
    "train_frac": (lambda v: 0 < v <= 0.8, "in (0, 0.8]"),
    **dict.fromkeys(("p", "d", "q"), (lambda v: v is None or 0 <= v <= 5, "in 0..5")),
}


def _output_paths(args) -> dict:
    """Each file that `train`, `arima` or `compare` writes, as `kind_name` for a row's
    file `name`, or `report.json`: (the flag that names it, its path). `compare`
    writes every row's `model.json`, `predictions.csv` and `report_files` in `--out-dir`."""
    if args.command != "compare":
        flags = {"model.json": "out_model", "history.csv": "out_history",
                 "predictions.csv": "out_predictions"}
        return {f"{args.model}_{name}": (f"--{flag}".replace("_", "-"), getattr(args, flag))
                for name, flag in flags.items() if hasattr(args, flag)}
    from . import train
    names = [f"{kind}_{name}" for kind, row in train.FORECASTERS.items()
             for name in ("predictions.csv", "model.json", *row.report_files)]
    return {name: ("--out-dir", os.path.join(args.out_dir, name))
            for name in [*names, "report.json"]}


def _resolve_defaults(args) -> None:
    """Check every flag value and fill in the defaults that depend on other
    flags, before the series is read; a bad value or combination is a usage
    error (exit code 2) under the subcommand's usage line. `arima` and
    `compare` get `args.order`: (p, d, q), or None for the AIC search."""
    parser = args.parser
    for name, (ok, rule) in _FLAG_RANGES.items():
        if hasattr(args, name) and not ok(value := getattr(args, name)):
            parser.error(f"--{name.replace('_', '-')} must be {rule}, got {value}")
    if hasattr(args, "series"):  # a model command, whose outputs replace no file it uses
        first = {}  # each resolved path: the flag and the path that first name it
        for flag, path in [("--series", args.series), *_output_paths(args).values()]:
            if (other := first.setdefault(os.path.realpath(path), (flag, path))) != (flag, path):
                parser.error(f"{other[0]} and {flag} name the same file: {other[1]} and {path}")
    if args.command == "ingest" and (os.path.realpath(os.path.dirname(args.out))
                                     == os.path.realpath(args.input_dir)):
        parser.error("--out must not name a file in --input-dir: the next ingest would read it")
    if args.command in ("arima", "compare"):
        given = ", ".join(f"--{k}" for k in ("p", "d", "q") if getattr(args, k) is not None)
        auto = args.auto if args.command == "arima" else args.p is None
        if auto and given:
            parser.error(f"--auto cannot be combined with {given}" if args.command == "arima"
                         else f"{given} cannot be combined with the AIC order search; give --p too")
        args.order = None if auto else (1 if args.p is None else args.p,
                                        args.d or 0, args.q or 0)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _resolve_defaults(args)
    try:
        return args.func(args)
    except (Failure, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
