"""Command-line interface: ingest raw CDR files, generate synthetic traffic,
train the neural models, fit the ARIMA baseline, and run the three-way
comparison that emits plot-ready prediction and error-curve CSVs.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

import argparse
import os
import sys
import time

import numpy as np

from . import arima, cdr, dataset, modelio, train

SEED_ENV = "CELLTIDE_SEED"


def _write_predictions(path: str, slots, truth, preds) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("slot,truth,prediction\n")
        for s, t, p in zip(slots, truth, preds):
            fh.write(f"{s},{t:.17g},{p:.17g}\n")


def _neural_setup(args):
    """Shared start of `train` and `compare`: read the series, split it,
    fit the scaler on the training slice, print the split, and build the
    training and validation windows and the training config. Returns
    (values, spec, scaler, train_set, val_set, config)."""
    values = cdr.read_series_csv(args.series).values
    spec = dataset.split(len(values), args.train_frac)
    scaler = dataset.fit_scaler(values[:spec.n_train])
    print(f"split {spec.n_train}/{spec.n_val}/{spec.n_test}")
    normed = scaler.transform(values)
    train_set = dataset.windows_for_range(normed, args.window, 0, spec.n_train)
    val_set = dataset.windows_for_range(normed, args.window, spec.val_start,
                                        spec.test_start)
    config = train.TrainConfig(epochs=args.epochs, learning_rate=args.lr, seed=args.seed)
    return values, spec, scaler, train_set, val_set, config


def cmd_synth(args) -> int:
    series = dataset.gen_synthetic(args.days, seed=args.seed)
    cdr.write_series_csv(series, args.out)
    print(f"wrote {len(series)} slots to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    series = cdr.ingest_dir(args.input_dir, args.grid, args.channel)
    cdr.write_series_csv(series, args.out)
    print(f"{len(series)} slots")
    return 0


def cmd_train(args) -> int:
    _, _, scaler, train_set, val_set, config = _neural_setup(args)
    params, history = train.train_model(args.model, train_set, val_set, config)
    with open(args.out_model, "w", encoding="utf-8") as fh:
        fh.write(modelio.dumps_neural(params, args.window, scaler))
    history.write_csv(args.out_history)
    print(f"final val MAE (normalized) {history.final_val_mae:.6f}")
    return 0


def _run_arima(values: np.ndarray, spec, order):
    """Fit `order`, or select one by AIC when it is None, on the training
    slice; then forecast the test slice one step at a time. Returns (model,
    test slots, predictions, test MAE, fit wall time in ms)."""
    t0 = time.perf_counter()
    train_slice = values[:spec.n_train]
    model = arima.auto_order(train_slice) if order is None else arima.fit(train_slice, *order)
    wall_ms = (time.perf_counter() - t0) * 1e3
    test_stop = spec.test_start + spec.n_test
    preds = arima.rolling_forecast(model, values, (spec.test_start, test_stop))
    slots = np.arange(spec.test_start, test_stop)
    return model, slots, preds, train.mae(preds, values[slots]), wall_ms


def cmd_arima(args) -> int:
    values = cdr.read_series_csv(args.series).values
    spec = dataset.split(len(values), args.train_frac)
    model, slots, preds, test_mae, _ = _run_arima(values, spec, args.order)
    if args.order is None:
        print(f"selected order ({model.p},{model.d},{model.q})")
    with open(args.out_model, "w", encoding="utf-8") as fh:
        fh.write(arima.serialize(model))
    _write_predictions(args.out_predictions, slots, values[slots], preds)
    print(f"test MAE {test_mae:.6f}")
    return 0


def _arima_worker(tx, values: np.ndarray, spec, order) -> None:
    """The one process `compare` starts: it runs `_run_arima` while the
    parent trains the neural models and sends back one (ok, result or
    exception) tuple. The parent writes every file."""
    try:
        message = (True, _run_arima(values, spec, order))
    except BaseException as exc:  # an interrupt too: the parent re-raises it
        message = (False, exc)
    tx.send(message)


def cmd_compare(args) -> int:
    import multiprocessing  # here, so that importing the CLI stays cheap
    values, spec, scaler, train_set, val_set, config = _neural_setup(args)
    written = []
    scale = scaler.max - scaler.min
    report = {
        "seed": args.seed,
        "config": {"train_frac": args.train_frac, "window": args.window,
                   "epochs": args.epochs, "learning_rate": args.lr,
                   "batch_size": train.BATCH_SIZE,
                   "n_train": spec.n_train, "n_val": spec.n_val,
                   "n_test": spec.n_test},
        "models": {},
    }

    def out(name):
        path = os.path.join(args.out_dir, name)
        written.append(path)
        return path

    context = multiprocessing.get_context("fork")
    rx, tx = context.Pipe(duplex=False)
    worker = context.Process(target=_arima_worker, args=(tx, values, spec, args.order))
    worker.start()
    try:
        tx.close()
        os.makedirs(args.out_dir, exist_ok=True)
        for kind in train.MODELS:
            t0 = time.perf_counter()
            params, history = train.train_model(kind, train_set, val_set, config)
            wall_ms = (time.perf_counter() - t0) * 1e3
            history.write_csv(out(f"{kind}_history.csv"))
            slots, preds, test_mae = train.evaluate(
                kind, params, values, spec, args.window, scaler)
            _write_predictions(out(f"{kind}_predictions.csv"),
                               slots, values[slots], preds)
            report["models"][kind] = {
                "test_mae": test_mae,
                "test_mae_normalized": test_mae / scale,
                "epochs": len(history),
                "train_wall_ms": wall_ms,
            }
            print(f"{kind}: test MAE {test_mae:.6f}")

        try:
            ok, result = rx.recv()
        except EOFError:
            worker.join()
            raise ChildProcessError(
                f"ARIMA worker exited with status {worker.exitcode}") from None
        worker.join()
        if not ok:
            raise result
        model, slots, preds, test_mae, wall_ms = result
        if args.order is None:
            print(f"arima: selected order ({model.p},{model.d},{model.q})")
        _write_predictions(out("arima_predictions.csv"), slots, values[slots], preds)
        report["models"]["arima"] = {
            "order": [model.p, model.d, model.q],
            "test_mae": test_mae,
            "test_mae_normalized": test_mae / scale,
            "train_wall_ms": wall_ms,
        }
        print(f"arima: test MAE {test_mae:.6f}")

        with open(out("report.json"), "w", encoding="utf-8") as fh:
            fh.write(modelio.dumps(report))
    except BaseException:  # an interrupt too leaves no worker and no partial result
        worker.kill()  # a no-op once the worker has been reaped
        worker.join()
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        raise
    finally:
        rx.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="celltide",
        description="Univariate cellular traffic forecasting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    seed_help = f"random seed (default: ${SEED_ENV}, else 0)"

    def add_common_train_flags(p):
        p.add_argument("--series", required=True, help="series CSV (slot,timestamp_ms,value)")
        p.add_argument("--train-frac", type=float, default=0.8)
        p.add_argument("--window", type=int, default=12)
        p.add_argument("--epochs", type=int, default=20)
        p.add_argument("--lr", type=float, default=1e-3)
        p.add_argument("--seed", type=int, help=seed_help)

    p = sub.add_parser("synth", help="generate a synthetic diurnal traffic series")
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--seed", type=int, help=seed_help)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="parse a directory of raw CDR day-files")
    p.add_argument("--input-dir", required=True)
    p.add_argument("--grid", type=int, default=1)
    p.add_argument("--channel", choices=cdr.CHANNELS, default="internet")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train the LSTM or feed-forward model")
    p.add_argument("--model", choices=tuple(train.MODELS), required=True)
    add_common_train_flags(p)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-history", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("arima", help="fit the ARIMA baseline and forecast the test slice")
    p.add_argument("--series", required=True)
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--auto", action="store_true",
                   help="AIC grid search for (p,d,q); excludes --p, --d and --q")
    p.add_argument("--p", type=int, help="AR order (default 1)")
    p.add_argument("--d", type=int, help="differencing order (default 0)")
    p.add_argument("--q", type=int, help="MA order (default 0)")
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-predictions", required=True)
    p.set_defaults(func=cmd_arima)

    p = sub.add_parser("compare", help="LSTM vs FFNN vs ARIMA under one split")
    add_common_train_flags(p)
    p.add_argument("--p", type=int, help="ARIMA AR order; omitted = AIC search")
    p.add_argument("--d", type=int, help="differencing order (default 0; needs --p)")
    p.add_argument("--q", type=int, help="MA order (default 0; needs --p)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_compare)
    return parser


def _resolve_defaults(parser: argparse.ArgumentParser, args) -> None:
    """Fill in the defaults that depend on the environment or on other
    flags; a bad combination is a usage error (exit code 2). `arima` and
    `compare` get `args.order`: (p, d, q), or None for the AIC search."""
    source = "--seed"
    if getattr(args, "seed", 0) is None:
        source, raw = SEED_ENV, os.environ.get(SEED_ENV, "0")
        try:
            args.seed = int(raw)
        except ValueError:
            parser.error(f"{SEED_ENV} must be an integer, got {raw!r}")
    if getattr(args, "seed", 0) < 0:
        parser.error(f"{source} must be non-negative, got {args.seed}")
    if args.command in ("arima", "compare"):
        for k in ("p", "d", "q"):
            if not 0 <= (getattr(args, k) or 0) <= arima.MAX_ORDER:
                parser.error(f"--{k} must be in 0..{arima.MAX_ORDER}, got {getattr(args, k)}")
        given = ", ".join(f"--{k}" for k in ("p", "d", "q") if getattr(args, k) is not None)
        auto = args.auto if args.command == "arima" else args.p is None
        if auto and given:
            if args.command == "arima":
                parser.error(f"--auto cannot be combined with {given}")
            parser.error(f"{given} cannot be combined with the AIC order search; "
                         "give --p too")
        args.order = None if auto else (1 if args.p is None else args.p,
                                        args.d or 0, args.q or 0)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _resolve_defaults(parser, args)
    try:
        return args.func(args)
    except (cdr.ParseError, cdr.IngestError, arima.ArimaFitError,
            train.TrainingDiverged, modelio.ModelFormatError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
