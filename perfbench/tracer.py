"""Traced CLI call: run `celltide.cli.main(argv)` in this process with the
public functions of each module wrapped, then write the spans.

    python3 perfbench/tracer.py OUT_PREFIX -- <celltide arguments>

Writes OUT_PREFIX.npz (one row per span: name id, parent span, start, end,
a per-call value and a failed flag) and OUT_PREFIX.json (span names, import
time, sigmoid call count, targets that are missing). Exits with the CLI's
exit code. Spans are kept in memory until the call returns.

Only names the program looks up on a module at call time can be wrapped; a
wrapper replaces the function in every `celltide` module that holds it, so
from-imports such as `train.windows_for_range` are covered too. Functions
bound earlier, such as the model kernels in `train._MODEL_OPS`, are timed
directly by the benchmark instead.
"""

import importlib
import json
import sys
import time
from array import array

# (module, function, spans labelled by the model kind argument, value per call)
TARGETS = (
    ("cdr", "read_series_csv", False, None),
    ("cdr", "write_series_csv", False, None),
    ("cdr", "ingest_dir", False, None),
    ("cdr", "parse_line", False, None),
    ("cdr", "aggregate", False, lambda args, result: len(args[0])),
    ("dataset", "split", False, None),
    ("dataset", "fit_scaler", False, None),
    ("dataset", "windows_for_range", False, lambda args, result: len(result)),
    ("train", "train_model", True, None),
    ("train", "fit", True, lambda args, result: len(result)),
    ("train", "adam_step", False, None),
    ("train", "evaluate", False, None),
    ("arima", "auto_order", False, None),
    ("arima", "fit", False, None),
    ("arima", "css", False, None),
    ("arima", "hannan_rissanen", False, None),
    ("arima", "rolling_forecast", False, None),
    ("arima", "forecast_one", False, lambda args, result: len(args[1])),
    ("arima", "serialize", False, None),
    ("modelio", "dumps", False, lambda args, result: len(result)),
)


class Tracer:
    """Span recorder; each wrapped call appends one span."""

    def __init__(self):
        self.labels, self._ids = [], {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.failed = array("b")
        self._stack = []
        self.sigmoid_calls = 0

    def _label_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def wrap(self, fn, label: str, by_kind: bool, value_fn):
        fixed_id = self._label_id(label)
        clock, stack = time.perf_counter, self._stack

        def wrapper(*args, **kwargs):
            if by_kind:
                name_id = self._label_id(f"{label}.{args[0] if args else kwargs['kind']}")
            else:
                name_id = fixed_id
            sid = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.value.append(0.0)
            self.failed.append(0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[sid] = 1
                raise
            finally:
                self.end[sid] = clock()
                self.start[sid] = t0
                stack.pop()
            if value_fn is not None:
                self.value[sid] = value_fn(args, result)
            return result

        return wrapper

    def count_sigmoid(self, fn):
        def wrapper(x):
            self.sigmoid_calls += 1
            return fn(x)
        return wrapper


def _replace_everywhere(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "celltide" or mod_name.startswith("celltide."):
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, replacement)


def install(tracer: Tracer, modules: dict) -> list:
    """Wrap every target; returns the names of targets that do not exist."""
    missing = []
    for mod_name, fn_name, by_kind, value_fn in TARGETS:
        fn = getattr(modules.get(mod_name), fn_name, None)
        if not callable(fn):
            missing.append(f"{mod_name}.{fn_name}")
            continue
        wrapped = tracer.wrap(fn, f"{mod_name}.{fn_name}", by_kind, value_fn)
        _replace_everywhere(fn, wrapped)
    sigmoid = getattr(modules.get("linalg"), "sigmoid", None)
    if callable(sigmoid):
        _replace_everywhere(sigmoid, tracer.count_sigmoid(sigmoid))
    else:
        missing.append("linalg.sigmoid")
    return missing


def main(argv) -> int:
    prefix, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT_PREFIX -- <celltide arguments>")
    t0 = time.perf_counter()
    import celltide.cli as cli
    import_s = time.perf_counter() - t0
    modules = {}
    for name in ("cdr", "dataset", "linalg", "lstm", "ffnn", "train", "arima", "modelio"):
        try:
            modules[name] = importlib.import_module(f"celltide.{name}")
        except ImportError:
            pass
    tracer = Tracer()
    missing = install(tracer, modules)
    try:
        rc = cli.main(cli_argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        import numpy as np
        np.savez(prefix + ".npz", name=np.frombuffer(tracer.name, dtype=np.int32),
                 parent=np.frombuffer(tracer.parent, dtype=np.int32),
                 start=np.frombuffer(tracer.start), end=np.frombuffer(tracer.end),
                 value=np.frombuffer(tracer.value),
                 failed=np.frombuffer(tracer.failed, dtype=np.int8))
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"labels": tracer.labels, "import_s": import_s,
                       "sigmoid_calls": tracer.sigmoid_calls, "missing": missing}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
