"""Checks on the files a workload's CLI calls write, and their digests.

Each check returns a list of problems; an empty list means the output is
correct. Digests skip the wall-clock fields (`wall_ms` in histories,
`train_wall_ms` in report.json), the only fields the program does not
promise to repeat bit for bit.
"""

import hashlib
import json
import math
import os

SLOT_MS = 600_000
MODELS = ("lstm", "ffnn", "arima")
COMPARE_FILES = ("lstm_history.csv", "ffnn_history.csv", "lstm_predictions.csv",
                 "ffnn_predictions.csv", "arima_predictions.csv", "report.json")


def expected_split(n_total: int, train_frac: float):
    """(n_train, n_val, n_test) by the documented rule:
    floor(frac*N) training slots, ceil(0.10*N) each for validation and test."""
    n_eval = math.ceil(0.10 * n_total)
    return math.floor(train_frac * n_total), n_eval, n_eval


def read_series_values(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [float(line.rsplit(",", 1)[1]) for line in fh if line.strip()]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_predictions(path: str, values: list, start: int, n: int):
    """Problems with a `slot,truth,prediction` file, and its MAE.

    It must hold n finite rows for the slots start .. start+n-1, and each
    truth must equal the series value at its slot.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    name = os.path.basename(path)
    if not lines or lines[0] != "slot,truth,prediction":
        return [f"{name}: bad header"], None
    rows = lines[1:]
    if len(rows) != n:
        return [f"{name}: {len(rows)} rows, expected {n}"], None
    abs_err = 0.0
    for i, row in enumerate(rows):
        try:
            slot_s, truth_s, pred_s = row.split(",")
            slot, truth, pred = int(slot_s), float(truth_s), float(pred_s)
        except ValueError:
            return [f"{name}: row {i + 1} does not parse"], None
        if slot != start + i:
            return [f"{name}: row {i + 1} has slot {slot}, expected {start + i}"], None
        if truth != values[slot]:
            return [f"{name}: truth at slot {slot} is not the series value"], None
        if not math.isfinite(pred):
            return [f"{name}: non-finite prediction at slot {slot}"], None
        abs_err += abs(pred - truth)
    return [], abs_err / n


def _history_digest(path: str, epochs: int, problems: list) -> str:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    name = os.path.basename(path)
    if not lines or lines[0] != "epoch,train_mae,val_mae,wall_ms":
        problems.append(f"{name}: bad header")
        return ""
    rows = [line.split(",")[:3] for line in lines[1:]]
    if [r[0] for r in rows] != [str(e) for e in range(1, epochs + 1)]:
        problems.append(f"{name}: expected epochs 1..{epochs}")
    elif not all(math.isfinite(float(v)) for r in rows for v in r[1:]):
        problems.append(f"{name}: non-finite MAE")
    return _sha("\n".join(",".join(r) for r in rows).encode())


def _report_digest(report: dict) -> str:
    stripped = json.loads(json.dumps(report))
    for entry in stripped.get("models", {}).values():
        entry.pop("train_wall_ms", None)
    return _sha(json.dumps(stripped, sort_keys=True).encode())


def check_compare(out_dir: str, series_path: str, train_frac: float, epochs: int):
    """Returns (problems, digests, quality) for one `celltide compare` call."""
    missing = [f for f in COMPARE_FILES if not os.path.isfile(os.path.join(out_dir, f))]
    if missing:
        return [f"missing output {f}" for f in missing], {}, {}
    values = read_series_values(series_path)
    n_train, n_val, n_test = expected_split(len(values), train_frac)
    test_start = n_train + n_val
    problems, digests, quality = [], {}, {}
    try:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        models = report["models"]
        if not isinstance(models, dict):
            raise TypeError("models is not an object")
    except (ValueError, KeyError, TypeError):
        return ["report.json does not parse or has no models"], {}, {}
    absent = [m for m in MODELS if m not in models]
    if absent:
        problems.append(f"report.json lacks models {absent}")
    config = report.get("config", {})
    if [config.get(k) for k in ("n_train", "n_val", "n_test")] != [n_train, n_val, n_test]:
        problems.append("report.json split differs from the documented rule")
    for kind in MODELS:
        path = os.path.join(out_dir, f"{kind}_predictions.csv")
        found, mae = check_predictions(path, values, test_start, n_test)
        problems += found
        with open(path, "rb") as fh:
            digests[f"{kind}_predictions.csv"] = _sha(fh.read())
        entry = models.get(kind)
        reported = entry.get("test_mae") if isinstance(entry, dict) else None
        if mae is not None and not (isinstance(reported, float)
                                    and math.isclose(reported, mae, rel_tol=1e-9)):
            problems.append(f"report.json {kind} test_mae {reported} != {mae} from predictions")
        quality[f"{kind}_test_mae"] = mae
    for kind in ("lstm", "ffnn"):
        name = f"{kind}_history.csv"
        digests[name] = _history_digest(os.path.join(out_dir, name), epochs, problems)
    digests["report.json"] = _report_digest(report)
    return problems, digests, quality


def check_arima(out_dir: str, series_path: str, train_frac: float):
    """Returns (problems, digests, quality) for one `celltide arima` call."""
    model_path = os.path.join(out_dir, "arima.json")
    preds_path = os.path.join(out_dir, "arima_predictions.csv")
    missing = [p for p in (model_path, preds_path) if not os.path.isfile(p)]
    if missing:
        return [f"missing output {os.path.basename(p)}" for p in missing], {}, {}
    values = read_series_values(series_path)
    n_train, n_val, n_test = expected_split(len(values), train_frac)
    problems, mae = check_predictions(preds_path, values, n_train + n_val, n_test)
    with open(model_path, "rb") as fh:
        model_bytes = fh.read()
    try:
        model = json.loads(model_bytes)
        if model["type"] != "arima" or not all(
                isinstance(model[k], int) for k in ("p", "d", "q")):
            problems.append("arima.json is not an ARIMA model")
    except (ValueError, KeyError, TypeError):
        problems.append("arima.json does not parse")
    with open(preds_path, "rb") as fh:
        digests = {"arima.json": _sha(model_bytes), "arima_predictions.csv": _sha(fh.read())}
    return problems, digests, {"arima_test_mae": mae}


def check_ingest(out_path: str, expected: dict):
    """Returns (problems, digests) for one `celltide ingest` output series.

    Conservation: every slot must hold exactly the internet total the
    generator wrote for it, and the timestamps must step by one slot from
    the first slot with a record.
    """
    name = os.path.basename(out_path)
    if not os.path.isfile(out_path):
        return [f"missing output {name}"], {}
    with open(out_path, "rb") as fh:
        data = fh.read()
    lines = data.decode("utf-8").splitlines()
    want = expected["values"]
    if not lines or lines[0] != "slot,timestamp_ms,value":
        return [f"{name}: bad header"], {}
    if len(lines) - 1 != len(want):
        return [f"{name}: {len(lines) - 1} slots, expected {len(want)}"], {}
    for i, line in enumerate(lines[1:]):
        slot_s, ts_s, val_s = line.split(",")
        if int(slot_s) != i or int(ts_s) != expected["t0_ms"] + i * SLOT_MS:
            return [f"{name}: slot {i} has the wrong index or timestamp"], {}
        if float(val_s) != want[i]:
            return [f"{name}: slot {i} holds {val_s}, generator wrote {want[i]!r}"], {}
    return [], {name: _sha(data)}


class DigestStore:
    """Output digests of one workload and seed, kept across runs.

    Keep one directory per program version: the same program on the same
    seed must give bit-identical outputs, so an iteration whose digests
    differ from the stored ones fails. The first clean iteration stores them.
    """

    def __init__(self, directory: str, key: str):
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, f"{key}.json")
        self.reference = None
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as fh:
                self.reference = json.load(fh)

    def check(self, it: dict) -> None:
        """Append a problem to `it` when its digests differ from the stored ones."""
        if it["problems"]:
            return
        if self.reference is None:
            self.reference = it["digests"]
            with open(self.path, "w", encoding="utf-8") as fh:
                json.dump(self.reference, fh, indent=1, sort_keys=True)
            return
        diff = sorted(k for k in set(self.reference) | set(it["digests"])
                      if self.reference.get(k) != it["digests"].get(k))
        if diff:
            it["problems"].append(f"outputs differ from an earlier run of this seed: {diff}")
