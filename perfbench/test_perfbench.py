"""Fast tests of the benchmark's own parts: input generators, output checks
and failure accounting.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402


def test_series_generator_is_deterministic():
    a, b = inputs.series_values(3, seed=5), inputs.series_values(3, seed=5)
    assert a.tobytes() == b.tobytes()
    assert len(a) == 3 * inputs.SLOTS_PER_DAY and np.all(a >= 0)
    assert a.tobytes() != inputs.series_values(3, seed=6).tobytes()


def test_cdr_generator_is_deterministic(tmp_path):
    runs = []
    for name in ("a", "b"):
        d = tmp_path / name
        expected = inputs.write_cdr_dir(str(d), seed=9, days=2, n_cells=6)
        files = sorted(str(p) for p in d.iterdir())
        runs.append((inputs.digest_files(files), json.dumps(expected)))
    assert runs[0] == runs[1]
    other = inputs.write_cdr_dir(str(tmp_path / "c"), seed=10, days=2, n_cells=6)
    assert json.dumps(other) != runs[0][1]


def test_cdr_files_cover_the_parser_branches(tmp_path):
    expected = inputs.write_cdr_dir(str(tmp_path), seed=3, days=3, n_cells=20)
    lines = []
    for p in sorted(tmp_path.iterdir()):
        lines += p.read_text().split("\n")[:-1]
    assert len(lines) == expected["lines"]
    records = [ln.split("\t") for ln in lines if ln]
    assert "" in lines                                     # blank line
    assert any(len(r) < 8 for r in records)                # missing trailing columns
    assert any(r[2] == "" for r in records)                # blank country code
    fields = [f for r in records for f in r[3:8]]
    assert 0.25 < fields.count("") / len(fields) < 0.40    # about 30% blank activity
    assert len(set(lines)) < len(lines) - 1                # duplicate lines
    assert any(int(r[1]) % inputs.SLOT_MS for r in records)  # off-slot timestamp
    per_slot = {}
    for r in records:
        per_slot.setdefault((r[0], int(r[1]) // inputs.SLOT_MS), set()).add(r[2])
    assert max(len(c) for c in per_slot.values()) > 2      # several countries per slot
    n_pairs = 20 * 3 * inputs.SLOTS_PER_DAY
    assert len(per_slot) < n_pairs                         # (cell, slot) with no record


def test_ingest_conserves_generated_totals(tmp_path):
    from celltide import cdr

    expected = inputs.write_cdr_dir(str(tmp_path / "cdr"), seed=4, days=2, n_cells=8)
    for grid in expected["grids"]:
        out = tmp_path / f"series-{grid}.csv"
        cdr.write_series_csv(cdr.ingest_dir(str(tmp_path / "cdr"), grid, "internet"), str(out))
        problems, digests = checks.check_ingest(str(out), expected["expected"][str(grid)])
        assert problems == [] and list(digests) == [out.name]
        want = expected["expected"][str(grid)]["values"]
        assert any(v == 0.0 for v in want)  # zero-filled slots are checked too
        lines = out.read_text().splitlines()
        slot, ts, _ = lines[6].split(",")
        lines[6] = f"{slot},{ts},{want[5] + 1.0!r}"
        out.write_text("\n".join(lines) + "\n")
        assert checks.check_ingest(str(out), expected["expected"][str(grid)])[0]


N_SLOTS = 300  # split at 0.8: 240 train, 30 validation, 30 test


@pytest.fixture
def compare_dir(tmp_path):
    """A series and a hand-built `compare` output directory that passes."""
    values = inputs.series_values(3, seed=1)[:N_SLOTS]
    series = tmp_path / "series.csv"
    inputs.write_series(str(series), values)
    out = tmp_path / "out"
    out.mkdir()
    n_train, n_val, n_test = checks.expected_split(N_SLOTS, 0.8)
    start = n_train + n_val
    models = {}
    for k, kind in enumerate(checks.MODELS):
        preds = values[start:start + n_test] + 0.5 * (k + 1)
        rows = [f"{start + i},{float(values[start + i])!r},{float(p)!r}"
                for i, p in enumerate(preds)]
        (out / f"{kind}_predictions.csv").write_text(
            "slot,truth,prediction\n" + "\n".join(rows) + "\n")
        models[kind] = {"test_mae": float(np.mean(np.abs(preds - values[start:start + n_test]))),
                        "train_wall_ms": 1.0}
    for kind in ("lstm", "ffnn"):
        (out / f"{kind}_history.csv").write_text(
            "epoch,train_mae,val_mae,wall_ms\n1,0.5,0.25,3.0\n2,0.25,0.125,2.0\n")
    report = {"config": {"n_train": n_train, "n_val": n_val, "n_test": n_test},
              "models": models}
    (out / "report.json").write_text(json.dumps(report))
    return series, out


def _check(series, out):
    return checks.check_compare(str(out), str(series), 0.8, epochs=2)


def test_compare_check_passes_on_valid_outputs(compare_dir):
    problems, digests, quality = _check(*compare_dir)
    assert problems == []
    assert sorted(digests) == sorted(checks.COMPARE_FILES)
    assert quality["lstm_test_mae"] == pytest.approx(0.5)


@pytest.mark.parametrize("corrupt", ["nan", "drop_row", "wrong_slot", "truth"])
def test_corrupted_predictions_fail(compare_dir, corrupt):
    series, out = compare_dir
    path = out / "lstm_predictions.csv"
    lines = path.read_text().splitlines()
    slot, truth, pred = lines[3].split(",")
    if corrupt == "nan":
        lines[3] = f"{slot},{truth},nan"
    elif corrupt == "drop_row":
        del lines[3]
    elif corrupt == "wrong_slot":
        lines[3] = f"{int(slot) + 1},{truth},{pred}"
    else:
        lines[3] = f"{slot},{float(truth) + 1.0!r},{pred}"
    path.write_text("\n".join(lines) + "\n")
    assert _check(series, out)[0]


def test_report_without_a_model_fails(compare_dir):
    series, out = compare_dir
    report = json.loads((out / "report.json").read_text())
    del report["models"]["arima"]
    (out / "report.json").write_text(json.dumps(report))
    assert _check(series, out)[0]
    (out / "report.json").write_text("{not json")
    assert _check(series, out)[0]
    (out / "arima_predictions.csv").unlink()
    assert _check(series, out)[0]


def test_wall_clock_fields_do_not_change_digests(compare_dir):
    series, out = compare_dir
    before = _check(series, out)[1]
    (out / "lstm_history.csv").write_text(
        "epoch,train_mae,val_mae,wall_ms\n1,0.5,0.25,9.0\n2,0.25,0.125,8.0\n")
    report = json.loads((out / "report.json").read_text())
    report["models"]["ffnn"]["train_wall_ms"] = 7.0
    (out / "report.json").write_text(json.dumps(report))
    assert _check(series, out)[1] == before


def test_digest_mismatch_fails_the_iteration(tmp_path):
    first = checks.DigestStore(str(tmp_path), "w-1")
    ok = {"problems": [], "digests": {"a.csv": "1"}}
    first.check(ok)
    assert ok["problems"] == []
    again = checks.DigestStore(str(tmp_path), "w-1")   # a later run, same seed
    same = {"problems": [], "digests": {"a.csv": "1"}}
    moved = {"problems": [], "digests": {"a.csv": "2"}}
    again.check(same)
    again.check(moved)
    assert same["problems"] == [] and moved["problems"]


def test_benchmark_json_names_the_metrics_the_runner_reports():
    import ast

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    tree = ast.parse(open(os.path.join(HERE, "run.py"), encoding="utf-8").read())
    consts = {t.id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) for t in node.targets
              if isinstance(t, ast.Name) and t.id in ("END_TO_END", "PER_LAYER", "WORKLOADS")}
    for section, table in (("end_to_end", "END_TO_END"), ("per_layer", "PER_LAYER")):
        assert {m["name"]: m["unit"] for m in bench[section]} == consts[table]
    assert [w["name"] for w in bench["workloads"]] == list(consts["WORKLOADS"])
