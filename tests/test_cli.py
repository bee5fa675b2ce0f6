import json
import os
import signal

import numpy as np
import pytest

from celltide import arima, cdr, cli, dataset, modelio, train
from celltide.cli import main

T0 = 1_383_260_400_000
# the kind table's neural rows, in its order: the kinds `train --model` takes
NEURAL = tuple(kind for kind, row in train.FORECASTERS.items() if isinstance(row, train.Neural))


def make_series_csv(tmp_path, days=4, seed=1, name="series.csv"):
    path = tmp_path / name
    assert main(["synth", "--days", str(days), "--seed", str(seed),
                 "--out", str(path)]) == 0
    return path


def cut_series_writes(monkeypatch):
    """Make `cdr.write_series_csv` write one row, then raise KeyboardInterrupt:
    a series CSV cut at a line boundary reads back as a valid, shorter series."""
    write = cdr.write_series_csv

    def cut(series, path):
        write(cdr.ActivitySeries(series.t0_ms, series.values[:1]), path)
        raise KeyboardInterrupt

    monkeypatch.setattr(cdr, "write_series_csv", cut)


def make_raw_dir(tmp_path, n_slots=10):
    raw = tmp_path / "raw"
    raw.mkdir()
    rng = np.random.default_rng(0)
    half = n_slots // 2
    for day, lo in enumerate((0, half)):
        with open(raw / f"day{day}.txt", "w") as fh:
            for slot in range(lo, lo + half):
                ts = T0 + slot * 600_000
                fh.write(f"1\t{ts}\t39\t\t\t\t\t{rng.uniform(1, 9):.3f}\n")
    return raw


class TestSynth:
    def test_row_count_and_nonnegative(self, tmp_path):
        path = make_series_csv(tmp_path, days=4)
        series = cdr.read_series_csv(str(path))
        assert len(series) == 576
        assert np.all(series.values >= 0)

    def test_same_seed_same_bytes(self, tmp_path):
        a = make_series_csv(tmp_path, seed=9, name="a.csv")
        b = make_series_csv(tmp_path, seed=9, name="b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_interrupt_removes_partial_series(self, tmp_path, monkeypatch):
        cut_series_writes(monkeypatch)
        out = tmp_path / "series.csv"
        with pytest.raises(KeyboardInterrupt):
            main(["synth", "--days", "2", "--out", str(out)])
        assert not out.exists()


class TestIngest:
    def test_reports_slot_count(self, tmp_path, capsys):
        raw = make_raw_dir(tmp_path)
        out = tmp_path / "series.csv"
        assert main(["ingest", "--input-dir", str(raw), "--grid", "1",
                     "--out", str(out)]) == 0
        assert "10 slots" in capsys.readouterr().out
        assert len(cdr.read_series_csv(str(out))) == 10

    def test_interrupt_removes_partial_series(self, tmp_path, monkeypatch):
        raw = make_raw_dir(tmp_path)
        cut_series_writes(monkeypatch)
        out = tmp_path / "series.csv"
        with pytest.raises(KeyboardInterrupt):
            main(["ingest", "--input-dir", str(raw), "--out", str(out)])
        assert not out.exists()

    def test_unknown_channel_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--input-dir", str(tmp_path), "--channel", "pigeon",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_empty_dir_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["ingest", "--input-dir", str(empty),
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "1\tinf\t39\t\t\t\t\t1.0",
        "1\tnan\t39\t\t\t\t\t1.0",
        f"1\t{T0}\tinf\t\t\t\t\t1.0",
        f"1\t{T0}\t39\t\t\t\t\tnan",
        f"1\t{T0}\t39\tinf",
        f"1\t{T0}\t39\t\t\t\t-inf\t1.0",
        f"2\t{T0}\t39\t\t\t\t\tnan",
        "1\t1e19\t39\t\t\t\t\t1.0",
        "1\t-1e19\t39\t\t\t\t\t1.0",
    ])
    def test_bad_number_names_file_and_line(self, tmp_path, capsys, line):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "day0.txt").write_text(f"1\t{T0}\t39\t\t\t\t\t2.5\n{line}\n")
        out = tmp_path / "x.csv"
        assert main(["ingest", "--input-dir", str(raw), "--out", str(out)]) == 1
        assert "error: day0.txt: line 2: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e200", "-1e200", "1e308", "1.0000000000000001e150"])
    def test_activity_beyond_the_magnitude_bound_names_file_and_line(self, tmp_path, capsys,
                                                                     value):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "day0.txt").write_text(f"1\t{T0}\t39\t\t\t\t\t2.5\n"
                                      f"1\t{T0}\t39\t\t\t\t\t{value}\n")
        out = tmp_path / "x.csv"
        assert main(["ingest", "--input-dir", str(raw), "--out", str(out)]) == 1
        assert (f"error: day0.txt: line 2: activity {float(value):g} beyond +-1e+150"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_slot_total_beyond_the_magnitude_bound_names_grid_slot_file_and_line(
            self, tmp_path, capsys):
        """Two records each within the bound sum beyond it in one slot."""
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "day0.txt").write_text(f"1\t{T0}\t39\t\t\t\t\t2.5\n"
                                      f"1\t{T0 + 600_000}\t39\t\t\t\t\t1e150\n")
        (raw / "day1.txt").write_text(f"1\t{T0 + 600_000}\t39\t\t\t\t\t1e150\n")
        out = tmp_path / "x.csv"
        assert main(["ingest", "--input-dir", str(raw), "--out", str(out)]) == 1
        assert (f"error: day0.txt: line 2: grid 1 slot at {T0 + 600_000} totals 2e+150, "
                "beyond +-1e+150") in capsys.readouterr().err
        assert not out.exists()

    def test_values_at_the_magnitude_bound_ingest(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "day0.txt").write_text(f"1\t{T0}\t39\t\t\t\t\t1e150\n"
                                      f"1\t{T0 + 600_000}\t39\t\t\t\t\t-1e150\n"
                                      f"1\t{T0 + 1_200_000}\t39\t\t\t\t\t1e150\n"
                                      f"1\t{T0 + 1_200_000}\t39\t\t\t\t\t-1e150\n")
        out = tmp_path / "x.csv"
        assert main(["ingest", "--input-dir", str(raw), "--out", str(out)]) == 0
        assert "3 slots" in capsys.readouterr().out
        assert cdr.read_series_csv(str(out)).values.tolist() == [1e150, -1e150, 0.0]


    def test_stray_timestamp_fails_naming_file_and_line(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "day0.txt").write_text(f"1\t{T0}\t39\t\t\t\t\t2.5\n"
                                      f"1\t{T0 // 1000}\t39\t\t\t\t\t1.0\n")
        out = tmp_path / "x.csv"
        assert main(["ingest", "--input-dir", str(raw), "--out", str(out)]) == 1
        assert "error: day0.txt: line 2: timestamp 1383260400 " in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_byte_names_file_and_line(self, tmp_path, capsys):
        raw = make_raw_dir(tmp_path)
        day1 = raw / "day1.txt"
        lines = day1.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"\t39\t", b"\t39\xff\t")
        day1.write_bytes(b"".join(lines))
        out = tmp_path / "x.csv"
        assert main(["ingest", "--input-dir", str(raw), "--out", str(out)]) == 1
        assert ("error: day1.txt: line 3: byte 0xff is not UTF-8 (invalid start byte)"
                in capsys.readouterr().err)
        assert not out.exists()


def make_days_dir(tmp_path, n_files):
    """`n_files` day files of one size, three grid-1 records each: `ingest`
    scans the first ceil(n_files / 2) of them here and the rest in the worker."""
    raw = tmp_path / f"days{n_files}"
    raw.mkdir()
    for day in range(n_files):
        (raw / f"day{day}.txt").write_text("".join(
            f"1\t{T0 + (3 * day + k) * 600_000}\t39\t\t\t\t\t{day + k}.5\n" for k in range(3)))
    return raw


class TestSplitIngest:
    """`ingest` of two or more files scans all but the first ceil(n/2) of
    them in the one worker."""

    @pytest.mark.parametrize("bad", [(0,), (3,), (0, 3)],
                             ids=["first-half", "second-half", "both-halves"])
    def test_bad_line_is_the_serial_error(self, tmp_path, capsys, bad):
        raw = make_days_dir(tmp_path, 4)
        for day in bad:
            with open(raw / f"day{day}.txt", "a") as fh:
                fh.write(f"1\t{T0}\t39\t\t\t\t\tnope\n")
        with pytest.raises(cdr.IngestError) as serial:
            cdr.ingest_dir(str(raw), 1, "internet")
        assert str(serial.value).startswith(f"day{bad[0]}.txt: line 4: ")
        out = tmp_path / "x.csv"
        assert main(["ingest", "--input-dir", str(raw), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {serial.value}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["days4"]
        assert_no_child_process()

    @pytest.mark.parametrize("death,status", [
        (lambda: os._exit(3), 3),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
    ])
    def test_worker_without_result_is_a_runtime_error(self, tmp_path, monkeypatch,
                                                      capsys, death, status):
        raw = make_days_dir(tmp_path, 4)
        parent, scan, scanned = os.getpid(), cdr._scan, []

        def dying(dir_path, name, *rest):
            if os.getpid() != parent:
                assert name == "day2.txt"  # the worker's first file
                death()
            scanned.append(name)
            return scan(dir_path, name, *rest)

        monkeypatch.setattr(cdr, "_scan", dying)
        assert main(["ingest", "--input-dir", str(raw), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr() == (
            "", f"error: worker exited with status {status}\n")
        assert scanned == ["day0.txt", "day1.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["days4"]
        assert_no_child_process()

    def test_interrupt_in_this_half_leaves_no_child(self, tmp_path, monkeypatch):
        raw = make_days_dir(tmp_path, 4)
        parent, scan = os.getpid(), cdr._scan

        def interrupted(dir_path, name, *rest):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return scan(dir_path, name, *rest)

        monkeypatch.setattr(cdr, "_scan", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["ingest", "--input-dir", str(raw), "--out", str(tmp_path / "x.csv")])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["days4"]
        assert_no_child_process()


class TestTrain:
    def test_writes_model_and_history(self, tmp_path, capsys):
        series = make_series_csv(tmp_path)
        model = tmp_path / "model.json"
        history = tmp_path / "history.csv"
        rc = main(["train", "--model", "ffnn", "--series", str(series),
                   "--train-frac", "0.4", "--epochs", "3", "--seed", "1",
                   "--out-model", str(model), "--out-history", str(history)])
        assert rc == 0
        assert "split 230/58/58" in capsys.readouterr().out
        assert json.loads(model.read_text())["type"] == "ffnn"
        lines = history.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_mae,val_mae,wall_ms"
        assert len(lines) == 4

    def test_same_seed_same_model(self, tmp_path):
        series = make_series_csv(tmp_path)
        models = []
        for name in ("m1.json", "m2.json"):
            main(["train", "--model", "lstm", "--series", str(series),
                  "--train-frac", "0.4", "--epochs", "1", "--seed", "7",
                  "--out-model", str(tmp_path / name),
                  "--out-history", str(tmp_path / f"{name}.csv")])
            models.append((tmp_path / name).read_bytes())
        assert models[0] == models[1]

    @pytest.mark.parametrize("command,lr", [("train", "nan"), ("compare", "inf")])
    def test_non_finite_learning_rate_fails_at_entry(self, tmp_path, capsys, command, lr):
        series = make_series_csv(tmp_path)
        outs = (["--model", "ffnn", "--out-model", str(tmp_path / "m.json"),
                 "--out-history", str(tmp_path / "h.csv")] if command == "train"
                else ["--out-dir", str(tmp_path / "out")])
        with pytest.raises(SystemExit) as exc:
            main([command, "--series", str(series), "--train-frac", "0.4",
                  "--epochs", "1", "--lr", lr, *outs])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: celltide {command} ")
        assert f"--lr must be finite and >= 0, got {lr}" in err
        assert "non-finite loss" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]

    def test_failed_history_write_leaves_no_model(self, tmp_path, capsys):
        series = make_series_csv(tmp_path)
        model = tmp_path / "m.json"
        assert main(["train", "--model", "ffnn", "--series", str(series),
                     "--train-frac", "0.4", "--epochs", "1", "--out-model", str(model),
                     "--out-history", str(tmp_path / "nodir" / "h.csv")]) == 1
        assert "No such file or directory" in capsys.readouterr().err
        assert not model.exists()

    def test_failed_history_write_keeps_an_earlier_model(self, tmp_path, capsys):
        series = make_series_csv(tmp_path)
        model = tmp_path / "m.json"
        model.write_text("earlier\n")
        assert main(["train", "--model", "ffnn", "--series", str(series),
                     "--train-frac", "0.4", "--epochs", "1", "--out-model", str(model),
                     "--out-history", str(tmp_path / "nodir" / "h.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{tmp_path / 'nodir' / 'h.csv'}'\n")
        assert model.read_text() == "earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "series.csv"]

    def test_bad_fraction_fails(self, tmp_path, capsys):
        series = make_series_csv(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--model", "ffnn", "--series", str(series),
                  "--train-frac", "0.99", "--epochs", "1",
                  "--out-model", str(tmp_path / "m.json"),
                  "--out-history", str(tmp_path / "h.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: celltide train ")
        assert "--train-frac must be in (0, 0.8], got 0.99" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]


def record_forks(monkeypatch):
    """Count the os.fork calls made from now on; returns the growing list."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


class TestSeedEnvironment:
    @pytest.mark.parametrize("argv", [
        ["compare", "--seed", "-1", "--out-dir", "out"],
        ["train", "--seed", "-2", "--model", "ffnn", "--out-model", "m.json",
         "--out-history", "h.csv"],
    ])
    def test_negative_flag_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        series = make_series_csv(tmp_path)
        forks = record_forks(monkeypatch)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--series", str(series)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: celltide {argv[0]} ")  # the subcommand's usage line
        assert f"--seed must be non-negative, got {argv[2]}" in err
        assert os.listdir(tmp_path) == [series.name]
        assert forks == []


@pytest.mark.parametrize("argv", [
    ["train", "--model", "ffnn", "--out-model", "X", "--out-history", "./X"],
    ["arima", "--out-model", "X", "--out-predictions", "./X"],
], ids=["train", "arima"])
def test_two_outputs_naming_one_file_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    """Both outputs would share one temporary and one would be lost, so two
    output flags that name one file are a usage error, raised before the
    series (here missing) is read."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--series", "missing.csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: celltide {argv[0]} ")
    assert f"{argv[-4]} and {argv[-2]} name the same file" in err
    assert os.listdir(tmp_path) == []


TRAIN_OUTS = ["--out-model", "m.json", "--out-history", "h.csv"]
ARIMA_OUTS = ["--out-model", "a.json", "--out-predictions", "a.csv"]


@pytest.mark.parametrize("argv,message", [
    (["synth", "--days", "0", "--out", "s.csv"], "--days must be >= 1, got 0"),
    (["train", "--model", "lstm", "--window", "0", *TRAIN_OUTS], "--window must be >= 1, got 0"),
    (["compare", "--epochs", "0", "--out-dir", "out"], "--epochs must be >= 1, got 0"),
    (["train", "--model", "ffnn", "--lr", "-1", *TRAIN_OUTS],
     "--lr must be finite and >= 0, got -1.0"),
    (["arima", "--train-frac", "0.99", *ARIMA_OUTS], "--train-frac must be in (0, 0.8], got 0.99"),
    (["compare", "--train-frac", "nan", "--out-dir", "out"],
     "--train-frac must be in (0, 0.8], got nan"),
], ids=["days", "window", "epochs", "lr", "train-frac", "train-frac-nan"])
def test_flag_out_of_range_is_usage_error(tmp_path, monkeypatch, capsys, argv, message):
    """A flag value out of its range is a usage error naming the flag, raised
    before the series (here missing) is read and any file or directory made."""
    monkeypatch.chdir(tmp_path)
    series = [] if argv[0] == "synth" else ["--series", "missing.csv"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, *series])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: celltide {argv[0]} ")
    assert err.endswith(f": error: {message}\n")
    assert os.listdir(tmp_path) == []


def test_boundary_flag_values_run(tmp_path):
    """The edge of each range is accepted: one day, a one-slot window, one
    epoch, a learning rate of 0 and a training fraction of 0.8; and a window
    one slot shorter than the training slice, which leaves one training window."""
    series = make_series_csv(tmp_path, days=1)
    assert main(["train", "--model", "ffnn", "--series", str(series), "--window", "1",
                 "--epochs", "1", "--lr", "0", "--train-frac", "0.8",
                 "--out-model", str(tmp_path / "m.json"),
                 "--out-history", str(tmp_path / "h.csv")]) == 0
    assert json.loads((tmp_path / "m.json").read_text())["T"] == 1
    series = make_series_csv(tmp_path, days=3)  # 344 training slots
    assert main(["train", "--model", "ffnn", "--series", str(series), "--window", "343",
                 "--epochs", "1", "--out-model", str(tmp_path / "m.json"),
                 "--out-history", str(tmp_path / "h.csv")]) == 0
    assert json.loads((tmp_path / "m.json").read_text())["T"] == 343


CONSTANT = np.full(432, 5.0)
ROUNDING = np.full(432, 0.1)  # the mean of its 344 training slots is 0.10000000000000002
HUGE = dataset.gen_synthetic(4).values  # slots 10 and 20 beyond the magnitude bound
HUGE[10], HUGE[20] = 1e308, -1e308
HUGE_MESSAGE = "series.csv: line 12: value 1e+308 beyond +-1e+150"


@pytest.mark.parametrize("values,argv,message", [
    (CONSTANT, ["arima", "--auto", *ARIMA_OUTS],
     "no ARIMA order in the search grid could be fitted: "
     "singular least squares in long-AR step; try lower orders"),
    (CONSTANT, ["arima", "--p", "1", *ARIMA_OUTS],
     "singular least squares in long-AR step; try lower orders"),
    (ROUNDING, ["arima", "--auto", *ARIMA_OUTS],
     "no ARIMA order in the search grid could be fitted: "
     "singular least squares in long-AR step; try lower orders"),
    (ROUNDING, ["arima", "--p", "1", *ARIMA_OUTS],
     "singular least squares in long-AR step; try lower orders"),
    (CONSTANT, ["compare", "--epochs", "1", "--out-dir", "out"],
     "cannot fit scaler on a constant training slice"),
    ([1.0, 2.0], ["train", "--model", "ffnn", *TRAIN_OUTS],
     "split of 2 slots leaves an empty part"),
    ([1.0, 2.0], ["arima", *ARIMA_OUTS], "split of 2 slots leaves an empty part"),
    (dataset.gen_synthetic(3).values, ["train", "--model", "lstm", "--window", "400", *TRAIN_OUTS],
     "--window must be below the 344 training slots, got 400"),
    (dataset.gen_synthetic(3).values, ["compare", "--window", "400", "--out-dir", "out"],
     "--window must be below the 344 training slots, got 400"),
    (HUGE, ["train", "--model", "lstm", *TRAIN_OUTS], HUGE_MESSAGE),
    (HUGE, ["arima", *ARIMA_OUTS], HUGE_MESSAGE),
    (HUGE, ["compare", "--epochs", "1", "--out-dir", "out"], HUGE_MESSAGE),
], ids=["constant-arima-auto", "constant-arima-p1", "rounding-constant-arima-auto",
        "rounding-constant-arima-p1", "constant-compare", "two-slots-train",
        "two-slots-arima", "long-window-train", "long-window-compare", "huge-train",
        "huge-arima", "huge-compare"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_runtime_error_is_one_line(tmp_path, monkeypatch, capsys, values, argv, message):
    """A series the command cannot fit fails with exit code 1 and one line,
    and leaves no output behind; a RuntimeWarning on the way fails the test."""
    monkeypatch.chdir(tmp_path)
    cdr.write_series_csv(cdr.ActivitySeries(T0, np.asarray(values, dtype=float)), "series.csv")
    assert main([*argv, "--series", "series.csv"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == ["series.csv"]
    assert_no_child_process()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_values_at_the_magnitude_bound_run(tmp_path, monkeypatch):
    """Values of +-MAX_VALUE are accepted, and every command fits them
    with no RuntimeWarning."""
    monkeypatch.chdir(tmp_path)
    values = dataset.gen_synthetic(4).values
    values[10], values[20] = cdr.MAX_VALUE, -cdr.MAX_VALUE
    cdr.write_series_csv(cdr.ActivitySeries(T0, values), "series.csv")
    for argv in (["train", "--model", "lstm", "--epochs", "1", *TRAIN_OUTS],
                 ["train", "--model", "ffnn", "--epochs", "1", *TRAIN_OUTS],
                 ["arima", "--auto", *ARIMA_OUTS],
                 ["compare", "--epochs", "1", "--p", "1", "--out-dir", "out"]):
        assert main([*argv, "--series", "series.csv"]) == 0, argv
    for name in ("m.json", "a.json", "out/report.json"):
        json.loads((tmp_path / name).read_text())


class TestArima:
    @pytest.mark.parametrize("flag", ["--p", "--d", "--q"])
    def test_auto_with_order_is_usage_error(self, tmp_path, capsys, flag):
        series = make_series_csv(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["arima", "--series", str(series), "--auto", flag, "1",
                  "--out-model", str(tmp_path / "m.json"),
                  "--out-predictions", str(tmp_path / "p.csv")])
        assert exc.value.code == 2
        assert f"--auto cannot be combined with {flag}" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flag,value", [("--q", "6"), ("--d", "-1")])
    def test_order_out_of_range_is_usage_error(self, tmp_path, capsys, flag, value):
        series = make_series_csv(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["arima", "--series", str(series), flag, value,
                  "--out-model", str(tmp_path / "m.json"),
                  "--out-predictions", str(tmp_path / "p.csv")])
        assert exc.value.code == 2
        assert f"{flag} must be in 0..5, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("order,need", [
        (["--auto"], "at least 200 observations for order selection, got 57"),
        (["--p", "3", "--d", "1", "--q", "3"],
         "at least 71 observations for orders (3,1,3), got 57"),
    ])
    def test_too_short_training_slice_fails_before_fitting(self, tmp_path, monkeypatch,
                                                            capsys, order, need):
        """The length check at the entry is the only one: neither `fit` nor
        `auto_order` is reached, and no worker is forked."""
        series = make_series_csv(tmp_path, days=4)

        def unreachable(*args, **kwargs):
            raise AssertionError("an ARIMA fit was started")

        monkeypatch.setattr(arima, "fit", unreachable)
        monkeypatch.setattr(arima, "auto_order", unreachable)
        forks = record_forks(monkeypatch)
        capsys.readouterr()
        assert main(["arima", "--series", str(series), "--train-frac", "0.1", *order,
                     "--out-model", str(tmp_path / "m.json"),
                     "--out-predictions", str(tmp_path / "p.csv")]) == 1
        assert capsys.readouterr() == ("", f"error: need {need}\n")
        assert forks == []
        assert sorted(os.listdir(tmp_path)) == ["series.csv"]

    def test_non_finite_series_value_fails_naming_line(self, tmp_path, capsys):
        series = make_series_csv(tmp_path)
        lines = series.read_text().splitlines()
        slot, ts, _ = lines[10].split(",")
        lines[10] = f"{slot},{ts},nan"
        series.write_text("\n".join(lines) + "\n")
        rc = main(["arima", "--series", str(series), "--train-frac", "0.4",
                   "--out-model", str(tmp_path / "m.json"),
                   "--out-predictions", str(tmp_path / "p.csv")])
        assert rc == 1
        assert "line 11: non-finite value" in capsys.readouterr().err

    def test_non_utf8_byte_names_file_and_line(self, tmp_path, capsys):
        series = make_series_csv(tmp_path)
        lines = series.read_bytes().splitlines(keepends=True)
        lines[300] = lines[300].replace(b",", b",\xc3", 1)  # a truncated two-byte sequence
        series.write_bytes(b"".join(lines))
        rc = main(["arima", "--series", str(series), "--train-frac", "0.4",
                   "--out-model", str(tmp_path / "m.json"),
                   "--out-predictions", str(tmp_path / "p.csv")])
        assert rc == 1
        assert (f"error: {series}: line 301: byte 0xc3 is not UTF-8"
                in capsys.readouterr().err)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda lines: ["slot,ts,value", *lines[1:]], "unexpected series header 'slot,ts,value'"),
        (lambda lines: lines[:5] + lines[6:], "line 6: slot 5 out of order"),
        (lambda lines: lines[:1], "empty series"),
    ])
    def test_bad_series_csv_fails_in_one_line_naming_the_file(self, tmp_path, capsys,
                                                              edit, message):
        series = make_series_csv(tmp_path)
        series.write_text("\n".join(edit(series.read_text().splitlines())) + "\n")
        rc = main(["arima", "--series", str(series), "--train-frac", "0.4",
                   "--out-model", str(tmp_path / "m.json"),
                   "--out-predictions", str(tmp_path / "p.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {series}: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]

    def test_failed_predictions_write_leaves_no_model(self, tmp_path, capsys):
        series = make_series_csv(tmp_path)
        model = tmp_path / "a.json"
        assert main(["arima", "--series", str(series), "--train-frac", "0.4", "--p", "1",
                     "--out-model", str(model),
                     "--out-predictions", str(tmp_path / "nodir" / "a.csv")]) == 1
        assert "No such file or directory" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("order", [["--p", "1"], ["--auto"]])
    def test_failed_predictions_write_keeps_an_earlier_model(self, tmp_path, capsys, order):
        series = make_series_csv(tmp_path)
        model = tmp_path / "a.json"
        model.write_text("earlier\n")
        assert main(["arima", "--series", str(series), "--train-frac", "0.4", *order,
                     "--out-model", str(model),
                     "--out-predictions", str(tmp_path / "nodir" / "a.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{tmp_path / 'nodir' / 'a.csv'}'\n")
        assert model.read_text() == "earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "series.csv"]

    def test_mean_model_constant_predictions(self, tmp_path):
        series = make_series_csv(tmp_path)
        preds_path = tmp_path / "preds.csv"
        rc = main(["arima", "--series", str(series), "--train-frac", "0.4",
                   "--p", "0", "--d", "0", "--q", "0",
                   "--out-model", str(tmp_path / "arima.json"),
                   "--out-predictions", str(preds_path)])
        assert rc == 0
        rows = preds_path.read_text().strip().splitlines()[1:]
        assert len(rows) == 58
        preds = {row.split(",")[2] for row in rows}
        assert len(preds) == 1

    def test_model_json_schema(self, tmp_path):
        series = make_series_csv(tmp_path)
        model_path = tmp_path / "arima.json"
        main(["arima", "--series", str(series), "--train-frac", "0.4",
              "--p", "1", "--d", "0", "--q", "0",
              "--out-model", str(model_path),
              "--out-predictions", str(tmp_path / "p.csv")])
        obj = json.loads(model_path.read_text())
        assert obj["type"] == "arima"
        assert (obj["p"], obj["d"], obj["q"]) == (1, 0, 0)
        assert len(obj["phi"]) == 1


def white_noise_2():
    """A series on which the d = 1 candidates (1,1,2), (1,1,3) and (2,1,3)
    raise ArimaFitError: differencing white noise leaves an MA unit root."""
    return np.random.default_rng(2).normal(size=300)


def patch_arima_fit(monkeypatch, at_d):
    """Make `arima.fit` call `at_d[d](p, d, q)` for each d it names; the
    order search's shared work, when given, goes on to the real `fit`."""
    fit = arima.fit
    monkeypatch.setattr(arima, "fit", lambda series, p, d, q, *shared: (
        at_d[d](p, d, q) if d in at_d else fit(series, p, d, q, *shared)))


class TestMapInTwo:
    """`cli._map_in_two` maps the first ceil(n/2) items here and the rest in
    the one worker; fewer than two items start no worker."""

    @pytest.mark.parametrize("n", [3, 5])
    def test_the_builtin_maps_list_with_the_later_items_in_the_worker(self, n):
        def square(x):
            return x * x, os.getpid()

        got = cli._map_in_two(square, list(range(n)))
        assert [value for value, _ in got] == [value for value, _ in map(square, range(n))]
        cut = (n + 1) // 2
        assert {pid for _, pid in got[:cut]} == {os.getpid()}
        worker = {pid for _, pid in got[cut:]}
        assert len(worker) == 1 and os.getpid() not in worker
        assert_no_child_process()

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_items_are_mapped_here_with_no_worker(self, monkeypatch, n):
        forks = record_forks(monkeypatch)

        def square(x):
            return x * x, os.getpid()

        assert cli._map_in_two(square, list(range(n))) == list(map(square, range(n)))
        assert forks == []

    @pytest.mark.parametrize("failing,raised", [({3}, 3), ({1, 4}, 1)],
                             ids=["worker-share", "both-shares"])
    def test_the_first_error_in_item_order_is_raised(self, failing, raised):
        def fn(x):
            if x in failing:
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match=f"^item {raised}$"):
            cli._map_in_two(fn, list(range(5)))
        assert_no_child_process()


class TestSplitSearch:
    """`arima --auto` fits the d = 1 half of the AIC grid in the one worker
    and the d = 0 half in this process."""

    @pytest.mark.parametrize("series", [
        *(lambda seed=seed: dataset.gen_synthetic(3, seed=seed).values[:300]
          for seed in range(3)),
        white_noise_2,
    ], ids=["synthetic-0", "synthetic-1", "synthetic-2", "white-noise-2"])
    def test_split_search_is_the_serial_search(self, series):
        y = series()
        if series is white_noise_2:
            with pytest.raises(arima.ArimaFitError):
                arima.fit(y, 1, 1, 2)
        serial, split = arima.auto_order(y), arima.auto_order(y, map=cli._map_in_two)
        assert (split.p, split.d, split.q) == (serial.p, serial.d, serial.q)
        for field in ("phi", "theta"):
            assert getattr(split, field).tobytes() == getattr(serial, field).tobytes()
        assert (split.mu, split.sigma2) == (serial.mu, serial.sigma2)
        assert_no_child_process()

    def test_same_bytes_as_the_serial_search(self, tmp_path, monkeypatch):
        series = make_series_csv(tmp_path, days=4)
        written = []
        for name in ("split", "serial"):
            if name == "serial":
                monkeypatch.setattr(cli, "_map_in_two", map)
            assert main(["arima", "--series", str(series), "--train-frac", "0.4", "--auto",
                         "--out-model", str(tmp_path / f"{name}.json"),
                         "--out-predictions", str(tmp_path / f"{name}.csv")]) == 0
            written.append([(tmp_path / f"{name}.{ext}").read_bytes()
                            for ext in ("json", "csv")])
        assert written[0] == written[1]

    def test_worker_exception_is_the_serial_error(self, tmp_path, monkeypatch, capsys):
        series = make_series_csv(tmp_path, days=4)

        def failing(p, d, q):
            raise OSError(5, f"no fit for ({p},{d},{q})")

        patch_arima_fit(monkeypatch, {1: failing})
        with pytest.raises(OSError) as serial:
            arima.auto_order(cdr.read_series_csv(str(series)).values[:230])
        capsys.readouterr()
        assert main(["arima", "--series", str(series), "--train-frac", "0.4", "--auto",
                     "--out-model", str(tmp_path / "a.json"),
                     "--out-predictions", str(tmp_path / "a.csv")]) == 1
        assert capsys.readouterr() == ("", f"error: {serial.value}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]
        assert_no_child_process()

    @pytest.mark.parametrize("death,status", [
        (lambda: os._exit(3), 3),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
    ])
    def test_worker_without_result_is_a_runtime_error(self, tmp_path, monkeypatch,
                                                      capsys, death, status):
        series = make_series_csv(tmp_path, days=4)
        parent = os.getpid()

        def dying(p, d, q):
            assert os.getpid() != parent, "the d = 1 half ran in this process"
            death()

        patch_arima_fit(monkeypatch, {1: dying})
        assert main(["arima", "--series", str(series), "--train-frac", "0.4", "--auto",
                     "--out-model", str(tmp_path / "a.json"),
                     "--out-predictions", str(tmp_path / "a.csv")]) == 1
        assert capsys.readouterr().err == f"error: worker exited with status {status}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]
        assert_no_child_process()

    def test_interrupt_in_this_half_leaves_no_child(self, tmp_path, monkeypatch):
        series = make_series_csv(tmp_path, days=4)

        def interrupted(p, d, q):
            raise KeyboardInterrupt

        patch_arima_fit(monkeypatch, {0: interrupted})
        with pytest.raises(KeyboardInterrupt):
            main(["arima", "--series", str(series), "--train-frac", "0.4", "--auto",
                  "--out-model", str(tmp_path / "a.json"),
                  "--out-predictions", str(tmp_path / "a.csv")])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]
        assert_no_child_process()


COMPARE_FLAGS = ["--train-frac", "0.4", "--epochs", "1", "--seed", "3"]


def patch_arima_row(monkeypatch, replacement):
    """Make the kind table's ARIMA row fit by calling `replacement(data, order)`."""
    monkeypatch.setattr(train.FORECASTERS["arima"], "fit",
                        lambda data, map: replacement(data, data.order))


def fail_ffnn_history_write(monkeypatch):
    """Make `train.write_history` write ffnn_history.csv's temporary, then raise
    a full-disk OSError: a failure in `compare`'s write phase, after three files."""
    write = train.write_history

    def failing(path, history):
        write(path, history)
        if "ffnn_history.csv" in os.path.basename(path):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(train, "write_history", failing)


def assert_no_child_process():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestCompare:
    def test_output_contract(self, tmp_path):
        series = make_series_csv(tmp_path, days=4)
        out_dir = tmp_path / "out"
        rc = main(["compare", "--series", str(series), "--train-frac", "0.4",
                   "--epochs", "1", "--seed", "3", "--p", "1",
                   "--out-dir", str(out_dir)])
        assert rc == 0
        expected = {"lstm_history.csv", "ffnn_history.csv", "lstm_predictions.csv",
                    "ffnn_predictions.csv", "arima_predictions.csv", "report.json"}
        assert {p.name for p in out_dir.iterdir()} == expected
        report = json.loads((out_dir / "report.json").read_text())
        assert report["seed"] == 3
        assert set(report["models"]) == {"lstm", "ffnn", "arima"}
        assert all(m["test_mae"] >= 0 for m in report["models"].values())

    def test_predictions_and_normalized_mae_read_back_exactly(self, tmp_path, monkeypatch):
        """Each prediction CSV value reads back as the float that was
        forecast, and each `test_mae_normalized` is `test_mae` over the
        training slice's range, the scaler's max - min."""
        series = make_series_csv(tmp_path, days=4)
        out_dir = tmp_path / "out"
        forecast, write = {}, cli._write_predictions

        def recorded(path, values, test_range, preds):
            forecast[os.path.basename(path).split("_")[0].lstrip(".")] = preds.copy()
            write(path, values, test_range, preds)

        monkeypatch.setattr(cli, "_write_predictions", recorded)
        assert main(["compare", *COMPARE_FLAGS, "--p", "1", "--series", str(series),
                     "--out-dir", str(out_dir)]) == 0
        values = cdr.read_series_csv(str(series)).values
        spec = dataset.split(len(values), 0.4)
        scaler = dataset.fit_scaler(values[:spec.n_train])
        test = slice(spec.test_start, spec.test_start + spec.n_test)
        report = json.loads((out_dir / "report.json").read_text())
        assert set(forecast) == set(report["models"]) == {"lstm", "ffnn", "arima"}
        for kind, preds in forecast.items():
            rows = (out_dir / f"{kind}_predictions.csv").read_text().splitlines()[1:]
            slots, truth, read = (np.array([float(row.split(",")[k]) for row in rows])
                                  for k in range(3))
            assert slots.tolist() == list(range(test.start, test.stop))
            assert truth.tobytes() == values[test].tobytes()
            assert read.tobytes() == preds.tobytes(), kind
            entry = report["models"][kind]
            assert entry["test_mae"] == train.mae(preds, values[test])
            assert entry["test_mae_normalized"] == entry["test_mae"] / (scaler.max - scaler.min)
            assert scaler.max - scaler.min != 1.0

    @pytest.mark.parametrize("flags", [["--d", "1"], ["--q", "2"], ["--d", "0", "--q", "1"]])
    def test_order_without_p_is_usage_error(self, tmp_path, capsys, flags):
        series = make_series_csv(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--series", str(series), *flags,
                  "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        named = ", ".join(f for f in flags if f.startswith("--"))
        err = capsys.readouterr().err
        assert f"{named} cannot be combined with the AIC order search" in err
        assert not (tmp_path / "out").exists()

    def test_order_out_of_range_is_usage_error(self, tmp_path, monkeypatch, capsys):
        series = make_series_csv(tmp_path)
        forks = record_forks(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--series", str(series), "--p", "9",
                  "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: celltide compare ")  # the subcommand's usage line
        assert "--p must be in 0..5, got 9" in err
        assert not (tmp_path / "out").exists()
        assert forks == []

    def test_same_seed_same_outputs(self, tmp_path):
        series = make_series_csv(tmp_path, days=4)
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out_dir in dirs:
            assert main(["compare", "--series", str(series), "--train-frac", "0.4",
                         "--epochs", "1", "--seed", "5", "--p", "1",
                         "--out-dir", str(out_dir)]) == 0
        for kind in ("lstm", "ffnn", "arima"):
            name = f"{kind}_predictions.csv"
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
        for kind in ("lstm", "ffnn"):
            rows = [[line.rsplit(",", 1)[0] for line in
                     (d / f"{kind}_history.csv").read_text().splitlines()] for d in dirs]
            assert rows[0][0] == "epoch,train_mae,val_mae" and rows[0] == rows[1], kind
        reports = []
        for d in dirs:
            report = json.loads((d / "report.json").read_text())
            for model in report["models"].values():
                model.pop("train_wall_ms")
            reports.append(json.dumps(report))  # keeps the key order
        assert reports[0] == reports[1]

    def test_failure_removes_partial_outputs(self, tmp_path):
        series = make_series_csv(tmp_path, days=4)
        out_dir = tmp_path / "out"
        # ARIMA(5,0,5) needs more observations than the 0.1 training slice
        # holds, which the parent finds before it trains or forks anything
        rc = main(["compare", "--series", str(series), "--train-frac", "0.1",
                   "--epochs", "1", "--seed", "3", "--p", "5", "--q", "5",
                   "--out-dir", str(out_dir)])
        assert rc == 1
        assert not out_dir.exists()
        assert_no_child_process()

    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
    def test_out_dir_that_cannot_be_made_fails_before_training(self, tmp_path, monkeypatch,
                                                              capsys, under_file):
        """An --out-dir naming an existing file, or a path under one, fails
        before any model is trained or any worker forked, and the file stays."""
        series = make_series_csv(tmp_path, days=4)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out_dir = taken / "out" if under_file else taken

        def untrainable(*args):
            raise AssertionError("train_model called")

        monkeypatch.setattr(train, "train_model", untrainable)
        forks = record_forks(monkeypatch)
        capsys.readouterr()
        assert main(["compare", *COMPARE_FLAGS, "--p", "1", "--series", str(series),
                     "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out_dir) in err
        assert ("Not a directory" if under_file else "File exists") in err
        assert taken.read_text() == "kept\n"
        assert forks == []

    @pytest.mark.parametrize("order,need", [
        ([], "at least 200 observations for order selection, got 57"),
        (["--p", "3", "--d", "1", "--q", "3"],
         "at least 71 observations for orders (3,1,3), got 57"),
    ])
    def test_too_short_arima_slice_fails_before_training(self, tmp_path, monkeypatch,
                                                          capsys, order, need):
        series = make_series_csv(tmp_path, days=4)
        out_dir = tmp_path / "out"
        forks = record_forks(monkeypatch)
        capsys.readouterr()
        assert main(["compare", "--series", str(series), "--train-frac", "0.1",
                     "--epochs", "1", *order, "--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: need {need}\n"
        assert captured.out == "split 57/58/58\n"
        assert forks == []
        assert not out_dir.exists()

    @pytest.mark.parametrize("order", [["--p", "1"], []])
    def test_commands_share_one_setup(self, tmp_path, order):
        """`train` and `arima` fit and forecast as `compare` does: the same
        history rows for each neural model and the same ARIMA predictions."""
        series = make_series_csv(tmp_path, days=4)
        out_dir = tmp_path / "out"
        assert main(["compare", *COMPARE_FLAGS, *order, "--series", str(series),
                     "--out-dir", str(out_dir)]) == 0
        for kind in NEURAL:
            history = tmp_path / f"{kind}.csv"
            assert main(["train", "--model", kind, *COMPARE_FLAGS, "--series", str(series),
                         "--out-model", str(tmp_path / f"{kind}.json"),
                         "--out-history", str(history)]) == 0
            rows = [[line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
                    for path in (history, out_dir / f"{kind}_history.csv")]
            assert rows[0][0] == "epoch,train_mae,val_mae" and rows[0] == rows[1], kind
        assert main(["arima", "--series", str(series), "--train-frac", "0.4",
                     *(order or ["--auto"]), "--out-model", str(tmp_path / "a.json"),
                     "--out-predictions", str(tmp_path / "a.csv")]) == 0
        assert ((out_dir / "arima_predictions.csv").read_bytes()
                == (tmp_path / "a.csv").read_bytes())

    @staticmethod
    def _interrupt_ffnn_evaluation(tmp_path, monkeypatch, out_dir):
        """Run `compare` into `out_dir` with an interrupt in the FFNN
        evaluation, after two files are written."""
        series = make_series_csv(tmp_path, days=4)
        evaluate = train.evaluate

        def interrupted(kind, *args):
            if kind == "ffnn":
                raise KeyboardInterrupt
            return evaluate(kind, *args)

        monkeypatch.setattr(train, "evaluate", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["compare", "--series", str(series), "--train-frac", "0.4",
                  "--epochs", "1", "--seed", "3", "--p", "1", "--out-dir", str(out_dir)])
        assert_no_child_process()

    def test_interrupt_removes_partial_outputs(self, tmp_path, monkeypatch):
        out_dir = tmp_path / "out"
        self._interrupt_ffnn_evaluation(tmp_path, monkeypatch, out_dir)
        assert not out_dir.exists()

    def test_interrupt_keeps_an_existing_out_dir(self, tmp_path, monkeypatch):
        out_dir = tmp_path / "out"
        (out_dir / "kept").mkdir(parents=True)
        self._interrupt_ffnn_evaluation(tmp_path, monkeypatch, out_dir)
        assert [p.name for p in out_dir.iterdir()] == ["kept"]

    @pytest.mark.parametrize("parent_existed", [False, True])
    def test_failure_removes_the_out_dir_parents_it_made(self, tmp_path, capsys,
                                                         parent_existed):
        """A nested --out-dir loses every directory the call made, and keeps
        an empty parent that was there before."""
        series = make_series_csv(tmp_path, days=4)
        if parent_existed:
            (tmp_path / "a").mkdir()
        assert main(["compare", *COMPARE_FLAGS, "--p", "1", "--lr", "1e300",
                     "--series", str(series), "--out-dir", str(tmp_path / "a" / "b")]) == 1
        assert "diverged" in capsys.readouterr().err
        assert (tmp_path / "a").exists() == parent_existed
        assert not (tmp_path / "a" / "b").exists()
        assert_no_child_process()

    @pytest.mark.parametrize("failure", ["arima", "interrupt"])
    def test_failed_fit_leaves_an_earlier_run_as_it_was(self, tmp_path, monkeypatch, capsys,
                                                        failure):
        """A re-run that fails in the ARIMA fit, or is interrupted in the FFNN
        evaluation, leaves the earlier run's six files in its out dir byte for
        byte, and adds none."""
        series = make_series_csv(tmp_path, days=4)
        out_dir = tmp_path / "out"
        argv = ["compare", *COMPARE_FLAGS, "--p", "1", "--series", str(series),
                "--out-dir", str(out_dir)]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert len(before) == 6
        if failure == "arima":
            def failing(data, order):
                raise arima.ArimaFitError(f"no fit for order {order}")

            patch_arima_row(monkeypatch, failing)
            capsys.readouterr()
            assert main(argv) == 1
            assert capsys.readouterr() == ("split 230/58/58\n",
                                           "error: no fit for order (1, 0, 0)\n")
        else:
            self._interrupt_ffnn_evaluation(tmp_path, monkeypatch, out_dir)
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
        assert_no_child_process()

    @pytest.mark.parametrize("parent_existed", [False, True])
    def test_failed_write_removes_the_out_dir_parents_it_made(self, tmp_path, monkeypatch,
                                                              capsys, parent_existed):
        """A write that fails after the out dir is made removes the files
        written so far, and every directory the call made for them."""
        series = make_series_csv(tmp_path, days=4)
        if parent_existed:
            (tmp_path / "a").mkdir()
        fail_ffnn_history_write(monkeypatch)
        assert main(["compare", *COMPARE_FLAGS, "--p", "1", "--series", str(series),
                     "--out-dir", str(tmp_path / "a" / "b")]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["a", "series.csv"] if parent_existed else ["series.csv"])
        if parent_existed:
            assert list((tmp_path / "a").iterdir()) == []
        assert_no_child_process()

    def test_failed_write_keeps_an_existing_out_dir_and_its_files(self, tmp_path, monkeypatch):
        series = make_series_csv(tmp_path, days=4)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "notes.txt").write_text("kept\n")
        fail_ffnn_history_write(monkeypatch)
        assert main(["compare", *COMPARE_FLAGS, "--p", "1", "--series", str(series),
                     "--out-dir", str(out_dir)]) == 1
        assert [p.name for p in out_dir.iterdir()] == ["notes.txt"]
        assert (out_dir / "notes.txt").read_text() == "kept\n"
        assert_no_child_process()

    def test_failed_write_leaves_an_earlier_run_as_it_was(self, tmp_path, monkeypatch,
                                                          capsys):
        """A re-run whose write phase fails after three files leaves the
        earlier run's six files byte for byte, and no temporary file."""
        series = make_series_csv(tmp_path, days=4)
        out_dir = tmp_path / "out"
        argv = ["compare", *COMPARE_FLAGS, "--p", "1", "--series", str(series),
                "--out-dir", str(out_dir)]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert len(before) == 6
        fail_ffnn_history_write(monkeypatch)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
        assert_no_child_process()

    def test_interrupt_after_the_worker_is_reaped_kills_nothing(self, tmp_path, monkeypatch):
        """An interrupt while report.json is written, after the ARIMA worker
        has been reaped: its pid may belong to another process by then."""
        series = make_series_csv(tmp_path, days=4)
        out_dir = tmp_path / "out"

        def interrupted(obj):
            raise KeyboardInterrupt

        kills = []
        monkeypatch.setattr(modelio, "dumps", interrupted)
        monkeypatch.setattr(os, "kill", lambda *args: kills.append(args))
        with pytest.raises(KeyboardInterrupt):
            main(["compare", *COMPARE_FLAGS, "--p", "1", "--series", str(series),
                  "--out-dir", str(out_dir)])
        assert kills == []
        assert not out_dir.exists()
        assert_no_child_process()

    def test_worker_exception_is_the_serial_error(self, tmp_path, monkeypatch, capsys):
        series = make_series_csv(tmp_path, days=4)
        out_dir = tmp_path / "out"

        def failing(data, order):
            raise arima.ArimaFitError(f"no fit for order {order}")

        patch_arima_row(monkeypatch, failing)
        assert main(["compare", *COMPARE_FLAGS, "--p", "1", "--series", str(series),
                     "--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: no fit for order (1, 0, 0)\n"
        assert "arima:" not in captured.out
        assert not out_dir.exists()
        assert_no_child_process()

    @pytest.mark.parametrize("death,status", [
        (lambda: os._exit(3), 3),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
    ])
    def test_worker_without_result_is_a_runtime_error(self, tmp_path, monkeypatch,
                                                      capsys, death, status):
        series = make_series_csv(tmp_path, days=4)
        out_dir = tmp_path / "out"
        patch_arima_row(monkeypatch, lambda data, order: death())
        assert main(["compare", *COMPARE_FLAGS, "--p", "1", "--series", str(series),
                     "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"error: worker exited with status {status}\n"
        assert not out_dir.exists()
        assert_no_child_process()

    def test_only_compare_the_arima_search_and_multi_file_ingest_fork_and_only_once(
            self, tmp_path, monkeypatch):
        series = make_series_csv(tmp_path, days=4)
        raw = make_raw_dir(tmp_path)
        one_file, seven_files = make_days_dir(tmp_path, 1), make_days_dir(tmp_path, 7)
        forks = record_forks(monkeypatch)
        arima_flags = ["--series", str(series), "--train-frac", "0.4",
                       "--out-model", str(tmp_path / "a.json"),
                       "--out-predictions", str(tmp_path / "a.csv")]
        calls = [
            (0, ["synth", "--days", "1", "--out", str(tmp_path / "s.csv")]),
            (0, ["ingest", "--input-dir", str(one_file), "--out", str(tmp_path / "i.csv")]),
            (1, ["ingest", "--input-dir", str(raw), "--out", str(tmp_path / "i.csv")]),
            (1, ["ingest", "--input-dir", str(seven_files), "--out", str(tmp_path / "i.csv")]),
            (0, ["train", "--model", "lstm", *COMPARE_FLAGS, "--series", str(series),
                 "--out-model", str(tmp_path / "m.json"),
                 "--out-history", str(tmp_path / "h.csv")]),
            (0, ["arima", *arima_flags]),
            (1, ["arima", "--auto", *arima_flags]),
            (1, ["compare", *COMPARE_FLAGS, "--p", "1", "--series", str(series),
                 "--out-dir", str(tmp_path / "out")]),
        ]
        for expected, argv in calls:
            before = len(forks)
            assert main(argv) == 0, argv
            assert len(forks) - before == expected, argv
        assert_no_child_process()

    def test_compare_search_starts_one_process(self, tmp_path, monkeypatch):
        """`compare` with the AIC search forks once: its worker searches
        serially. Each fork appends to a file, as a fork in the worker would
        land in the worker's copy of any list."""
        series = make_series_csv(tmp_path, days=4)
        log, fork = tmp_path / "forks.log", os.fork

        def logged():
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return fork()

        monkeypatch.setattr(os, "fork", logged)
        assert main(["compare", *COMPARE_FLAGS, "--series", str(series),
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert log.read_text().splitlines() == [str(os.getpid())]
        assert_no_child_process()


class LastValue:
    """A fourth row for the kind table: each test slot's forecast is the
    value of the slot before it. It needs no setup and writes no file."""

    @staticmethod
    def setup(data, args):
        pass

    def fit(self, data, map):
        return None, []

    def forecast(self, model, data):
        start, stop = data.test_range
        return data.values[start - 1:stop - 1]

    def report(self, model, scores, out):
        return scores


def test_a_fourth_forecaster_needs_no_cli_edit(tmp_path, monkeypatch, capsys):
    """A row added to the kind table runs in `compare` with no CLI edit: it
    writes its predictions and its report entry, one worker is still
    started, and every other output is the same as without it."""
    series = make_series_csv(tmp_path, days=4)
    argv = ["compare", *COMPARE_FLAGS, "--p", "1", "--series", str(series), "--out-dir"]
    assert main([*argv, str(tmp_path / "three")]) == 0
    monkeypatch.setitem(train.FORECASTERS, "last", LastValue())
    forks = record_forks(monkeypatch)
    capsys.readouterr()
    assert main([*argv, str(tmp_path / "four")]) == 0
    assert len(forks) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("last: test MAE ")
    three, four = ({p.name: p.read_text() for p in (tmp_path / run).iterdir()}
                   for run in ("three", "four"))
    assert set(four) == {*three, "last_predictions.csv"}
    for name in three.keys() - {"report.json"}:
        untimed = [[line.rsplit(",", 1)[0] if "history" in name else line
                    for line in run[name].splitlines()] for run in (three, four)]
        assert untimed[0] == untimed[1], name
    values = cdr.read_series_csv(str(series)).values
    spec = dataset.split(len(values), 0.4)
    rows = np.loadtxt(tmp_path / "four" / "last_predictions.csv", delimiter=",", skiprows=1)
    assert rows[:, 0].tolist() == list(range(spec.test_start, spec.test_start + spec.n_test))
    assert rows[:, 2].tobytes() == values[spec.test_start - 1:-1][:spec.n_test].tobytes()
    reports = [json.loads(run["report.json"]) for run in (three, four)]
    for report in reports:
        for entry in report["models"].values():
            assert entry.pop("train_wall_ms") >= 0
    last = reports[1]["models"].pop("last")
    assert reports[0] == reports[1]
    assert list(last) == ["test_mae", "test_mae_normalized"]
    assert last["test_mae"] == train.mae(rows[:, 2], rows[:, 1])
    assert_no_child_process()


def test_a_fourth_row_that_ends_the_worker_is_a_runtime_error(tmp_path, monkeypatch, capsys):
    """The error of a worker that ends without a result names no kind: here
    the worker fits ARIMA, then a fourth row whose fit ends it with status 3."""
    series = make_series_csv(tmp_path, days=4)
    out_dir, parent = tmp_path / "out", os.getpid()

    class EndsTheWorker(LastValue):
        def fit(self, data, map):
            assert os.getpid() != parent, "the fourth row was fitted in this process"
            os._exit(3)

    monkeypatch.setitem(train.FORECASTERS, "last", EndsTheWorker())
    assert main(["compare", *COMPARE_FLAGS, "--p", "1", "--series", str(series),
                 "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == "error: worker exited with status 3\n"
    assert not out_dir.exists()
    assert_no_child_process()


def test_train_model_choices_are_the_trained_kinds():
    """The parser names the kinds itself, so that building it loads no model;
    they are the neural rows of the kind table, in its order."""
    train_parser = cli.build_parser().parse_args(
        ["train", "--model", "lstm", "--series", "s", "--out-model", "m",
         "--out-history", "h"]).parser
    model = next(a for a in train_parser._actions if a.dest == "model")
    assert model.choices == NEURAL


@pytest.mark.parametrize("error", [
    cdr.IngestError("bad dir"), arima.ArimaFitError("no fit"),
    train.TrainingDiverged("non-finite loss in epoch 1"), ValueError("bad value"),
    OSError(28, "No space left on device", "out.csv"),
], ids=lambda e: type(e).__name__)
def test_runtime_errors_exit_1_in_one_line(tmp_path, monkeypatch, capsys, error):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cdr, "ingest_dir", failing)
    assert main(["ingest", "--input-dir", str(tmp_path), "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("error", [RuntimeError("not one of the CLI's runtime errors"),
                                   KeyError("slot")], ids=lambda e: type(e).__name__)
def test_any_other_exception_propagates(tmp_path, monkeypatch, error):
    """`main`'s runtime errors are named: a bare RuntimeError is not one."""
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cdr, "ingest_dir", failing)
    with pytest.raises(type(error)) as raised:
        main(["ingest", "--input-dir", str(tmp_path), "--out", str(tmp_path / "x.csv")])
    assert raised.value is error
