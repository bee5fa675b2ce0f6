import numpy as np
import pytest

from celltide import cdr

T0 = 1_383_260_400_000


def test_parse_full_line():
    rec = cdr.parse_line("1\t1383260400000\t39\t0.2\t0.1\t0.05\t0.07\t10.5")
    assert rec.grid_id == 1
    assert rec.timestamp_ms == 1383260400000
    assert rec.country_code == 39
    assert rec.sms_in == 0.2
    assert rec.internet == 10.5


def test_parse_missing_fields_become_zero():
    rec = cdr.parse_line("1\t1383260400000\t39\t\t\t\t\t10.5")
    assert (rec.sms_in, rec.sms_out, rec.call_in, rec.call_out) == (0, 0, 0, 0)
    assert rec.internet == 10.5


def test_parse_missing_trailing_columns():
    rec = cdr.parse_line("7\t1383260400000\t39")
    assert rec.grid_id == 7
    assert rec.internet == 0.0


def test_parse_blank_line_returns_none():
    assert cdr.parse_line("") is None
    assert cdr.parse_line("   \n") is None


def test_parse_error_carries_line_number():
    with pytest.raises(cdr.ParseError, match="line 17"):
        cdr.parse_line("abc\t123\t39", lineno=17)


class TestSlotMapping:
    def test_origin(self):
        assert cdr.ms_to_slot(T0, T0) == 0

    def test_next_slot(self):
        assert cdr.ms_to_slot(T0 + 600_000, T0) == 1

    def test_final_slot_of_62_days(self):
        # 62 days x 144 slots/day = 8928 slots, last index 8927
        assert cdr.ms_to_slot(T0 + 8927 * 600_000, T0) == 8927

    def test_straggler_floors(self):
        assert cdr.ms_to_slot(T0 + 600_000 + 1234, T0) == 1

    def test_before_origin_rejected(self):
        with pytest.raises(ValueError):
            cdr.ms_to_slot(T0 - 1, T0)


def _rec(grid, slot, internet, country=39):
    return cdr.CdrRecord(grid, T0 + slot * 600_000, country, internet=internet)


class TestAggregate:
    def test_same_slot_records_sum(self):
        series = cdr.aggregate([_rec(1, 0, 1.0), _rec(1, 0, 2.0, country=0)],
                               1, "internet", T0, 2)
        assert series.values.tolist() == [3.0, 0.0]

    def test_empty_slot_is_zero(self):
        series = cdr.aggregate([_rec(1, 2, 5.0)], 1, "internet", T0, 4)
        assert series.values.tolist() == [0.0, 0.0, 5.0, 0.0]

    def test_conservation(self):
        rng = np.random.default_rng(3)
        records = [_rec(1, int(rng.integers(0, 50)), float(rng.uniform(0, 10)))
                   for _ in range(500)]
        series = cdr.aggregate(records, 1, "internet", T0, 50)
        total_in = sum(r.internet for r in records)
        assert series.values.sum() == pytest.approx(total_in, rel=1e-9)

    def test_other_grids_filtered(self):
        series = cdr.aggregate([_rec(1, 0, 1.0), _rec(2, 0, 9.0)], 1, "internet", T0, 1)
        assert series.values.tolist() == [1.0]


def _write_day_file(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for grid, ts, internet in rows:
            fh.write(f"{grid}\t{ts}\t39\t\t\t\t\t{internet}\n")


@pytest.fixture
def fixture_dir(tmp_path):
    """Two day-files, 6 slots per day, grid 1 plus a decoy grid."""
    raw = tmp_path / "raw"
    raw.mkdir()
    rng = np.random.default_rng(11)
    for day in range(2):
        rows = []
        for slot in range(6):
            ts = T0 + (day * 6 + slot) * 600_000
            rows.append((1, ts, round(float(rng.uniform(0, 20)), 3)))
            rows.append((2, ts, 99.0))
        _write_day_file(raw / f"sms-call-internet-mi-day{day}.txt", rows)
    return raw


class TestIngestDir:
    def test_gap_free_span(self, fixture_dir):
        series = cdr.ingest_dir(str(fixture_dir), 1, "internet")
        assert len(series) == 12
        assert np.all(np.isfinite(series.values))

    def test_single_record(self, tmp_path):
        _write_day_file(tmp_path / "one.txt", [(1, T0, 4.25)])
        series = cdr.ingest_dir(str(tmp_path), 1, "internet")
        assert len(series) == 1
        assert series.values[0] == 4.25

    def test_split_across_files_equals_single_file(self, tmp_path):
        rows = [(1, T0 + s * 600_000, float(s + 1)) for s in range(8)]
        one = tmp_path / "one"
        two = tmp_path / "two"
        one.mkdir(), two.mkdir()
        _write_day_file(one / "all.txt", rows)
        _write_day_file(two / "a.txt", rows[:4])
        _write_day_file(two / "b.txt", rows[4:])
        s1 = cdr.ingest_dir(str(one), 1, "internet")
        s2 = cdr.ingest_dir(str(two), 1, "internet")
        assert np.array_equal(s1.values, s2.values)
        assert s1.t0_ms == s2.t0_ms

    def test_idempotent_reingestion(self, fixture_dir):
        a = cdr.ingest_dir(str(fixture_dir), 1, "internet")
        b = cdr.ingest_dir(str(fixture_dir), 1, "internet")
        assert np.array_equal(a.values, b.values)

    def test_empty_dir_errors(self, tmp_path):
        with pytest.raises(cdr.IngestError):
            cdr.ingest_dir(str(tmp_path), 1, "internet")

    def test_parse_error_names_file_and_line(self, tmp_path):
        (tmp_path / "bad.txt").write_text("1\t{T0}\t39\n".format(T0=T0)
                                          + "oops\tnope\t39\n")
        with pytest.raises(cdr.IngestError, match=r"bad\.txt.*line 2"):
            cdr.ingest_dir(str(tmp_path), 1, "internet")


def test_series_csv_roundtrip(tmp_path, fixture_dir):
    series = cdr.ingest_dir(str(fixture_dir), 1, "internet")
    path = tmp_path / "series.csv"
    cdr.write_series_csv(series, str(path))
    back = cdr.read_series_csv(str(path))
    assert back.t0_ms == series.t0_ms
    assert np.array_equal(back.values, series.values)


def test_series_csv_deterministic_bytes(tmp_path, fixture_dir):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cdr.write_series_csv(cdr.ingest_dir(str(fixture_dir), 1, "internet"), str(p1))
    cdr.write_series_csv(cdr.ingest_dir(str(fixture_dir), 1, "internet"), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def _series_lines(n=4):
    return ["slot,timestamp_ms,value"] + [f"{i},{T0 + i * 600_000},{i + 1.5}" for i in range(n)]


def _write_lines(tmp_path, lines):
    path = tmp_path / "series.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_series_csv_rejects_non_finite_value(tmp_path, bad):
    lines = _series_lines()
    lines[3] = f"2,{T0 + 2 * 600_000},{bad}"
    path = _write_lines(tmp_path, lines)
    with pytest.raises(cdr.ParseError, match=r"series\.csv: line 4: non-finite"):
        cdr.read_series_csv(path)


def test_series_csv_non_finite_line_counts_blank_lines(tmp_path):
    lines = _series_lines()
    lines[3] = f"2,{T0 + 2 * 600_000},nan"
    path = _write_lines(tmp_path, lines[:2] + [""] + lines[2:])
    with pytest.raises(cdr.ParseError, match="line 5: "):
        cdr.read_series_csv(path)


def test_series_csv_rejects_off_grid_timestamp(tmp_path):
    lines = _series_lines()
    lines[4] = f"3,{T0 + 3 * 600_000 + 1},4.5"
    path = _write_lines(tmp_path, lines)
    with pytest.raises(cdr.ParseError, match=r"series\.csv: line 5: timestamp"):
        cdr.read_series_csv(path)
