import numpy as np
import pytest

from celltide import cdr

import oracles

T0 = 1_383_260_400_000


def test_parse_full_line():
    assert (cdr.parse_line("1\t1383260400000\t39\t0.2\t0.1\t0.05\t0.07\t10.5")
            == (1, 1383260400000, 39, 0.2, 0.1, 0.05, 0.07, 10.5))


def test_parse_missing_fields_become_zero():
    assert (cdr.parse_line("1\t1383260400000\t\t\t\t\t\t10.5")
            == (1, 1383260400000, 0, 0.0, 0.0, 0.0, 0.0, 10.5))


def test_parse_missing_trailing_columns():
    assert cdr.parse_line("7\t1383260400000\t39") == (7, 1383260400000, 39, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_parse_blank_line_returns_none():
    assert cdr.parse_line("") is None
    assert cdr.parse_line("   \n") is None


def test_parse_error_carries_line_number():
    with pytest.raises(cdr.ParseError, match="line 17"):
        cdr.parse_line("abc\t123\t39", lineno=17)


def _write_day_file(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for grid, ts, internet in rows:
            fh.write(f"{grid}\t{ts}\t39\t\t\t\t\t{internet}\n")


def _ingest(tmp_path, rows):
    _write_day_file(tmp_path / "day.txt", rows)
    return cdr.ingest_dir(str(tmp_path), 1, "internet")


class TestSlotMapping:
    """Each record lands in the slot of its timestamp's 10-minute floor,
    counted from the floor of the earliest timestamp."""

    def test_origin(self, tmp_path):
        series = _ingest(tmp_path, [(1, T0, 1.0)])
        assert series.t0_ms == T0
        assert series.values.tolist() == [1.0]

    def test_next_slot(self, tmp_path):
        series = _ingest(tmp_path, [(1, T0, 1.0), (1, T0 + 600_000, 2.0)])
        assert series.values.tolist() == [1.0, 2.0]

    def test_final_slot_of_62_days(self, tmp_path):
        # 62 days x 144 slots/day = 8928 slots, last index 8927
        series = _ingest(tmp_path, [(1, T0, 1.0), (1, T0 + 8927 * 600_000, 2.0)])
        assert len(series) == 8928
        assert series.values[8927] == 2.0

    def test_straggler_floors(self, tmp_path):
        series = _ingest(tmp_path, [(1, T0 + 1234, 1.0), (1, T0 + 600_000 + 1234, 2.0)])
        assert series.t0_ms == T0
        assert series.values.tolist() == [1.0, 2.0]


class TestAggregate:
    """Per-slot sums of the chosen grid, as ingest_dir builds them."""

    def test_same_slot_records_sum(self, tmp_path):
        (tmp_path / "day.txt").write_text(f"1\t{T0}\t39\t\t\t\t\t1.0\n"
                                          f"1\t{T0}\t0\t\t\t\t\t2.0\n")
        assert cdr.ingest_dir(str(tmp_path), 1, "internet").values.tolist() == [3.0]

    def test_empty_slot_is_zero(self, tmp_path):
        series = _ingest(tmp_path, [(1, T0, 2.0), (1, T0 + 3 * 600_000, 5.0)])
        assert series.values.tolist() == [2.0, 0.0, 0.0, 5.0]

    def test_conservation(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [(1, T0 + int(rng.integers(0, 50)) * 600_000, float(rng.uniform(0, 10)))
                for _ in range(500)]
        series = _ingest(tmp_path, rows)
        total_in = sum(internet for _, _, internet in rows)
        assert series.values.sum() == pytest.approx(total_in, rel=1e-9)

    def test_other_grids_filtered(self, tmp_path):
        series = _ingest(tmp_path, [(2, T0 - 600_000, 9.0), (1, T0, 1.0), (2, T0, 9.0),
                                    (2, T0 + 5 * 600_000, 9.0)])
        assert series.t0_ms == T0
        assert series.values.tolist() == [1.0]


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

    def test_matches_per_record_reference(self, tmp_path):
        """Three files share slots, so the per-slot sums depend on file order
        and line order; every channel must equal the reference bit for bit."""
        rng = np.random.default_rng(5)
        for name in ("a.txt", "b.txt", "c.txt"):
            lines = []
            for _ in range(400):
                grid = int(rng.choice([1, 1, 1, 2]))  # grid 2 is the decoy
                ts = T0 + int(rng.integers(0, 40)) * 600_000
                acts = ["" if rng.random() < 0.3 else repr(float(v))
                        for v in rng.lognormal(0.0, 2.0, size=5)]
                fields = [str(grid), str(ts), "" if rng.random() < 0.1 else "39", *acts]
                lines.append("\t".join(fields[:int(rng.choice([3, 5, 8, 8, 8, 8]))]))
                if rng.random() < 0.1:
                    lines.append(lines[-1])  # exact duplicate
                if rng.random() < 0.05:
                    lines.append(" " * int(rng.integers(0, 3)))  # blank line
            lines.append(f"1\t{T0 + 7 * 600_000 + 4321}\t39\t1\t2\t3\t4\t5")  # off the boundary
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        for channel in cdr.CHANNELS:
            series = cdr.ingest_dir(str(tmp_path), 1, channel)
            t0_ms, values = oracles.cdr_ingest_reference(str(tmp_path), 1, channel)
            assert series.t0_ms == t0_ms
            assert np.array_equal(series.values, values), channel

    def test_stray_timestamp_in_seconds_rejected(self, tmp_path):
        """One timestamp in seconds next to one in milliseconds would stretch
        the series back to 1970, over 2.3 million slots."""
        _write_day_file(tmp_path / "day.txt", [(1, T0, 1.0), (1, T0 // 1000, 2.0)])
        with pytest.raises(cdr.IngestError, match=r"^day\.txt: line 2: timestamp "
                           r"1383260400 stretches grid 1 to 2303130 slots"):
            cdr.ingest_dir(str(tmp_path), 1, "internet")

    def test_span_guard_names_the_outlier(self, tmp_path):
        """The timestamp farthest from the median is blamed, whichever file
        holds it; other grids' timestamps do not count."""
        week = [(1, T0 + k * 600_000, 1.0) for k in range(7 * 144)]
        _write_day_file(tmp_path / "a.txt", week[:500] + [(2, 0, 1.0), (1, T0 + 10**12, 1.0)])
        _write_day_file(tmp_path / "b.txt", week[500:])
        with pytest.raises(cdr.IngestError, match=rf"^a\.txt: line 502: timestamp {T0 + 10**12} "):
            cdr.ingest_dir(str(tmp_path), 1, "internet")
        _write_day_file(tmp_path / "a.txt", week[:500] + [(2, 0, 1.0)])
        assert len(cdr.ingest_dir(str(tmp_path), 1, "internet")) == 7 * 144

    def test_span_guard_parses_each_line_once(self, tmp_path, monkeypatch):
        """Naming the outlier takes no second pass over the files."""
        _write_day_file(tmp_path / "a.txt", [(1, T0, 1.0), (2, T0, 1.0)])
        _write_day_file(tmp_path / "b.txt", [(1, T0 + 10**12, 1.0), (1, T0, 2.0)])
        seen = []
        parse_line = cdr.parse_line

        def counted(line, lineno=0):
            seen.append(line)
            return parse_line(line, lineno)

        monkeypatch.setattr(cdr, "parse_line", counted)
        with pytest.raises(cdr.IngestError, match=r"^b\.txt: line 1: timestamp "):
            cdr.ingest_dir(str(tmp_path), 1, "internet")
        assert len(seen) == 4

    def test_one_leap_year_accepted(self, tmp_path):
        last = T0 + (cdr.MAX_SPAN_SLOTS - 1) * 600_000
        assert len(_ingest(tmp_path, [(1, T0, 1.0), (1, last, 2.0)])) == 366 * 144
        with pytest.raises(cdr.IngestError, match="52705 slots, over one leap year"):
            _ingest(tmp_path, [(1, T0, 1.0), (1, last + 600_000, 2.0)])

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
    with pytest.raises(cdr.ParseError, match=rf"series\.csv: line 4: non-finite value {float(bad)}$"):
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
