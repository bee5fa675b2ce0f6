import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from celltide import cdr, cli

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


def test_parse_rejects_more_than_eight_fields():
    with pytest.raises(cdr.ParseError, match=r"^line 4: 9 fields, at most 8 allowed$"):
        cdr.parse_line("1\t1383260400000\t39\t1\t2\t3\t4\t5\tgarbage", lineno=4)


def _write_day_file(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for grid, ts, internet in rows:
            fh.write(f"{grid}\t{ts}\t39\t\t\t\t\t{internet}\n")


@pytest.fixture
def paths_taken(monkeypatch):
    """One entry per block of lines ingest_dir reads: True when the block took
    the fast path, False when its lines were parsed one by one."""
    taken = []
    block = cdr._BLOCK

    class Spy:
        def fullmatch(self, text):
            match = block.fullmatch(text)
            taken.append(match is not None)
            return match

    monkeypatch.setattr(cdr, "_BLOCK", Spy())
    return taken


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

    def test_matches_per_record_reference(self, tmp_path, paths_taken):
        """Three files share slots, so the per-slot sums depend on file order
        and line order; every channel must equal the reference bit for bit.
        Whitespace-only lines send a.txt's and b.txt's one block through the
        per-line loop; c.txt, with empty blank lines only, takes the fast path."""
        rng = np.random.default_rng(5)
        for name in ("a.txt", "b.txt", "c.txt"):
            pad = 1 if name == "c.txt" else 3
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
                    lines.append(" " * int(rng.integers(0, pad)))  # blank line
            lines.append(f"1\t{T0 + 7 * 600_000 + 4321}\t39\t1\t2\t3\t4\t5")  # off the boundary
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        for channel in cdr.CHANNELS:
            series = cdr.ingest_dir(str(tmp_path), 1, channel)
            t0_ms, values = oracles.cdr_ingest_reference(str(tmp_path), 1, channel)
            assert series.t0_ms == t0_ms
            assert np.array_equal(series.values, values), channel
        assert paths_taken == [False, False, True] * len(cdr.CHANNELS)

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

    @pytest.mark.parametrize("second, parsed", [
        (f"2\t{T0}\t39\t\t\t\t\t1.0\n", 3),  # fast path: grid 1's lines alone
        ("   \n", 4),  # a.txt line by line: every line
    ], ids=["fast", "per-line"])
    def test_span_guard_parses_each_line_once(self, tmp_path, monkeypatch, second, parsed):
        """Naming the outlier takes no second pass over the files, and the
        fast path parses no line of another grid."""
        (tmp_path / "a.txt").write_text(f"1\t{T0}\t39\t\t\t\t\t1.0\n" + second)
        _write_day_file(tmp_path / "b.txt", [(1, T0 + 10**12, 1.0), (1, T0, 2.0)])
        seen = []
        parse_line = cdr.parse_line

        def counted(line, lineno=0):
            seen.append(line)
            return parse_line(line, lineno)

        monkeypatch.setattr(cdr, "parse_line", counted)
        with pytest.raises(cdr.IngestError, match=r"^b\.txt: line 1: timestamp "):
            cdr.ingest_dir(str(tmp_path), 1, "internet")
        assert len(seen) == parsed

    def test_odd_block_alone_is_parsed_line_by_line(self, tmp_path, monkeypatch, paths_taken):
        """A whitespace-only line in the first block of a multi-block file
        sends that block alone through the per-line loop: every later block
        has only grid 1's lines parsed."""
        rows = [(2 - (k % 100 == 0), T0 + k // 100 * 600_000, 1.0) for k in range(8_000)]
        _write_day_file(tmp_path / "day.txt", rows)
        lines = (tmp_path / "day.txt").read_text().splitlines(keepends=True)
        lines[4] = "   \n"
        (tmp_path / "day.txt").write_text("".join(lines))
        with open(tmp_path / "day.txt", encoding="utf-8") as fh:
            first_block = len(fh.readlines(1 << 16))
        assert first_block < len(lines)
        parsed = []
        parse_line = cdr.parse_line

        def counted(line, lineno=0):
            parsed.append(lineno)
            return parse_line(line, lineno)

        monkeypatch.setattr(cdr, "parse_line", counted)
        series = cdr.ingest_dir(str(tmp_path), 1, "internet")
        later = [k + 1 for k in range(first_block, len(lines)) if k % 100 == 0]
        assert parsed == list(range(1, first_block + 1)) + later
        assert paths_taken[0] is False and all(paths_taken[1:]) and len(paths_taken) > 3
        assert series.values.tolist() == [1.0] * 80

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

    @pytest.mark.parametrize("filler_lines", [0, 100, 9000])  # about 0, 25 kB, 2.3 MB
    def test_malformed_line_named_before_a_later_non_utf8_byte(self, tmp_path, filler_lines):
        """A malformed line is the error when a non-UTF-8 byte comes on the
        next line, later in its block of 64k characters, or blocks later."""
        filler = f"2\t{T0}\t39\t{'1.25' * 60}\n" * filler_lines
        (tmp_path / "bad.txt").write_bytes(
            f"1\t{T0}\t39\noops\tnope\t39\n{filler}".encode() + b"1\t\xff\n")
        with pytest.raises(cdr.IngestError, match=r"^bad\.txt: line 2: bad grid/timestamp"):
            cdr.ingest_dir(str(tmp_path), 1, "internet")

    def test_ninth_field_names_file_and_line(self, tmp_path):
        """A line of another grid with a ninth field fails, as in parse_line."""
        _write_day_file(tmp_path / "day.txt", [(1, T0, 1.0), (2, T0, 2.0), (1, T0, 3.0)])
        text = (tmp_path / "day.txt").read_text().split("\n")
        text[1] += "\tgarbage"
        (tmp_path / "day.txt").write_text("\n".join(text))
        with pytest.raises(cdr.IngestError, match=r"^day\.txt: line 2: 9 fields, at most 8"):
            cdr.ingest_dir(str(tmp_path), 1, "internet")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_fast_path_names_the_outlier_blocks_later(self, tmp_path, paths_taken, newline):
        """Line numbers carry across blocks and line ends, so the span guard
        names the outlier's line on the fast path as line by line."""
        rows = [(2 - (k % 100 == 0), T0 + k // 100 * 600_000, 1.0) for k in range(8_000)]
        rows[6_000] = (1, T0 + 10**12, 1.0)
        with open(tmp_path / "day.txt", "w", encoding="utf-8", newline=newline) as fh:
            fh.writelines(f"{g}\t{ts}\t39\t\t\t\t\t{v}\n" for g, ts, v in rows)
        assert (tmp_path / "day.txt").stat().st_size > 3 << 16  # over three blocks
        with pytest.raises(cdr.IngestError, match=r"^day\.txt: line 6001: timestamp "):
            cdr.ingest_dir(str(tmp_path), 1, "internet")
        assert len(paths_taken) > 3 and all(paths_taken)

    @pytest.mark.parametrize("width", [32, 33], ids=["line-ends-at-64k", "line-spans-64k"])
    def test_blocks_are_the_lines_readlines_gives(self, tmp_path, monkeypatch, width):
        """Each block is 64k characters and the rest of the line they end in:
        the lines of `readlines(1 << 16)`, also when a line ends exactly at
        64k characters and readlines takes one more."""
        line = f"2\t{T0}\t39\t{'1' * (width - 20)}\n"
        assert len(line) == width
        (tmp_path / "day.txt").write_text(f"1\t{T0}\t39\t\t\t\t\t1.0\n" + line * 9_000)
        want = []
        with open(tmp_path / "day.txt", encoding="utf-8") as fh:
            while lines := fh.readlines(1 << 16):
                want.append("\n" + "".join(lines))
        assert len(want) > 2
        blocks = []
        block = cdr._BLOCK

        class Spy:
            def fullmatch(self, text):
                blocks.append(text)
                return block.fullmatch(text)

        monkeypatch.setattr(cdr, "_BLOCK", Spy())
        assert cdr.ingest_dir(str(tmp_path), 1, "internet").values.tolist() == [1.0]
        assert blocks == want

    def test_only_a_newline_ends_a_line(self, tmp_path, paths_taken):
        """A block parsed line by line is cut at newlines alone: the \\x1c,
        \\x85 and \\u2028 that `str.splitlines` would cut at stay in their
        field, which `parse_line` reads as blank."""
        (tmp_path / "day.txt").write_text(f"1\t{T0}\t39\t\x1c\t\x85\t \t\t2.5\n")
        series = cdr.ingest_dir(str(tmp_path), 1, "internet")
        assert paths_taken == [False]
        assert (series.t0_ms, series.values.tolist()) == (T0, [2.5])

    def test_crlf_file_takes_the_fast_path(self, tmp_path, paths_taken):
        rows = [(1, T0 + s * 600_000, s + 0.5) for s in range(6)] + [(2, T0, 9.0)]
        _write_day_file(tmp_path / "lf.txt", rows)
        (tmp_path / "crlf.txt").write_bytes((tmp_path / "lf.txt").read_bytes()
                                            .replace(b"\n", b"\r\n"))
        both = cdr.ingest_dir(str(tmp_path), 1, "internet")  # each record twice
        os.remove(tmp_path / "lf.txt")
        crlf = cdr.ingest_dir(str(tmp_path), 1, "internet")
        assert paths_taken == [True, True, True]
        assert crlf.values.tolist() == [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]
        assert (both.t0_ms, both.values.tolist()) == (crlf.t0_ms, (2 * crlf.values).tolist())


def _write_days(dir_path, records_per_file):
    """Day files day0.txt, day1.txt, ... of grid 1 and decoy grid 2 records,
    all lines of one length. The files share slots, so each slot's sum
    depends on file order."""
    rng = np.random.default_rng(len(records_per_file))
    for day, n in enumerate(records_per_file):
        rows = [(int(rng.choice([1, 1, 2])), T0 + int(rng.integers(0, 30)) * 600_000,
                 f"{rng.uniform(1, 9):.6f}") for _ in range(n)]
        _write_day_file(dir_path / f"day{day}.txt", rows)


class TestTwoHalves:
    """`ingest_dir` scans two or more files in two halves through its `map`."""

    @pytest.mark.parametrize("records, halves", [
        ([3, 1, 5, 1], (["day0.txt", "day1.txt"], ["day2.txt", "day3.txt"])),
        ([8, 1, 1], (["day0.txt"], ["day1.txt", "day2.txt"])),
        ([1, 1, 8], (["day0.txt", "day1.txt"], ["day2.txt"])),
        ([2, 2], (["day0.txt"], ["day1.txt"])),
    ])
    def test_cut_at_the_file_boundary_nearest_half_the_bytes(self, tmp_path, records,
                                                              halves):
        _write_days(tmp_path, records)
        seen = []

        def recording(fn, items):
            seen.append(items)
            return map(fn, items)

        cdr.ingest_dir(str(tmp_path), 1, "internet", map=recording)
        assert seen == [halves]

    @pytest.mark.parametrize("n_files", range(1, 8))
    def test_worker_half_gives_the_serial_bytes(self, tmp_path, n_files):
        raw = tmp_path / "raw"
        raw.mkdir()
        _write_days(raw, [40 + 25 * (k % 3) for k in range(n_files)])
        written = []
        for name, map_ in (("serial.csv", map), ("split.csv", cli._map_in_two)):
            cdr.write_series_csv(cdr.ingest_dir(str(raw), 1, "internet", map=map_),
                                 str(tmp_path / name))
            written.append((tmp_path / name).read_bytes())
        assert written[0] == written[1]
        t0_ms, values = oracles.cdr_ingest_reference(str(raw), 1, "internet")
        split = cdr.read_series_csv(str(tmp_path / "split.csv"))
        assert (split.t0_ms, split.values.tolist()) == (t0_ms, values.tolist())
        with pytest.raises(ChildProcessError):  # no child left, running or unreaped
            os.waitpid(-1, os.WNOHANG)


# Fields outside the fast-path form: parse_line accepts some and rejects the
# rest, and ingest_dir must do as it does. "\udcff" is written as byte 0xff.
_ODD_FIELDS = ["01", "+1", "-1", " 3", "4 ", "1_0", "1.0", ".5", "1.5.5", "1e 5", "1e400",
               "1e-400", "1e100", "1" * 19, "9" * 19, "1" * 21, "nan", "inf", "-inf",
               "\u0661", "x", "\udcff"]
_OK_FIELD = st.one_of(
    st.sampled_from(["", "0", "39", "1.5", "2.", "1e5", "3E-7", "1e+99", "007",
                     "99999999999999999999.5e99"]),
    st.integers(0, 10**6).map(str),
    st.floats(1e-30, 1e6).map(repr))
_OK_STAMP = st.one_of(
    st.integers(0, 40).map(lambda k: str(T0 + k * 600_000 + (k % 3) * 17)),
    st.sampled_from(["0", "1383260400", "999999999999999999"]))


def _mostly(ok, odd):
    """Draws from `ok` 19 times in 20, and one of the strings `odd` otherwise."""
    return st.integers(0, 19).flatmap(lambda k: st.sampled_from(odd) if k == 0 else ok)


_LINE = _mostly(
    st.tuples(_mostly(st.sampled_from(["1", "1", "2", "10", "0"]), _ODD_FIELDS),
              _mostly(_OK_STAMP, _ODD_FIELDS),
              _mostly(st.sampled_from(["", "0", "39", "007"]), _ODD_FIELDS),
              st.lists(_mostly(_OK_FIELD, _ODD_FIELDS), max_size=5),
              st.integers(2, 8)).map(lambda t: "\t".join([*t[:3], *t[3]][:t[4]])),
    ["", "", " ", "\t", "  \t ", "1", "\t".join(["1", str(T0)] + ["1"] * 7)])


@st.composite
def _day_file(draw):
    """Day-file bytes, mostly in the fast-path form, with odd fields, odd
    lines, \\r\\n and bare \\r line ends, and maybe no final newline."""
    lines = draw(st.lists(_LINE, max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[:-len(ends[-1])]
    return text.encode("utf-8", "surrogateescape")


def _outcome(dir_path, channel):
    try:
        series = cdr.ingest_dir(dir_path, 1, channel)
    except cdr.IngestError as exc:
        return str(exc)
    return series.t0_ms, series.values


def _assert_same_as_per_line_loop(dir_path):
    """Every channel equals the per-record reference bit for bit, or fails
    with the text that the per-line loop gives."""
    for channel in cdr.CHANNELS:
        got = _outcome(dir_path, channel)
        with mock.patch.object(cdr, "_BLOCK", re.compile("(?!)")):  # never matches
            want = _outcome(dir_path, channel)
        if isinstance(want, str):
            assert got == want
        else:
            t0_ms, values = oracles.cdr_ingest_reference(dir_path, 1, channel)
            assert got[0] == want[0] == t0_ms
            assert np.array_equal(got[1], values) and np.array_equal(want[1], values)


@settings(max_examples=300, deadline=None)
@given(st.lists(_day_file(), min_size=1, max_size=3))
def test_fast_path_matches_the_per_line_loop(files):
    with tempfile.TemporaryDirectory() as dir_path:
        for i, data in enumerate(files):
            with open(os.path.join(dir_path, f"day{i}.txt"), "wb") as fh:
                fh.write(data)
        _assert_same_as_per_line_loop(dir_path)


@pytest.mark.parametrize("column", range(8))
def test_each_odd_field_matches_the_per_line_loop(tmp_path, column):
    """Each odd field in each column of another grid's line, between two
    lines of grid 1: the fast path must not skip what parse_line rejects."""
    for odd in _ODD_FIELDS:
        fields = ["2", str(T0), "39", "1", "2", "3", "4", "5"]
        fields[column] = odd
        lines = [f"1\t{T0}\t39\t1\t1\t1\t1\t1", "\t".join(fields), f"1\t{T0 + 600_000}\t39\t2"]
        (tmp_path / "day.txt").write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
        _assert_same_as_per_line_loop(str(tmp_path))


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


@pytest.mark.parametrize("filler_lines", [0, 100, 9000])
def test_series_csv_malformed_line_named_before_a_later_non_utf8_byte(tmp_path, filler_lines):
    """A bad value is the error when a non-UTF-8 byte comes on the next line,
    later in the decoder's chunk, or chunks later."""
    filler = "".join(f"{i},{T0 + i * 600_000},{i + 0.25}\n" for i in range(1, filler_lines + 1))
    path = tmp_path / "series.csv"
    path.write_bytes(f"slot,timestamp_ms,value\n0,{T0},oops\n{filler}".encode()
                     + f"{filler_lines + 1},{T0},".encode() + b"\xc3\n")
    with pytest.raises(cdr.ParseError, match=r"series\.csv: line 2: could not convert"):
        cdr.read_series_csv(str(path))


def test_series_csv_non_utf8_header_byte_names_line_1(tmp_path):
    lines = _series_lines()
    path = tmp_path / "series.csv"
    path.write_bytes(("\n".join(lines) + "\n").replace(",", ",\udcff", 1)
                     .encode("utf-8", "surrogateescape"))
    with pytest.raises(cdr.ParseError, match=r"series\.csv: line 1: byte 0xff is not "
                       r"UTF-8 \(invalid start byte\)$"):
        cdr.read_series_csv(str(path))
