"""Parsing and cleansing of gridded call-data-record activity files.

Raw input is tab-separated text, one record per line:
    grid_id, timestamp_ms, country_code, sms_in, sms_out, call_in, call_out, internet
Empty numeric fields mean "missing" and are read as 0.0; a line has at most
these 8 fields. A day of data lives in one file; a directory of day-files is
merged into a single gap-free per-grid series of 10-minute slots. Each file
is read once, with any byte that is not UTF-8 kept as a lone surrogate, so
the first bad line in file order is the error, whatever is wrong with it.
"""

import math
import os
import re
from dataclasses import dataclass

import numpy as np

SLOT_MS = 600_000  # 10 minutes
SLOTS_PER_DAY = 144
MAX_SPAN_SLOTS = 366 * SLOTS_PER_DAY  # one leap year; a wider span is a stray timestamp
MAX_VALUE = 1e150  # a series value's magnitude bound: sums of ~1e7 squares stay finite

CHANNELS = ("sms_in", "sms_out", "call_in", "call_out", "internet")

# The line form that ingest_dir's fast path takes: a grid id in canonical form
# (at most 18 digits, as int() refuses very long digit strings), a timestamp
# of at most 18 digits (inside int64), an empty or at most 15-digit country
# code and up to five empty or plain decimal activities, so every value is
# finite and below 1e119, inside MAX_VALUE; 2 to 8 fields, or an empty line.
# parse_line accepts every such line without error. Possessive repeats keep
# the scan of a block linear, with no backtracking state.
_ACTIVITY = r"(?:[0-9]{1,20}+(?:\.[0-9]*+)?+(?:[eE][-+]?+[0-9]{1,2}+)?+)?+"
_LINE = (r"(?:0|[1-9][0-9]{0,17}+)\t[0-9]{1,18}+"
         rf"(?:\t(?:[0-9]{{1,15}}+)?+(?:\t{_ACTIVITY}){{0,5}}+)?+")
_BLOCK = re.compile(rf"(?:\n(?:{_LINE})?+)*+")  # each line behind a newline


class ParseError(ValueError):
    """Malformed CDR line; carries file/line location in the message."""


class IngestError(RuntimeError):
    """Directory-level ingestion failure."""


@dataclass
class ActivitySeries:
    """Gap-free per-grid series of one activity channel, one value per slot."""

    t0_ms: int
    values: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.values)


def parse_line(line: str, lineno: int = 0) -> tuple | None:
    """Parse one raw tab-separated record; blank lines yield None.

    Returns (grid_id, timestamp_ms, country_code, sms_in, sms_out, call_in,
    call_out, internet). Missing trailing columns and empty fields after the
    timestamp are read as 0. More than 8 fields, a non-numeric or non-finite
    field, an activity beyond +-MAX_VALUE, or a timestamp outside the int64
    range raises ParseError carrying `lineno`.
    """
    line = line.rstrip("\n\r")
    if not line.strip():
        return None
    parts = line.split("\t")
    if len(parts) > 8:
        raise ParseError(f"line {lineno}: {len(parts)} fields, at most 8 allowed")
    parts += [""] * (8 - len(parts))
    try:
        grid_id = int(parts[0])
        timestamp_ms = int(float(parts[1]))
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"line {lineno}: bad grid/timestamp field: {exc}") from None
    if not -2**63 <= timestamp_ms < 2**63:
        raise ParseError(f"line {lineno}: timestamp {parts[1].strip()} outside the int64 range")
    try:
        country = int(float(parts[2])) if parts[2].strip() else 0
        acts = [float(p) if p.strip() else 0.0 for p in parts[3:8]]
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"line {lineno}: bad numeric field: {exc}") from None
    if not all(map(math.isfinite, acts)):
        raise ParseError(f"line {lineno}: non-finite activity field")
    for a in acts:
        if abs(a) > MAX_VALUE:
            raise ParseError(f"line {lineno}: activity {a:g} beyond +-{MAX_VALUE:g}")
    return (grid_id, timestamp_ms, country, *acts)


def aggregate(timestamps: np.ndarray, values, t0_ms: int, n_slots: int) -> np.ndarray:
    """Per-slot totals of `values` from the slot-aligned `t0_ms`, each int64
    timestamp floored to its slot; empty slots stay 0.0, and each slot sums in
    input order. Slot indices are subtracted, not timestamps, so none overflows."""
    return np.bincount(timestamps // SLOT_MS - t0_ms // SLOT_MS, weights=values,
                       minlength=n_slots)


def _check_utf8(line: str, lineno: int) -> None:
    """Raise ParseError if `line`, read with errors="surrogateescape", holds
    a byte that is not UTF-8: each lone surrogate stands for one such byte.
    Decoding the line's bytes strictly names the first of them and why."""
    raw = line.rstrip("\n").encode("utf-8", "surrogateescape")
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"line {lineno}: byte 0x{raw[exc.start]:02x} is not UTF-8 "
                         f"({exc.reason})") from None


def _lines_to_parse(fh, grid_id: int):
    """(line number, line) of each line of the text file `fh` that must be
    parsed. The file is read once, in blocks of whole lines, each checked
    against `_BLOCK`: a block in that form yields only grid `grid_id`'s
    lines, found with no other line parsed; any other block yields every
    line, so that its first bad line names the error."""
    key = f"\n{grid_id}\t"
    first = 1  # number of the block's first line
    while text := fh.read(1 << 16) + fh.readline():  # the lines readlines(1 << 16) gives
        block = "\n" + text
        if not _BLOCK.fullmatch(block):
            yield from enumerate(text.removesuffix("\n").split("\n"), start=first)
        else:
            lineno, counted = first - 1, 0
            at = block.find(key)
            while at >= 0:
                lineno += block.count("\n", counted, at + 1)
                counted = at + 1
                end = block.find("\n", counted)
                end = len(block) if end < 0 else end
                yield lineno, block[counted:end]
                at = block.find(key, end)
        first += text.count("\n")


def _scan(dir_path: str, names: list, grid_id: int, col: int) -> tuple:
    """(timestamps, values, where) of grid `grid_id`'s records in the files
    `names` of `dir_path`, in file and line order: each record's timestamp,
    its column `col` and its (file, line)."""
    timestamps, values, where = [], [], []
    for name in names:
        path = os.path.join(dir_path, name)
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in _lines_to_parse(fh, grid_id):
                try:
                    if not line.isascii():
                        _check_utf8(line, lineno)
                    rec = parse_line(line, lineno)
                except ParseError as exc:
                    raise IngestError(f"{name}: {exc}") from None
                if rec is not None and rec[0] == grid_id:
                    timestamps.append(rec[1])
                    values.append(rec[col])
                    where.append((name, lineno))
    return timestamps, values, where


def ingest_dir(dir_path: str, grid_id: int, channel: str, map=map) -> ActivitySeries:
    """Merge all day-files of a directory into one gap-free activity series.

    Files are processed in lexicographic name order; the series origin is the
    slot-aligned floor of the earliest timestamp seen, and the series spans
    first to last observed slot with zeros where nothing was recorded. A wider
    span than MAX_SPAN_SLOTS fails at the timestamp farthest from the median,
    and a slot total beyond +-MAX_VALUE at the first record of that slot.

    A block of lines all in the `_LINE` form has only the grid's lines
    parsed; any other block has every line parsed. Both give the same
    records and the same errors.

    Two or more files are scanned in two halves through `map`, cut at the
    file boundary nearest half their bytes, and the halves' records are
    joined in file order. So a map that scans the later half in another
    process gives the same series, and the same error if it raises the
    earlier half's error first. One file is scanned here, with no `map`.
    """
    col = 3 + CHANNELS.index(channel)
    names = sorted(n for n in os.listdir(dir_path)
                   if os.path.isfile(os.path.join(dir_path, n)))
    if not names:
        raise IngestError(f"no input files in {dir_path}")
    if len(names) == 1:
        timestamps, values, where = _scan(dir_path, names, grid_id, col)
    else:
        ends = np.cumsum([os.path.getsize(os.path.join(dir_path, n)) for n in names])
        cut = 1 + int(np.argmin(np.abs(2 * ends[:-1] - ends[-1])))
        first, second = map(lambda part: _scan(dir_path, part, grid_id, col),
                            (names[:cut], names[cut:]))
        timestamps, values, where = (a + b for a, b in zip(first, second))
    if not timestamps:
        raise IngestError(f"no records for grid {grid_id} in {dir_path}")
    timestamps = np.array(timestamps, dtype=np.int64)
    t0_ms = int(timestamps.min()) // SLOT_MS * SLOT_MS
    n_slots = (int(timestamps.max()) - t0_ms) // SLOT_MS + 1
    if n_slots > MAX_SPAN_SLOTS:
        mid = float(np.sort(timestamps)[len(timestamps) // 2])
        i = int(np.argmax(np.abs(timestamps - mid)))
        (name, lineno), far = where[i], int(timestamps[i])
        raise IngestError(f"{name}: line {lineno}: timestamp {far} stretches grid {grid_id} "
                          f"to {n_slots} slots, over one leap year ({MAX_SPAN_SLOTS})")
    totals = aggregate(timestamps, np.array(values), t0_ms, n_slots)
    over = np.flatnonzero(np.abs(totals) > MAX_VALUE)  # each record is within it
    if len(over):
        slot = int(over[0])
        name, lineno = where[int(np.argmax(timestamps // SLOT_MS - t0_ms // SLOT_MS == slot))]
        raise IngestError(f"{name}: line {lineno}: grid {grid_id} slot at {t0_ms + slot * SLOT_MS} "
                          f"totals {totals[slot]:g}, beyond +-{MAX_VALUE:g}")
    return ActivitySeries(t0_ms, totals)


def write_series_csv(series: ActivitySeries, path: str) -> None:
    """Series CSV: `slot,timestamp_ms,value` with round-trip-exact floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("slot,timestamp_ms,value\n")
        for i, v in enumerate(series.values):
            fh.write(f"{i},{series.t0_ms + i * SLOT_MS},{v:.17g}\n")


def read_series_csv(path: str) -> ActivitySeries:
    """Read a series CSV written by write_series_csv.

    Slots must count up from 0, each timestamp must equal t0 + slot * SLOT_MS,
    and every value must be finite and within +-MAX_VALUE; a violation, or a
    byte that is not UTF-8, raises ParseError naming the path and line.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        try:
            header = fh.readline()
            if not header.isascii():
                _check_utf8(header, 1)
            if header.strip() != "slot,timestamp_ms,value":
                raise ParseError(f"unexpected series header {header.strip()!r}")
            t0_ms = None
            values = []
            for lineno, line in enumerate(fh, start=2):
                if not line.isascii():
                    _check_utf8(line, lineno)
                if not line.strip():
                    continue
                try:
                    slot_s, ts_s, val_s = line.strip().split(",")
                    slot, ts, val = int(slot_s), int(ts_s), float(val_s)
                except ValueError as exc:
                    raise ParseError(f"line {lineno}: {exc}") from None
                if t0_ms is None:
                    t0_ms = ts - slot * SLOT_MS
                if slot != len(values):
                    raise ParseError(f"line {lineno}: slot {slot} out of order")
                if ts != t0_ms + slot * SLOT_MS:
                    raise ParseError(f"line {lineno}: timestamp {ts} does not match "
                                     f"slot {slot} (expected {t0_ms + slot * SLOT_MS})")
                if not math.isfinite(val):
                    raise ParseError(f"line {lineno}: non-finite value {val}")
                if abs(val) > MAX_VALUE:
                    raise ParseError(f"line {lineno}: value {val} beyond +-{MAX_VALUE:g}")
                values.append(val)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None
    if not values:
        raise ParseError(f"{path}: empty series")
    return ActivitySeries(t0_ms, np.array(values))
