"""Parsing and cleansing of gridded call-data-record activity files.

Raw input is tab-separated text, one record per line:
    grid_id, timestamp_ms, country_code, sms_in, sms_out, call_in, call_out, internet
Empty numeric fields mean "missing" and are read as 0.0. A day of data lives
in one file; a directory of day-files is merged into a single gap-free
per-grid series of 10-minute slots.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

SLOT_MS = 600_000  # 10 minutes
SLOTS_PER_DAY = 144
MAX_SPAN_SLOTS = 366 * SLOTS_PER_DAY  # one leap year; a wider span is a stray timestamp

CHANNELS = ("sms_in", "sms_out", "call_in", "call_out", "internet")


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
    timestamp are read as 0. A non-numeric or non-finite field, or a timestamp
    outside the int64 range, raises ParseError carrying `lineno`.
    """
    line = line.rstrip("\n\r")
    if not line.strip():
        return None
    parts = line.split("\t")
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
    return (grid_id, timestamp_ms, country, *acts)


def aggregate(timestamps: np.ndarray, values, t0_ms: int, n_slots: int) -> np.ndarray:
    """Per-slot totals of `values` from the slot-aligned `t0_ms`, each int64
    timestamp floored to its slot; empty slots stay 0.0, and each slot sums in
    input order. Slot indices are subtracted, not timestamps, so none overflows."""
    return np.bincount(timestamps // SLOT_MS - t0_ms // SLOT_MS, weights=values,
                       minlength=n_slots)


def _not_utf8(path: str) -> str:
    """`line N: ...` for the first line of `path` that is not UTF-8, found by
    decoding the file again line by line in binary; for the error path only."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # at \n, \r and \r\n, as text mode counts
    for lineno, raw in enumerate(lines, start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return f"line {lineno}: byte 0x{raw[exc.start]:02x} is not UTF-8 ({exc.reason})"


def ingest_dir(dir_path: str, grid_id: int, channel: str) -> ActivitySeries:
    """Merge all day-files of a directory into one gap-free activity series.

    Files are processed in lexicographic name order; the series origin is the
    slot-aligned floor of the earliest timestamp seen, and the series spans
    first to last observed slot with zeros where nothing was recorded. A wider
    span than MAX_SPAN_SLOTS fails at the timestamp farthest from the median.
    """
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}")
    col = 3 + CHANNELS.index(channel)
    names = sorted(n for n in os.listdir(dir_path)
                   if os.path.isfile(os.path.join(dir_path, n)))
    if not names:
        raise IngestError(f"no input files in {dir_path}")
    timestamps, values, where = [], [], []  # where: (file, line) of each kept record
    for name in names:
        path = os.path.join(dir_path, name)
        with open(path, encoding="utf-8") as fh:
            try:
                for lineno, line in enumerate(fh, start=1):
                    try:
                        rec = parse_line(line, lineno)
                    except ParseError as exc:
                        raise IngestError(f"{name}: {exc}") from None
                    if rec is not None and rec[0] == grid_id:
                        timestamps.append(rec[1])
                        values.append(rec[col])
                        where.append((name, lineno))
            except UnicodeDecodeError:
                raise IngestError(f"{name}: {_not_utf8(path)}") from None
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
    return ActivitySeries(t0_ms, aggregate(timestamps, np.array(values), t0_ms, n_slots))


def write_series_csv(series: ActivitySeries, path: str) -> None:
    """Series CSV: `slot,timestamp_ms,value` with round-trip-exact floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("slot,timestamp_ms,value\n")
        for i, v in enumerate(series.values):
            fh.write(f"{i},{series.t0_ms + i * SLOT_MS},{v:.17g}\n")


def read_series_csv(path: str) -> ActivitySeries:
    """Read a series CSV written by write_series_csv.

    Slots must count up from 0, each timestamp must equal
    t0 + slot * SLOT_MS, and every value must be finite; a violation raises
    ParseError naming the path and line.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            header = fh.readline().strip()
            if header != "slot,timestamp_ms,value":
                raise ParseError(f"{path}: unexpected series header {header!r}")
            t0_ms = None
            values = []
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    slot_s, ts_s, val_s = line.strip().split(",")
                    slot, ts, val = int(slot_s), int(ts_s), float(val_s)
                except ValueError as exc:
                    raise ParseError(f"{path}: line {lineno}: {exc}") from None
                if t0_ms is None:
                    t0_ms = ts - slot * SLOT_MS
                if slot != len(values):
                    raise ParseError(f"{path}: line {lineno}: slot {slot} out of order")
                if ts != t0_ms + slot * SLOT_MS:
                    raise ParseError(f"{path}: line {lineno}: timestamp {ts} does not match "
                                     f"slot {slot} (expected {t0_ms + slot * SLOT_MS})")
                if not math.isfinite(val):
                    raise ParseError(f"{path}: line {lineno}: non-finite value {val}")
                values.append(val)
        except UnicodeDecodeError:
            raise ParseError(f"{path}: {_not_utf8(path)}") from None
    if not values:
        raise ParseError(f"{path}: empty series")
    return ActivitySeries(t0_ms, np.array(values))
