"""Benchmark-owned input generators.

The benchmark makes its own inputs from the workload seed, so that a change
to the program's synthetic generator or parser cannot change what is
measured. Two kinds of input exist:

* a diurnal activity series in the program's `slot,timestamp_ms,value` CSV
  format, shaped like the Milan internet channel (two daily busy hours, a
  weekly swell, Gaussian noise, floored at zero);
* a directory of tab-separated CDR day files
  (grid, timestamp_ms, country, sms_in, sms_out, call_in, call_out, internet)
  holding every case the CDR parser branches on, together with the per-slot
  internet totals the generator wrote for the grid cells that get ingested.
"""

import hashlib
import json
import os

import numpy as np

SLOT_MS = 600_000
SLOTS_PER_DAY = 144
T0_MS = 1_383_260_400_000  # Nov 1 2013 00:00 CET, start of the Milan record

# Country codes that appear next to Italy (39) in the Milan files.
FOREIGN_COUNTRIES = (0, 33, 34, 41, 44, 49, 86, 355, 380, 7)


def series_values(days: int, seed: int) -> np.ndarray:
    """Diurnal traffic, one value per 10-minute slot."""
    rng = np.random.default_rng([seed, 1])
    t = np.arange(days * SLOTS_PER_DAY)
    phase = 2 * np.pi * t / SLOTS_PER_DAY
    daily = 100.0 * np.maximum(0.0, np.sin(phase - 0.5) + 0.5 * np.sin(3 * phase - 0.3))
    weekly = 12.0 * np.sin(2 * np.pi * t / (7 * SLOTS_PER_DAY))
    noise = rng.normal(0.0, 2.0, size=t.shape)
    return np.maximum(20.0 + daily + weekly + noise, 0.0)


def write_series(path: str, values) -> None:
    """Write a series CSV with round-trip-exact values."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("slot,timestamp_ms,value\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{T0_MS + i * SLOT_MS},{float(v)!r}\n")


def write_cdr_dir(dir_path: str, seed: int, days: int, n_cells: int,
                  ingest_cells: int = 2) -> dict:
    """Write `days` CDR day files into `dir_path` and return what was written.

    The returned dict holds `lines` (lines written, blank ones included),
    `grids` (the cells to ingest) and `expected`: per ingested grid, `t0_ms`
    and the per-slot internet totals, summed in file order as the parser
    sums them.

    Cases covered: about 30% blank activity fields, lines cut short before
    the trailing columns, a blank country code, several country codes per
    (cell, slot), exact duplicate lines, (cell, slot) pairs with no record,
    blank lines, and one timestamp that is not on a slot boundary.
    """
    rng = np.random.default_rng([seed, 2])
    cells = np.sort(rng.choice(np.arange(1, 10_001), size=n_cells, replace=False))
    grids = [int(g) for g in rng.choice(cells, size=ingest_cells, replace=False)]
    odd_grid, odd_day, odd_slot = grids[0], days // 2, SLOTS_PER_DAY // 2
    cell_scale = rng.uniform(0.2, 3.0, size=n_cells)
    t_day = np.arange(SLOTS_PER_DAY)
    day_shape = 0.3 + np.maximum(0.0, np.sin(2 * np.pi * t_day / SLOTS_PER_DAY - 0.5))
    totals = {g: {} for g in grids}
    os.makedirs(dir_path, exist_ok=True)
    n_lines = 0
    n_foreign = len(FOREIGN_COUNTRIES)
    for day in range(days):
        # records per (cell, slot): 0 to 5, about 3 on average, 4% empty
        counts = rng.choice(6, size=(n_cells, SLOTS_PER_DAY),
                            p=[0.04, 0.12, 0.18, 0.28, 0.22, 0.16])
        foreign = np.argsort(rng.random((n_cells, SLOTS_PER_DAY, n_foreign)), axis=2)
        n_rec = int(counts.sum())
        acts = rng.lognormal(0.0, 1.0, size=(n_rec, 5))
        blank = rng.random((n_rec, 5)) < 0.3
        cut = rng.random(n_rec)
        dup = rng.random(n_rec) < 0.02
        lines = []
        r = 0
        for ci, cell in enumerate(cells):
            cell = int(cell)
            track = totals.get(cell)
            for slot in range(SLOTS_PER_DAY):
                abs_slot = day * SLOTS_PER_DAY + slot
                ts = T0_MS + abs_slot * SLOT_MS
                scale = cell_scale[ci] * day_shape[slot]
                for j in range(int(counts[ci, slot])):
                    stamp = ts
                    if (cell, day, slot, j) == (odd_grid, odd_day, odd_slot, 0):
                        stamp = ts + 123_456
                    # Italy first, then distinct foreign codes with a small share
                    country = 39 if j == 0 else FOREIGN_COUNTRIES[foreign[ci, slot, j - 1]]
                    share = scale if j == 0 else 0.05 * scale
                    fields = [str(cell), str(stamp), "" if cut[r] < 0.005 else str(country)]
                    fields += ["" if blank[r, c] else repr(float(acts[r, c] * share))
                               for c in range(5)]
                    if cut[r] > 0.97:
                        fields = fields[:6]  # call_out and internet columns missing
                    copies = 2 if dup[r] else 1
                    lines.extend(["\t".join(fields)] * copies)
                    if track is not None:
                        internet = float(fields[7]) if len(fields) > 7 and fields[7] else 0.0
                        for _ in range(copies):
                            track[abs_slot] = track.get(abs_slot, 0.0) + internet
                    r += 1
            if ci == n_cells // 2:
                lines.append("")
        name = f"sms-call-internet-mi-{day + 1:03d}.txt"
        with open(os.path.join(dir_path, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        n_lines += len(lines)
    expected = {"lines": n_lines, "grids": grids, "expected": {}}
    for g in grids:
        first, last = min(totals[g]), max(totals[g])
        expected["expected"][str(g)] = {
            "t0_ms": T0_MS + first * SLOT_MS,
            "values": [totals[g].get(s, 0.0) for s in range(first, last + 1)],
        }
    return expected


def digest_files(paths) -> str:
    """sha256 over the names and bytes of files, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def prepare(workload: dict, seed: int, root: str) -> dict:
    """Generate the inputs of one workload and seed once; reuse them after.

    Returns a description with the input paths, the facts the checks need
    and the input digest.
    """
    in_dir = os.path.join(root, f"{workload['name']}-{seed}")
    meta_path = os.path.join(in_dir, "inputs.json")
    if os.path.exists(meta_path):
        with open(meta_path, encoding="utf-8") as fh:
            return json.load(fh)
    os.makedirs(in_dir, exist_ok=True)
    meta = {"workload": workload["name"], "seed": seed}
    if workload["kind"] == "ingest":
        cdr_dir = os.path.join(in_dir, "cdr")
        meta.update(write_cdr_dir(cdr_dir, seed, workload["days"], workload["cells"]))
        meta["input_dir"] = cdr_dir
        files = sorted(os.path.join(cdr_dir, n) for n in os.listdir(cdr_dir))
    else:
        path = os.path.join(in_dir, "series.csv")
        write_series(path, series_values(workload["days"], seed))
        meta["series"] = path
        files = [path]
    meta["input_digest"] = digest_files(files)
    tmp = meta_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    os.replace(tmp, meta_path)
    return meta
