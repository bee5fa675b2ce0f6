"""Set-up probe: a fresh interpreter imports `celltide.cli` and loads a
workload's input through the program's public functions, then exits.

    python3 perfbench/setup_probe.py compare|arima|ingest [SERIES_CSV TRAIN_FRAC WINDOW]

The benchmark times this process from spawn to exit as `setup_s`.
"""

import sys


def main(argv) -> int:
    import celltide.cli  # noqa: F401  (the import is what is measured)
    from celltide import cdr, dataset

    kind = argv[0]
    if kind == "ingest":
        return 0
    series_path, train_frac, window = argv[1], float(argv[2]), int(argv[3])
    values = cdr.read_series_csv(series_path).values
    spec = dataset.split(len(values), train_frac)
    if kind == "compare":
        scaler = dataset.fit_scaler(values[:spec.n_train])
        normed = scaler.transform(values)
        dataset.windows_for_range(normed, window, 0, spec.n_train)
        dataset.windows_for_range(normed, window, spec.val_start, spec.test_start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
