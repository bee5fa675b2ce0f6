"""Cellular traffic forecasting toolkit.

From-scratch LSTM and feed-forward regressors, an ARIMA baseline, and an
ingestion pipeline for gridded call-data-record activity files.
"""

__version__ = "0.1.0"


class Failure(RuntimeError):
    """Bad input data, or a fit that cannot succeed: the CLI exits 1 on it."""
