"""Model-file JSON output through the standard library's encoder."""

import json

import numpy as np


def dumps(obj) -> str:
    """`json.dumps(obj)` with arrays as lists: shortest round-trip floats, and
    ValueError for a NaN or inf. Dict items and 2-D array rows are encoded one
    at a time, as the encoder holds every piece of a pass until its last join."""
    def encode(v):
        if isinstance(v, dict):
            return "{" + ", ".join(f"{json.dumps(k)}: {encode(x)}" for k, x in v.items()) + "}"
        if isinstance(v, np.ndarray) and v.ndim == 2:
            return "[" + ", ".join(map(encode, v)) + "]"
        return json.dumps(v, default=lambda a: a.tolist(), allow_nan=False)
    return encode(obj)
