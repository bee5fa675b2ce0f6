"""Model-file JSON output: floats to 17 significant digits. No command reads
a model file."""

import json

import numpy as np


def dumps(obj) -> str:
    """JSON text with floats printed to 17 significant digits, and `.0`
    after one that prints as an integer, so each reads back as the same
    float, the sign of a zero included."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        text = format(float(obj), ".17g")
        return text if any(c in text for c in ".en") else text + ".0"  # n: nan, inf
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")
