"""Deterministic JSON/CSV emission: fixed field order, 17-significant-digit
reals, atomic file writes.  No timestamps anywhere in data payloads."""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np


def format_real(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def dumps(obj, indent: int = 0) -> str:
    """JSON text with insertion-ordered keys and 17-digit reals."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = [f'{pad}  {json.dumps(str(k))}: {dumps(v, indent + 2).lstrip()}'
                 for k, v in obj.items()]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps(v, indent + 2) for v in obj]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else pad + "[]"
    if isinstance(obj, (bool, np.bool_)):
        return pad + ("true" if obj else "false")
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return pad + format_real(float(obj))
    if obj is None:
        return pad + "null"
    return pad + json.dumps(obj)


def _csv_cell(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "" if math.isnan(x) else format(x, ".17g")


def csv_text(header, rows) -> str:
    """CSV with the column names `header` and one line per row of cells:
    integers as they are, reals in 17 significant digits (so inf stays inf)
    and NaN as an empty cell."""
    lines = [",".join(header), *(",".join(map(_csv_cell, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def atomic_write(path: str, text: str) -> None:
    """Write via a temporary file and rename, so readers never see partials."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
