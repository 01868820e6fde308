"""Matrix and trajectory I/O.

Matrices travel as CSV (one row per line, comma-separated decimals) or as a
JSON object {"rows", "cols", "entries"} with entries flattened row-major.
CSV values and printed scalars carry 17 significant digits (``%.17g``);
JSON floats are Python's shortest round-trip ``repr``.  Either way the
decimal text round-trips the underlying doubles exactly.  JSON text is byte
for byte what ``json.dumps(obj, indent=2, allow_nan=True)`` writes.  Outputs
contain no timestamps and identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .dynamics import TrajectoryRecord


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _csv_lines(rows: np.ndarray) -> list[str]:
    """Each row of a 2-D float64 array as one line of ``%.17g`` values."""
    line = ",".join(["%.17g"] * rows.shape[1])
    return [line % tuple(row) for row in rows.tolist()]


def matrix_to_csv(m: np.ndarray) -> str:
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    return "\n".join(_csv_lines(m)) + "\n"


def columns_to_csv(header: list[str], *columns) -> str:
    """A header line, then one line per row of ``np.column_stack(columns)``."""
    rows = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    return "\n".join([",".join(header), *_csv_lines(rows)]) + "\n"


def matrix_from_csv(text: str) -> np.ndarray:
    rows = []
    width = None
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"malformed CSV at line {ln}: {exc}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"ragged CSV: line {ln} has {len(row)} fields, expected {width}")
        rows.append(row)
    if not rows:
        raise ValueError("empty matrix file")
    return np.array(rows, dtype=np.float64)


def matrix_to_json(m: np.ndarray) -> str:
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    obj = {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": m.ravel().tolist()}
    return _json(obj, "") + "\n"


def matrix_from_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
        rows, cols = int(obj["rows"]), int(obj["cols"])
        entries = np.asarray(obj["entries"], dtype=np.float64)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from None
    if entries.size != rows * cols:
        raise ValueError(f"matrix JSON claims {rows}x{cols} but has {entries.size} entries")
    return entries.reshape(rows, cols)


def load_matrix(path) -> np.ndarray:
    path = Path(path)
    text = path.read_text()
    return matrix_from_json(text) if path.suffix.lower() == ".json" else matrix_from_csv(text)


def trajectory_to_csv(rec: TrajectoryRecord) -> str:
    header = ["t"] + [f"x{i + 1}" for i in range(rec.states.shape[1])]
    columns = [rec.times, rec.states]
    if rec.volumes is not None:
        header.append("vol")
        columns.append(rec.volumes)
    return columns_to_csv(header, *columns)


def trajectory_to_json(rec: TrajectoryRecord) -> str:
    obj = {"system": rec.system, "times": rec.times.tolist(), "states": rec.states.tolist()}
    if rec.volumes is not None:
        obj["volumes"] = np.asarray(rec.volumes, dtype=np.float64).tolist()
    return _json(obj, "") + "\n"


def dump_json(obj) -> str:
    """Deterministic JSON for reports and summaries."""
    return _json(obj, "") + "\n"


#: Item types whose flat lists the C encoder writes as the indenting encoder does.
_FLAT = frozenset((float, int, str, bool, type(None)))


def _json(obj, indent: str) -> str:
    """``obj`` as ``json.dumps(obj, indent=2, allow_nan=True)`` writes it on a
    line indented by ``indent``.

    With ``indent`` set the json module runs its pure-Python encoder.  Here
    only dicts and lists are walked in Python, and each flat list of plain
    scalars is one call of the C encoder with the indented item separator.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [f"{_json_key(k)}: {_json(v, inner)}" for k, v in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        if set(map(type, obj)) <= _FLAT:
            body = json.dumps(obj, separators=(sep, ": "))[1:-1]
        else:
            body = sep.join([_json(v, inner) for v in obj])
        return "[\n" + inner + body + "\n" + indent + "]"
    return _scalar(obj)


def _scalar(obj) -> str:
    """A JSON scalar as the json module writes it (``allow_nan=True``)."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == math.inf:
            return "Infinity"
        if obj == -math.inf:
            return "-Infinity"
        return float.__repr__(obj)
    return json.dumps(obj)  # raises the json module's TypeError


def _json_key(key) -> str:
    """A dict key as the json module writes it: non-string keys as the JSON
    text of the scalar, quoted."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        return encode_basestring_ascii(_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
