"""Matrix and trajectory I/O.

Matrices travel as CSV (one row per line, comma-separated decimals) or as a
JSON object {"rows", "cols", "entries"} with entries flattened row-major.
CSV values and printed scalars carry 17 significant digits (``%.17g``);
JSON floats are Python's shortest round-trip ``repr``.  Either way the
decimal text round-trips the underlying doubles exactly.  JSON text is byte
for byte what ``json.dumps(obj, indent=2, allow_nan=True)`` writes.  Outputs
contain no timestamps and identical inputs produce byte-identical files.

The CSV text of a large matrix is built by numpy and is still byte for byte
the per-value ``"%.17g"``.  For a finite nonzero x whose decimal exponent
E = floor(log10|x|) lies in [-4, 16], ``%.17g`` is fixed-point text of the
17-digit integer D nearest to |x|*10**s, s = 16 - E, with the fraction's
trailing zeros and a bare point dropped.  D is computed exactly:

* 10**s is a double for s <= 22, so Dekker's two-product (Dekker 1971, with
  Veltkamp's split) gives |x|*10**s = p + lo exactly, where p is the rounded
  product and |lo| <= ulp(p)/2.  For |x| in [1e-4, 1e17) no step overflows
  or underflows.
* E comes from ``log10`` and may be off by one next to a power of ten, so
  the exact product decides: p + lo is in [10**16, 10**17) when p > 10**16,
  or p == 10**16 and lo >= 0, and D < 10**17.  The rounded p alone is not
  tested, since it can equal 10**16 while p + lo lies below it.  D < 10**17
  also rules out a carry into an 18th digit.
* p >= 10**16 > 2**53, so p is an integer and int64(p) is exact.  Then the
  integer nearest to p + lo is p plus the integer nearest to lo, and
  |lo| <= 8, so D = int64(p) + rint(lo) is exact.
* A product that is an exact tie, |lo - rint(lo)| == 0.5, is not taken, so
  D never depends on how ties are broken.

Zeros are written as ``0`` and ``-0``.  Every other value goes through C
``%.17g``: NaN, +-inf, |x| < 1e-4 (subnormals included) and |x| >= 1e17,
which take exponent notation, and any value that fails the range or tie test.
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


#: Matrices with fewer values take one ``%``-template per row.  The two
#: writers break even at about 400 values (an 81x4 trajectory runs 0.88x
#: vectorised); from 512 values on the vectorised one is faster.
_VECTOR_MIN = 512
#: Values per chunk of the vectorised writer, which bounds its scratch memory.
_CHUNK = 8192
#: One value's bytes: a sign, 23 characters and its separator.  C ``%.17g``
#: text fills at most 24 (``-2.2250738585072014e-308``), the fixed-point
#: text at most 23 (``-0.00012345678901234567``).
_WIDTH = 25
#: The powers of ten 10**0 .. 10**20, each an exact double.
_POW10 = np.array([float(10**s) for s in range(21)])
_PAIRS = np.frombuffer(b"".join([b"%02d" % i for i in range(100)]), np.uint16)
#: The four digit characters of 0 .. 9999 as one 32-bit word.
_DIGITS4 = np.stack(np.meshgrid(_PAIRS, _PAIRS, indexing="ij"), axis=-1).view(np.uint32).ravel()
#: Trailing zeros of each 4-digit group (4 for 0000).
_TRAILING_ZEROS4 = sum(np.arange(10_000) % 10**k == 0 for k in range(1, 5))
#: Row L keeps a value's first L bytes and its separator.
_KEEP = np.tri(_WIDTH, _WIDTH, -1, dtype=np.uint8) * np.uint8(255)
_KEEP[:, -1] = 255


def _csv_rows(rows: np.ndarray) -> str:
    """Each row of a 2-D float64 array as a line of ``%.17g`` values, each
    line ending in a newline."""
    if rows.size < _VECTOR_MIN:
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        return "".join([line % tuple(row) for row in rows.tolist()])
    flat, cols = rows.ravel(), rows.shape[1]
    return "".join([_csv_chunk(flat[i:i + _CHUNK], (cols - 1 - i) % cols, cols)
                    for i in range(0, flat.size, _CHUNK)])


def _csv_chunk(x: np.ndarray, first_newline: int, cols: int) -> str:
    """The ``%.17g`` text of each value of ``x``, each followed by a newline
    at ``x[first_newline::cols]`` and by a comma elsewhere.

    Each value gets one row of ``_WIDTH`` bytes, NUL where it has no
    character, and the NULs are deleted at the end.  The rows are laid out in
    the order of a stable sort by exponent, so that each exponent's layout is
    a few slices, and put back in input order before the deletion.
    """
    n = len(x)
    a = np.abs(x)
    # key: -5 for zeros, the exponent E for the fixed-point candidates, 17 for C
    candidate = (a >= 1e-4) & (a < 1e17)
    e = np.clip(np.floor(np.log10(np.where(candidate, a, 1.0))), -4, 16)
    key = np.where(candidate, e, np.where(a == 0, -5, 17)).astype(np.int8)
    order = np.argsort(key, kind="stable")
    key = key.take(order)
    zeros, fixed = np.searchsorted(key, (-4, 17))
    xs = x.take(order)
    text = np.zeros((n, _WIDTH), np.uint8)
    text[:, 0] = np.signbit(xs) * ord("-")
    text[:zeros, 1] = ord("0")
    sep = np.full(n, ord(","), np.uint8)
    sep[first_newline::cols] = ord("\n")
    text[:, -1] = sep.take(order)
    e = key[zeros:fixed]
    digits, ok = _digits17(np.abs(xs[zeros:fixed]), e)
    _fixed_point(text[zeros:fixed], digits, e)
    c_route = np.concatenate([np.flatnonzero(~ok) + zeros, np.arange(fixed, n)])
    if c_route.size:
        c_text = np.array(["%.17g" % v for v in xs[c_route].tolist()], dtype="S24")
        text[c_route, :-1] = c_text.view(np.uint8).reshape(-1, 24)
    inverse = np.empty(n, np.intp)
    inverse[order] = np.arange(n)
    return text.take(inverse, axis=0).tobytes().translate(None, b"\0").decode("ascii")


def _digits17(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17-digit integer D nearest to ``a * 10**(16 - e)`` (int64) for
    ``a`` in [1e-4, 1e17) and exponent guesses ``e`` in [-4, 16], and whether
    D is proven (see the module docstring); D is 0 where it is not."""
    b = _POW10.take(16 - e.astype(np.intp))
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    lo = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # a * b == p + lo exactly
    nearest = np.rint(lo)
    d = p.astype(np.int64) + nearest.astype(np.int64)
    ok = (p > 1e16) | ((p == 1e16) & (lo >= 0))
    ok &= (d < 10**17) & (np.abs(lo - nearest) != 0.5)
    return d * ok, ok


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: v == hi + lo exactly, each half with at most 26
    significant bits, so that the products of halves are exact."""
    t = v * 134217729.0  # 2**27 + 1
    hi = t - (t - v)
    return hi, v - hi


def _fixed_point(text: np.ndarray, d: np.ndarray, e: np.ndarray) -> None:
    """Write the fixed-point text of the 17-digit integers ``d`` with
    exponents ``e``, sorted ascending, into the rows of ``text`` after their
    sign byte."""
    hi = d // 10**8
    low8 = (d - hi * 10**8).astype(np.int32)
    lead = (hi // 10**8).astype(np.int32)
    high8 = hi.astype(np.int32) - lead * 10**8
    groups = []
    for v in (high8, low8):
        top = v // 10**4
        groups += [top, v - top * 10**4]
    # bytes 0..6 are zeros, byte 7 + j is digit j of d
    chars = np.empty((len(d), 6), np.uint32)
    chars[:, 0] = _DIGITS4[0]
    chars[:, 1] = _DIGITS4.take(lead)
    for i, g in enumerate(groups):
        chars[:, 2 + i] = _DIGITS4.take(g)
    chars = chars.view(np.uint8)
    # trailing zeros of d: a group's count adds on where every later group is 0000
    trailing = _TRAILING_ZEROS4.take(groups[3])
    for i, g in enumerate(groups[2::-1]):
        trailing += (trailing == 4 * (i + 1)) * _TRAILING_ZEROS4.take(g)
    bounds = np.searchsorted(e, range(-4, 18))
    for exp in range(-4, 17):
        rows = slice(bounds[exp + 4], bounds[exp + 5])
        if rows.start == rows.stop:
            continue
        start, whole = 7 + min(exp, 0), max(exp, 0) + 1  # E < 0 starts with -E zeros
        text[rows, 1:1 + whole] = chars[rows, start:start + whole]
        if exp < 16:
            text[rows, 1 + whole] = ord(".")
            text[rows, 2 + whole:26 - start] = chars[rows, start + whole:]
    # cut each text after its last nonzero fraction digit, or before a bare point
    e = e.astype(np.intp)
    whole = np.maximum(e, 0) + 1
    fraction = np.maximum(16 - e - trailing, 0)
    text &= _KEEP.take(1 + whole + (fraction > 0) * (fraction + 1), axis=0)


def matrix_to_csv(m: np.ndarray) -> str:
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    return _csv_rows(m) or "\n"  # a matrix with no rows is one empty line


def columns_to_csv(header: list[str], *columns) -> str:
    """A header line, then one line per row of ``np.column_stack(columns)``."""
    rows = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    return ",".join(header) + "\n" + _csv_rows(rows)


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
    return columns_to_csv(header, rec.times, rec.states)


def trajectory_to_json(rec: TrajectoryRecord) -> str:
    obj = {"system": rec.system, "times": rec.times.tolist(), "states": rec.states.tolist()}
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
