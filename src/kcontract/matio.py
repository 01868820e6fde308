"""Matrix and trajectory I/O.

Matrices travel as CSV (one row per line, comma-separated decimals) or as a
JSON object {"rows", "cols", "entries"} with entries flattened row-major.
CSV values and printed scalars carry 17 significant digits (``%.17g``);
JSON floats are Python's shortest round-trip ``repr``.  Either way the
decimal text round-trips the underlying doubles exactly.  JSON text is byte
for byte what ``json.dumps(obj, indent=2, allow_nan=True)`` writes, with an
ndarray written as its ``.tolist()``.  Outputs contain no timestamps and
identical inputs produce byte-identical files.

The CSV text of a large matrix, and the JSON text of a long 1-D float64
array, are built by numpy and are still byte for byte the per-value
``"%.17g"`` and ``repr``.  A Python list always takes the C encoder.  For
a finite nonzero x whose decimal exponent E = floor(log10|x|) lies in
[-4, 16], ``%.17g`` is fixed-point text of the 17-digit integer D nearest to
|x|*10**s, s = 16 - E, with the fraction's trailing zeros and a bare point
dropped.  D is computed exactly:

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

``repr`` is Gay's shortest round-trip conversion (dtoa mode 0; Steele and
White 1990, Gay 1990): the fewest significant digits that read back as x,
and of those strings the one nearest to x.  For |x| in [1e-4, 1e16) it is
fixed-point text that keeps at least one fraction digit (``100.0``).  The
same exact product decides its digits.  Scaled by 10**s, x is v = D + f,
where f = lo - rint(lo) is exact (Sterbenz) and |f| < 0.5:

* A p-digit string is a multiple c of q = 10**(17 - p), and it reads back
  as x iff |c - v| < H.  Here H = ulp(x)/2 * 10**s = ldexp(10**s, ex - 54),
  with ex the exponent of ``frexp(x)``, is exact and 0.55 < H <= 11.1.
  This holds unless x's significand is a power of two, where the gap below
  x is half the gap above.
* Each p-digit candidate is also a (p + 1)-digit one, so if p digits read
  back, so do p + 1.  D always does (|f| < 0.5 < H).  With 16 digits the
  candidate is the multiple of 10 nearest to v.  A multiple of q >= 100
  within H of v lies within H + 0.5 < 12 of D, so it can only be the one
  multiple of 100 within 12 of D.  If that one reads back, the shortest
  text is its digits without trailing zeros; otherwise no string shorter
  than 16 digits does.
* Each distance is r + f or (q - r) - f with an int64 remainder r <= 12,
  so it is exact or off by less than 1e-15.

Zeros are written as ``0`` and ``-0`` (``0.0`` and ``-0.0`` in JSON).  Every
other value takes the C formatter.  These are NaN, +-inf, and |x| < 1e-4
(subnormals included), |x| >= 1e17 for ``%.17g`` and |x| >= 1e16 for
``repr``, which take exponent notation.  Also any value that fails the
range or tie test, and, for ``repr``, any value where:

* its significand is a power of two;
* a candidate's distance is within 1e-6 of H, where round-half-even decides;
* the two 16-digit candidates are within 1e-6 of a tie at q/2 = 5 < H,
  where dtoa takes the even digit;
* the candidate carries into an 18th digit.

The values are written in passes.  A pass where zeros are rare gives every
value a text row.  Where at least one value in five is zero, as in an
additive compound or its Kronecker-sum blocks, only the nonzero values are
formatted, up to ``_CHUNK`` of them per pass.  The zero texts, separators
and newlines are then placed around their rows by position: a zero takes
the bytes of its text and separator, and a nonzero value a whole row.  A
pass with no zeros formats exactly as before.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .dynamics import TrajectoryRecord


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


#: Matrices and 1-D float64 arrays with fewer values take the C formatter.
#: Dense ones break even near 500 values.  Ones that are 87 % or all zeros
#: break even near 1 500 (0.4-0.5x at 512, 1.4-1.6x at 2 500, 3-6x at 10 000),
#: because a sparse pass has a fixed cost and zeros are cheap in C.
_VECTOR_MIN = 512
#: Values per dense pass of the vectorised writer, and nonzero values per
#: sparse pass, which bounds its scratch memory.
_CHUNK = 8192
#: Values per sparse pass, zeros included.  With it a sparse pass's scratch is
#: about a dense pass's (tracemalloc: 1.4-1.9 MB against 1.4-1.5 MB for CSV and
#: JSON at two indent depths; 1.5-3.2 MB at twice this span).
_SPAN = 4 * _CHUNK
#: A pass is sparse, with no text row per zero, when at least one in
#: ``_SPARSE`` of its first ``_CHUNK`` values is zero.  Below that the zero
#: rows cost less than the sparse layout (1.2x at 2 % zeros, 1.0x at 20-25 %).
_SPARSE = 5
#: One value's text bytes: a sign and 23 characters.  C ``%.17g`` and
#: ``repr`` text fill at most 24 (``-2.2250738585072014e-308``), the
#: fixed-point text at most 23 (``-0.00012345678901234567``).
_TEXT = 24
#: The powers of ten 10**0 .. 10**20, each an exact double.
_POW10 = np.array([float(10**s) for s in range(21)])
_PAIRS = np.frombuffer(b"".join([b"%02d" % i for i in range(100)]), np.uint16)
#: The four digit characters of 0 .. 9999 as one 32-bit word.
_DIGITS4 = np.stack(np.meshgrid(_PAIRS, _PAIRS, indexing="ij"), axis=-1).view(np.uint32).ravel()
#: Trailing zeros of each 4-digit group (4 for 0000).
_TRAILING_ZEROS4 = sum(np.arange(10_000) % 10**k == 0 for k in range(1, 5))
#: Row L keeps a value's first L bytes.
_KEEP = np.tri(_TEXT + 1, _TEXT, -1, dtype=np.uint8) * np.uint8(255)


def _csv_rows(rows: np.ndarray) -> str:
    """Each row of a 2-D float64 array as a line of ``%.17g`` values, each
    line ending in a newline."""
    if rows.size < _VECTOR_MIN:
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        return "".join([line % tuple(row) for row in rows.tolist()])
    return "".join(_text(rows.ravel(), False, b",", rows.shape[1]))


def _repr_list(x: np.ndarray, sep: str) -> str:
    """The JSON text of each value of the float64 array ``x``, joined by ``sep``."""
    chunks = _text(x, True, sep.encode())
    chunks[-1] = chunks[-1][:-len(sep)]
    return "".join(chunks)


def _text(x: np.ndarray, shortest: bool, sep: bytes, cols: int = 0) -> list[str]:
    """The ``%.17g`` text of each value of the flat array ``x``, or with
    ``shortest`` its JSON ``repr``, each followed by ``sep``, or by a newline
    after every ``cols``-th value, in passes.

    A pass is the next ``_CHUNK`` values, each given a text row, unless at
    least one in ``_SPARSE`` of them is zero.  Then it is sparse: the next
    ``_SPAN`` values, cut before the nonzero value past the ``_CHUNK``-th.
    """
    chunks, i = [], 0
    while i < x.size:
        newlines = slice((cols - 1 - i) % cols, None, cols) if cols else slice(0)
        dense = x[i:i + _CHUNK]
        if np.count_nonzero(dense == 0) * _SPARSE < dense.size:
            text = _text_rows(dense, shortest, sep)
            text[newlines, _TEXT] = ord("\n")
            chunks.append(text.tobytes().translate(None, b"\0").decode("ascii"))
            i += dense.size
            continue
        span = x[i:i + _SPAN]
        nonzero = np.flatnonzero(span != 0)  # NaN counts as nonzero
        if nonzero.size > _CHUNK:
            span, nonzero = span[:nonzero[_CHUNK]], nonzero[:_CHUNK]
        chunks.append(_sparse_chunk(span, nonzero, shortest, sep, newlines))
        i += span.size
    return chunks


def _sparse_chunk(x: np.ndarray, nonzero: np.ndarray, shortest: bool, sep: bytes,
                  newlines: slice) -> str:
    """The text of ``_text`` for the values ``x``, whose nonzero values are
    ``x[nonzero]``, with a text row for the nonzero values only.

    The text is laid out in units of a zero's text and ``sep``, and every
    unit starts out as a zero.  A negative zero takes one unit more, ``-``
    and NULs, before its own.  A nonzero value takes the units of its text
    row, ``_TEXT`` bytes and then ``sep`` at the row's end.  Each value's
    units follow the previous value's, so a value's first unit is counted
    from the nonzero values and negative zeros before it.  A newline
    replaces the last byte of a value's last unit, and one NUL deletion
    gives the text.
    """
    zero = b"0.0" if shortest else b"0"
    size = len(zero) + len(sep)
    tail = -(-(_TEXT + len(sep)) // size) * size - _TEXT  # a row fills whole units
    rows = _text_rows(x.take(nonzero), shortest, sep.rjust(tail, b"\0"))
    width = rows.shape[1] // size  # units per row
    negative = np.flatnonzero(np.signbit(x) & (x == 0))

    def unit(i, nonzero_before, side):  # the first ("left") or last unit of the values i, sorted
        return i + (width - 1) * nonzero_before + np.searchsorted(negative, i, side)

    text = bytearray(zero + sep) * (x.size + (width - 1) * nonzero.size + negative.size)
    units = np.frombuffer(text, f"V{size}")
    units[unit(negative, np.searchsorted(nonzero, negative), "left")] = b"-".ljust(size, b"\0")
    # each nonzero value's row is one element of a view whose elements overlap
    slots = np.ndarray(max(units.size - width + 1, 0), f"V{rows.shape[1]}", units, strides=(size,))
    slots[unit(nonzero, np.arange(nonzero.size), "left")] = rows.view(slots.dtype).ravel()
    newline = np.arange(x.size)[newlines]
    last = unit(newline, np.searchsorted(nonzero, newline, "right"), "right")
    units.view(np.uint8)[(last + 1) * size - 1] = ord("\n")  # each value ends in its separator
    return text.translate(None, b"\0").decode("ascii")


def _text_rows(x: np.ndarray, shortest: bool, tail: bytes) -> np.ndarray:
    """One row of ``_TEXT`` bytes and ``tail`` per value of ``x``, in input
    order: its ``%.17g`` text, or with ``shortest`` its JSON
    ``repr``, NUL where it has no character.

    The rows are laid out in the order of a stable sort by exponent, so that
    each exponent's layout is a few slices, and put back in input order.
    """
    n = len(x)
    a = np.abs(x)
    top = 16 if shortest else 17  # fixed-point text below 10**top
    # key: -5 for zeros, the exponent E for the fixed-point candidates, 17 for C
    candidate = (a >= 1e-4) & (a < _POW10[top])
    e = np.clip(np.floor(np.log10(np.where(candidate, a, 1.0))), -4, top - 1)
    key = np.where(candidate, e, np.where(a == 0, -5, 17)).astype(np.int8)
    order = np.argsort(key, kind="stable")
    key = key.take(order)
    zeros, fixed = np.searchsorted(key, (-4, 17))
    xs = x.take(order)
    text = np.zeros((n, _TEXT + len(tail)), np.uint8)
    text[:, 0] = np.signbit(xs) * np.uint8(ord("-"))
    zero = b"0.0" if shortest else b"0"
    text[:zeros, 1:1 + len(zero)] = np.frombuffer(zero, np.uint8)
    text[:, _TEXT:] = np.frombuffer(tail, np.uint8)
    e = key[zeros:fixed]
    a = np.abs(xs[zeros:fixed])
    digits, fraction, ok = _digits17(a, e)
    if shortest:
        digits, ok = _shortest(a, digits, fraction, e, ok)
    _fixed_point(text[zeros:fixed], digits, e, shortest)
    c_route = np.concatenate([np.flatnonzero(~ok) + zeros, np.arange(fixed, n)])
    if c_route.size:
        values = xs[c_route].tolist()
        c_text = json.dumps(values)[1:-1].split(", ") if shortest else ["%.17g" % v for v in values]
        text[c_route, :_TEXT] = np.array(c_text, dtype="S24").view(np.uint8).reshape(-1, _TEXT)
    inverse = np.empty(n, np.intp)
    inverse[order] = np.arange(n)
    return text.take(inverse, axis=0)


def _digits17(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17-digit integer D nearest to ``a * 10**(16 - e)`` (int64) for
    ``a`` in [1e-4, 1e17) and exponent guesses ``e`` in [-4, 16], the exact
    rest f = ``a * 10**(16 - e)`` - D (float64), and whether D is proven
    (see the module docstring); D is 0 where it is not."""
    b = _POW10.take(16 - e.astype(np.intp))
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    lo = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # a * b == p + lo exactly
    nearest = np.rint(lo)
    d = p.astype(np.int64) + nearest.astype(np.int64)
    ok = (p > 1e16) | ((p == 1e16) & (lo >= 0))
    ok &= (d < 10**17) & (np.abs(lo - nearest) != 0.5)
    return d * ok, lo - nearest, ok


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: v == hi + lo exactly, each half with at most 26
    significant bits, so that the products of halves are exact."""
    t = v * 134217729.0  # 2**27 + 1
    hi = t - (t - v)
    return hi, v - hi


def _shortest(a: np.ndarray, d: np.ndarray, f: np.ndarray, e: np.ndarray,
              ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest round-trip digits of each ``a`` as a 17-digit integer C
    (its digits before the trailing zeros), and whether C is proven (see the
    module docstring).  ``d``, ``f`` and ``ok`` are those of ``_digits17``."""
    significand, ex = np.frexp(a)
    h = np.ldexp(_POW10.take(16 - e.astype(np.intp)), ex - 54)  # H, exact
    # 16 digits: the multiple of 10 nearest to D + f
    r = d % 10
    down, up = r + f, (10 - r) - f
    dist = np.minimum(down, up)
    c = np.where(dist < h, d - r + 10 * (up < down), d)
    unsure = (np.abs(dist - h) < 1e-6) | ((5 < h) & (np.abs(dist - 5) < 1e-6))
    # fewer digits: the one multiple of 100 within 12 of D, if there is one
    r = d % 100
    near = (r <= 12) | (r >= 88)
    dist = np.where(r <= 12, r + f, (100 - r) - f)
    c = np.where(near & (dist < h), d - r + 100 * (r >= 88), c)
    unsure |= near & (np.abs(dist - h) < 1e-6)
    # a carry into an 18th digit changes the exponent
    return c, ok & ~unsure & (significand != 0.5) & (c < 10**17)


def _fixed_point(text: np.ndarray, d: np.ndarray, e: np.ndarray, shortest: bool) -> None:
    """Write the fixed-point text of the 17-digit integers ``d`` with
    exponents ``e``, sorted ascending, into the rows of ``text`` after their
    sign byte: ``repr``'s layout with ``shortest``, else ``%.17g``'s."""
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
    # cut each text after its last nonzero fraction digit; %.17g drops a
    # bare point, repr keeps the point and one zero
    e = e.astype(np.intp)
    whole = np.maximum(e, 0) + 1
    fraction = np.maximum(16 - e - trailing, 0)
    if shortest:
        length = 2 + whole + np.maximum(fraction, 1)
    else:
        length = 1 + whole + (fraction > 0) * (fraction + 1)
    keep = np.hstack([_KEEP, np.full((_TEXT + 1, text.shape[1] - _TEXT), 255, np.uint8)])
    text &= keep.take(length, axis=0)  # the separator stays


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
    obj = {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": m.ravel()}
    return _json(obj, "") + "\n"


def matrix_from_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ValueError(f"malformed matrix JSON: {exc}") from None
    for name, size in (("rows", rows), ("cols", cols)):
        if type(size) is not int or size < 0:  # bool is not int here
            raise ValueError(f"malformed matrix JSON: {name} must be a non-negative "
                             f"integer, not {size!r}")
    # NaN and +-Infinity read as floats; strings, null, booleans and lists do not
    if type(entries) is not list or not set(map(type, entries)) <= {int, float}:
        raise ValueError("malformed matrix JSON: entries must be a flat list of numbers")
    try:
        entries = np.array(entries, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"malformed matrix JSON: {exc}") from None
    if entries.size != rows * cols:
        raise ValueError(f"matrix JSON claims {rows}x{cols} but has {entries.size} entries")
    return entries.reshape(rows, cols)


def load_matrix(path) -> np.ndarray:
    path = Path(path)
    text = path.read_text()
    return matrix_from_json(text) if path.suffix.lower() == ".json" else matrix_from_csv(text)


def trajectory_to_csv(rec: TrajectoryRecord) -> str:
    return trajectories_to_csv([rec])[0]


def trajectories_to_csv(records: Sequence[TrajectoryRecord]) -> list[str]:
    """The CSV text of each record: a header line ``t,x1,...`` and one
    line per sample.

    Records under ``_VECTOR_MIN`` values, which the C formatter would write
    row by row, are stacked with their neighbours of the same width and
    formatted together, up to ``_SPAN`` values per group, and the group's
    text is cut back at each record's last line.  A larger record is a group
    of its own, as cutting its text would cost more than sharing a pass saves.
    """
    shapes = [(rec.times.size, rec.states.shape[1] + 1) for rec in records]
    texts, start = [], 0
    while start < len(records):
        (length, width), stop = shapes[start], start + 1
        size = length * width
        while (stop < len(records) and shapes[stop][1] == width
               and max(length, shapes[stop][0]) * width < _VECTOR_MIN
               and size + shapes[stop][0] * width <= _SPAN):
            size += shapes[stop][0] * width
            stop += 1
        group = records[start:stop]
        text = _csv_rows(np.concatenate([np.column_stack((rec.times, rec.states)) for rec in group]))
        cuts = [0, len(text)]
        if len(group) > 1:  # the offset of each line's start, and of the text's end
            newlines = np.flatnonzero(np.frombuffer(text.encode("ascii"), np.uint8) == ord("\n"))
            line_starts = np.concatenate([[0], newlines + 1])
            cuts = line_starts[np.cumsum([0] + [rec.times.size for rec in group])].tolist()
        header = ",".join(["t"] + [f"x{i}" for i in range(1, width)]) + "\n"
        texts += [header + text[a:b] for a, b in zip(cuts, cuts[1:])]
        start = stop
    return texts


def trajectory_to_json(rec: TrajectoryRecord) -> str:
    obj = {"system": rec.system, "times": rec.times, "states": rec.states.tolist()}
    return _json(obj, "") + "\n"


def dump_json(obj) -> str:
    """Deterministic JSON for reports and summaries."""
    return _json(obj, "") + "\n"


#: Item types whose flat lists the C encoder writes as the indenting encoder does.
_FLAT = frozenset((float, int, str, bool, type(None)))


def _json(obj, indent: str) -> str:
    """``obj`` as ``json.dumps(obj, indent=2, allow_nan=True)`` writes it on a
    line indented by ``indent``, with an ndarray written as its ``.tolist()``.

    With ``indent`` set the json module runs its pure-Python encoder.  Here
    only non-empty dicts and lists are walked in Python, and the json module
    writes every scalar, empty container and key.  A 1-D float64 array of at
    least ``_VECTOR_MIN`` values is formatted by numpy, and any flat list of
    plain scalars is one call of the C encoder, each with the indented item
    separator.  Each container's text is built with one copy of its body.
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim == 1 and obj.size >= _VECTOR_MIN:
            inner = indent + "  "
            body = _repr_list(obj, ",\n" + inner)
            return f"[\n{inner}{body}\n{indent}]"
        obj = obj.tolist()
    if not (isinstance(obj, (dict, list, tuple)) and obj):
        return json.dumps(obj)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        body = sep.join([f"{_json_key(k)}: {_json(v, inner)}" for k, v in obj.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    if set(map(type, obj)) <= _FLAT:
        body = json.dumps(obj, separators=(sep, ": "))[1:-1]
    else:
        body = sep.join([_json(v, inner) for v in obj])
    return f"[\n{inner}{body}\n{indent}]"


def _json_key(key) -> str:
    """A dict key as the json module writes it: non-string keys as the JSON
    text of the scalar, quoted."""
    if isinstance(key, str):
        return json.dumps(key)
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
