"""The CSV writers' shared formatting: byte rows built in numpy, one string per chunk.

Every output file prints a value ``v`` exactly as ``f"{v:{spec}}"`` would,
-0.0, NaN and rounding ties included, but no line is a Python string until a
whole chunk is. A column is held as *byte rows*: a pair ``(rows, lengths)``
of an (m, w) ``uint8`` matrix and an (m,) integer array, where row ``i``
holds one field's UTF-8 bytes right-aligned in its last ``lengths[i]``
columns (what lies left of them is padding).

- a dB column goes through ``fixed``, which rounds ``v * 10**d`` with
  ``np.rint`` and writes its digits in numpy. That is Python's correctly
  rounded decimal away from a tie, so a value falls back to ``format`` when
  it is not finite, when ``|v * 10**d|`` is 2**31 or more, or when the
  fraction of ``|v * 10**d|`` lies within 1e-6 of 0.5;
- a coordinate or id column repeats few values, so ``distinct`` formats
  each distinct value of a chunk once with ``format`` and rows gather their
  bytes by index;
- ``write_csv`` lays one chunk of records (``kernels.chunks``) side by side
  in one byte matrix, with ``,`` and ``\\n`` columns between the fields,
  drops the padding with one boolean mask built from the lengths (so no
  byte value is reserved: an id may hold NUL) and writes the chunk as one
  string. No file is ever held whole in memory. A record may span lines
  that share a field: ``field.csv`` repeats a voxel's coordinates on each
  of its cell lines.
"""

from __future__ import annotations

import numpy as np

from . import kernels


def text_rows(strings):
    """Byte rows of a sequence of ``str``, each encoded as UTF-8."""
    encoded = [s.encode() for s in strings]
    lengths = np.array([len(b) for b in encoded], dtype=np.int64)
    width = int(lengths.max(initial=0))
    rows = np.zeros((len(encoded), width), dtype=np.uint8)
    rows[np.arange(width) >= (width - lengths)[:, None]] = np.frombuffer(b"".join(encoded),
                                                                         dtype=np.uint8)
    return rows, lengths


def take(rows, index):
    """The byte rows at ``index``."""
    return np.take(rows[0], index, axis=0), np.take(rows[1], index)


def distinct(values, spec: str):
    """Byte rows of ``f"{v:{spec}}"`` for a 1-D array, formatting each distinct value once.

    Floats are told apart by bit pattern, so 0.0 and -0.0 keep their own strings.
    """
    values = np.asarray(values)
    floats = values.dtype == np.float64
    keys, inverse = np.unique(values.view(np.int64) if floats else values,
                              return_inverse=True)
    keys = (keys.view(np.float64) if floats else keys).tolist()
    return take(text_rows([format(key, spec) for key in keys]), inverse)


def fixed(values, decimals: int):
    """Byte rows of ``f"{v:.{decimals}f}"`` for a 1-D float array, ``decimals`` >= 1.

    ``s = |v| * 10**decimals`` is rounded to an integer with ``np.rint``
    and its digits are written right to left, the decimal point before the
    last ``decimals``; the sign is ``np.signbit(v)``'s, as Python prints
    -0.0 and a negative that rounds to zero with a minus. Below 2**31 one
    ulp of ``s`` is at most 2**-22, so ``rint`` gives the correctly rounded
    decimal unless ``s`` lies within 1e-6 of a half-integer; those rows, and
    non-finite or larger values, are printed by ``format`` instead.
    """
    v = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.abs(v * 10.0 ** decimals)
        slow = ~(s < 2.0 ** 31) | (np.abs(s - np.floor(s) - 0.5) <= 1e-6)
    s[slow] = 0.0
    q = np.rint(s).astype(np.uint32)   # below 2**31 + 1
    places = max(decimals + 1, len(str(q.max(initial=0))))
    width = places + 2                 # a sign and the decimal point
    point = width - 1 - decimals
    negative = np.signbit(v)
    lengths = decimals + 2 + negative + sum(q >= 10 ** k for k in range(decimals + 1, places))
    rows = np.empty((v.size, width), dtype=np.uint8)
    for k in [*range(width - 1, point, -1), *range(point - 1, 0, -1)]:
        q, digit = np.divmod(q, 10)
        np.add(digit, ord("0"), out=rows[:, k], casting="unsafe")
    rows[:, point] = ord(".")
    at = np.flatnonzero(negative)
    rows[at, width - lengths[at]] = ord("-")
    if slow.any():
        at = np.flatnonzero(slow)
        spec = f".{decimals}f"
        other, other_lengths = text_rows([format(x, spec) for x in v[at].tolist()])
        if other.shape[1] > width:
            rows = np.pad(rows, ((0, 0), (other.shape[1] - width, 0)))
        rows[at, rows.shape[1] - other.shape[1]:] = other
        lengths[at] = other_lengths
    return rows, lengths


def _filled(width, lengths):
    """Per row, the ``width`` flags of the bytes that right-aligned rows of ``lengths`` fill.

    Each row's flags are one ``V<width>`` item, so they copy as one.
    """
    table = np.arange(width) >= width - np.arange(width + 1)[:, None]
    return np.take(table.view(f"V{width}")[:, 0], lengths)


def write_csv(fh, header: str, n: int, lines) -> None:
    """Write ``header``, then ``n`` records, one string per ``kernels.chunks`` chunk.

    ``lines(lo, hi)`` gives the lines of records ``lo`` to ``hi``: one list of
    fields per line of a record, in order. A field is byte rows with one row
    per record, or one ``str`` shared by every record.
    """
    fh.write(header + "\n")
    for lo, hi in kernels.chunks(n):
        record, blocks = bytearray(), []   # a record's bytes, and where its byte rows go
        for fields in lines(lo, hi):
            for field in fields:
                if isinstance(field, str):
                    record += field.encode()
                else:
                    blocks.append((len(record), *field))
                    record += bytes(field[0].shape[1])
                record += b","
            record[-1:] = b"\n"
        width = len(record)
        out = np.frombuffer(record * (hi - lo), dtype=np.uint8).reshape(hi - lo, width)
        keep = np.ones(out.shape, dtype=bool)
        for at, rows, lengths in blocks:
            w = rows.shape[1]
            if w:   # each row's w bytes, and its w flags, copy as one V<w> item
                place = np.dtype({"names": ["f"], "formats": [f"V{w}"], "offsets": [at],
                                  "itemsize": width})
                out.view(place)[:, 0]["f"] = rows.view(f"V{w}")[:, 0]
                keep.view(place)[:, 0]["f"] = _filled(w, lengths)
        fh.write(out[keep].tobytes().decode())
