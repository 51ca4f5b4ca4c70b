"""The CSV writers' shared formatting: Python's own format specs, numpy-sized passes.

Every output file formats a value ``v`` as ``f"{v:{spec}}"``, so -0.0, NaN
and rounding ties come out as Python prints them. What this module saves is
the per-row Python work around that:

- a coordinate or id column repeats few values, so ``distinct`` formats each
  distinct value of a chunk once and rows gather their strings by index;
- a value column is formatted from ``.tolist()`` floats, never one numpy
  scalar at a time;
- ``write_csv`` joins one chunk of records (``kernels.chunks``) into one
  string, so no file is ever held whole in memory. A record may span lines
  that share a field: ``field.csv`` joins a voxel's coordinates once for
  all of its cell lines.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np

from . import kernels


def formatted(values, spec: str) -> list[str]:
    """``f"{v:{spec}}"`` for every element of a 1-D array."""
    return list(map(format, np.asarray(values).tolist(), repeat(spec)))


def distinct(values, spec: str) -> list[str]:
    """``formatted``, but each distinct value is formatted only once.

    Floats are told apart by bit pattern, so 0.0 and -0.0 keep their own strings.
    """
    values = np.asarray(values)
    floats = values.dtype == np.float64
    keys, inverse = np.unique(values.view(np.int64) if floats else values,
                              return_inverse=True)
    strings = np.asarray(formatted(keys.view(np.float64) if floats else keys, spec), dtype=object)
    return strings[inverse].tolist()


def write_csv(fh, header: str, n: int, lines) -> None:
    """Write ``header``, then ``n`` records, one joined string per ``kernels.chunks`` chunk.

    ``lines(lo, hi)`` gives the lines of records ``lo`` to ``hi``: one list of
    fields per line of a record, in order. A field is a list of ``hi - lo``
    strings, one per record, or one ``str`` shared by every record.
    """
    fh.write(header + "\n")
    comma, newline = repeat(","), repeat("\n")
    for lo, hi in kernels.chunks(n):
        pieces = []
        for fields in lines(lo, hi):
            for field in fields:
                pieces += [repeat(field) if isinstance(field, str) else field, comma]
            pieces[-1] = newline
        fh.write("".join(chain.from_iterable(zip(*pieces))))
