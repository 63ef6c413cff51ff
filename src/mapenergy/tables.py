"""The one CSV layout of every table file the package writes.

A table file is an optional header line ``# key value key value ...``,
then one or more blocks, each a line of column names followed by one
comma-separated row per record.  Floats are written with 17 significant
digits, so every double reads back unchanged; complex arrays are stored
as interleaved (re, im) column pairs.
"""

import csv

import numpy as np


def _cell(value):
    return "%.17g" % value if isinstance(value, (float, np.floating)) else value


def write_table(path, blocks, meta=None):
    """Write (columns, rows) blocks under an optional header of key/value pairs."""
    with open(path, "w", newline="") as fh:
        if meta:
            fh.write("# " + " ".join(f"{k} {_cell(v)}" for k, v in meta.items()) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        for columns, rows in blocks:
            writer.writerow(columns)
            writer.writerows([_cell(v) for v in row] for row in rows)


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def read_table(path):
    """Header fields and blocks of a numeric table written by `write_table`.

    Returns (meta, blocks): meta maps header keys to their string values;
    each block is (columns, rows) with rows a float array of one row per
    record.  A line whose first cell is not a number starts a block.
    """
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    meta = {}
    if lines and lines[0].startswith("#"):
        words = lines.pop(0)[1:].split()
        meta = dict(zip(words[0::2], words[1::2]))
    blocks = []
    for line in lines:
        cells = line.split(",")
        if not _is_number(cells[0]):
            blocks.append((cells, []))
        elif not blocks:
            raise ValueError(f"{path}: a row precedes the first column line")
        else:
            blocks[-1][1].append([float(c) for c in cells])
    return meta, [(cols, np.array(rows, dtype=float).reshape(len(rows), len(cols)))
                  for cols, rows in blocks]


def float_columns(values):
    """Rows of real columns for a (records, components) array."""
    values = np.ascontiguousarray(values)
    return values.view(np.float64).reshape(len(values), -1)


def from_float_columns(rows, dtype):
    """Inverse of `float_columns` for records of the given dtype."""
    return np.ascontiguousarray(rows).view(dtype)
