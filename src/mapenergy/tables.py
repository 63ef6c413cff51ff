"""The one CSV layout of the table files the package writes: the CSV twin
of a report file and the flow log.

A table file is a line of column names followed by one comma-separated
row per record.  Floats are written with 17 significant digits, so every
double reads back unchanged.
"""

import csv

import numpy as np


def _cell(value):
    return "%.17g" % value if isinstance(value, (float, np.floating)) else value


def write_table(path, columns, rows):
    """Write a line of column names, then one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row] for row in rows)
