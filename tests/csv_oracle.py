"""CSV oracle: the row-by-row writer that ``fiber_mode.write_csv`` is held to.

It formats every cell on its own with repr(float), one row at a time.  The
package formats each distinct bit pattern of a block once and reuses the
previous block's text; both must write the same bytes.
"""
import numpy as np


def write_csv_rows(path, header_lines, columns, table):
    """``# `` header lines, the column line, then ``",".join(map(repr, row))`` per row."""
    table = np.asarray(table, dtype=float)
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in table.reshape(-1, table.shape[-1]).tolist():  # C order
            fh.write(",".join(map(repr, row)) + "\n")
