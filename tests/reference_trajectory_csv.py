"""Reference trajectory writers that `tsvar.cli.write_trajectory_csv` replaced.

``write_trajectory_csv_per_row`` writes one csv row and three ``format``
calls per point.  ``write_trajectory_csv_blocks`` is the writer that replaced
it, kept verbatim: one ``'%.17g'`` template filled by ``%`` per block of
rows.  The writer that replaced both makes the digits with numpy arithmetic;
the equivalence tests assert that all three write the same bytes.
"""

from __future__ import annotations

import csv

import numpy as np


def _fmt(x):
    return format(float(x), ".17g")


def write_trajectory_csv_per_row(path, ts, traj):
    d = ts.delta_derivative_grid(traj)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "y", "y_delta"])
        for t, y, yd in zip(ts.points, traj.values, d):
            w.writerow([_fmt(t), _fmt(y), "" if np.isnan(yd) else _fmt(yd)])


#: rows formatted by one ``%``, so the writer holds a block's text, not the file's
_CSV_BLOCK_ROWS = 1024
#: a row as csv's excel dialect writes it, and one whose y_delta is undefined
_CSV_ROW = "%.17g,%.17g,%.17g\r\n"
_CSV_ROW_NO_DELTA = "%.17g,%.17g,\r\n"


def write_trajectory_csv_blocks(path, ts, traj):
    """Write t, y and y_delta at every point of ts under a ``t,y,y_delta``
    header: 17 significant digits, which round-trip every double, rows
    ended by ``\\r\\n``, and an empty y_delta where it is undefined (NaN)."""
    d = ts.delta_derivative_grid(traj)
    with open(path, "w", newline="") as fh:
        fh.write("t,y,y_delta\r\n")
        for i in range(0, len(d), _CSV_BLOCK_ROWS):
            rows = np.column_stack([col[i:i + _CSV_BLOCK_ROWS]
                                    for col in (ts.points, traj.values, d)])
            template = "".join([_CSV_ROW_NO_DELTA if u else _CSV_ROW
                                for u in np.isnan(rows[:, 2]).tolist()])
            keep = ~np.isnan(rows)  # drop the undefined y_delta, no t or y
            keep[:, :2] = True
            fh.write(template % tuple(rows[keep].tolist()))
