"""Reference trajectory writer: one csv row and three ``format`` calls per point.

This is the per-row writer that `tsvar.cli.write_trajectory_csv` replaced
with one ``%`` per block of rows.  The equivalence tests assert that both
write the same bytes.
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
