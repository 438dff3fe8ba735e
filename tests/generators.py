"""Seeded random instance generators for the property suites.

Discrete scales with a handful of atoms, gap sizes in a configurable band,
and positive grid data drawn from user-set ranges.  Everything is driven by
an explicit random.Random so runs reproduce bit-for-bit.
"""

from __future__ import annotations

import random

import numpy as np

from tsvar.timescale import GridFunction, TimeScale


def random_discrete_timescale(rng: random.Random, min_atoms=2, max_atoms=12,
                              gap_lo=0.1, gap_hi=3.0, start=0.0) -> TimeScale:
    n = rng.randint(min_atoms, max_atoms)
    atoms = [start]
    for _ in range(n - 1):
        atoms.append(atoms[-1] + rng.uniform(gap_lo, gap_hi))
    return TimeScale(atoms=atoms)


def random_grid(rng: random.Random, ts: TimeScale, lo, hi,
                min_spread=None) -> GridFunction:
    """Grid data with values in [lo, hi], optionally forced to spread at
    least min_spread (two points pinned to the range ends, scaled)."""
    vals = np.array([rng.uniform(lo, hi) for _ in ts.points])
    if min_spread is not None:
        # pin two kappa-points so the spread survives on the integrand grid
        kidx = ts.kappa_indices()
        if len(kidx) >= 2 and float(vals[kidx].max() - vals[kidx].min()) < min_spread:
            vals[kidx[0]] = lo
            vals[kidx[-1]] = min(hi, lo + max(min_spread, hi - lo))
    return GridFunction(ts, vals)


def random_admissible_trajectory(rng: random.Random, ts: TimeScale,
                                 B: float) -> GridFunction:
    """Strictly increasing trajectory from 0 to B on a discrete scale."""
    n = len(ts.points) - 1
    w = np.array([1.0 - rng.random() for _ in range(n)])
    d = w / w.sum() * B
    return GridFunction(ts, np.concatenate([[0.0], np.cumsum(d)]))
