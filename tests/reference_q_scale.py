"""Reference q-scale atoms.

`comprehension_atoms` is how `tsvar.timescale.q_scale` built its atoms
before the double-double ladder: one libm ``pow`` and one Python float per
atom, kept verbatim.  Its last bit depends on the platform's libm, which
need not round correctly.  `exact_atoms` is the double nearest each q**k:
``float`` of a Fraction divides two integers, and CPython rounds that
quotient correctly, ties to even.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def comprehension_atoms(q, n, m):
    """q**n, ..., q**m as libm's pow rounds them."""
    return np.array([float(q) ** k for k in range(int(n), int(m) + 1)])


def exact_atoms(q, n, m):
    """q**n, ..., q**m, each the double nearest the exact power."""
    x = Fraction(float(q))
    return np.array([float(x ** k) for k in range(n, m + 1)])
