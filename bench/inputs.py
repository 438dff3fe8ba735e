"""Generated inputs and independent references shared by the workloads.

Time scales and weight functions are described by the same JSON blocks the
CLI reads; the workloads turn them into tsvar objects with the CLI's own
``parse_timescale`` and ``parse_function``.  The references below evaluate those blocks with plain numpy
formulas (sums over atoms, closed-form antiderivatives on intervals) and
never call tsvar, so a wrong answer from the library cannot move its own
reference.  Where no closed form exists the reference is None and the
workload falls back to ``evaluate_functional`` on the returned trajectory.
"""

from __future__ import annotations

import math

import numpy as np

KIND_NAMES = {"pw": "power_weighted", "exp": "exp_derivative",
              "xlogx": "xlogx_shifted"}


# -- weight functions ------------------------------------------------------


def phi_spec(family, rng):
    """A positive, increasing weight on [0, inf) of the given family.

    "affine" and "exp" have a cheap closed-form inverse, "poly" has none, and
    "texp" goes through the library's transform wrapper.  Coefficients vary
    by +/-10% around fixed values, so an op costs about the same on every
    seed.
    """
    def jit(x):
        return x * rng.uniform(0.9, 1.1)

    if family == "affine":
        return {"family": "affine", "slope": jit(1.0), "intercept": jit(1.0)}
    if family == "poly":
        return {"family": "polynomial",
                "coefficients": [jit(1.0), jit(0.35), jit(0.15)]}
    if family == "exp":
        return {"family": "exp"}
    if family == "texp":
        # no out_shift, so ln(phi) stays affine and has a closed-form integral
        return {"family": "exp",
                "transform": {"in_scale": jit(0.5), "in_shift": jit(0.1),
                              "out_scale": jit(1.0)}}
    raise ValueError(f"unknown weight family {family!r}")


def _transform(spec):
    tr = spec.get("transform", {})
    return (tr.get("in_scale", 1.0), tr.get("in_shift", 0.0),
            tr.get("out_scale", 1.0), tr.get("out_shift", 0.0))


def phi_values(spec, x):
    a, sh, os_, osh = _transform(spec)
    u = a * np.asarray(x, dtype=float) + sh
    fam = spec["family"]
    if fam == "affine":
        v = spec["slope"] * u + spec["intercept"]
    elif fam == "polynomial":
        v = sum(c * u ** k for k, c in enumerate(spec["coefficients"]))
    else:
        v = np.exp(u)
    return os_ * v + osh


def phi_antideriv(spec, x):
    """An antiderivative of phi."""
    a, sh, os_, osh = _transform(spec)
    x = np.asarray(x, dtype=float)
    u = a * x + sh
    fam = spec["family"]
    if fam == "affine":
        inner = 0.5 * spec["slope"] * u * u + spec["intercept"] * u
    elif fam == "polynomial":
        inner = sum(c * u ** (k + 1) / (k + 1)
                    for k, c in enumerate(spec["coefficients"]))
    else:
        inner = np.exp(u)
    return os_ / a * inner + osh * x


def log_phi_antideriv(spec):
    """An antiderivative of ln(phi), or None where no closed form is used."""
    a, sh, os_, osh = _transform(spec)
    fam = spec["family"]
    if fam == "affine" and (a, sh, os_, osh) == (1.0, 0.0, 1.0, 0.0):
        s, c = spec["slope"], spec["intercept"]

        def F(x):
            v = s * x + c
            return (v * math.log(v) - v) / s

        return F
    if fam == "exp" and osh == 0.0:
        # ln phi = ln(out_scale) + in_scale * x + in_shift
        return lambda x: (math.log(os_) + sh) * x + 0.5 * a * x * x
    return None


# -- time scales -----------------------------------------------------------


def scale_spec(kind, size, rng):
    """A time scale block with about `size` evaluation points.

    Every scale starts near 0 and spans about 1.5, so weights stay moderate.
    Custom scales put half their points on atoms and half on one interval of
    at least 101 nodes, which keeps the fourth-order quadrature error of the
    interval below the tolerance the checks use.
    """
    size = max(int(size), 4)
    a = rng.uniform(0.0, 0.2)
    span = rng.uniform(1.4, 1.6)
    if kind == "uniform":
        return {"kind": "uniform", "a": a, "b": a + span, "n": size - 1}
    if kind == "real_interval":
        return {"kind": "real_interval", "a": a, "b": a + span,
                "nodes": size if size % 2 else size + 1}
    if kind == "q_scale":
        # q close to 1 at large n: atoms 1, q, ..., q**(size-1) = e**L
        L = rng.uniform(0.85, 0.95)
        return {"kind": "q_scale", "q": math.exp(L / (size - 1)), "n": 0,
                "m": size - 1}
    if kind == "custom":
        nodes = max(size // 2, 101)
        nodes += 1 - nodes % 2
        n_atoms = max(size - nodes, 2)
        mid = a + 0.5 * span
        atoms = np.linspace(a, mid, n_atoms)
        gap = (mid - a) / (n_atoms - 1)
        return {"kind": "custom", "atoms": atoms.tolist(),
                "intervals": [[mid + gap, a + span]], "quad_nodes": nodes}
    raise ValueError(f"unknown scale kind {kind!r}")


def discrete_atoms(n_atoms, rng):
    """Custom atoms from 0 over a span of about 1.5, spacing varied by 20%."""
    gaps = rng.uniform(0.8, 1.2, n_atoms - 1) * 1.5 / (n_atoms - 1)
    return np.concatenate([[0.0], np.cumsum(gaps)])


def scale_structure(spec):
    """(points of right-scattered atoms, their graininess, intervals, a, b)."""
    kind = spec["kind"]
    if kind == "real_interval":
        return np.zeros(0), np.zeros(0), [(spec["a"], spec["b"])], spec["a"], spec["b"]
    if kind == "uniform":
        t = np.linspace(spec["a"], spec["b"], spec["n"] + 1)
    elif kind == "q_scale":
        t = spec["q"] ** np.arange(spec["n"], spec["m"] + 1, dtype=float)
    else:
        t = np.asarray(spec.get("atoms", []), dtype=float)
        intervals = [tuple(iv) for iv in spec.get("intervals", [])]
        if intervals:
            # the last atom jumps to the start of the interval that follows it
            nxt = np.append(t[1:], intervals[0][0])
            return t, nxt - t, intervals, float(t[0]), intervals[-1][1]
    return t[:-1], np.diff(t), [], float(t[0]), float(t[-1])


def is_discrete(spec):
    return spec["kind"] != "real_interval" and not spec.get("intervals")


def ref_delta_integral(spec, values, antideriv):
    """Delta integral over the whole scale: sum over atoms plus intervals."""
    t, mu, intervals, _, _ = scale_structure(spec)
    total = math.fsum(mu * values(t)) if len(t) else 0.0
    for lo, hi in intervals:
        if antideriv is None:
            return None
        total += float(antideriv(hi) - antideriv(lo))
    return total


def ref_optimum(kind, spec, phi, B, alpha=None):
    """Closed-form optimal value from the paper's formulas, or None.

    power_weighted: (b - a) * (G(B) / (b - a))**alpha with G = int_0 phi;
    exp_derivative: (b - a) * exp(C), C = (int ln phi + B) / (b - a);
    xlogx_shifted:  (b - a) * C ln C,  C = (B + int phi) / (b - a).
    """
    _, _, _, a, b = scale_structure(spec)
    span = b - a
    if kind == "power_weighted":
        G = float(phi_antideriv(phi, B) - phi_antideriv(phi, 0.0))
        return span * (G / span) ** alpha
    if kind == "exp_derivative":
        I = ref_delta_integral(spec, lambda x: np.log(phi_values(phi, x)),
                               log_phi_antideriv(phi))
        return None if I is None else span * math.exp((I + B) / span)
    I = ref_delta_integral(spec, lambda x: phi_values(phi, x),
                           lambda x: phi_antideriv(phi, x))
    C = (B + I) / span
    return span * C * math.log(C)


def feasible_B(spec, phi, rng):
    """A boundary value for xlogx_shifted with C > max phi on the scale.

    phi is increasing, so int phi >= (b - a) phi(a) and max phi <= phi(b);
    B = (b - a) (phi(b) - phi(a) + margin) then gives C >= phi(b) + margin.
    """
    _, _, _, a, b = scale_structure(spec)
    lo, hi = phi_values(phi, [a, b])
    return (b - a) * (hi - lo + rng.uniform(0.9, 1.1))


def infeasible_B(spec, phi):
    """A boundary value for xlogx_shifted with C < phi(a): C <= phi(a) - 1."""
    _, _, _, a, b = scale_structure(spec)
    lo, hi = phi_values(phi, [a, b])
    return -(b - a) * (hi - lo + 1.0)


def rel_err(value, ref):
    return abs(value - ref) / max(abs(ref), 1e-300)
