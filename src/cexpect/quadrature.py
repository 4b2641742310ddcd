"""Batched tanh-sinh (double-exponential) quadrature on finite intervals.

`tabulate` integrates a batch of rows, row i over its own [a_i, b_i], with
one vectorized integrand call per refinement level.  The substitution
x = c + d tanh(pi/2 sinh t), t in [-4, 4], makes the integrand decay doubly
exponentially at both ends, so endpoint singularities such as those of a
quantile function Q(u) near u = 0 or 1 cost no extra refinement
(Takahasi & Mori 1974; Bailey, Jeyabalan & Li, Exp. Math. 2005).

Level L is the trapezoid rule in t with step h = 2^-L.  Level L+1 halves
level L's sum and adds only the new odd points, and only for rows not yet
accepted.  A row is accepted from level MIN_LEVEL on, once two successive
levels agree to within the absolute tolerance DEFAULT_TOL or the float floor
eps * sum |f| w, whichever is larger.  Abscissae are computed from the
nearer endpoint, so offsets far below the float spacing of the midpoint
(1e-30 from `a`, say) survive rounding.
"""

import math

import numpy as np

from .errors import NumericalError

DEFAULT_TOL = 1e-9
T_MAX = 4.0
MIN_LEVEL = 3
MAX_LEVEL = 10


def _level_nodes(level):
    """Offsets from the nearer endpoint and weights, both in units of the
    half-width, for the points level `level` adds on one side of t = 0 (the
    other side mirrors them).  Level 0 adds t = 0 and the integers up to
    T_MAX."""
    if level == 0:
        t = np.arange(0.0, T_MAX + 1.0)
    else:
        h = 2.0**-level
        t = h * np.arange(1.0, T_MAX / h, 2.0)
    s = 0.5 * math.pi * np.sinh(t)
    offset = 2.0 / (1.0 + np.exp(2.0 * s))  # 1 - tanh(s) without cancellation
    weight = 0.5 * math.pi * np.cosh(t) / np.cosh(s) ** 2
    return t, offset, weight


def tabulate(f, a, b):
    """Integrals of f over [a_i, b_i] for every row i, to absolute DEFAULT_TOL.

    `f(rows, x)` receives the indices of the rows still open and abscissae
    x of shape (rows.size, points), and returns values of that shape.  Rows
    with a_i == b_i are 0 and never evaluated; b_i < a_i gives the negated
    integral.  Raises NumericalError naming the row and its interval if a
    row has not converged at MAX_LEVEL.
    """
    a, b = np.broadcast_arrays(
        np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    )
    bad = ~(np.isfinite(a) & np.isfinite(b))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise NumericalError(
            "integration bounds must be finite", point=(i, float(a[i]), float(b[i]))
        )
    half = 0.5 * (b - a)
    total = np.zeros(a.size)
    mass = np.zeros(a.size)  # sum |f| w, the scale of the rounding noise
    rows = np.flatnonzero(half != 0.0)
    eps = np.finfo(float).eps
    for level in range(MAX_LEVEL + 1):
        if rows.size == 0:
            return total
        t, offset, weight = _level_nodes(level)
        mirrored = t > 0.0  # the midpoint t = 0 is taken once, from a
        d = half[rows, None]
        x = np.concatenate(
            [a[rows, None] + d * offset, b[rows, None] - d * offset[mirrored]], axis=1
        )
        w = np.concatenate([weight, weight[mirrored]])
        fx = np.asarray(f(rows, x), dtype=float)
        h = 2.0**-level
        # Row-wise sums in a fixed order: a row's value does not depend on
        # which other rows share the batch.
        step = h * half[rows] * np.sum(fx * w, axis=1)
        step_mass = h * np.abs(half[rows]) * np.sum(np.abs(fx) * w, axis=1)
        previous = total[rows]
        total[rows] = 0.5 * previous + step
        mass[rows] = 0.5 * mass[rows] + step_mass
        if level < MIN_LEVEL:
            continue
        change = np.abs(total[rows] - previous)
        done = change <= np.maximum(DEFAULT_TOL, eps * mass[rows])
        rows = rows[~done]
    if rows.size == 0:
        return total
    i = int(rows[0])
    raise NumericalError(
        f"tanh-sinh quadrature did not converge within level {MAX_LEVEL} "
        f"on {rows.size} row(s); first is row {i}",
        point=(i, float(a[i]), float(b[i])),
    )


def integrate(f, a, b):
    """Integrate f over [a, b] to absolute DEFAULT_TOL; the one-row form
    of `tabulate`, with f taking a 1-D array of abscissae.

    MaxOfIid.mean and MaxOfIid.variance use it, and the benchmark tracer's
    ENTRY_POINTS names it."""
    a = float(a)
    b = float(b)
    if not np.isfinite(a) or not np.isfinite(b):
        raise NumericalError("integration bounds must be finite", point=(a, b))
    return float(tabulate(lambda rows, x: np.broadcast_to(f(x[0]), x.shape), a, b)[0])
