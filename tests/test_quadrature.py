"""Tanh-sinh quadrature against analytically known integrals, one row at a
time and batched."""

import math

import numpy as np
import pytest

from cexpect.errors import NumericalError
from cexpect.quadrature import MAX_LEVEL, MIN_LEVEL, integrate, tabulate


def test_polynomial_exact():
    # A polynomial is analytic, so the levels converge to rounding level.
    assert integrate(lambda x: x**3 - 2 * x + 1, 0.0, 2.0) == pytest.approx(2.0, abs=1e-12)


def test_gaussian_density_mass():
    val = integrate(lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), -9.0, 9.0)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_oscillatory():
    val = integrate(np.sin, 0.0, 2 * math.pi)
    assert val == pytest.approx(0.0, abs=1e-9)


def test_sharp_peak():
    # Narrow Gaussian bump that levels 0 and 1 miss: they read 1.6e-37 and
    # 7.9e-38 and agree, so no row may be accepted before MIN_LEVEL.
    s = 0.01
    val = integrate(lambda x: np.exp(-0.5 * ((x - 0.37) / s) ** 2), 0.0, 1.0)
    assert val == pytest.approx(s * math.sqrt(2 * math.pi), rel=1e-8)


def test_reversed_bounds_flip_sign():
    a = integrate(lambda x: x, 0.0, 1.0)
    b = integrate(lambda x: x, 1.0, 0.0)
    assert a == pytest.approx(0.5, abs=1e-12)
    assert b == pytest.approx(-0.5, abs=1e-12)


def test_zero_width_interval():
    assert integrate(lambda x: x, 1.0, 1.0) == 0.0


def test_endpoint_pinned_power_shape():
    # int_eps^1 1/sqrt(x) dx with the cut the package uses before singular
    # endpoints (regression integrals truncate w at 1e-13).
    eps = 1e-13
    val = integrate(lambda x: 1.0 / np.sqrt(x), eps, 1.0)
    assert val == pytest.approx(2.0 - 2.0 * math.sqrt(eps), rel=1e-7)


def test_nonfinite_bounds_rejected():
    with pytest.raises(NumericalError):
        integrate(lambda x: x, 0.0, math.inf)


def test_deterministic():
    f = lambda x: np.exp(-x) * np.sin(7 * x)
    assert integrate(f, 0.0, 5.0) == integrate(f, 0.0, 5.0)


def test_endpoint_offsets_survive_rounding():
    # Abscissae within 1e-37 of an endpoint at 0: a midpoint-based x would
    # round to 0 there and make log(x) infinite.
    assert integrate(np.log, 0.0, 1.0) == pytest.approx(-1.0, abs=1e-9)
    assert integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0) == pytest.approx(2.0, abs=1e-9)


def _batch_integrand(rows, x):
    # Row i integrates exp(-x) * sin((i + 1) x).
    return np.exp(-x) * np.sin((rows[:, None] + 1.0) * x)


def test_batched_rows_equal_one_row_values():
    a = np.array([0.0, -1.0, 0.5, 2.0])
    b = np.array([5.0, 1.0, 0.25, 7.0])
    batch = tabulate(_batch_integrand, a, b)
    for i in range(a.size):
        alone = integrate(lambda x: _batch_integrand(np.array([i]), x[None, :])[0], a[i], b[i])
        assert batch[i] == alone
    # Closed form of int exp(-x) sin(k x) dx, row 0.
    k = 1.0
    anti = lambda x: -np.exp(-x) * (np.sin(k * x) + k * np.cos(k * x)) / (1.0 + k * k)
    assert batch[0] == pytest.approx(anti(5.0) - anti(0.0), abs=1e-9)


def test_zero_width_rows_are_zero_and_never_evaluated():
    seen = []

    def f(rows, x):
        seen.extend(rows.tolist())
        return np.ones_like(x)

    out = tabulate(f, np.array([0.0, 2.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    assert out[1] == 0.0
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert out[2] == pytest.approx(2.0, abs=1e-12)
    assert 1 not in seen


def test_nonconverging_row_is_named():
    # Row 1 jumps inside its interval, which no level resolves to 1e-9.
    def f(rows, x):
        step = np.where(x > 1.0 / 3.0, 1.0, 0.0)
        return np.where(rows[:, None] == 1, step, x)

    with pytest.raises(NumericalError) as info:
        tabulate(f, np.zeros(3), np.ones(3))
    assert info.value.point == (1, 0.0, 1.0)


def test_levels_reuse_previous_points():
    calls = []

    def f(rows, x):
        calls.append((rows.copy(), x.copy()))
        # Row 0 is a quadratic, accepted at MIN_LEVEL; row 1 a sharp bump.
        return np.where(rows[:, None] == 0, x * x, np.exp(-0.5 * ((x - 0.37) / 0.01) ** 2))

    tabulate(f, np.zeros(2), np.ones(2))
    per_row = [x.shape[1] for _, x in calls]
    # Level 0 takes t = 0, +-1, ..., +-4; level L >= 1 only the 8 * 2^(L-1)
    # new odd multiples of 2^-L, so levels 0..L together hold 8 * 2^L + 1.
    assert per_row[:3] == [9, 8, 16]
    assert all(per_row[k + 1] == 2 * per_row[k] for k in range(1, len(per_row) - 1))
    last = len(calls) - 1
    assert MIN_LEVEL < last <= MAX_LEVEL
    assert sum(per_row) == 8 * 2**last + 1
    # No point is evaluated twice.  Points near 1 round to 1.0, so count the
    # half next to 0, which keeps every digit.
    abscissae = np.concatenate([x[-1] for _, x in calls])
    near_zero = abscissae[abscissae < 0.5]
    assert np.unique(near_zero).size == near_zero.size == 4 * 2**last
    # Only open rows are evaluated: row 0 drops out after MIN_LEVEL.
    assert [r.tolist() for r, _ in calls[: MIN_LEVEL + 1]] == [[0, 1]] * (MIN_LEVEL + 1)
    assert all(r.tolist() == [1] for r, _ in calls[MIN_LEVEL + 1 :])
