"""Copula families against 2-D quadrature oracles and structural invariants."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as sci_integrate
from scipy import stats
from scipy.special import ndtri

from cexpect.copulas import (
    BLOCK_ROWS,
    Clayton,
    EmpiricalCopula,
    FGM,
    Gaussian,
    Independence,
    copula_from_config,
    sup_distance,
    sup_distance_swapped,
)
from cexpect.errors import DomainError
from cexpect.rng import philox_stream

ALL_FAMILIES = [
    Independence(),
    Gaussian(rho=0.5),
    Gaussian(rho=-0.7),
    FGM(theta=1.0),
    FGM(theta=-0.6),
    Clayton(alpha=2.0),
    Clayton(alpha=0.7),
]


class TestCdf:
    def test_independence_center(self):
        assert float(Independence().cdf(0.5, 0.5)) == pytest.approx(0.25)

    @pytest.mark.parametrize("c", ALL_FAMILIES, ids=str)
    def test_boundary_conditions(self, c):
        u = np.linspace(0.0, 1.0, 21)
        np.testing.assert_allclose(np.asarray(c.cdf(u, np.ones_like(u))), u, atol=1e-12)
        np.testing.assert_allclose(np.asarray(c.cdf(np.ones_like(u), u)), u, atol=1e-12)
        np.testing.assert_allclose(np.asarray(c.cdf(u, np.zeros_like(u))), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.asarray(c.cdf(np.zeros_like(u), u)), 0.0, atol=1e-12)

    def test_gaussian_center_against_2d_quadrature_oracle(self):
        # Oracle: dblquad of the bivariate normal density over the quadrant,
        # frozen below; closed check 1/4 + arcsin(rho)/(2 pi) = 1/3.
        rho = 0.5

        def dens(y, x):
            det = 1 - rho * rho
            return math.exp(-(x * x - 2 * rho * x * y + y * y) / (2 * det)) / (
                2 * math.pi * math.sqrt(det)
            )

        oracle, _ = sci_integrate.dblquad(dens, -9, 0, -9, 0, epsabs=1e-12)
        assert oracle == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert float(Gaussian(rho=0.5).cdf(0.5, 0.5)) == pytest.approx(oracle, abs=1e-9)
        assert float(Gaussian(rho=0.5).cdf(0.5, 0.5)) == pytest.approx(
            0.25 + math.asin(rho) / (2 * math.pi), abs=1e-12
        )

    @pytest.mark.parametrize("c", ALL_FAMILIES, ids=str)
    def test_frechet_bounds_on_grid(self, c):
        g = np.linspace(0.0, 1.0, 100)
        uu, vv = np.meshgrid(g, g)
        vals = np.asarray(c.cdf(uu, vv))
        lower = np.maximum(uu + vv - 1.0, 0.0)
        upper = np.minimum(uu, vv)
        assert np.all(vals >= lower - 1e-12)
        assert np.all(vals <= upper + 1e-12)

    @pytest.mark.parametrize("c", ALL_FAMILIES, ids=str)
    def test_exchangeable(self, c):
        g = np.linspace(0.0, 1.0, 40)
        uu, vv = np.meshgrid(g, g)
        np.testing.assert_allclose(
            np.asarray(c.cdf(uu, vv)), np.asarray(c.cdf(vv, uu)), atol=1e-12
        )

    @pytest.mark.parametrize("c", ALL_FAMILIES, ids=str)
    def test_two_increasing_on_random_rectangles(self, c):
        rng = philox_stream(21, 0)
        pts = rng.random((10_000, 4))
        u1 = np.minimum(pts[:, 0], pts[:, 1])
        u2 = np.maximum(pts[:, 0], pts[:, 1])
        v1 = np.minimum(pts[:, 2], pts[:, 3])
        v2 = np.maximum(pts[:, 2], pts[:, 3])
        mass = (
            np.asarray(c.cdf(u2, v2))
            - np.asarray(c.cdf(u2, v1))
            - np.asarray(c.cdf(u1, v2))
            + np.asarray(c.cdf(u1, v1))
        )
        assert float(mass.min()) >= -1e-12

    @given(
        rho=st.floats(min_value=-0.99, max_value=0.99),
        u=st.floats(min_value=0.0, max_value=1.0),
        v=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_gaussian_cdf_within_frechet(self, rho, u, v):
        val = float(Gaussian(rho=rho).cdf(u, v))
        assert max(u + v - 1.0, 0.0) - 1e-12 <= val <= min(u, v) + 1e-12


class TestValidation:
    def test_gaussian_rho_open_interval(self):
        with pytest.raises(DomainError):
            Gaussian(rho=1.0)

    def test_fgm_theta_bounds(self):
        with pytest.raises(DomainError):
            FGM(theta=1.5)

    def test_clayton_alpha_positive(self):
        with pytest.raises(DomainError):
            Clayton(alpha=0.0)


class TestSampling:
    def test_gaussian_rho0_kendall_tau(self):
        u, v = Gaussian(rho=1e-12).sample(philox_stream(22, 0), 100_000)
        tau = stats.kendalltau(u, v).statistic
        assert abs(tau) <= 0.02

    def test_gaussian_rho05_pearson_after_normal_quantile(self):
        u, v = Gaussian(rho=0.5).sample(philox_stream(23, 0), 100_000)
        x, y = ndtri(u), ndtri(v)
        r = float(np.corrcoef(x, y)[0, 1])
        assert abs(r - 0.5) <= 0.02

    def test_fgm_theta1_spearman_against_quadrature_oracle(self):
        # rho_S = 12 int int C du dv - 3; oracle evaluates the double
        # integral directly, and the known theta/3 value must agree.
        theta = 1.0
        ival, _ = sci_integrate.dblquad(
            lambda v, u: u * v * (1 + theta * (1 - u) * (1 - v)), 0, 1, 0, 1, epsabs=1e-12
        )
        oracle = 12 * ival - 3
        assert oracle == pytest.approx(theta / 3.0, abs=1e-9)
        u, v = FGM(theta=1.0).sample(philox_stream(24, 0), 100_000)
        rho_s = stats.spearmanr(u, v).statistic
        assert abs(rho_s - oracle) <= 0.02

    @pytest.mark.parametrize("c", ALL_FAMILIES, ids=str)
    def test_marginal_uniformity(self, c):
        u, v = c.sample(philox_stream(25, 0), 50_000)
        for coord in (u, v):
            ks = stats.kstest(coord, "uniform").statistic
            assert ks <= 1.63 / math.sqrt(coord.size)

    @pytest.mark.parametrize("c", ALL_FAMILIES, ids=str)
    def test_conditional_quantile_inverts_conditional_cdf(self, c):
        rng = philox_stream(26, 0)
        u = 0.05 + rng.random(200) * 0.9
        w = 0.05 + rng.random(200) * 0.9
        v = np.asarray(c.cond_quantile(u, w))
        w_back = np.asarray(c.cond_cdf(u, v))
        np.testing.assert_allclose(w_back, w, atol=1e-8)

    @pytest.mark.parametrize("c", ALL_FAMILIES, ids=str)
    def test_cond_quantile_pair_complements(self, c):
        rng = philox_stream(26, 1)
        u = rng.random(200)
        w = 1e-6 + rng.random(200) * (1.0 - 2e-6)
        v, v_sf = c.cond_quantile_pair(u, w)
        np.testing.assert_allclose(v, c.cond_quantile(u, w), rtol=0, atol=1e-12)
        np.testing.assert_allclose(v + v_sf, 1.0, rtol=0, atol=1e-15)

    def test_cond_quantile_pair_keeps_upper_tail_digits(self):
        # Gaussian: 1 - v is the normal tail of the conditional score.
        score = 0.5 * ndtri(1.0 - 1e-14) + math.sqrt(0.75) * ndtri(1.0 - 1e-13)
        _, v_sf = Gaussian(rho=0.5).cond_quantile_pair(1.0 - 1e-14, 1.0 - 1e-13)
        assert float(v_sf) == pytest.approx(stats.norm.sf(score), rel=1e-12)
        # FGM near u = 1/2, where a = theta*(1 - 2u) -> 0 and the textbook
        # root (b - disc) / (2a) cancels: v solves a*v^2 - (1 + a)*v + w = 0
        # and 1 - v solves a*s^2 + (1 - a)*s - (1 - w) = 0.
        c, u = FGM(theta=1.0), 0.5 + 1e-9
        a = c.theta * (1.0 - 2.0 * u)
        w = 0.3
        v = float(c.cond_quantile(u, w))
        assert abs(a * v**2 - (1.0 + a) * v + w) <= 1e-15
        w = 1.0 - 1e-13
        _, v_sf = c.cond_quantile_pair(u, w)
        v_sf = float(v_sf)
        assert abs(a * v_sf**2 + (1.0 - a) * v_sf - (1.0 - w)) <= 1e-12 * (1.0 - w)

    def test_sample_pair_deterministic(self):
        c = Clayton(alpha=2.0)
        u1, v1 = c.sample(philox_stream(27, 0), 1000)
        u2, v2 = c.sample(philox_stream(27, 0), 1000)
        assert np.array_equal(u1, u2) and np.array_equal(v1, v2)


class TestEmpiricalCopula:
    def test_corner_values(self):
        rng = philox_stream(28, 0)
        e = EmpiricalCopula(rng.random(500), rng.random(500))
        assert e.cdf(1.0, 1.0) == 1.0
        assert e.cdf(0.0, 0.5) == 0.0
        assert e.cdf(0.5, 0.0) == 0.0

    def test_independence_center(self):
        u, v = Independence().sample(philox_stream(29, 0), 100_000)
        e = EmpiricalCopula(u, v)
        assert e.cdf(0.5, 0.5) == pytest.approx(0.25, abs=0.01)

    def test_empty_sample_rejected(self):
        with pytest.raises(DomainError):
            EmpiricalCopula(np.array([]), np.array([]))

    def test_ranks_are_permutations(self):
        rng = philox_stream(30, 0)
        e = EmpiricalCopula(rng.random(100), rng.random(100))
        expect = np.arange(1, 101) / 101.0
        np.testing.assert_allclose(np.sort(e.ranks_u), expect, atol=1e-15)
        np.testing.assert_allclose(np.sort(e.ranks_v), expect, atol=1e-15)

    def test_lattice_matches_pointwise_eval(self):
        rng = philox_stream(31, 0)
        e = EmpiricalCopula(rng.random(2000), rng.random(2000))
        levels, table = e.lattice(9)
        for i, u in enumerate(levels):
            for j, v in enumerate(levels):
                assert table[i, j] == pytest.approx(e.cdf(u, v), abs=1e-12)


    @staticmethod
    def _stable_ranks(values):
        ranks = np.empty(values.size)
        ranks[np.argsort(values, kind="stable")] = np.arange(1, values.size + 1)
        return ranks / (values.size + 1)

    def test_ranks_match_stable_argsort_under_ties(self):
        rng = philox_stream(36, 0)
        heavy = np.round(rng.standard_normal(50_000), 2)
        flat = np.full(50_000, 0.25)
        signed_zeros = np.where(rng.random(50_000) < 0.5, 0.0, -0.0)
        for x, y in ((heavy, flat), (flat, signed_zeros), (heavy, rng.random(50_000))):
            e = EmpiricalCopula(x, y)
            np.testing.assert_array_equal(e.ranks_u, self._stable_ranks(x))
            np.testing.assert_array_equal(e.ranks_v, self._stable_ranks(y))

    @staticmethod
    def _add_at_lattice(e, grid):
        levels = np.linspace(0.0, 1.0, grid)
        iu = np.searchsorted(levels, e.ranks_u, side="left")
        iv = np.searchsorted(levels, e.ranks_v, side="left")
        counts = np.zeros((grid + 1, grid + 1))
        np.add.at(counts, (iu, iv), 1.0)
        return levels, counts[:grid, :grid].cumsum(axis=0).cumsum(axis=1) / e.n

    @pytest.mark.parametrize("grid", [2, 9, 50, 257])
    def test_lattice_matches_add_at_reference(self, grid):
        rng = philox_stream(37, 0)
        x = np.round(rng.standard_normal(30_001), 1)
        e = EmpiricalCopula(x, x + rng.standard_normal(30_001))
        levels, table = e.lattice(grid)
        ref_levels, ref_table = self._add_at_lattice(e, grid)
        np.testing.assert_array_equal(levels, ref_levels)
        np.testing.assert_array_equal(table, ref_table)

    # n + 1 a multiple of grid - 1 puts ranks exactly on lattice levels.  Past
    # two row blocks, cuts split runs of tied values that cross block
    # boundaries.  Scaled to top = 1e308, a column's span max - min overflows.
    @pytest.mark.parametrize("n, grid, top", [
        pytest.param(29_999, 11, None, id="29999-11"),
        pytest.param(4_999, 51, None, id="4999-51"),
        pytest.param(3 * 2**18 - 1, 7, None, id="786431-7"),
        pytest.param(30_001, 50, None, id="30001-50"),
        pytest.param(9, 4, None, id="9-4"),
        pytest.param(1, 2, None, id="1-2"),
        pytest.param(2 * BLOCK_ROWS + 999, 50, None, id="132071-50"),
        pytest.param(BLOCK_ROWS + 1, 257, None, id="65537-257"),
        pytest.param(2 * BLOCK_ROWS + 3, 50, 1e308, id="131075-50-1e308"),
    ])
    def test_lattice_matches_searchsorted_reference(self, n, grid, top):
        rng = philox_stream(39, 0)
        x = np.round(rng.standard_normal(n), 1)
        y = np.round(x + rng.standard_normal(n), 1)
        if top is not None:
            x = x / np.abs(x).max() * top
            y = y / np.abs(y).max() * top
            x[:2] = -top, top
        e = EmpiricalCopula(x, y)
        levels = np.linspace(0.0, 1.0, grid)
        iu = np.searchsorted(levels, self._stable_ranks(x), side="left")
        iv = np.searchsorted(levels, self._stable_ranks(y), side="left")
        counts = np.bincount(iu * (grid + 1) + iv, minlength=(grid + 1) ** 2)
        counts = counts.reshape(grid + 1, grid + 1)
        ref_table = counts[:grid, :grid].cumsum(axis=0).cumsum(axis=1) / n
        got_levels, table = e.lattice(grid)
        np.testing.assert_array_equal(got_levels, levels)
        np.testing.assert_array_equal(table, ref_table)
        ranks = np.arange(n + 1) / (n + 1)
        ref_bins = np.searchsorted(levels, ranks, side="left")
        np.testing.assert_array_equal(e._rank_bins(levels), ref_bins)
        assert "_rank_u" not in vars(e) and "_rank_v" not in vars(e)
        if n > 10 and (n + 1) % (grid - 1) == 0:
            assert np.isin(levels[1:-1], ranks).sum() >= (grid - 2) // 2
        if n > 2 * BLOCK_ROWS:
            ordered = np.sort(x)
            cuts = e._rank_cuts(levels)
            cuts = cuts[(cuts > 1) & (cuts <= n)]
            splits = cuts[ordered[cuts - 2] == ordered[cuts - 1]]
            run = np.flatnonzero(x == ordered[splits[0] - 1])
            assert run[0] // BLOCK_ROWS < run[-1] // BLOCK_ROWS

    def test_lattice_peak_memory_below_the_rank_arrays(self):
        # Ranking takes an int64 argsort order and two int32 rank arrays,
        # 16 bytes a row; the lattice makes no ranks.
        n = 2**20
        rng = philox_stream(41, 0)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        tracemalloc.start()
        try:
            EmpiricalCopula(x, y).lattice(50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n

    def test_integer_ranks(self):
        rng = philox_stream(40, 0)
        e = EmpiricalCopula(rng.random(1000), rng.random(1000))
        assert e._rank_u.dtype == np.int32
        np.testing.assert_array_equal(np.sort(e._rank_v), np.arange(1, 1001))

    def test_non_finite_sample_rejected_with_count(self):
        x = np.linspace(0.0, 1.0, 10)
        y = x.copy()
        y[[2, 5]] = np.nan
        y[7] = np.inf
        with pytest.raises(DomainError, match="0 non-finite x value.* 3 non-finite y value"):
            EmpiricalCopula(x, y)
        with pytest.raises(DomainError, match="1 non-finite x value"):
            EmpiricalCopula(np.where(x > 0.95, -np.inf, x), x)


class TestSupDistance:
    def test_same_copula_small_distance(self):
        c = Gaussian(rho=0.5)
        u, v = c.sample(philox_stream(32, 0), 100_000)
        e = EmpiricalCopula(u, v)
        assert sup_distance(e, c, grid=50) <= 0.02

    def test_wrong_copula_large_distance(self):
        # Gaussian rho=0.8 cdf at (0.5, 0.5) exceeds 0.25 by ~0.148.
        c = Gaussian(rho=0.8)
        gap = float(c.cdf(0.5, 0.5)) - 0.25
        assert gap > 0.1
        u, v = c.sample(philox_stream(33, 0), 100_000)
        e = EmpiricalCopula(u, v)
        assert sup_distance(e, Independence(), grid=50) >= 0.05

    def test_grid_two_is_corners_only(self):
        u, v = Clayton(alpha=3.0).sample(philox_stream(34, 0), 5000)
        e = EmpiricalCopula(u, v)
        assert sup_distance(e, Independence(), grid=2) == 0.0
        assert sup_distance_swapped(e, Gaussian(rho=0.9), grid=2) == 0.0

    def test_grid_validation(self):
        u, v = Independence().sample(philox_stream(35, 0), 100)
        with pytest.raises(DomainError):
            EmpiricalCopula(u, v).lattice(1)


class TestConfig:
    @pytest.mark.parametrize(
        "cfg",
        [
            {"family": "independence"},
            {"family": "gaussian", "rho": 0.5},
            {"family": "fgm", "theta": -1.0},
            {"family": "clayton", "alpha": 2.0},
        ],
    )
    def test_roundtrip(self, cfg):
        assert copula_from_config(cfg).to_config() == cfg

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            copula_from_config({"family": "gumbel"})
