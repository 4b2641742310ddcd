"""Copula families against 2-D quadrature oracles and structural invariants,
the lattice empirical copula against searchsorted references, and the
samplers against their cdfs on the copula-swap lattice."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as sci_integrate
from scipy import stats
from scipy.special import ndtr, ndtri

from cexpect.condexp import BivariateModel
from cexpect.copulas import (
    Clayton,
    EmpiricalCopula,
    FGM,
    Gaussian,
    Independence,
    copula_from_config,
    lattice_counts,
    sup_distance,
    sup_distance_swapped,
)
from cexpect.errors import DomainError
from cexpect.marginals import Exponential, Normal
from cexpect.rng import EVAL_BLOCK, join_rows, philox_stream
from cexpect.theorems import COPULA_SWAP_Z, copula_swap_z

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


def _block_draw(copula, rng, n):
    """The pairs of n draws whose EVAL_BLOCK blocks, the last one ragged,
    each draw their first column and then their second."""
    parts = []
    for start in range(0, n, EVAL_BLOCK):
        size = min(EVAL_BLOCK, n - start)
        if isinstance(copula, Gaussian):
            z1, z2 = rng.standard_normal(size), rng.standard_normal(size)
            parts.append((ndtr(z1), ndtr(copula.rho * z1 + math.sqrt(1.0 - copula.rho**2) * z2)))
        else:
            u, w = rng.random(size), rng.random(size)
            parts.append((u, copula._cond_quantile(u, w)))
    return tuple(np.concatenate(column) for column in zip(*parts))


class TestSampling:
    @pytest.mark.parametrize(
        "c",
        [Independence(), Gaussian(rho=-0.7), FGM(theta=0.6), Clayton(alpha=2.0)],
        ids=str,
    )
    def test_blocks_are_the_whole_column_draw(self, c):
        # sample joins the blocks; each block of EVAL_BLOCK rows draws its
        # two columns in turn before the next block starts.
        for n in (1, EVAL_BLOCK - 1, EVAL_BLOCK + 1, 33_920):
            expected = _block_draw(c, philox_stream(39, n), n)
            u, v = c.sample(philox_stream(39, n), n)
            assert u.tobytes() == expected[0].tobytes() and v.tobytes() == expected[1].tobytes()
            rows = []
            for block, u_rows, v_rows in c.blocks(philox_stream(39, n), n):
                rows.append((block.start, block.stop))
                assert u_rows.tobytes() == expected[0][block].tobytes()
                assert v_rows.tobytes() == expected[1][block].tobytes()
            assert rows[0][0] == 0 and rows[-1][1] == n
            assert all(b - a == EVAL_BLOCK for a, b in rows[:-1])

    @pytest.mark.parametrize("rho", [-0.7, 0.0, 0.5])
    def test_gaussian_sample_is_the_cdf_of_its_scores(self, rho):
        c = Gaussian(rho=rho)
        for n in (1, EVAL_BLOCK + 1, 33_920):
            u, v = c.sample(philox_stream(40, n), n)
            scores = ((z1, z2) for _, z1, z2 in c.score_blocks(philox_stream(40, n), n))
            z1, z2 = join_rows(scores, n)
            assert u.tobytes() == ndtr(z1).tobytes() and v.tobytes() == ndtr(z2).tobytes()

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


def _lattice(u, v, grid):
    return EmpiricalCopula(lattice_counts(u, v, grid), grid)


class TestEmpiricalCopula:
    def test_corner_values(self):
        rng = philox_stream(28, 0)
        e = _lattice(rng.random(500), rng.random(500), 50)
        assert e.n == 500 and e.at_most[-1, -1] == 500
        assert e.at_most[0, 25] == 0 and e.at_most[25, 0] == 0

    def test_independence_center(self):
        u, v = Independence().sample(philox_stream(29, 0), 100_000)
        e = _lattice(u, v, 51)
        assert e.at_most[25, 25] / e.n == pytest.approx(0.25, abs=0.01)

    def test_empty_sample_rejected(self):
        with pytest.raises(DomainError, match="nonempty"):
            EmpiricalCopula(np.zeros(4, dtype=np.intp), 2)

    def test_lattice_matches_pointwise_eval(self):
        rng = philox_stream(31, 0)
        u, v = rng.random(2000), rng.random(2000)
        e = _lattice(u, v, 9)
        for i, a in enumerate(e.levels):
            for j, b in enumerate(e.levels):
                assert e.at_most[i, j] == np.count_nonzero((u <= a) & (v <= b))

    @pytest.mark.parametrize("grid", [2, 9, 50, 257])
    def test_lattice_matches_add_at_reference(self, grid):
        u, v = Clayton(alpha=2.0).sample(philox_stream(37, 0), 30_001)
        levels = np.linspace(0.0, 1.0, grid)
        counts = np.zeros((grid, grid), dtype=np.int64)
        np.add.at(counts, (np.searchsorted(levels, u), np.searchsorted(levels, v)), 1)
        e = _lattice(u, v, grid)
        np.testing.assert_array_equal(e.levels, levels)
        np.testing.assert_array_equal(e.at_most, counts.cumsum(axis=0).cumsum(axis=1))

    # n + 1 a multiple of grid - 1 puts values k / (n + 1) exactly on lattice
    # levels, and others an ulp off them, where ceil((grid - 1) p) alone
    # would bin a value one level off.
    @pytest.mark.parametrize("n, grid", [
        pytest.param(29_999, 11, id="29999-11"),
        pytest.param(4_999, 51, id="4999-51"),
        pytest.param(3 * 2**18 - 1, 7, id="786431-7"),
        pytest.param(30_001, 50, id="30001-50"),
        pytest.param(9, 4, id="9-4"),
        pytest.param(1, 2, id="1-2"),
        pytest.param(132_071, 50, id="132071-50"),
        pytest.param(65_537, 257, id="65537-257"),
    ])
    def test_lattice_matches_searchsorted_reference(self, n, grid):
        rng = philox_stream(39, 0)
        u = (rng.permutation(n) + 1) / (n + 1)
        v = (rng.permutation(n) + 1) / (n + 1)
        levels = np.linspace(0.0, 1.0, grid)
        cells = np.searchsorted(levels, u) * grid + np.searchsorted(levels, v)
        np.testing.assert_array_equal(
            lattice_counts(u, v, grid), np.bincount(cells, minlength=grid * grid)
        )
        if n > 10 and (n + 1) % (grid - 1) == 0:
            assert np.isin(levels[1:-1], u).sum() >= (grid - 2) // 2


def _shift_cdf(u, v):
    """Copula of (U, (U + 0.3) mod 1), which is not exchangeable."""
    low = np.maximum(0.0, np.minimum(np.minimum(u, 0.7), v - 0.3))
    return low + np.maximum(0.0, np.minimum(u, v + 0.7) - 0.7)


class TestSupDistance:
    def test_same_copula_small_distance(self):
        c = Gaussian(rho=0.5)
        u, v = c.sample(philox_stream(32, 0), 100_000)
        assert sup_distance(_lattice(u, v, 50), c) <= COPULA_SWAP_Z

    def test_wrong_copula_large_distance(self):
        # Gaussian rho=0.8 cdf at (0.5, 0.5) exceeds 0.25 by ~0.148, about
        # 100 SEs at 100k draws: the tail underflows and z reads its cap.
        c = Gaussian(rho=0.8)
        u, v = c.sample(philox_stream(33, 0), 100_000)
        cap = float(-ndtri(np.finfo(float).tiny))
        assert sup_distance(_lattice(u, v, 50), Independence()) == cap
        assert 37.5 < cap < 37.6

    def test_grid_two_is_corners_only(self):
        u, v = Clayton(alpha=3.0).sample(philox_stream(34, 0), 5000)
        e = _lattice(u, v, 2)
        assert sup_distance(e, Independence()) == 0.0
        assert sup_distance_swapped(e, Gaussian(rho=0.9)) == 0.0

    def test_grid_validation(self):
        with pytest.raises(DomainError, match="grid >= 2"):
            EmpiricalCopula(np.ones(1, dtype=np.intp), 1)
        with pytest.raises(DomainError, match="9 counts"):
            EmpiricalCopula(np.ones(9, dtype=np.intp), 2)

    def test_swapped_reads_the_transposed_lattice(self):
        # Every family here is exchangeable; a shift copula is not, so its
        # draws pass against C(u, v) and fail against C(v, u).
        shift = SimpleNamespace(cdf=_shift_cdf)
        u = philox_stream(38, 0).random(100_000)
        v = (u + 0.3) % 1.0
        e, transposed = _lattice(u, v, 50), _lattice(v, u, 50)
        assert sup_distance(e, shift) <= COPULA_SWAP_Z < sup_distance_swapped(e, shift)
        assert sup_distance_swapped(transposed, shift) == sup_distance(e, shift)
        assert sup_distance(transposed, shift) == sup_distance_swapped(e, shift)


def _read_as(draws, model):
    """Draws of the model `draws`, binned at the margins of `model` and
    checked against its copula."""
    return SimpleNamespace(
        blocks=draws.blocks,
        copula=model.copula,
        marginal_x=model.marginal_x,
        marginal_y=model.marginal_y,
    )


class TestSamplerLattice:
    """Each family's sampler against its own cdf at the known margins, with
    copula_swap_z's stated bound; and draws read through a wrong model."""

    @pytest.mark.parametrize(
        "c",
        [
            Independence(),
            Gaussian(rho=0.99),
            Gaussian(rho=-0.99),
            FGM(theta=1.0),
            FGM(theta=-1.0),
            Clayton(alpha=0.7),
            Clayton(alpha=20.0),
        ],
        ids=str,
    )
    def test_every_family_passes(self, c):
        model = BivariateModel(c, Exponential(1.0), Normal())
        assert copula_swap_z(model, 200_000, 42) <= COPULA_SWAP_Z

    @pytest.mark.parametrize(
        "draws, reference, n",
        [
            pytest.param(
                BivariateModel(Gaussian(rho=0.5), Normal(), Normal()),
                BivariateModel(Gaussian(rho=0.49), Normal(), Normal()),
                2_000_000,
                id="gaussian-0.5-as-0.49",
            ),
            pytest.param(
                BivariateModel(Gaussian(rho=0.5), Exponential(1.0), Normal()),
                BivariateModel(Gaussian(rho=0.5), Exponential(1.02), Normal()),
                200_000,
                id="exp-1-as-1.02",
            ),
        ],
    )
    def test_wrong_model_fails(self, draws, reference, n):
        assert copula_swap_z(_read_as(draws, reference), n, 42) > COPULA_SWAP_Z

    @pytest.mark.parametrize("wrong", [False, True], ids=["true", "5%-wide"])
    def test_wrong_score_map_fails(self, wrong, monkeypatch):
        # The draws are binned at the model's known cdfs, so normal margins
        # that map the copula's scores 5% too wide fail, though the copula
        # of their draws is right.
        if wrong:
            monkeypatch.setattr(Normal, "_of_score", lambda m, z: m.mean_ + 1.05 * m.sd * z)
        model = BivariateModel(Gaussian(rho=0.5), Normal(), Normal())
        assert (copula_swap_z(model, 100_000, 7) > COPULA_SWAP_Z) == wrong

    def test_bound_is_bonferroni_over_the_inner_cells(self):
        # 2400 cells of the 50-point lattice have 0 < C < 1; the bound has
        # two-sided size 1e-3 over them.
        assert 2 * 2400 * stats.norm.sf(COPULA_SWAP_Z) == pytest.approx(1e-3, rel=1e-12)


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
