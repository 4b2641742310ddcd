"""Order statistics and record values: closed forms, simulation, reports."""

import hashlib
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate as sci_integrate
from scipy import stats

import cexpect.ordered
from cexpect import cli
from cexpect.condexp import RegressionFunction
from cexpect.errors import DomainError, NumericalError, SampleSizeError
from cexpect.marginals import Exponential, MaxOfIid, Normal, Uniform
from cexpect.ordered import (
    MARKOV_LEVELS,
    MARKOV_Z,
    TAG_ORDER,
    TAG_RECORDS,
    binned_regression,
    case_regressions,
    markov_property_check,
    max_regression,
    mse_order_inequality,
    order_stat_matrix,
    order_stats,
    record_predictor_mse,
    record_regression,
    record_tables,
    simulate_records,
)
from cexpect.quadrature import integrate
from cexpect.rng import CHUNK_SIZE, EVAL_BLOCK, chunk_stream, philox_stream


def _cond_pdf_max(m, z, x, lag):
    """Density of X_{n:n} at z given X_{n-lag:n} = x: the max of `lag` iid
    draws from F truncated above x, lag ((F(z) - F(x)) / sf(x))^(lag-1)
    f(z) / sf(x) on z >= x.  A z-space oracle for max_regression, which
    integrates in quantile space."""
    sf_x = float(m.sf(x))
    if sf_x <= 0.0:
        raise DomainError(f"conditioning point x={x} has F(x)=1; conditional law undefined")
    z = np.asarray(z, dtype=float)
    ratio = np.clip((sf_x - m.sf(z)) / sf_x, 0.0, 1.0)
    return np.where(z >= x, lag * ratio ** (lag - 1) * m.pdf(z) / sf_x, 0.0)


def cond_pdf_max_given_next(m, z, x):
    """f(z) / (1 - F(x)) on z >= x.  The support is closed on the left: at
    z = x the density takes its right limit, so it has no jump there."""
    return _cond_pdf_max(m, z, x, 1)


def cond_pdf_max_given_second(m, z, x):
    """2 (F(z) - F(x)) f(z) / (1 - F(x))^2 on z >= x (0 at z = x)."""
    return _cond_pdf_max(m, z, x, 2)


def extract_records(sequence):
    """(values, 1-based times) of the upper records of a nonempty sequence;
    the first element is a record by convention."""
    seq = np.asarray(sequence, dtype=float)
    if seq.size == 0:
        raise ValueError("record extraction needs a nonempty sequence")
    before = np.concatenate([[-np.inf], np.maximum.accumulate(seq)[:-1]])
    times = np.flatnonzero(seq > before) + 1
    return seq[times - 1], times


class TestConditionalDensities:
    def test_uniform_lag1_paper_value(self):
        # f(z) / (1 - F(x)) with f = 1, F(0) = 0.
        assert float(cond_pdf_max_given_next(Uniform(), 0.5, 0.0)) == pytest.approx(1.0)

    def test_exponential_lag1_value(self):
        # e^-2 / e^-1 = e^-1.
        got = float(cond_pdf_max_given_next(Exponential(1.0), 2.0, 1.0))
        assert got == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_zero_below_conditioning_point(self):
        assert float(cond_pdf_max_given_next(Uniform(), 0.2, 0.5)) == 0.0
        assert float(cond_pdf_max_given_second(Uniform(), 0.2, 0.5)) == 0.0

    def test_value_at_conditioning_point(self):
        # The support is z >= x: at z = x the lag-1 density is its right
        # limit f(x) / sf(x), not 0; the lag-2 density is 0 there.
        got = float(cond_pdf_max_given_next(Exponential(1.0), 1.0, 1.0))
        assert got == pytest.approx(1.0, abs=1e-12)
        assert float(cond_pdf_max_given_next(Uniform(), 0.5, 0.5)) == pytest.approx(2.0)
        assert float(cond_pdf_max_given_second(Exponential(1.0), 1.0, 1.0)) == 0.0
        assert float(cond_pdf_max_given_second(Uniform(), 0.5, 0.5)) == 0.0

    def test_uniform_lag2_paper_values(self):
        # 2 (F(z)-F(x)) f(z) / (1-F(x))^2: at (x=0, z=0.5) -> 1; at
        # (x=0.5, z=0.75) -> 2*0.25/0.25 = 2.
        assert float(cond_pdf_max_given_second(Uniform(), 0.5, 0.0)) == pytest.approx(1.0)
        assert float(cond_pdf_max_given_second(Uniform(), 0.75, 0.5)) == pytest.approx(2.0)

    def test_saturated_conditioning_point_rejected(self):
        with pytest.raises(DomainError):
            cond_pdf_max_given_next(Uniform(), 1.5, 1.0)

    @pytest.mark.parametrize("m", [Uniform(), Exponential(1.0), Normal()], ids=str)
    @pytest.mark.parametrize("lag_pdf", [cond_pdf_max_given_next, cond_pdf_max_given_second])
    def test_unit_mass_over_random_conditioning_points(self, m, lag_pdf):
        rng = philox_stream(71, 0)
        lo, hi = m.truncated_support()
        for p in 0.01 + rng.random(100) * 0.9:
            x = float(m.quantile(p))
            mass = integrate(lambda z: lag_pdf(m, z, x), x, hi)
            assert mass == pytest.approx(1.0, abs=1e-8)


class TestClosedFormPredictors:
    # The paper's g1(x) = E(X_{n:n} | X_{n-1:n} = x) and g2(x) =
    # E(X_{n:n} | X_{n-2:n} = x) are max_regression(m, n, n - 1) and
    # max_regression(m, n, n - 2); they do not depend on n.

    def test_uniform_paper_values(self):
        g1, g2 = max_regression(Uniform(), 5, 4), max_regression(Uniform(), 5, 3)
        assert float(g1(0.5)) == pytest.approx(0.75, abs=1e-9)
        assert float(g2(0.5)) == pytest.approx(0.8333333333, abs=1e-9)
        # g2 - g1 = (1-x)/6.
        assert float(g2(0.4) - g1(0.4)) == pytest.approx(0.1, abs=1e-12)

    def test_exponential_paper_and_derived_values(self):
        g1, g2 = max_regression(Exponential(1.0), 5, 4), max_regression(Exponential(1.0), 5, 3)
        assert float(g1(2.0)) == pytest.approx(3.0, abs=1e-9)
        # Derived oracle g2(x) = x + 3/2, cross-checked by z-space quadrature.
        oracle, _ = sci_integrate.quad(
            lambda z: z * 2 * (math.exp(-2.0) - math.exp(-z)) * math.exp(-z) / math.exp(-4.0),
            2.0,
            60.0,
            epsabs=1e-12,
        )
        assert oracle == pytest.approx(3.5, abs=1e-9)
        assert float(g2(2.0)) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("m", [Uniform(), Exponential(1.0)], ids=str)
    def test_quadrature_matches_closed_forms_50_points(self, m):
        # (x + lag) / (lag + 1) for Uniform(0, 1), x + H_lag for Exp(1).
        closed = {
            Uniform: lambda x, lag: (x + lag) / (lag + 1.0),
            Exponential: lambda x, lag: x + (1.0 if lag == 1 else 1.5),
        }[type(m)]
        g = {lag: max_regression(m, 5, 5 - lag) for lag in (1, 2)}
        for p in np.linspace(0.02, 0.98, 50):
            x = float(m.quantile(p))
            for lag in (1, 2):
                assert float(g[lag](x)) == pytest.approx(closed(x, lag), abs=1e-7)

    @pytest.mark.parametrize("m", [Uniform(), Exponential(1.0)], ids=str)
    def test_g2_strictly_above_g1(self, m):
        x = m.quantile(np.linspace(0.02, 0.98, 50))
        assert np.all(max_regression(m, 5, 3)(x) > max_regression(m, 5, 4)(x))

    def test_normal_requires_quadrature(self):
        # No closed form for the normal family.  At x = 0, g1 is the inverse
        # Mills ratio phi(0) / (1 - Phi(0)) = sqrt(2/pi), and g2 is the mean of
        # the max of two half-normal draws, 2/sqrt(pi).
        g1, g2 = max_regression(Normal(), 5, 4), max_regression(Normal(), 5, 3)
        assert float(g1(0.0)) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-8)
        assert float(g2(0.0)) == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-8)

    def test_normal_upper_tail_is_inverse_mills_ratio(self):
        # g1(x) = phi(x) / (1 - Phi(x)) deep in the tail, where cdf-space
        # integration loses its digits.
        g1 = max_regression(Normal(), 5, 4)
        for x in (4.0, 5.0, 5.5, 6.0):
            mills = stats.norm.pdf(x) / stats.norm.sf(x)
            assert float(g1(x)) == pytest.approx(mills, abs=1e-7)

    @pytest.mark.parametrize("lag", [1, 2])
    def test_normal_matches_density_quadrature(self, lag):
        # At the tabulation nodes, so the PCHIP step between them (up to
        # about 5e-7 where the nodes are sparsest) does not enter.
        g = max_regression(Normal(), 5, 5 - lag)
        for x, value in zip(g.grid[32::64], g.values[32::64]):
            oracle, _ = sci_integrate.quad(
                lambda z: z * _cond_pdf_max(Normal(), z, x, lag), x, np.inf, epsabs=1e-12
            )
            assert value == pytest.approx(oracle, abs=1e-8)

    def test_interior_precondition(self):
        # The conditioning statistic X_{j:n} lies strictly below the maximum.
        for j in (0, 5):
            with pytest.raises(DomainError):
                max_regression(Uniform(), 5, j)

    def test_max_regression_matches_closed_form(self):
        reg = max_regression(Exponential(1.0), 5, 4)
        for x in (0.5, 1.0, 2.0):
            assert float(reg(x)) == pytest.approx(x + 1.0, abs=1e-7)
        reg2 = max_regression(Uniform(), 5, 3)
        for x in (0.2, 0.5, 0.8):
            assert float(reg2(x)) == pytest.approx((x + 2.0) / 3.0, abs=1e-7)


def _tables(m, n, *indices):
    """{j: max_regression(m, n, j)} for each j of `indices`."""
    return {j: max_regression(m, n, j) for j in indices}


def _markov(m, matrix, seed):
    """markov_property_check on the j = n - 1 table the order-stats reader
    builds."""
    n = matrix.shape[1]
    return markov_property_check(m, matrix, seed, max_regression(m, n, n - 1))


class TestOrderStatSimulation:
    def test_rows_sorted(self):
        mat = order_stat_matrix(Uniform(), 5, 10_000, 72)
        assert np.all(np.diff(mat, axis=1) >= 0)

    def test_window_conditional_mean_matches_g1(self):
        mat = order_stat_matrix(Uniform(), 5, 400_000, 73)
        window = np.abs(mat[:, 3] - 0.5) <= 0.01
        assert np.count_nonzero(window) > 1000
        g1 = max_regression(Uniform(), 5, 4)
        assert float(mat[window, 4].mean()) == pytest.approx(float(g1(0.5)), abs=0.01)

    def test_markov_property_uniform(self):
        matrix = order_stat_matrix(Uniform(), 5, 300_000, 74)
        report, details = _markov(Uniform(), matrix, 74)
        assert report.satisfied
        assert report.lhs_estimate == max(map(abs, details["z"]))
        assert report.rhs_estimate == MARKOV_Z
        assert details["levels"] == MARKOV_LEVELS.tolist() and len(details["cuts"]) == 19

    def test_markov_property_smallest_case(self):
        matrix = order_stat_matrix(Uniform(), 3, 200_000, 75)
        report, _ = _markov(Uniform(), matrix, 75)
        assert report.satisfied

    def test_markov_critical_value_is_bonferroni_at_size_1e3(self):
        # Two-sided, over the 19 levels.
        assert MARKOV_Z == pytest.approx(stats.norm.isf(1e-3 / 38), abs=1e-9)
        assert MARKOV_Z == pytest.approx(4.0436, abs=1e-4)

    @pytest.mark.parametrize(
        "m, n",
        [(Uniform(), 3), (Exponential(1.0), 5), (Normal(), 6)],
        ids=["uniform", "exp", "normal"],
    )
    def test_markov_null_passes(self, m, n):
        for seed in (201, 202, 203):
            report, _ = _markov(m, order_stat_matrix(m, n, 100_000, seed), seed)
            assert report.satisfied, (seed, report.lhs_estimate)

    def test_markov_shifted_table_fails(self):
        # A regression table 0.01 too high biases every residual by -0.01,
        # about a tenth of its sd, so the top level, with 95% of the rows,
        # reads z of about -0.01 sqrt(95000) / 0.11 = -28.
        m = Uniform()
        matrix = order_stat_matrix(m, 5, 100_000, 204)
        table = max_regression(m, 5, 4)
        shifted = RegressionFunction(table.grid, table.values + 0.01)
        report, _ = markov_property_check(m, matrix, 204, shifted)
        assert not report.satisfied
        assert report.lhs_estimate > 5.0 * MARKOV_Z

    @pytest.mark.parametrize(
        "m, n", [(Uniform(), 3), (Exponential(2.0), 5), (Normal(1.0, 2.0), 6)], ids=str
    )
    def test_markov_cuts_are_quantiles_of_the_third_highest(self, m, n):
        # P(X_{n-2:n} <= c_q) = q, so the count below each cut is
        # Binomial(rows, q).
        rows = 50_000
        matrix = order_stat_matrix(m, n, rows, 205)
        _, details = _markov(m, matrix, 205)
        below = np.array([np.count_nonzero(matrix[:, n - 3] <= c) for c in details["cuts"]])
        q = MARKOV_LEVELS
        z = (below - rows * q) / np.sqrt(rows * q * (1.0 - q))
        assert np.max(np.abs(z)) <= 4.0

    def test_markov_needs_three(self):
        with pytest.raises(DomainError):
            _markov(Uniform(), order_stat_matrix(Uniform(), 2, 10_000, 77), 77)


class TestMseOrderInequality:
    def test_uniform_case_satisfied(self):
        matrix = order_stat_matrix(Uniform(), 5, 100_000, 78)
        r = mse_order_inequality(Uniform(), 3, 4, matrix, 78, _tables(Uniform(), 5, 3, 4))
        assert r.satisfied
        assert r.margin_sigmas >= 3

    def test_exponential_case_satisfied(self):
        matrix = order_stat_matrix(Exponential(1.0), 5, 100_000, 79)
        r = mse_order_inequality(Exponential(1.0), 3, 4, matrix, 79, _tables(Exponential(1.0), 5, 3, 4))
        assert r.satisfied
        assert r.margin_sigmas >= 3

    def test_k_equals_l_exact_equality(self):
        matrix = order_stat_matrix(Uniform(), 5, 100_000, 80)
        r = mse_order_inequality(Uniform(), 3, 3, matrix, 80, _tables(Uniform(), 5, 3))
        assert r.lhs_estimate == r.rhs_estimate
        assert r.margin_sigmas == 0.0

    def test_bounds_validated(self):
        matrix = order_stat_matrix(Uniform(), 5, 10_000, 81)
        with pytest.raises(DomainError):
            mse_order_inequality(Uniform(), 4, 3, matrix, 81, _tables(Uniform(), 5, 3, 4))
        with pytest.raises(DomainError):
            mse_order_inequality(Uniform(), 1, 5, matrix, 82, _tables(Uniform(), 5, 1))


class TestOrderStats:
    def test_each_case_draws_its_matrix_once(self, monkeypatch):
        # One chunked pass per case, which keeps no matrix; its reports are
        # those of the helpers on the case's order_stat_matrix, bit for bit.
        # Two chunks, the last one ragged, so that the merge order counts.
        rows = CHUNK_SIZE + 5000
        passes = []
        run_chunked = cexpect.ordered.run_chunked

        def spy(worker, n_total, seed, tag, pool=None):
            passes.append((n_total, seed, tag))
            return run_chunked(worker, n_total, seed, tag, pool=pool)

        def forbidden(*args, **kwargs):
            raise AssertionError("order_stat_matrix called")

        monkeypatch.setattr(cexpect.ordered, "run_chunked", spy)
        monkeypatch.setattr(cexpect.ordered, "order_stat_matrix", forbidden)
        uniform, exponential = Uniform(), Exponential(1.0)
        cases = [(uniform, 5, 3, 4, True), (exponential, 4, 2, 2, False)]
        tables = [_tables(m, n, *case_regressions(n, k, l, markov)) for m, n, k, l, markov in cases]
        result = order_stats(cases, tables, rows, 83)
        assert passes == [(rows, 83, TAG_ORDER)] * 2
        monkeypatch.undo()

        uniform_matrix = order_stat_matrix(uniform, 5, rows, 83)
        exponential_matrix = order_stat_matrix(exponential, 4, rows, 83)
        markov_report, markov_details = _markov(uniform, uniform_matrix, 83)
        assert result.reports == [
            mse_order_inequality(uniform, 3, 4, uniform_matrix, 83, tables[0]),
            markov_report,
            mse_order_inequality(exponential, 2, 2, exponential_matrix, 83, tables[1]),
        ]
        assert result.details == {"markov/uniform#0": markov_details}


class TestRecordExtraction:
    # extract_records is the oracle of test_matches_records_of_raw_sequences.

    def test_spec_example(self):
        values, times = extract_records([0.3, 0.1, 0.7, 0.5, 0.9])
        np.testing.assert_allclose(values, [0.3, 0.7, 0.9])
        np.testing.assert_array_equal(times, [1, 3, 5])

    def test_strictly_increasing_all_records(self):
        values, times = extract_records([1.0, 2.0, 3.0, 4.0])
        assert values.size == 4
        np.testing.assert_array_equal(times, [1, 2, 3, 4])

    def test_first_element_dominates(self):
        values, times = extract_records([5.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(values, [5.0])
        np.testing.assert_array_equal(times, [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            extract_records([])

    def test_roundtrip_property(self):
        rng = philox_stream(83, 0)
        seq = rng.random(500)
        values, times = extract_records(seq)
        assert np.all(np.diff(values) > 0)
        for v, t in zip(values, times):
            assert v > max(seq[: t - 1], default=-np.inf)
            assert seq[t - 1] == v
        non_record_times = set(range(1, 501)) - set(times.tolist())
        for t in list(non_record_times)[:50]:
            assert seq[t - 1] <= max(seq[: t - 1])


def _reference_record_hazards(depth, n, seed, cap):
    """The kept hazards of n record sequences, drawn with whole-block numpy
    calls: chunk c of CHUNK_SIZE sequences from chunk_stream(seed,
    TAG_RECORDS, c), in blocks of EVAL_BLOCK, each block its (b, depth)
    hazard increments and then its (b, depth - 1) waits."""
    kept = []
    for c, start in enumerate(range(0, n, CHUNK_SIZE)):
        rng = chunk_stream(seed, TAG_RECORDS, c)
        size = min(CHUNK_SIZE, n - start)
        for head in range(0, size, EVAL_BLOCK):
            b = min(EVAL_BLOCK, size - head)
            hazards = np.cumsum(rng.standard_exponential((b, depth)), axis=1)
            # A record of hazard h is beaten by a draw with probability e^-h.
            success = np.exp(-hazards[:, :-1])
            waits = np.ceil(rng.standard_exponential((b, depth - 1)) / -np.log1p(-success))
            times = 1.0 + np.maximum(waits, 1.0).sum(axis=1)
            kept.append(hazards[times <= cap][:, [depth - 1, depth - 2, depth - 3]])
    return np.concatenate(kept)


class TestRecordSimulation:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_blocked_chunks_match_a_numpy_reference(self, workers):
        # Three chunks, the last ragged, each drawn in blocks, the last of
        # each chunk ragged too.
        n = 2 * CHUNK_SIZE + 12_345
        if workers == 1:
            batch = simulate_records(Exponential(1.0), 5, n, 41, cap=40)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                batch = simulate_records(Exponential(1.0), 5, n, 41, cap=40, pool=pool)
        expect = _reference_record_hazards(5, n, 41, 40)
        assert 0 < batch.n_discarded < n
        assert batch.n_discarded == n - expect.shape[0]
        np.testing.assert_array_equal(batch.hazards, expect)

    def test_one_block_batch_keeps_its_recorded_bytes(self):
        # A batch of at most EVAL_BLOCK sequences is the first block of
        # chunk 0: its hazard increments, then its waits.
        batch = simulate_records(Exponential(1.0), 5, 8192, 2024, cap=100)
        assert batch.n_discarded == 3163
        digest = hashlib.sha256(batch.hazards.tobytes()).hexdigest()
        assert digest == "b5b098db51065d35e8a42664ebb2ff803663652214c4481f0ffe324373e749da"

    def test_a_chunk_holds_one_block_of_draws_at_a_time(self):
        # Depth 128 over one whole chunk, every sequence kept: a block's
        # two draws are 16 MiB, and it holds no more: its rates replace its
        # hazards and its waits are made in place.  Beside them are the
        # chunk's one array of kept hazards and the batch's.  A chunk drawn
        # whole would need 64 MiB for each draw.
        depth, n = 128, CHUNK_SIZE
        simulate_records(Exponential(1.0), depth, 100, 1)
        tracemalloc.start()
        try:
            batch = simulate_records(Exponential(1.0), depth, n, 1, cap=10**300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.n_discarded == 0
        block_draws = EVAL_BLOCK * (2 * depth - 1) * 8
        assert peak <= block_draws + 2 * batch.hazards.nbytes + 2**20, peak

    def test_depth4_exponential_matches_gamma(self):
        # X_U(n) for Exp(1) is a sum of n iid exponentials (memorylessness).
        batch = simulate_records(Exponential(1.0), 4, 50_000, 84)
        kept = batch.values
        assert batch.n_discarded < 50
        assert float(kept[:, 0].mean()) == pytest.approx(4.0, abs=0.05)
        assert float(kept[:, 1].mean()) == pytest.approx(3.0, abs=0.05)

    def test_records_strictly_increasing(self):
        batch = simulate_records(Uniform(), 3, 20_000, 85)
        assert np.all(batch.values[:, 0] > batch.values[:, 1])
        assert np.all(batch.values[:, 1] > batch.values[:, 2])

    def test_batch_keeps_the_hazards_and_reads_the_values_from_them(self):
        m = Normal()
        batch = simulate_records(m, 4, 20_000, 85)
        assert batch.hazards.shape == (20_000 - batch.n_discarded, 3)
        assert np.all(np.diff(batch.hazards, axis=1) < 0.0)
        values = batch.values
        assert values.shape == batch.hazards.shape
        assert np.all(np.diff(values, axis=1) <= 0.0)
        np.testing.assert_allclose(-np.log(m.sf(values)), batch.hazards, rtol=1e-9)

    def test_gap_ks_test_memorylessness(self):
        batch = simulate_records(Exponential(1.0), 4, 100_000, 86)
        gaps = batch.values[:, 0] - batch.values[:, 1]
        assert stats.kstest(gaps, "expon").pvalue >= 0.01

    def test_discards_counted_with_tiny_cap(self):
        batch = simulate_records(Exponential(1.0), 4, 5000, 87, cap=50)
        assert batch.n_discarded > 0
        assert batch.values.shape[0] + batch.n_discarded == 5000

    def test_deterministic_across_pools(self):
        from concurrent.futures import ThreadPoolExecutor

        serial = simulate_records(Exponential(1.0), 3, 30_000, 88)
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = simulate_records(Exponential(1.0), 3, 30_000, 88, pool=pool)
        np.testing.assert_array_equal(serial.values, parallel.values)
        assert serial.n_discarded == parallel.n_discarded

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_discard_count_follows_exact_law(self, seed):
        # Fewer than 3 records in the first c draws means the first draw is
        # the maximum (1/c) or exactly one later draw j is a record
        # (H_{c-1}/c in total): P(T_3 > c) = (1 + H_{c-1}) / c.
        n, cap = 200_000, 50
        p = (1.0 + sum(1.0 / i for i in range(1, cap))) / cap
        batch = simulate_records(Exponential(1.0), 3, n, seed, cap=cap)
        z = (batch.n_discarded - n * p) / math.sqrt(n * p * (1.0 - p))
        assert abs(z) <= 4.0

    def test_record_time_counts_the_first_draw(self):
        # T_3 >= 3, and T_3 = 3 only when the first three draws increase.
        n = 60_000
        assert simulate_records(Exponential(1.0), 3, n, 4, cap=2).n_discarded == n
        kept = n - simulate_records(Exponential(1.0), 3, n, 4, cap=3).n_discarded
        p = 1.0 / 6.0
        assert abs(kept - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p))

    def test_far_tail_reached_without_drawing_sequences(self):
        # Depth 30 needs about e^29 draws per sequence; the chain draws 59.
        # Records above 36.7 = -log(1e-16) show that no uniform draw near 1
        # is rounded or clipped on the way.
        n = 2000
        batch = simulate_records(Exponential(1.0), 30, n, 5, cap=10**300)
        assert batch.n_discarded == 0
        top = batch.values[:, 0]
        # X_U(30) of Exp(1) is Gamma(30, 1): mean 30, sd sqrt(30).
        assert abs(float(top.mean()) - 30.0) <= 4.0 * math.sqrt(30.0 / n)
        assert float(top.max()) > 36.7

    def test_cap_beyond_float_range_is_no_cap(self):
        batch = simulate_records(Exponential(1.0), 3, 1000, 6, cap=10**400)
        assert batch.n_discarded == 0 and batch.cap == 10**400

    def test_matches_records_of_raw_sequences(self):
        # Independent oracle: scan L raw iid draws per sequence for its
        # first three records; the chain with cap = L must give the same
        # kept laws and the same discard rate.
        n, length = 20_000, 100
        raw = philox_stream(96, 0).standard_exponential((n, length))
        scanned = []
        for row in raw:
            values, _ = extract_records(row)
            if values.size >= 3:
                scanned.append(values[2::-1])
        scanned = np.array(scanned)
        batch = simulate_records(Exponential(1.0), 3, n, 97, cap=length)
        for col in range(3):
            assert stats.ks_2samp(scanned[:, col], batch.values[:, col]).pvalue >= 1e-3
        discards = np.array([n - scanned.shape[0], batch.n_discarded], dtype=float)
        p = discards.mean() / n
        assert abs(discards[0] - discards[1]) <= 4.0 * math.sqrt(2.0 * n * p * (1.0 - p))


def _record_mse(m, n, lag, n_samples, seed, **kwargs):
    return record_predictor_mse(m, n, lag, record_tables(m, n, lag), n_samples, seed, **kwargs)


class TestRecordPredictorMse:
    def test_lag1_regression_matches_memorylessness(self):
        # For Exp(1) records E(X_U(4) | X_U(3) = x) = x + 1, and the gap G
        # to the next record is Exp(1) whatever x is, so the lag-1 squared
        # error (G - 1)^2 has mean Var G = 1 and variance E(G - 1)^4 - 1 = 8.
        # The lag-2 error is a Gamma(2, 1) gap less its mean 2: its square
        # has mean 2 and variance 24 - 4 = 20.
        res = _record_mse(Exponential(1.0), 4, 2, 100_000, 89)
        report = res.reports[0]
        n = report.n_samples
        assert abs(report.lhs_estimate - 1.0) <= 4.0 * math.sqrt(8.0 / n)
        assert abs(report.rhs_estimate - 2.0) <= 4.0 * math.sqrt(20.0 / n)

    def test_lag1_vs_lag2_satisfied(self):
        res = _record_mse(Exponential(1.0), 4, 2, 100_000, 90)
        assert res.reports[0].satisfied
        assert res.reports[0].margin_sigmas >= 3
        assert res.details["n_discarded"] >= 0

    def test_depth3_lag2_conditions_on_first_record(self):
        res = _record_mse(Exponential(1.0), 3, 2, 50_000, 91)
        assert res.reports[0].satisfied

    def test_lag1_degenerates_to_equality(self):
        res = _record_mse(Exponential(1.0), 4, 1, 20_000, 92)
        assert res.reports[0].lhs_estimate == res.reports[0].rhs_estimate
        assert res.reports[0].margin_sigmas == 0.0

    def test_too_few_records_raises(self):
        with pytest.raises(SampleSizeError):
            _record_mse(Exponential(1.0), 4, 2, 2000, 93, cap=10)

    def test_lag_validated(self):
        tables = record_tables(Exponential(1.0), 4, 2)
        with pytest.raises(DomainError):
            record_predictor_mse(Exponential(1.0), 4, 3, tables, 10_000, 94)

    def test_deep_uniform_records_end_in_a_finite_verdict(self):
        # Depth-40 uniform records round to the upper end, so their values
        # repeat; the tables read hazards, which do not.
        res = _record_mse(Uniform(), 40, 2, 2000, 95, cap=10**300)
        report = res.reports[0]
        assert res.details["n_kept"] == 2000
        values = (report.lhs_estimate, report.rhs_estimate, report.paired_diff_se)
        assert all(math.isfinite(v) for v in values + (report.margin_sigmas,))

    def test_table_build_failure_names_the_marginal(self, monkeypatch):
        def diverging(f, a, b):
            raise NumericalError("no convergence", point=(0, 0.0, 1.0))

        monkeypatch.setattr(cexpect.ordered, "tabulate", diverging)
        diagnostics = cli.validate_config(cli.default_suite()["records"])
        assert [d.field for d in diagnostics] == ["marginal"]


class TestRecordRegression:
    # E(R_{k+L} | H(R_k) = h) on a grid of hazards h = -log sf(R_k).

    @pytest.mark.parametrize("rate", [1.0, 2.5])
    @pytest.mark.parametrize("k, lag", [(1, 2), (3, 1), (2, 2), (29, 1)])
    def test_exponential_closed_form(self, rate, k, lag):
        # R_k = h / rate, and the hazard climbs by a Gamma(lag, 1) step: x + L / rate.
        m = Exponential(rate)
        table = record_regression(m, k, lag)
        lo, hi = table.domain
        h = np.linspace(lo, hi, 101)
        np.testing.assert_allclose(table(h), (h + lag) / rate, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("m", [Uniform(), Uniform(-1.0, 2.0)], ids=str)
    @pytest.mark.parametrize("k, lag", [(1, 2), (3, 1), (2, 2)])
    def test_uniform_closed_form(self, m, k, lag):
        # sf(R_{k+L}) = sf(R_k) e^-G with E e^-G = 2^-L: b - (b - x) 2^-L.
        # At the nodes, so the PCHIP step between them does not enter.
        table = record_regression(m, k, lag)
        x = m._isf(np.exp(-table.grid))
        closed = m.upper - (m.upper - x) * 2.0**-lag
        np.testing.assert_allclose(table.values, closed, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("k, lag", [(3, 1), (2, 2)])
    def test_normal_matches_density_quadrature(self, k, lag):
        # Given R_k = x, R_{k+L} has density f(z) (H(z) - H(x))^(L-1) /
        # ((L-1)! sf(x)) on z > x, with H = -log sf.
        table = record_regression(Normal(), k, lag)
        for h, value in zip(table.grid[32::56], table.values[32::56]):
            x = float(stats.norm.isf(math.exp(-h)))

            def density(z):
                return stats.norm.pdf(z) * (-stats.norm.logsf(z) - h) ** (lag - 1) / math.exp(-h)

            oracle, _ = sci_integrate.quad(lambda z: z * density(z), x, np.inf, epsabs=1e-12)
            assert value == pytest.approx(oracle, abs=1e-8), h

    @pytest.mark.parametrize(
        "m",
        [MaxOfIid(Normal(), 3), MaxOfIid(Exponential(1.0), 50), MaxOfIid(Uniform(-1.0, 2.0), 50)],
        ids=str,
    )
    def test_max_of_iid_converges(self, m):
        for table in record_tables(m, 4, 2):
            assert np.all(np.isfinite(table.values))
            assert np.all(np.diff(table.values) >= 0.0)
        cfg = {**cli.default_suite()["records"], "marginal": m.to_config()}
        assert cli.validate_config(cfg) == []

    def test_lag1_tables_are_shared(self):
        one, lag = record_tables(Normal(), 4, 1)
        assert one is lag

    def test_deep_exponential_records_are_not_clamped(self):
        # A depth-30 Exp(1) record needs about e^29 draws, and the records
        # before it lie above the marginal's truncated support, which ends
        # at 27.63: the hazard table still predicts x + 1 there.
        m = Exponential(1.0)
        batch = simulate_records(m, 30, 2000, 5, cap=10**300)
        x = batch.values[:, 1]
        above = x > m.truncated_support()[1]
        assert np.count_nonzero(above) >= 100
        table = record_regression(m, 29, 1)
        np.testing.assert_allclose(table(batch.hazards[above, 1]), x[above] + 1.0, atol=1e-9)


def test_records_and_order_stats_never_fit_bins(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("binned_regression called")

    monkeypatch.setattr(cexpect.ordered, "binned_regression", forbidden)
    cases = [
        {"marginal": {"family": "normal", "mean": 0.0, "sd": 1.0}, "n": 4, "k": 1, "l": 3,
         "markov_check": True},
        {"marginal": {"family": "uniform", "lower": 0.0, "upper": 1.0}, "n": 3, "k": 1, "l": 1,
         "markov_check": True},
    ]
    suite = cli.default_suite()
    for cfg in (
        suite["records"],
        {**suite["records"], "lag": 1},
        suite["order-stats"],
        {**suite["order-stats"], "cases": cases},
    ):
        assert cli.run_experiment({**cfg, "n_samples": 20_000}).all_satisfied


class TestBinnedRegression:
    def test_linear_relation_recovered(self):
        rng = philox_stream(95, 0)
        cond = rng.random(50_000) * 4.0
        target = 2.0 * cond + rng.standard_normal(50_000) * 0.1
        pred, diag = binned_regression(cond, target)
        assert np.corrcoef(pred, target)[0, 1] > 0.99
        centers = np.array(diag["bin_mean_cond"])
        means = np.array(diag["bin_mean_target"])
        assert np.max(np.abs(means - 2.0 * centers)) <= 0.05
