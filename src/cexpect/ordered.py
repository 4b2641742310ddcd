"""Order-statistic and record-value machinery.

The regression of the sample maximum on a lower order statistic, the
Markov check of order statistics, capped record-sequence simulation (by the
exact Markov chain of the records), the exact record regressions, and the
MSE-ordering reports.

Given X_{j:n} = x the top n-j values are iid draws from F truncated above x,
so X_{n:n} | X_{j:n}=x is the max of m = n-j such draws with density

    m * ((F(z) - F(x)) / sf(x))^(m-1) * f(z) / sf(x),   z >= x.

Regression tabulation integrates the equivalent quantile-space form
E = int_0^1 isf(sf(x) * (1 - w^(1/m))) dw, which stays accurate arbitrarily
far into the right tail where cdf arithmetic saturates.

Upper records are a Markov chain in the cumulative hazard H = -log sf:
H(R_{k+1}) - H(R_k) ~ Exp(1), independent of the past (Arnold, Balakrishnan
& Nagaraja, *Records*, 1998).  Given H(R_k) = h, H(R_{k+L}) = h + G with
G ~ Gamma(L, 1), and u = e^-G has density (-log u)^(L-1) / (L-1)! on (0, 1),
so

    E(R_{k+L} | R_k) = int_0^1 isf(e^-h u) (-log u)^(L-1) / (L-1)! du.

Record tables are tabulated over h, not over the marginal's truncated
support: deep records lie beyond it, and in the right tail distinct
hazards can round to one value.

The Markov check tests the residual X_{n:n} - E(X_{n:n} | X_{n-1:n})
against indicators of X_{n-2:n} at its known quantiles, the marked
empirical process of Stute (1997, Ann. Statist. 25).
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, gammainccinv, gammaincinv, ndtri

from .condexp import RegressionFunction, chebyshev_nodes, fill_massless
from .errors import DomainError, NumericalError, SampleSizeError
from .marginals import TAIL_EPS, Marginal
# Unused here, but perfbench's test_tracer_reports_missing_names_and_restores_bindings
# rebinds ordered.integrate; the binding goes when that test is retargeted.
from .quadrature import integrate  # noqa: F401
from .quadrature import tabulate
from .reports import (
    ExperimentResult,
    blocked_paired_moments,
    check_unique_names,
    inequality_report,
    paired_moments,
    threshold_report,
)
from .rng import check_row_width, run_chunked, simulate_chunked

TAG_ORDER = 3
TAG_RECORDS = 4

RECORD_CAP_DEFAULT = 10**6
REGRESSION_BINS = 40
REGRESSION_INTERIOR = (0.05, 0.95)
# The Markov check's indicator levels q, and its critical value: a
# Bonferroni bound on max_q |z_q| at size 1e-3.
MARKOV_LEVELS = np.arange(1, 20) / 20
MARKOV_Z = float(-ndtri(1e-3 / (2 * MARKOV_LEVELS.size)))


def max_regression(m: Marginal, n, j):
    """Tabulated x -> E(X_{n:n} | X_{j:n} = x) over the truncated support.

    Uses the quantile-space integral (see module docstring), which keeps the
    tabulation accurate at tail nodes where 1 - F(x) underflows cdf space.
    """
    if not 1 <= j <= n - 1:
        raise DomainError(f"need 1 <= j <= n-1, got j={j}, n={n}")
    mm = n - j
    lo, hi = m.truncated_support()
    grid = chebyshev_nodes(lo, hi)
    sf = np.asarray(m.sf(grid), dtype=float)
    open_rows = np.flatnonzero(sf > 0.0)

    def mean_of_max(rows, w):
        shrink = -np.expm1(np.log(w) / mm)
        return m._isf(sf[open_rows[rows], None] * shrink)

    values = np.empty_like(grid)
    values[open_rows] = tabulate(mean_of_max, np.zeros(open_rows.size), 1.0 - 1e-13)
    # A node with sf(x) = 0 copies the previous node's value.
    return RegressionFunction(grid, fill_massless(values, sf > 0.0))


def order_stat_matrix(m: Marginal, n, n_samples, seed, pool=None):
    """(n_samples, n) matrix of sorted iid rows; deterministic given seed."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")

    def worker(rng, count):
        x = m.sample(rng, count * n).reshape(count, n)
        x.sort(axis=1)
        return (x,)

    return simulate_chunked(worker, n_samples, seed, TAG_ORDER, pool=pool)[0]


def check_markov_order(n):
    """The Markov check conditions on two order statistics below the maximum."""
    if n < 3:
        raise DomainError(f"markov check needs n >= 3, got {n}", "n")


def markov_property_check(m: Marginal, matrix, seed, table=None):
    """Markov check for order statistics on `matrix`, an (n_samples, n)
    `order_stat_matrix` of marginal `m` drawn from `seed`: given X_{n-1:n},
    the conditional mean of X_{n:n} must not depend on X_{n-2:n}.

    The residual e = X_{n:n} - g(X_{n-1:n}), with g = `table` or
    max_regression(m, n, n - 1), has E(e h(X_{n-2:n})) = 0 for every
    bounded h exactly when the property holds and g is the regression.  It
    is tested on h_q = 1{X_{n-2:n} <= c_q}, with c_q the known q-quantile
    of X_{n-2:n}, F^-1 of the Beta(n - 2, 3) quantile, for each q in
    MARKOV_LEVELS: z_q = sum(e h_q) / sqrt(sum(e^2 h_q)).  The report's lhs
    is max_q |z_q| and its rhs MARKOV_Z, which it must not exceed.  Returns
    (report, details); the details hold each level's cut and z.
    """
    n_samples, n = matrix.shape
    check_markov_order(n)
    if table is None:
        table = max_regression(m, n, n - 1)
    residual = matrix[:, n - 1] - table(matrix[:, n - 2])
    cuts = m.quantile(betaincinv(n - 2, 3, MARKOV_LEVELS))
    # Row i is below the cuts from index ids[i] on.
    ids = np.searchsorted(cuts, matrix[:, n - 3])
    bins = MARKOV_LEVELS.size + 1
    sums = np.cumsum(np.bincount(ids, weights=residual, minlength=bins))[:-1]
    squares = np.cumsum(np.bincount(ids, weights=residual * residual, minlength=bins))[:-1]
    z = np.divide(sums, np.sqrt(squares), out=np.zeros_like(sums), where=squares > 0.0)
    max_abs_z = float(np.max(np.abs(z)))
    report = threshold_report(_markov_name(m, n), max_abs_z, MARKOV_Z, n_samples, seed)
    details = {"levels": MARKOV_LEVELS.tolist(), "cuts": cuts.tolist(), "z": z.tolist()}
    return report, details


def check_order_indices(n, k, l):
    """The domain of `mse_order_inequality`: 1 <= k <= l <= n - 1."""
    check_row_width(n, "n")
    if not (1 <= k <= l <= n - 1):
        raise DomainError(f"need 1 <= k <= l <= n-1, got k={k}, l={l}, n={n}")


def mse_order_inequality(m: Marginal, k, l, matrix, seed, tables=None):
    """Eq. between order statistics, on `matrix`, an (n_samples, n)
    `order_stat_matrix` of marginal `m` drawn from `seed`: conditioning on a
    higher order statistic predicts the maximum at least as well.  lhs
    conditions on X_{l:n}, rhs on X_{k:n}, k <= l; k = l degenerates to
    exact equality.  `tables` maps j to max_regression(m, n, j) for j = k
    and l; they are built here when not given.
    """
    n = matrix.shape[1]
    check_order_indices(n, k, l)
    if tables is None:
        tables = _max_regressions(m, n, (k, l))
    target = matrix[:, n - 1]
    lhs_sq = (target - tables[l](matrix[:, l - 1])) ** 2
    rhs_sq = (target - tables[k](matrix[:, k - 1])) ** 2
    return inequality_report(_order_name(m, n, k, l), paired_moments(lhs_sq, rhs_sq), seed)


def _max_regressions(m: Marginal, n, indices):
    """{j: max_regression(m, n, j)} for each distinct j in `indices`."""
    return {j: max_regression(m, n, j) for j in sorted(set(indices))}


def _family(m: Marginal):
    return m.to_config()["family"]


def _order_name(m: Marginal, n, k, l):
    return f"order-stats/{_family(m)}(n={n},k={k},l={l})"


def _markov_name(m: Marginal, n):
    return f"order-stats/markov/{_family(m)}(n={n})"


def check_order_cases(cases):
    """No two order-stats cases (marginal, n, k, l, markov_check) make a
    report of the same name: the inequality report is named by the
    marginal's family and (n, k, l), the Markov report by family and n."""
    names = []
    for pos, (m, n, k, l, markov_check) in enumerate(cases):
        names.append((pos, _order_name(m, n, k, l)))
        if markov_check:
            names.append((pos, _markov_name(m, n)))
    check_unique_names(names, "cases")


def order_stats(cases, n_samples, seed, pool=None):
    """The order-stats experiment over `cases`, each (marginal, n, k, l,
    markov_check).  Each case draws one `order_stat_matrix` from `seed`, on
    which it makes its `mse_order_inequality` report and, where markov_check
    is set, its `markov_property_check` report, whose details are keyed
    "markov/{family}#i" by the case's position i.  A case tabulates each
    max_regression it reads once: the Markov check reads the j = n - 1
    table, which the inequality may read too.
    """
    check_order_cases(cases)
    reports = []
    details = {}
    for pos, (m, n, k, l, markov_check) in enumerate(cases):
        matrix = order_stat_matrix(m, n, n_samples, seed, pool=pool)
        tables = _max_regressions(m, n, (k, l, n - 1) if markov_check else (k, l))
        reports.append(mse_order_inequality(m, k, l, matrix, seed, tables))
        if markov_check:
            report, markov_details = markov_property_check(m, matrix, seed, tables[n - 1])
            reports.append(report)
            details[f"markov/{_family(m)}#{pos}"] = markov_details
    return ExperimentResult("order-stats", reports, details)


@dataclass
class RecordBatch:
    """Records at depths (n, n-1, n-2) for sequences reaching depth n.

    hazards[:, 0] is the cumulative hazard -log sf of the depth-n record,
    hazards[:, 1] of the previous one, hazards[:, 2] of the one before that;
    `values` are the records themselves, isf(exp(-hazards)), computed on
    each read.  Sequences that did not reach depth n within `cap` draws are
    discarded and counted.
    """

    marginal: Marginal
    hazards: np.ndarray
    depth: int
    n_sequences: int
    n_discarded: int
    cap: int

    @property
    def values(self):
        return self.marginal._isf(np.exp(-self.hazards))


def simulate_records(m: Marginal, depth, n_sequences, seed, cap=RECORD_CAP_DEFAULT, pool=None):
    """Simulate iid sequences until record depth `depth` (or the draw cap).

    Upper records form a Markov chain, so no sequence is drawn element by
    element.  The cumulative hazards R_k = -log sf(X_U(k)) are partial sums
    of Exp(1) draws, and the number of draws from record k-1 to record k is
    Geometric(exp(-R_{k-1})), taken by inversion of a second Exp(1) draw.
    A sequence is kept when its depth-`depth` record time 1 + sum(waits) is
    at most `cap`; the batch keeps the hazards R of its last three records,
    whose values isf(exp(-R)) are exact far into the right tail.  A wait whose
    success probability underflows to 0 is infinite, so its sequence is
    discarded.  Everything is chunked and deterministic per (seed, chunk),
    independent of worker count.
    """
    if depth < 3:
        raise DomainError(f"record depth must be >= 3, got {depth}", "depth")
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}", "cap")
    # Record times are float64, so a cap beyond its range means no cap.
    limit = float(min(cap, sys.float_info.max))

    def worker(rng, count):
        hazards = np.cumsum(rng.standard_exponential((count, depth)), axis=1)
        rates = -np.log1p(-np.exp(-hazards[:, :-1]))
        with np.errstate(all="ignore"):
            waits = np.ceil(rng.standard_exponential((count, depth - 1)) / rates)
        kept = 1.0 + np.maximum(waits, 1.0).sum(axis=1) <= limit
        return hazards[kept, :-4:-1]  # depths n, n-1, n-2

    parts = run_chunked(worker, n_sequences, seed, TAG_RECORDS, chunk_size=8192, pool=pool)
    hazards = np.concatenate(parts, axis=0)
    return RecordBatch(
        marginal=m,
        hazards=hazards,
        depth=int(depth),
        n_sequences=int(n_sequences),
        n_discarded=int(n_sequences - hazards.shape[0]),
        cap=int(cap),
    )


def record_regression(m: Marginal, k, lag):
    """Tabulated h -> E(R_{k+lag} | H(R_k) = h), the mean of the record
    `lag` steps above the k-th given the k-th's cumulative hazard h.

    Integrates the module docstring's u-space form on GRID_NODES Chebyshev
    nodes over the [TAIL_EPS, 1 - TAIL_EPS] quantiles of H(R_k), which is
    Gamma(k, 1); evaluations clamp to that range.
    """
    grid = chebyshev_nodes(float(gammaincinv(k, TAIL_EPS)), float(gammainccinv(k, TAIL_EPS)))
    sf = np.exp(-grid)
    norm = float(math.factorial(lag - 1))

    def mean_of_record(rows, u):
        values = m._isf(sf[rows, None] * u)
        return values if lag == 1 else values * ((-np.log(u)) ** (lag - 1) / norm)

    return RegressionFunction(grid, tabulate(mean_of_record, np.zeros(grid.size), 1.0))


def record_tables(m: Marginal, n, lag):
    """The two tables `record_predictor_mse` reads at depth n, each on the
    conditioning record's hazard: E(R_n | R_{n-1}) and E(R_n | R_{n-lag}),
    one table when lag is 1.  Raises NumericalError at `m` when a table
    does not converge."""
    try:
        lag_1 = record_regression(m, n - 1, 1)
        return lag_1, lag_1 if lag == 1 else record_regression(m, n - lag, lag)
    except NumericalError as exc:
        raise NumericalError(f"record tables: {exc}", exc.point, "m") from exc


def binned_regression(cond, target):
    """Equal-count binned regression of target on cond.  No operation calls
    it; it stays an entry point of the benchmark's tracer.

    Bin edges are cond quantiles across the interior band (5th-95th
    percentile, 40 bins); rows outside the band fall into the edge bins.
    Returns (per-row predictions, diagnostics dict).
    """
    cond = np.asarray(cond, dtype=float)
    target = np.asarray(target, dtype=float)
    n_bins = REGRESSION_BINS
    edges = np.quantile(cond, np.linspace(*REGRESSION_INTERIOR, n_bins + 1))
    ids = np.clip(np.searchsorted(edges[1:-1], cond, side="right"), 0, n_bins - 1)
    counts = np.bincount(ids, minlength=n_bins).astype(float)
    if np.any(counts == 0):
        raise SampleSizeError("empty regression bin; raise n_samples")
    sum_t = np.bincount(ids, weights=target, minlength=n_bins)
    sum_c = np.bincount(ids, weights=cond, minlength=n_bins)
    mean_t = sum_t / counts
    mean_c = sum_c / counts
    diagnostics = {
        "bin_mean_cond": mean_c.tolist(),
        "bin_mean_target": mean_t.tolist(),
        "bin_count": counts.astype(int).tolist(),
    }
    return mean_t[ids], diagnostics


def check_record_mse(n, lag, cap):
    """The domain of `record_predictor_mse`: depth n >= 3, lag 1 or 2, and a
    cap of at least n draws, the earliest a depth-n record can come."""
    if n < 3:
        raise DomainError(f"record depth must be >= 3, got {n}", "n")
    check_row_width(n, "n")
    if lag not in (1, 2):
        raise DomainError(f"lag must be 1 or 2, got {lag}", "lag")
    if cap < n:
        raise DomainError(f"cap must be >= the record depth {n}, got {cap}", "cap")


def record_predictor_mse(
    m: Marginal, n, lag, tables, n_samples, seed, cap=RECORD_CAP_DEFAULT, pool=None
):
    """Paired record-prediction MSE report: conditioning on the previous
    record (lag 1) vs conditioning `lag` records back.

    lag=2 is the record-value MSE inequality; lag=1 degenerates to exact
    equality.  `tables` is record_tables(m, n, lag): the exact regressions
    of the record chain, evaluated at the kept sequences' hazards.

    The inequality holds exactly on the kept sequences, whatever the cap.
    A sequence is kept by its record time, which the waits set, and the
    wait to each record k depends only on R_{k-1}; so the discards use only
    R_1..R_{n-1}, and the last hazard increment stays Exp(1), independent of
    them.  On the kept sequences the lag-1 table is therefore still
    E(R_n | R_{n-1}, R_{n-2}), the best predictor from both, and the lag-2
    table is some function of R_{n-2}, which predicts no better.
    """
    check_record_mse(n, lag, cap)
    batch = simulate_records(m, n, n_samples, seed, cap=cap, pool=pool)
    kept = batch.hazards.shape[0]
    if kept < 1000:
        raise SampleSizeError(
            f"only {kept} sequences reached record depth {n} (cap {cap}); raise n_samples"
        )
    table_1, table_lag = tables
    hazards = batch.hazards

    def squared_errors(rows):
        # Made a block of rows at a time, so that the tables' temporaries
        # stay small beside the hazards.
        target = m._isf(np.exp(-hazards[rows, 0]))
        lhs_sq = (target - table_1(hazards[rows, 1])) ** 2
        return lhs_sq, lhs_sq if lag == 1 else (target - table_lag(hazards[rows, lag])) ** 2

    report = inequality_report("records", blocked_paired_moments(kept, squared_errors), seed)
    # n_kept is the report's n_samples; perfbench's count oracle reads it
    # beside n_discarded, which the manifest also reads.
    details = {
        "n_kept": int(kept),
        "n_discarded": int(batch.n_discarded),
        "cap": int(batch.cap),
    }
    return ExperimentResult("records", [report], details)
