"""Order-statistic and record-value machinery.

The regression of the sample maximum on a lower order statistic,
Markov-property checks on binned simulations, capped record-sequence
simulation (by the exact Markov chain of the records), and the MSE-ordering
reports.

Given X_{j:n} = x the top n-j values are iid draws from F truncated above x,
so X_{n:n} | X_{j:n}=x is the max of m = n-j such draws with density

    m * ((F(z) - F(x)) / sf(x))^(m-1) * f(z) / sf(x),   z >= x.

Regression tabulation integrates the equivalent quantile-space form
E = int_0^1 isf(sf(x) * (1 - w^(1/m))) dw, which stays accurate arbitrarily
far into the right tail where cdf arithmetic saturates.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .condexp import RegressionFunction, chebyshev_nodes, fill_massless
from .errors import DomainError, SampleSizeError
from .marginals import Marginal
# Unused here, but perfbench's test_tracer_reports_missing_names_and_restores_bindings
# rebinds ordered.integrate; the binding goes when that test is retargeted.
from .quadrature import integrate  # noqa: F401
from .quadrature import tabulate
from .reports import (
    ExperimentResult,
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
MARKOV_PRIMARY_BINS = 20
MARKOV_SUB_BINS = 3
MARKOV_MIN_COUNT = 200


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


def markov_property_check(m: Marginal, matrix, seed):
    """Markov check for order statistics on `matrix`, an (n_samples, n)
    `order_stat_matrix` of marginal `m` drawn from `seed`: given X_{n-1:n},
    the conditional mean of X_{n:n} must not depend on X_{n-2:n}.

    Rows are binned by X_{n-1:n} (20 equal-count bins, fewer when a sub-bin
    would average under 200 rows); inside each bin the within-bin linear
    trend in X_{n-1:n} is removed (it exactly absorbs the confounding between
    the bin's residual spread and X_{n-2:n}), then the detrended residuals
    are split into 3 X_{n-2:n} sub-bins and each sub-bin mean is tested
    against 0.  The report's lhs is max |z| and its rhs 4, the threshold it
    must not exceed.  Returns (report, details).
    """
    n_samples, n = matrix.shape
    check_markov_order(n)
    t = matrix[:, n - 1]
    w = matrix[:, n - 2]
    v = matrix[:, n - 3]

    primary_bins, sub_bins = MARKOV_PRIMARY_BINS, MARKOV_SUB_BINS
    widened = n_samples // (primary_bins * sub_bins) < MARKOV_MIN_COUNT
    if widened:
        primary_bins = max(4, n_samples // (MARKOV_MIN_COUNT * sub_bins))

    qs = np.quantile(w, np.linspace(0.0, 1.0, primary_bins + 1))
    bin_ids = np.clip(np.searchsorted(qs[1:-1], w, side="right"), 0, primary_bins - 1)

    zs = []
    bin_rows = []
    for b in range(primary_bins):
        sel = bin_ids == b
        wb = w[sel]
        tb = t[sel]
        vb = v[sel]
        if wb.size < sub_bins * 2:
            continue
        wc = wb - wb.mean()
        denom = float(np.sum(wc * wc))
        slope = float(np.sum(wc * (tb - tb.mean())) / denom) if denom > 0 else 0.0
        resid = tb - tb.mean() - slope * wc
        sub_edges = np.quantile(vb, np.linspace(0.0, 1.0, sub_bins + 1))
        sub_ids = np.clip(np.searchsorted(sub_edges[1:-1], vb, side="right"), 0, sub_bins - 1)
        for s in range(sub_bins):
            r = resid[sub_ids == s]
            if r.size < 2:
                continue
            se = float(np.std(r, ddof=1)) / math.sqrt(r.size)
            zs.append(float(np.mean(r)) / se if se > 0 else 0.0)
        bin_rows.append(
            {
                "bin_mean_cond": float(wb.mean()),
                "bin_mean_max": float(tb.mean()),
                "count": int(wb.size),
            }
        )

    max_abs_z = float(np.max(np.abs(zs))) if zs else 0.0
    report = threshold_report(_markov_name(m, n), max_abs_z, 4.0, n_samples, seed)
    details = {
        "primary_bins": int(primary_bins),
        "sub_bins": int(sub_bins),
        "bins_widened": widened,
        "bin_conditional_means": bin_rows,
    }
    return report, details


def check_order_indices(n, k, l):
    """The domain of `mse_order_inequality`: 1 <= k <= l <= n - 1."""
    check_row_width(n, "n")
    if not (1 <= k <= l <= n - 1):
        raise DomainError(f"need 1 <= k <= l <= n-1, got k={k}, l={l}, n={n}")


def mse_order_inequality(m: Marginal, k, l, matrix, seed):
    """Eq. between order statistics, on `matrix`, an (n_samples, n)
    `order_stat_matrix` of marginal `m` drawn from `seed`: conditioning on a
    higher order statistic predicts the maximum at least as well.  lhs
    conditions on X_{l:n}, rhs on X_{k:n}, k <= l; k = l degenerates to
    exact equality.
    """
    n = matrix.shape[1]
    check_order_indices(n, k, l)
    reg_k = max_regression(m, n, k)
    reg_l = reg_k if l == k else max_regression(m, n, l)
    target = matrix[:, n - 1]
    lhs_sq = (target - reg_l(matrix[:, l - 1])) ** 2
    rhs_sq = (target - reg_k(matrix[:, k - 1])) ** 2
    return inequality_report(_order_name(m, n, k, l), paired_moments(lhs_sq, rhs_sq), seed)


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
    "markov/{family}#i" by the case's position i.
    """
    check_order_cases(cases)
    reports = []
    details = {}
    for pos, (m, n, k, l, markov_check) in enumerate(cases):
        matrix = order_stat_matrix(m, n, n_samples, seed, pool=pool)
        reports.append(mse_order_inequality(m, k, l, matrix, seed))
        if markov_check:
            report, markov_details = markov_property_check(m, matrix, seed)
            reports.append(report)
            details[f"markov/{_family(m)}#{pos}"] = markov_details
    return ExperimentResult("order-stats", reports, details)


@dataclass
class RecordBatch:
    """Record values at depths (n, n-1, n-2) for sequences reaching depth n.

    values[:, 0] is the depth-n record, values[:, 1] the previous one,
    values[:, 2] the one before that.  Sequences that did not reach depth n
    within `cap` draws are discarded and counted.
    """

    values: np.ndarray
    depth: int
    n_sequences: int
    n_discarded: int
    cap: int


def simulate_records(m: Marginal, depth, n_sequences, seed, cap=RECORD_CAP_DEFAULT, pool=None):
    """Simulate iid sequences until record depth `depth` (or the draw cap).

    Upper records form a Markov chain, so no sequence is drawn element by
    element.  The cumulative hazards R_k = -log sf(X_U(k)) are partial sums
    of Exp(1) draws, and the number of draws from record k-1 to record k is
    Geometric(exp(-R_{k-1})), taken by inversion of a second Exp(1) draw.
    A sequence is kept when its depth-`depth` record time 1 + sum(waits) is
    at most `cap`; its last three records are isf(exp(-R)), exact far into
    the right tail.  A wait whose success probability underflows to 0 is
    infinite, so its sequence is discarded.  Everything is chunked and
    deterministic per (seed, chunk), independent of worker count.
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
    values = m._isf(np.exp(-np.concatenate(parts, axis=0)))
    return RecordBatch(
        values=values,
        depth=int(depth),
        n_sequences=int(n_sequences),
        n_discarded=int(n_sequences - values.shape[0]),
        cap=int(cap),
    )


def binned_regression(cond, target):
    """Equal-count binned regression of target on cond.

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


def record_predictor_mse(m: Marginal, n, lag, n_samples, seed, cap=RECORD_CAP_DEFAULT, pool=None):
    """Paired record-prediction MSE report: conditioning on the previous
    record (lag 1) vs conditioning `lag` records back.

    lag=2 is the record-value MSE inequality; lag=1 degenerates to exact
    equality.  Both predictors are estimated by equal-count binned
    regression over the simulated record pairs, so the comparison treats
    both lags identically; closed forms serve as oracles in tests only.
    """
    check_record_mse(n, lag, cap)
    batch = simulate_records(m, n, n_samples, seed, cap=cap, pool=pool)
    kept = batch.values.shape[0]
    if kept < 1000:
        raise SampleSizeError(
            f"only {kept} sequences reached record depth {n} (cap {cap}); raise n_samples"
        )
    target = batch.values[:, 0]
    cond_1 = batch.values[:, 1]
    cond_lag = batch.values[:, lag]
    pred_1, diag_1 = binned_regression(cond_1, target)
    if lag == 1:
        pred_lag, diag_lag = pred_1, diag_1
    else:
        pred_lag, diag_lag = binned_regression(cond_lag, target)
    lhs_sq = (target - pred_1) ** 2
    rhs_sq = (target - pred_lag) ** 2
    report = inequality_report("records", paired_moments(lhs_sq, rhs_sq), seed)
    # n_kept is the report's n_samples; perfbench's count oracle reads it
    # beside n_discarded, which the manifest also reads.
    details = {
        "n_kept": int(kept),
        "n_discarded": int(batch.n_discarded),
        "cap": int(batch.cap),
        "lag1_bins": diag_1,
        f"lag{lag}_bins": diag_lag,
    }
    return ExperimentResult("records", [report], details)
