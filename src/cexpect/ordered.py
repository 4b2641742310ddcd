"""Order-statistic and record-value machinery.

Conditional laws of the sample maximum given a lower order statistic, their
closed-form means for the uniform and exponential families, Markov-property
checks on binned simulations, record extraction, capped record-sequence
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

from .condexp import RegressionFunction, chebyshev_nodes
from .errors import DomainError, SampleSizeError
from .marginals import Exponential, Marginal, Uniform
from .quadrature import integrate, tabulate
from .reports import ExperimentResult, inequality_report, threshold_report
from .rng import run_chunked, simulate_chunked

TAG_ORDER = 3
TAG_RECORDS = 4

RECORD_CAP_DEFAULT = 10**6
REGRESSION_BINS = 40
REGRESSION_INTERIOR = (0.05, 0.95)


def cond_pdf_max_given_next(m: Marginal, z, x):
    """Density of X_{n:n} at z given X_{n-1:n} = x:  f(z) / (1 - F(x)), z >= x.

    The support is closed on the left: at z = x the density takes its right
    limit f(x) / (1 - F(x)), so it has no jump at its own endpoint.
    """
    return _cond_pdf_max(m, z, x, lag=1)


def cond_pdf_max_given_second(m: Marginal, z, x):
    """Density of X_{n:n} at z given X_{n-2:n} = x:
    2 (F(z) - F(x)) f(z) / (1 - F(x))^2, z >= x (0 at z = x).
    """
    return _cond_pdf_max(m, z, x, lag=2)


def _cond_pdf_max(m: Marginal, z, x, lag):
    # Support z >= x, closed on the left like Exponential.pdf; a strict z > x
    # would put a jump at the lower limit of cond_mean_max's integral (lag 1).
    sf_x = float(m.sf(x))
    if sf_x <= 0.0:
        raise DomainError(f"conditioning point x={x} has F(x)=1; conditional law undefined")
    z = np.asarray(z, dtype=float)
    sf_z = np.asarray(m.sf(z), dtype=float)
    ratio = np.clip((sf_x - sf_z) / sf_x, 0.0, 1.0)
    dens = lag * ratio ** (lag - 1) * np.asarray(m.pdf(z), dtype=float) / sf_x
    return np.where(z >= x, dens, 0.0)


def _check_interior(m: Marginal, x):
    lo, hi = m.support()
    if not (lo < x < hi):
        raise DomainError(f"x={x} must lie strictly inside the support ({lo}, {hi})")


def cond_mean_max(m: Marginal, x, lag, method="auto"):
    """E(X_{n:n} | X_{n-lag:n} = x): the mean of the max of `lag` iid draws
    from F truncated above x.

    Closed forms for the uniform ((x + lag*b)/(lag+1)) and exponential
    (x + H_lag / rate) families; z-space quadrature of z * cond_pdf over
    z >= x for everything else or when method="quadrature".  At z = x the
    lag-1 density takes its right limit f(x)/sf(x), so the integrand is
    continuous on the closed interval [x, hi].
    """
    _check_interior(m, x)
    if method not in ("auto", "closed", "quadrature"):
        raise DomainError(f"unknown method {method!r}")
    if method != "quadrature":
        if isinstance(m, Uniform):
            return (x + lag * m.upper) / (lag + 1.0)
        if isinstance(m, Exponential):
            harmonic = sum(1.0 / i for i in range(1, lag + 1))
            return x + harmonic / m.rate
        if method == "closed":
            raise DomainError(f"no closed form for {type(m).__name__}")
    lo, hi = m.truncated_support()
    num = integrate(lambda z: z * _cond_pdf_max(m, z, x, lag), x, hi)
    den = integrate(lambda z: _cond_pdf_max(m, z, x, lag), x, hi)
    return float(num / den)


def g1(m: Marginal, x, method="auto"):
    """E(X_{n:n} | X_{n-1:n} = x)."""
    return cond_mean_max(m, x, lag=1, method=method)


def g2(m: Marginal, x, method="auto"):
    """E(X_{n:n} | X_{n-2:n} = x)."""
    return cond_mean_max(m, x, lag=2, method=method)


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
    for i in np.flatnonzero(sf <= 0.0):
        values[i] = values[i - 1]
    return RegressionFunction(grid, values)


def order_stat_matrix(m: Marginal, n, n_samples, seed, pool=None):
    """(n_samples, n) matrix of sorted iid rows; deterministic given seed."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")

    def worker(rng, count):
        x = m.sample(rng, count * n).reshape(count, n)
        x.sort(axis=1)
        return (x,)

    return simulate_chunked(worker, n_samples, seed, TAG_ORDER, pool=pool)[0]


def window_conditional_mean(matrix, j, x0, halfwidth):
    """Mean of the row max over rows with X_{j:n} in [x0 - h, x0 + h].

    Returns (mean, count).  `matrix` comes from order_stat_matrix; j is the
    1-based order-statistic index to condition on.
    """
    n = matrix.shape[1]
    if not 1 <= j <= n:
        raise DomainError(f"order statistic index {j} out of range 1..{n}")
    cond = matrix[:, j - 1]
    mask = np.abs(cond - x0) <= halfwidth
    count = int(np.count_nonzero(mask))
    if count == 0:
        raise SampleSizeError(f"no rows with X_{{{j}:{n}}} within {halfwidth} of {x0}")
    return float(np.mean(matrix[mask, n - 1])), count


def check_markov_order(n):
    """The Markov check conditions on two order statistics below the maximum."""
    if n < 3:
        raise DomainError(f"markov check needs n >= 3, got {n}", "n")


def markov_property_check(
    m: Marginal,
    n,
    n_samples,
    seed,
    primary_bins=20,
    sub_bins=3,
    min_count=200,
    pool=None,
    name=None,
):
    """Markov check for order statistics: given X_{n-1:n}, the conditional
    mean of X_{n:n} must not depend on X_{n-2:n}.

    Rows are binned by X_{n-1:n} (equal-count bins); inside each bin the
    within-bin linear trend in X_{n-1:n} is removed (it exactly absorbs the
    confounding between the bin's residual spread and X_{n-2:n}), then the
    detrended residuals are split by X_{n-2:n} sub-bins and each sub-bin mean
    is tested against 0.  satisfied <=> max |z| <= 4.
    """
    check_markov_order(n)
    matrix = order_stat_matrix(m, n, n_samples, seed, pool=pool)
    t = matrix[:, n - 1]
    w = matrix[:, n - 2]
    v = matrix[:, n - 3]

    widened = False
    rows_per = n_samples // (primary_bins * sub_bins)
    if rows_per < min_count:
        primary_bins = max(4, n_samples // (min_count * sub_bins))
        widened = True

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
    base = name or f"order-stats/markov(n={n})"
    report = threshold_report(base, max_abs_z, 4.0, n_samples, seed)
    details = {
        "max_abs_z": max_abs_z,
        "primary_bins": int(primary_bins),
        "sub_bins": int(sub_bins),
        "bins_widened": widened,
        "bin_conditional_means": bin_rows,
    }
    return ExperimentResult(experiment=base, reports=[report], details=details)


def check_order_indices(n, k, l):
    """The domain of `mse_order_inequality`: 1 <= k <= l <= n - 1."""
    if not (1 <= k <= l <= n - 1):
        raise DomainError(f"need 1 <= k <= l <= n-1, got k={k}, l={l}, n={n}")


def mse_order_inequality(m: Marginal, n, k, l, n_samples, seed, pool=None, name=None):
    """Eq. between order statistics: conditioning on a higher order statistic
    predicts the maximum at least as well.  lhs conditions on X_{l:n}, rhs on
    X_{k:n}, k <= l; k = l degenerates to exact equality.
    """
    check_order_indices(n, k, l)
    reg_k = max_regression(m, n, k)
    reg_l = reg_k if l == k else max_regression(m, n, l)
    matrix = order_stat_matrix(m, n, n_samples, seed, pool=pool)
    target = matrix[:, n - 1]
    lhs_sq = (target - reg_l(matrix[:, l - 1])) ** 2
    rhs_sq = (target - reg_k(matrix[:, k - 1])) ** 2
    base = name or f"order-stats/mse(n={n},k={k},l={l})"
    return inequality_report(base, lhs_sq, rhs_sq, seed)


@dataclass(frozen=True)
class RecordSequence:
    """Upper record values and their 1-based record times."""

    values: np.ndarray
    times: np.ndarray


def extract_records(sequence):
    """Upper records of a sequence; the first element is a record by convention."""
    seq = np.asarray(sequence, dtype=float)
    if seq.ndim != 1 or seq.size == 0:
        raise DomainError("record extraction needs a nonempty 1-D sequence")
    running = np.maximum.accumulate(seq)
    before = np.empty_like(seq)
    before[0] = -np.inf
    before[1:] = running[:-1]
    idx = np.flatnonzero(seq > before)
    return RecordSequence(values=seq[idx], times=idx + 1)


def cumulative_hazard(m: Marginal, x):
    """R(x) = -log(1 - F(x)); requires 0 < F(x) < 1."""
    f = float(m.cdf(x))
    if not (0.0 < f < 1.0):
        raise DomainError(f"cumulative hazard needs 0 < F(x) < 1; F({x}) = {f}")
    return float(-np.log(m.sf(x)))


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


def binned_regression(cond, target, n_bins=REGRESSION_BINS, interior=REGRESSION_INTERIOR):
    """Equal-count binned regression of target on cond.

    Bin edges are cond quantiles across the interior band (default 5th-95th
    percentile, 40 bins); rows outside the band fall into the edge bins.
    Returns (per-row predictions, diagnostics dict).
    """
    cond = np.asarray(cond, dtype=float)
    target = np.asarray(target, dtype=float)
    edges = np.quantile(cond, np.linspace(interior[0], interior[1], n_bins + 1))
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


def record_gap_pvalue(batch: RecordBatch, rate=1.0):
    """KS p-value of the lag-1 record gaps against Exponential(rate)."""
    # Imported here: scipy.stats costs about a third of `import cexpect`.
    from scipy import stats

    gaps = batch.values[:, 0] - batch.values[:, 1]
    return float(stats.kstest(gaps, lambda x: 1.0 - np.exp(-rate * x)).pvalue)


@dataclass
class RecordMseResult:
    report: object
    details: dict


def check_record_mse(n, lag, cap):
    """The domain of `record_predictor_mse`: depth n >= 3, lag 1 or 2, and a
    cap of at least n draws, the earliest a depth-n record can come."""
    if n < 3:
        raise DomainError(f"record depth must be >= 3, got {n}", "n")
    if lag not in (1, 2):
        raise DomainError(f"lag must be 1 or 2, got {lag}", "lag")
    if cap < n:
        raise DomainError(f"cap must be >= the record depth {n}, got {cap}", "cap")


def record_predictor_mse(
    m: Marginal,
    n,
    lag,
    n_samples,
    seed,
    cap=RECORD_CAP_DEFAULT,
    pool=None,
    name=None,
):
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
    base = name or f"records/depth={n},lag={lag}"
    report = inequality_report(base, lhs_sq, rhs_sq, seed)
    details = {
        "n_kept": int(kept),
        "n_discarded": int(batch.n_discarded),
        "cap": int(batch.cap),
        "lag1_bins": diag_1,
        f"lag{lag}_bins": diag_lag,
    }
    return RecordMseResult(report=report, details=details)
