"""The report type, the verdict statistics, and JSON/CSV emission.

Every verdict is one PairedReport, written as one row of the CSV schema
(name, lhs, rhs, se, n, seed, satisfied, margin_sigmas) and as one JSON
object with the same fields, in report files of schema version 2.

Per-row values become a verdict statistic here only: an MSE inequality of
two predictors reads `paired_moments` of their squared errors, an
indicator check of a residual reads `indicator_z` of its `indicator_sums`,
and a largest |z| is checked against `max_z_bound` of its cell count.

Serialization is byte-deterministic: floats use Python repr (shortest
round-trip), JSON keys are sorted, and CSV uses LF endings.

A report reads its means and standard error from Moments: the count, the
means and the centred co-moment matrix of its per-row variables.  Each
chunk worker returns the Moments of its rows, and the calling thread merges
them left to right in ascending chunk order with the pairwise update of
Chan, Golub & LeVeque (1983, Amer. Statist. 37), so report bytes depend on
the chunking, never on the number of workers.  Against whole-column
np.mean and np.std(ddof=1) a report moves only in its last bits (within
1e-10 relative).  Two cases are exact: a difference column that is
identically 0 has co-moment 0, so its report has se 0 and margin 0, and a
constant column keeps its exact mean.
"""

import csv
import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import DomainError
from .rng import CHUNK_SIZE, row_slices

SCHEMA_VERSION = 2
CSV_HEADER = ["name", "lhs", "rhs", "se", "n", "seed", "satisfied", "margin_sigmas"]

# One-sided slack for inequality verdicts: lhs <= rhs + 3 * paired SE.
INEQUALITY_SLACK_SIGMAS = 3.0
# Two-sided tolerance for equality checks: |lhs - rhs| <= 4 * paired SE.
EQUALITY_SLACK_SIGMAS = 4.0


# Most cells, rows times kept columns, that an operation's sample may hold:
# 1 GiB of float64.  An operation whose chunk workers return statistics
# keeps no column (width 0) and may draw MAX_SAMPLE_CELLS rows.  theorem1
# on one five-copy model draws 8-10M rows a second with two workers on 2
# vCPUs, so it takes 13-17 s for them.  Only records keep their sample, the
# hazards of the last three records of each kept sequence.
MAX_SAMPLE_CELLS = 2**27


def check_sample_size(n_samples, width=0):
    """A paired report and its standard error need at least 1000 draws, and
    n_samples times max(width, 1) may be at most MAX_SAMPLE_CELLS, where
    `width` is the columns an operation keeps per row (0 for one that keeps
    none); checked before any allocation."""
    if n_samples < 1000:
        raise DomainError(f"reports need n_samples >= 1000, got {n_samples}", "n_samples")
    limit = MAX_SAMPLE_CELLS // max(width, 1)
    if n_samples > limit:
        raise DomainError(f"n_samples must be <= {limit}, got {n_samples}", "n_samples")


def check_unique_names(named, field):
    """Report names are unique within an experiment: `named` is the
    (position, name) of each report, in order, and the first name made
    again raises DomainError at `field`[position]."""
    first = {}
    for pos, name in named:
        if name in first:
            message = f"repeats the report {name!r} of {field}[{first[name]}]"
            raise DomainError(message, f"{field}[{pos}]")
        first[name] = pos


@dataclass(frozen=True)
class PairedReport:
    """Paired Monte Carlo estimates of two quantities and a satisfied verdict.

    paired_diff_se is the standard error of the per-draw difference under
    common random numbers (exactly 0 when both sides are the same
    computation, so degenerate cases report margin exactly 0).  The builder
    sets the verdict: `inequality_report` is lhs <= rhs + 3 * se,
    `equality_check` is |lhs - rhs| <= 4 * se, and `threshold_report` is
    lhs <= rhs at se 0; margin_sigmas is (rhs - lhs) / se, or 0 at se 0.
    """

    name: str
    lhs_estimate: float
    rhs_estimate: float
    paired_diff_se: float
    n_samples: int
    seed: int
    satisfied: bool
    margin_sigmas: float

    def csv_row(self):
        return [
            self.name,
            repr(self.lhs_estimate),
            repr(self.rhs_estimate),
            repr(self.paired_diff_se),
            str(self.n_samples),
            str(self.seed),
            "true" if self.satisfied else "false",
            repr(self.margin_sigmas),
        ]

    def to_json_dict(self):
        return asdict(self)


def _paired_report(name, lhs, rhs, se, n_samples, seed, satisfied):
    """The PairedReport of a verdict its builder computed."""
    return PairedReport(
        name=name,
        lhs_estimate=float(lhs),
        rhs_estimate=float(rhs),
        paired_diff_se=float(se),
        n_samples=int(n_samples),
        seed=int(seed),
        satisfied=bool(satisfied),
        margin_sigmas=float((rhs - lhs) / se if se > 0.0 else 0.0),
    )


@dataclass(frozen=True)
class Moments:
    """Statistics of k per-row variables over n rows: their means and the
    centred co-moment matrix m2[i, j] = sum over the rows of
    (w_i - mean_i) (w_j - mean_j).

    `of` takes one chunk's rows, `merge` combines two disjoint samples.  A
    column that is constant (identically 0 included) has mean exactly its
    value and co-moments exactly 0, in `of` and through every merge.
    """

    n: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def of(cls, rows):
        """The Moments of k 1-D columns of one length, one per variable:
        of_block of a new (k, n) float64 copy of them."""
        return cls.of_block(np.array(rows, dtype=np.float64))

    @classmethod
    def of_block(cls, block):
        """The Moments of the k rows of a (k, n) float64 block, one per
        variable, which a chunk worker filled for this call: the block is
        centred in place, so its values are lost.

        Each row is shifted by its first value before it is summed, so a
        constant row sums to exactly 0.  Each co-moment is the pairwise
        np.add.reduce of an elementwise product of two centred rows, with
        no BLAS call, which a chunk worker avoids (see rng.py).  On 2 vCPUs,
        with three variables a report, the sampling workload's martingale
        took about 105 ms this way and about 170 ms with the co-moments as
        BLAS products in column blocks.
        """
        k, n = block.shape
        shift = block[:, 0].copy()
        for row, value in zip(block, shift):
            row -= value
        offset = np.add.reduce(block, axis=1) / n
        for row, value in zip(block, offset):
            row -= value
        m2 = np.empty((k, k))
        product = np.empty(n)
        for i in range(k):
            for j in range(i, k):
                np.multiply(block[i], block[j], out=product)
                m2[i, j] = m2[j, i] = np.add.reduce(product)
        return cls(n, shift + offset, m2)

    def merge(self, other):
        """The Moments of both samples' rows, by the pairwise update of Chan,
        Golub & LeVeque (1983)."""
        n = self.n + other.n
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.n / n)
        m2 = self.m2 + other.m2 + np.multiply.outer(delta, delta) * (self.n * other.n / n)
        return Moments(n, mean, m2)

    def se(self, weights):
        """Standard error of the mean of the per-row combination
        weights . w: sqrt(weights' m2 weights / (n - 1)) / sqrt(n)."""
        return _standard_error(float(weights @ self.m2 @ weights), self.n)


def _standard_error(m2, n):
    """np.std(ddof=1) / sqrt(n) of a column whose centred sum of squares
    is m2; a rounding below 0 counts as 0."""
    return math.sqrt(max(m2, 0.0) / (n - 1)) / math.sqrt(n)


def _combine(total, part):
    if isinstance(total, Moments):
        return total.merge(part)
    if isinstance(total, (list, tuple)):
        return type(total)(map(_combine, total, part))
    return total + part


def merged(parts):
    """Per-chunk results folded left to right, in the order given (the
    ascending chunk order of rng.run_chunked): Moments merge, integer
    counts add, and lists and tuples of them combine position by position."""
    total = None
    for part in parts:
        total = part if total is None else _combine(total, part)
    return total


def paired_moments(lhs, rhs):
    """The Moments of (lhs, lhs - rhs) over two paired per-row columns,
    which `inequality_report` reads: the mean of lhs, and the mean and
    variance of the difference, which set rhs and the verdict.  Columns
    longer than a chunk reduce in CHUNK_SIZE blocks, merged in order, as the
    chunk workers' rows do, with no full-length temporary."""

    def block(rows):
        pair = np.empty((2, rows.stop - rows.start))
        pair[0] = lhs[rows]
        np.subtract(lhs[rows], rhs[rows], out=pair[1])
        return Moments.of_block(pair)

    return merged(map(block, row_slices(lhs.size, CHUNK_SIZE)))


def inequality_report(name, stats, seed):
    """An inequality PairedReport from `stats`, the paired_moments of the
    per-draw squared errors: lhs is their mean, rhs that mean less the mean
    difference, so an identically 0 difference gives rhs == lhs exactly."""
    n = stats.n
    check_sample_size(n)
    lhs, diff = stats.mean
    rhs = lhs - diff
    se = _standard_error(stats.m2[1, 1], n)
    return _paired_report(name, lhs, rhs, se, n, seed, lhs <= rhs + INEQUALITY_SLACK_SIGMAS * se)


def equality_check(names, lhs, rhs, se, n, seed):
    """One equality PairedReport per name i, lhs[i] against rhs[i], with se[i]
    the standard error of the mean of their per-draw paired difference."""
    reports = []
    for name, left, right, s in zip(names, lhs, rhs, se, strict=True):
        gap = abs(left - right)
        satisfied = gap <= EQUALITY_SLACK_SIGMAS * s if s > 0.0 else gap == 0.0
        reports.append(_paired_report(name, left, right, s, n, seed, satisfied))
    return reports


def threshold_report(name, statistic, threshold, n_samples, seed):
    """A statistic checked against a hard threshold, with no Monte Carlo
    slack: lhs is the statistic, rhs the threshold, se and margin 0."""
    return _paired_report(name, statistic, threshold, 0.0, n_samples, seed, statistic <= threshold)


# Size of every max-|z| verdict: the chance that a true claim fails it.
MAX_Z_SIZE = 1e-3


def max_z_bound(cells):
    """The bound on the largest |z| over `cells` two-sided z scores at size
    MAX_Z_SIZE, by Bonferroni: -ndtri(MAX_Z_SIZE / (2 * cells))."""
    return float(-ndtri(MAX_Z_SIZE / (2 * cells)))


def indicator_sums(residual, values, cuts):
    """One chunk's part of the indicator check of a residual e: the per-bin
    sums of e and of e^2 (squared in place), where bin b holds the rows
    whose conditioning value lies below the ascending `cuts` from index b
    on.  The chunks' parts add by `merged`."""
    bins = np.searchsorted(cuts, values)
    sums = np.bincount(bins, weights=residual, minlength=cuts.size + 1)
    squares = np.bincount(bins, weights=np.square(residual, out=residual), minlength=cuts.size + 1)
    return sums, squares


def indicator_z(bin_sums):
    """The indicator check's z_q = sum(e h_q) / sqrt(sum(e^2 h_q)) from the
    merged `indicator_sums`, for h_q = 1{value <= cuts[q]}, or 0 where that
    sum of e^2 is 0: the marked empirical process of Stute (1997, Ann.
    Statist. 25) at the cuts.  E(e h(value)) = 0 for every bounded h exactly
    when E(e | value) = 0, so a large |z_q| refutes a predictor of which e
    is the residual as the conditional expectation."""
    sums, squares = (np.cumsum(b)[:-1] for b in bin_sums)
    return np.divide(sums, np.sqrt(squares), out=np.zeros_like(sums), where=squares > 0.0)


@dataclass
class ExperimentResult:
    """Everything one experiment run produced.

    `reports` drive the CSV and the satisfied verdict; `details` is
    experiment-specific JSON-able metadata (closed-form cross-checks,
    discard counters, diagnostics).  Every operation in `cli.EXPERIMENTS`
    returns its experiment's ExperimentResult and names its own reports; a
    report builder that such an operation calls, like `mse_order_inequality`
    or `markov_property_check`, returns its report (and its details, if it
    has any), never an ExperimentResult.
    """

    experiment: str
    reports: list
    details: dict = field(default_factory=dict)

    @property
    def all_satisfied(self):
        return all(r.satisfied for r in self.reports)

    def to_json_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "reports": [r.to_json_dict() for r in self.reports],
            "details": self.details,
        }


def render_json(obj):
    """Canonical JSON bytes: sorted keys, 2-space indent, trailing newline."""
    return (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


def render_csv(reports):
    """CSV bytes for a list of reports: fixed header, LF endings, UTF-8."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in reports:
        writer.writerow(r.csv_row())
    return buf.getvalue().encode()


def canonical_config_hash(cfg):
    """sha256 over a canonical serialization; stable under key reordering."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode()).hexdigest()
