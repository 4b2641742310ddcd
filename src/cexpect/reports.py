"""The report type and deterministic JSON/CSV emission.

Every verdict is one PairedReport, written as one row of the CSV schema
(name, lhs, rhs, se, n, seed, satisfied, margin_sigmas) and as one JSON
object with the same fields, in report files of schema version 2.
Serialization is byte-deterministic: floats use Python repr (shortest
round-trip), JSON keys are sorted, and CSV uses LF endings.

A report's means and standard error come from blocked sums with the bits
of np.mean and np.std(ddof=1).  numpy sums a contiguous column by pairwise
summation (Higham 1993, SIAM J. Sci. Comput. 14): a run of L > 128 values
is the sum of its first L//2 - (L//2) % 8 values plus the sum of the rest,
and a shorter run is summed in eight interleaved accumulators.  A run's sum
depends only on its values, so following that split down to runs of at most
SUM_LEAF values, summing each with np.add.reduce and adding the sums back up
the same tree gives numpy's sum, bit for bit.  Each leaf forms its rows of
lhs - rhs, centres and squares them in one cache-sized buffer, so no
full-length temporary is made.  A zero's sign can differ at a leaf (numpy
adds each reduction to +0.0), but only where every sum it enters is zero,
and the mean and variance take +0.0 there too.
"""

import csv
import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError

SCHEMA_VERSION = 2
CSV_HEADER = ["name", "lhs", "rhs", "se", "n", "seed", "satisfied", "margin_sigmas"]

# One-sided slack for inequality verdicts: lhs <= rhs + 3 * paired SE.
INEQUALITY_SLACK_SIGMAS = 3.0
# Two-sided tolerance for equality checks: |lhs - rhs| <= 4 * paired SE.
EQUALITY_SLACK_SIGMAS = 4.0


# Values a leaf of the blocked sums holds: 512 KiB of float64, in cache.
SUM_LEAF = 2**16

# Most cells, rows times kept columns, that an operation's sample may hold:
# 1 GiB of float64.
MAX_SAMPLE_CELLS = 2**27


def check_sample_size(n_samples, width=1):
    """A paired report and its standard error need at least 1000 draws, and
    an operation that keeps `width` columns of n_samples rows may keep at
    most MAX_SAMPLE_CELLS cells; checked before any allocation."""
    if n_samples < 1000:
        raise DomainError(f"reports need n_samples >= 1000, got {n_samples}", "n_samples")
    if n_samples * width > MAX_SAMPLE_CELLS:
        raise DomainError(
            f"n_samples times the {width} column(s) kept must be <= {MAX_SAMPLE_CELLS}, "
            f"got {n_samples}",
            "n_samples",
        )


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


def _pairwise_sum(leaf_sum, start, stop):
    """np.add.reduce of a column's values start..stop-1, bit for bit, from
    leaf_sum(a, b), the np.add.reduce of its values a..b-1, called on runs
    of at most SUM_LEAF values (see the module docstring)."""
    if stop - start <= SUM_LEAF:
        return float(leaf_sum(start, stop))
    half = (stop - start) // 2
    mid = start + half - half % 8
    return _pairwise_sum(leaf_sum, start, mid) + _pairwise_sum(leaf_sum, mid, stop)


def _mean(column):
    """np.mean of a 1-D float64 column, bit for bit."""
    n = column.size
    return _pairwise_sum(lambda start, stop: np.add.reduce(column[start:stop]), 0, n) / n


def _sd(rows, n):
    """np.std(d, ddof=1) of a column d of n values, bit for bit.
    rows(start, stop, out) gives d[start:stop], written into `out` or as a
    view; a leaf centres and squares it in `out`."""
    buf = np.empty(min(n, SUM_LEAF))

    def mean_sum(start, stop):
        return np.add.reduce(rows(start, stop, buf[: stop - start]))

    mean = _pairwise_sum(mean_sum, 0, n) / n

    def square_sum(start, stop):
        out = buf[: stop - start]
        centred = np.subtract(rows(start, stop, out), mean, out=out)
        return np.add.reduce(np.multiply(centred, centred, out=centred))

    return math.sqrt(_pairwise_sum(square_sum, 0, n) / (n - 1))


def inequality_report(name, lhs_sq, rhs_sq, seed):
    """Build an inequality PairedReport from paired per-draw squared errors."""
    lhs_sq = np.asarray(lhs_sq, dtype=float)
    rhs_sq = np.asarray(rhs_sq, dtype=float)
    n = lhs_sq.size
    check_sample_size(n)
    lhs = _mean(lhs_sq)
    rhs = _mean(rhs_sq)

    def diff(start, stop, out):
        return np.subtract(lhs_sq[start:stop], rhs_sq[start:stop], out=out)

    se = _sd(diff, n) / math.sqrt(n)
    return _paired_report(name, lhs, rhs, se, n, seed, lhs <= rhs + INEQUALITY_SLACK_SIGMAS * se)


def equality_check(name, lhs, rhs, diff_values, seed):
    """Build an equality PairedReport from the per-draw paired difference sample."""
    diff_values = np.asarray(diff_values, dtype=float)
    n = diff_values.size
    se = _sd(lambda start, stop, out: diff_values[start:stop], n) / math.sqrt(n)
    gap = abs(lhs - rhs)
    satisfied = gap <= EQUALITY_SLACK_SIGMAS * se if se > 0.0 else gap == 0.0
    return _paired_report(name, lhs, rhs, se, n, seed, satisfied)


def threshold_report(name, statistic, threshold, n_samples, seed):
    """A statistic checked against a hard threshold, with no Monte Carlo
    slack: lhs is the statistic, rhs the threshold, se and margin 0."""
    return _paired_report(name, statistic, threshold, 0.0, n_samples, seed, statistic <= threshold)


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
