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
the same tree gives numpy's sum, bit for bit.  A leaf may sum several
columns and return the vector of their sums; vectors add elementwise, with
each column's bits.  So a report reads its columns in fused leaf passes:
one sums the estimates' columns and the paired differences, one more sums
the differences' centred squares.  Each leaf forms its rows of the
differences (and of any product they come from) in one cache-sized
scratch block, so no full-length temporary is made.  A column of exact
integers in a narrow dtype, like the martingale's squared errors, is cast
to float64 a leaf at a time; its sums stay below 2**53, so they are exact
in any order and equal those of the float64 column.  A zero's sign can
differ at a leaf (numpy adds each reduction to +0.0), but only where every
sum it enters is zero, and the mean and variance take +0.0 there too.
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


def row_sums(rows):
    """The np.add.reduce of each row of a leaf (a 2-D block or a list of
    1-D rows), in float64, as a vector."""
    return np.array([np.add.reduce(row, dtype=np.float64) for row in rows])


def _pairwise_sum(leaf_sum, start, stop):
    """The leaf sums of rows start..stop-1, added up along numpy's pairwise
    tree.  A module function, not a nested one: a recursive closure is a
    reference cycle, which would keep its leaf's columns alive until a
    garbage collection."""
    if stop - start <= SUM_LEAF:
        return leaf_sum(start, stop)
    half = (stop - start) // 2
    mid = start + half - half % 8
    return _pairwise_sum(leaf_sum, start, mid) + _pairwise_sum(leaf_sum, mid, stop)


def blocked_sums(leaf_sum, n):
    """np.add.reduce of each of k columns of n values, bit for bit, in one
    pass: leaf_sum(start, stop) gives the row_sums of rows start..stop-1 of
    the k columns, and is called on runs of at most SUM_LEAF rows along
    numpy's pairwise tree (see the module docstring).  The leaves' vectors
    add elementwise, so each entry has the bits of its own column's tree."""
    return _pairwise_sum(leaf_sum, 0, n)


def column_means(columns):
    """np.mean of each 1-D column of one length, bit for bit, in one pass:
    float64 columns, or exact integers that sum below 2**53 in any order."""
    n = columns[0].size
    return blocked_sums(lambda start, stop: row_sums([c[start:stop] for c in columns]), n) / n


def _sd(rows, sums, n):
    """np.std(d, ddof=1) of each of k columns d of n values, bit for bit,
    given their sums along the leaf tree.  rows(start, stop) gives rows
    start..stop-1 of the k columns as a (k, stop - start) float64 scratch
    block, which a leaf centres and squares in place."""
    mean = (np.asarray(sums) / n)[:, None]

    def square_sum(start, stop):
        block = rows(start, stop)
        block -= mean
        block *= block
        return row_sums(block)

    return np.sqrt(blocked_sums(square_sum, n) / (n - 1))


def inequality_report(name, lhs_sq, rhs_sq, seed):
    """Build an inequality PairedReport from paired per-draw squared errors:
    float64 columns, or exact integers in a narrow dtype (see column_means).
    One pass sums both columns and their difference, one more its squares."""
    n = lhs_sq.size
    check_sample_size(n)
    buf = np.empty((1, min(n, SUM_LEAF)))

    def diff(start, stop):
        out = buf[:, : stop - start]
        np.subtract(lhs_sq[start:stop], rhs_sq[start:stop], out=out[0], dtype=np.float64)
        return out

    def sums(start, stop):
        return row_sums([lhs_sq[start:stop], rhs_sq[start:stop], *diff(start, stop)])

    lhs_sum, rhs_sum, diff_sum = blocked_sums(sums, n)
    lhs, rhs = lhs_sum / n, rhs_sum / n
    se = _sd(diff, [diff_sum], n)[0] / math.sqrt(n)
    return _paired_report(name, lhs, rhs, se, n, seed, lhs <= rhs + INEQUALITY_SLACK_SIGMAS * se)


def equality_check(names, lhs, rhs, diff, diff_sums, n, seed):
    """Build one equality PairedReport per name i, lhs[i] against rhs[i],
    from difference column i of the per-draw paired differences.
    diff(start, stop) gives rows start..stop-1 of the difference columns as
    in _sd, and diff_sums their sums along the leaf tree, which the caller
    takes in the pass that sums its estimates."""
    se = _sd(diff, diff_sums, n) / math.sqrt(n)
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
