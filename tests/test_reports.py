"""Report construction rules, the per-chunk statistics reports read, and
byte-deterministic serialization."""

import json
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from cexpect.reports import (
    CSV_HEADER,
    ExperimentResult,
    Moments,
    canonical_config_hash,
    equality_check,
    indicator_sums,
    indicator_z,
    inequality_report,
    max_z_bound,
    merged,
    paired_moments,
    render_csv,
    render_json,
    threshold_report,
)
from cexpect.ordered import MARKOV_Z
from cexpect.rng import CHUNK_SIZE, run_chunked
from cexpect.theorems import COPULA_SWAP_Z


def _inequality(name, lhs, rhs, seed):
    """The inequality_report of two paired columns held whole."""
    return inequality_report(name, paired_moments(lhs, rhs), seed)


def _equality(name, lhs, rhs, diff, seed):
    """The equality_check of one difference column held whole."""
    se = Moments.of((diff,)).se(np.ones(1))
    return equality_check([name], [lhs], [rhs], [se], diff.size, seed)[0]


def test_inequality_satisfied_rule():
    rng = np.random.default_rng(1)
    rhs = rng.random(2000) + 1.0
    lhs = rhs - 0.5 + 0.01 * rng.standard_normal(2000)
    r = _inequality("t", lhs, rhs, seed=7)
    assert r.satisfied
    assert r.margin_sigmas > 3
    assert r.lhs_estimate == pytest.approx(r.rhs_estimate - 0.5, abs=1e-3)


def test_inequality_violated():
    rng = np.random.default_rng(2)
    rhs = rng.random(2000)
    lhs = rhs + 1.0
    r = _inequality("t", lhs, rhs, seed=7)
    assert not r.satisfied
    assert r.margin_sigmas < -3


def test_exact_equality_margin_zero():
    vals = np.random.default_rng(3).random(2000)
    r = _inequality("t", vals, vals, seed=7)
    assert r.paired_diff_se == 0.0
    assert r.margin_sigmas == 0.0
    assert r.satisfied


def test_slack_is_three_sigmas():
    # lhs above rhs by < 3 SE stays satisfied; by > 3 SE fails.
    rng = np.random.default_rng(4)
    noise = rng.standard_normal(100_000)
    rhs = np.zeros_like(noise)
    se = float(np.std(noise, ddof=1)) / np.sqrt(noise.size)
    ok = _inequality("t", noise - float(noise.mean()) + 2.0 * se, rhs, seed=1)
    bad = _inequality("t", noise - float(noise.mean()) + 4.0 * se, rhs, seed=1)
    assert ok.satisfied
    assert not bad.satisfied


def test_min_samples_enforced():
    with pytest.raises(ValueError):
        _inequality("t", np.ones(10), np.ones(10), seed=0)


def test_equality_check_two_sided():
    rng = np.random.default_rng(5)
    diffs = rng.standard_normal(10_000) * 0.01
    se = float(np.std(diffs, ddof=1)) / np.sqrt(diffs.size)
    good = _equality("e", 1.0, 1.0 + 3 * se, diffs, seed=2)
    bad = _equality("e", 1.0, 1.0 + 5 * se, diffs, seed=2)
    assert good.satisfied
    assert not bad.satisfied


def _close(got, want, scale):
    """got within 1e-12 of want, relative to `scale`, the size of the
    values summed, which bounds any summation order's rounding."""
    return abs(got - want) <= 1e-12 * scale


def _check_moments_match_numpy(n):
    """Report means and SEs, read in chunks of CHUNK_SIZE rows and merged in
    order, match np.mean and np.std(ddof=1) of the whole columns, on values
    of mixed magnitude with zero runs, lhs a strided column view."""
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, 2)) * np.exp(rng.uniform(-20.0, 20.0, (n, 2)))
    values[::5, 0] = 0.0
    values[2::11] = 0.0
    lhs = values[:, 0]
    rhs = np.ascontiguousarray(values[:, 1])
    r = _inequality("t", lhs, rhs, seed=1)
    for got, column in ((r.lhs_estimate, lhs), (r.rhs_estimate, rhs)):
        assert _close(got, np.mean(column), np.mean(np.abs(column)))
    diff = lhs - rhs
    se = np.std(diff, ddof=1) / math.sqrt(n)
    assert _close(r.paired_diff_se, se, se)
    for column in (lhs, rhs):
        se = np.std(column, ddof=1) / math.sqrt(n)
        assert _close(_equality("e", 0.0, 0.0, column, seed=1).paired_diff_se, se, se)


@pytest.mark.parametrize(
    "n", [1000, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1, 2 * CHUNK_SIZE + 8, 143_417, 2_000_000]
)
def test_blocked_moments_match_numpy(n):
    _check_moments_match_numpy(n)


@settings(max_examples=12, deadline=None)
@given(st.integers(1000, 4 * CHUNK_SIZE + 100))
def test_blocked_moments_match_numpy_at_drawn_lengths(n):
    _check_moments_match_numpy(n)


def _split(rows, cuts):
    """The merged Moments of `rows` (k, n) cut at the sorted positions `cuts`."""
    edges = [0, *cuts, rows.shape[1]]
    return merged(Moments.of(rows[:, a:b]) for a, b in zip(edges, edges[1:]))


@st.composite
def _column_splits(draw):
    """(rows, cuts): three correlated columns of 2..3000 rows, shifted off
    zero, and sorted distinct cut positions; some end in a 1-row chunk."""
    n = draw(st.integers(2, 3000))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=8)))
    if n > 2 and draw(st.booleans()):
        cuts = sorted({*cuts, n - 1})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((3, n))
    rows = np.array([z[0], 0.6 * z[0] + 0.8 * z[1], z[2] * 4.0]) + np.array([[3.0], [-1.0], [0.5]])
    return rows, cuts


@settings(max_examples=60, deadline=None)
@given(_column_splits())
def test_merged_moments_match_numpy_for_any_split(case):
    rows, cuts = case
    stats = _split(rows, cuts)
    n = rows.shape[1]
    assert stats.n == n
    # Each sum is compared within 1e-12 of the size of what it sums: a mean
    # near 0 or a combination of nearly equal rows cancels in any order.
    size = np.mean(np.abs(rows), axis=1)
    assert np.all(np.abs(stats.mean - np.mean(rows, axis=1)) <= 1e-12 * size)
    cov = np.cov(rows)
    sd = np.sqrt(np.diag(cov))
    np.testing.assert_allclose(np.diag(stats.m2) / (n - 1), sd**2, rtol=1e-12)
    assert np.all(np.abs(stats.m2 / (n - 1) - cov) <= 1e-12 * np.outer(sd, sd))
    weights = np.array([1.0, -2.0, 0.5])
    variance = np.var(weights @ rows, ddof=1)
    assert abs(stats.se(weights) ** 2 * n - variance) <= 1e-12 * (np.abs(weights) @ sd) ** 2


@pytest.mark.parametrize("value", [0.1, 1.0 / 3.0, -3.7e5, 0.0])
def test_constant_column_keeps_its_exact_mean(value):
    # Shifted by its first value, a constant column sums to exactly 0 in
    # every chunk, and merging equal means adds exactly 0.
    rng = np.random.default_rng(11)
    rows = np.array([np.full(5001, value), rng.standard_normal(5001)])
    for cuts in ([], [1], [1000, 2000, 5000], list(range(7, 5001, 997))):
        stats = _split(rows, cuts)
        assert stats.mean[0] == value
        assert np.all(stats.m2[0] == 0.0) and np.all(stats.m2[:, 0] == 0.0)


def _normal_moments(rng, count):
    z = rng.standard_normal((3, count))
    return Moments.of((z[0], z[0] * z[1] + 1.0, z[2] ** 2))


def test_merge_in_chunk_order_is_the_same_for_any_worker_count():
    n = 5 * CHUNK_SIZE + 777
    serial = merged(run_chunked(_normal_moments, n, seed=21, tag=6))
    with ThreadPoolExecutor(max_workers=2) as pool:
        parallel = merged(run_chunked(_normal_moments, n, seed=21, tag=6, pool=pool))
    assert serial.n == parallel.n == n
    assert serial.mean.tobytes() == parallel.mean.tobytes()
    assert serial.m2.tobytes() == parallel.m2.tobytes()


def test_paired_moments_reduce_chunk_blocks_in_order():
    # Columns longer than a chunk reduce a CHUNK_SIZE block at a time,
    # merged in order, as the chunk workers' rows do.
    n = 2 * CHUNK_SIZE + 5
    rng = np.random.default_rng(9)
    lhs, rhs = rng.random(n) + 2.0, rng.random(n)
    stats = paired_moments(lhs, rhs)
    edges = range(0, 4 * CHUNK_SIZE, CHUNK_SIZE)
    blocks = (slice(a, b) for a, b in zip(edges, edges[1:]))
    expected = merged(Moments.of((lhs[r], lhs[r] - rhs[r])) for r in blocks)
    assert stats.n == n
    assert stats.mean.tobytes() == expected.mean.tobytes()
    assert stats.m2.tobytes() == expected.m2.tobytes()


def test_inequality_report_makes_no_full_length_temporary():
    n = 2**20
    rng = np.random.default_rng(8)
    lhs, rhs = rng.random(n), rng.random(n)
    tracemalloc.start()
    try:
        _inequality("t", lhs, rhs, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < lhs.nbytes


def test_indicator_check_reads_each_cuts_z():
    # Cuts -1, 0.5, 1 and 2 put the rows into bins 1, 2, 2, 3 and 4: a value
    # at a cut is at or below it.  No row lies at or below -1, so its z is 0;
    # cut 1 has rows 0-2, with sum(e) = 2 and sum(e^2) = 14.
    cuts = np.array([-1.0, 0.5, 1.0, 2.0])
    values = np.array([0.5, 0.7, 1.0, 1.5, 3.0])
    residual = np.array([1.0, -2.0, 3.0, 0.5, 4.0])
    by_hand = [0.0, 1.0, 2.0 / math.sqrt(14.0), 2.5 / math.sqrt(14.25)]
    whole = indicator_sums(residual.copy(), values, cuts)
    assert [b.tolist() for b in whole] == [[0.0, 1.0, 1.0, 0.5, 4.0], [0.0, 1.0, 13.0, 0.25, 16.0]]
    assert indicator_z(whole).tolist() == by_hand
    # Chunks' sums add by `merged` to the whole sample's.
    parts = [indicator_sums(residual[r].copy(), values[r], cuts) for r in (slice(0, 2), slice(2, 5))]
    assert indicator_z(merged(parts)).tolist() == by_hand


def test_max_z_bounds_are_the_two_sided_normal_quantiles():
    # The Markov check's 19 levels and copula-swap's 2400 lattice cells,
    # each at size 1e-3 by Bonferroni.
    assert max_z_bound(19) == pytest.approx(stats.norm.isf(1e-3 / 38), rel=1e-12)
    assert max_z_bound(2400) == pytest.approx(stats.norm.isf(1e-3 / 4800), rel=1e-12)
    assert max_z_bound(19) == MARKOV_Z
    assert max_z_bound(2400) == COPULA_SWAP_Z


def test_threshold_report_rule():
    assert threshold_report("s", 0.01, 0.02, 1000, 1).satisfied
    assert not threshold_report("s", 0.03, 0.02, 1000, 1).satisfied


def test_csv_layout():
    vals = np.random.default_rng(6).random(2000)
    r = _inequality("name/a", vals, vals + 1.0, seed=9)
    blob = render_csv([r]).decode()
    lines = blob.split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    row = lines[1].split(",")
    assert row[0] == "name/a"
    assert row[4] == "2000"
    assert row[5] == "9"
    assert row[6] == "true"
    assert float(row[1]) == r.lhs_estimate  # repr round-trips
    assert blob.endswith("\n")
    assert "\r" not in blob


def test_json_rendering_is_canonical():
    vals = np.random.default_rng(7).random(2000)
    r = _inequality("j", vals, vals + 1.0, seed=3)
    res = ExperimentResult(experiment="j", reports=[r], details={"b": 1, "a": 2})
    blob1 = render_json(res.to_json_dict())
    blob2 = render_json(res.to_json_dict())
    assert blob1 == blob2
    parsed = json.loads(blob1)
    assert parsed["schema_version"] == 2
    assert set(parsed["reports"][0].keys()) == {
        "name",
        "lhs_estimate",
        "rhs_estimate",
        "paired_diff_se",
        "n_samples",
        "seed",
        "satisfied",
        "margin_sigmas",
    }


def test_config_hash_stable_under_reordering():
    a = {"x": 1, "nested": {"b": 2.5, "a": [1, 2]}}
    b = {"nested": {"a": [1, 2], "b": 2.5}, "x": 1}
    assert canonical_config_hash(a) == canonical_config_hash(b)
    assert canonical_config_hash(a) != canonical_config_hash({"x": 2})


def _golden_result():
    x = np.arange(1000, dtype=float) / 1000.0
    return ExperimentResult(
        experiment="golden",
        reports=[
            _inequality("golden/inequality", x**2, x, seed=3),
            _equality("golden/equality", 0.25, 0.26, np.sin(np.arange(1000.0)), seed=4),
            threshold_report("golden/threshold", 0.01, 0.02, 1000, 5),
        ],
        details={"k": 1},
    )


GOLDEN_JSON = (
    '{\n  "details": {\n    "k": 1\n  },\n  "experiment": "golden",\n  "reports": [\n'
    '    {\n      "lhs_estimate": 0.33283349999999995,\n      "margin_sigmas": 70.67488988784724,\n'
    '      "n_samples": 1000,\n      "name": "golden/inequality",\n'
    '      "paired_diff_se": 0.0023582137908453793,\n      "rhs_estimate": 0.49949999999999994,\n'
    '      "satisfied": true,\n      "seed": 3\n    },\n'
    '    {\n      "lhs_estimate": 0.25,\n      "margin_sigmas": 0.4472096372996774,\n'
    '      "n_samples": 1000,\n      "name": "golden/equality",\n'
    '      "paired_diff_se": 0.022360877686763623,\n      "rhs_estimate": 0.26,\n'
    '      "satisfied": true,\n      "seed": 4\n    },\n'
    '    {\n      "lhs_estimate": 0.01,\n      "margin_sigmas": 0.0,\n'
    '      "n_samples": 1000,\n      "name": "golden/threshold",\n'
    '      "paired_diff_se": 0.0,\n      "rhs_estimate": 0.02,\n'
    '      "satisfied": true,\n      "seed": 5\n    }\n'
    '  ],\n  "schema_version": 2\n}\n'
)

GOLDEN_CSV = (
    "name,lhs,rhs,se,n,seed,satisfied,margin_sigmas\n"
    "golden/inequality,0.33283349999999995,0.49949999999999994,0.0023582137908453793,1000,3,true,"
    "70.67488988784724\n"
    "golden/equality,0.25,0.26,0.022360877686763623,1000,4,true,0.4472096372996774\n"
    "golden/threshold,0.01,0.02,0.0,1000,5,true,0.0\n"
)


def test_golden_report_bytes():
    # One report from each builder, pinned byte for byte in both formats.
    result = _golden_result()
    assert render_json(result.to_json_dict()) == GOLDEN_JSON.encode()
    assert render_csv(result.reports) == GOLDEN_CSV.encode()
