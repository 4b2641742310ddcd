"""Report construction rules and byte-deterministic serialization."""

import json

import numpy as np
import pytest

from cexpect.reports import (
    CSV_HEADER,
    ExperimentResult,
    canonical_config_hash,
    equality_check,
    inequality_report,
    render_csv,
    render_json,
    threshold_report,
)


def test_inequality_satisfied_rule():
    rng = np.random.default_rng(1)
    rhs = rng.random(2000) + 1.0
    lhs = rhs - 0.5 + 0.01 * rng.standard_normal(2000)
    r = inequality_report("t", lhs, rhs, seed=7)
    assert r.satisfied
    assert r.margin_sigmas > 3
    assert r.lhs_estimate == pytest.approx(r.rhs_estimate - 0.5, abs=1e-3)


def test_inequality_violated():
    rng = np.random.default_rng(2)
    rhs = rng.random(2000)
    lhs = rhs + 1.0
    r = inequality_report("t", lhs, rhs, seed=7)
    assert not r.satisfied
    assert r.margin_sigmas < -3


def test_exact_equality_margin_zero():
    vals = np.random.default_rng(3).random(2000)
    r = inequality_report("t", vals, vals, seed=7)
    assert r.paired_diff_se == 0.0
    assert r.margin_sigmas == 0.0
    assert r.satisfied


def test_slack_is_three_sigmas():
    # lhs above rhs by < 3 SE stays satisfied; by > 3 SE fails.
    rng = np.random.default_rng(4)
    noise = rng.standard_normal(100_000)
    rhs = np.zeros_like(noise)
    se = float(np.std(noise, ddof=1)) / np.sqrt(noise.size)
    ok = inequality_report("t", noise - float(noise.mean()) + 2.0 * se, rhs, seed=1)
    bad = inequality_report("t", noise - float(noise.mean()) + 4.0 * se, rhs, seed=1)
    assert ok.satisfied
    assert not bad.satisfied


def test_min_samples_enforced():
    with pytest.raises(ValueError):
        inequality_report("t", np.ones(10), np.ones(10), seed=0)


def test_equality_check_two_sided():
    rng = np.random.default_rng(5)
    diffs = rng.standard_normal(10_000) * 0.01
    se = float(np.std(diffs, ddof=1)) / np.sqrt(diffs.size)
    good = equality_check("e", 1.0, 1.0 + 3 * se, diffs, seed=2)
    bad = equality_check("e", 1.0, 1.0 + 5 * se, diffs, seed=2)
    assert good.satisfied
    assert not bad.satisfied


def test_threshold_report_rule():
    assert threshold_report("s", 0.01, 0.02, 1000, 1).satisfied
    assert not threshold_report("s", 0.03, 0.02, 1000, 1).satisfied


def test_csv_layout():
    vals = np.random.default_rng(6).random(2000)
    r = inequality_report("name/a", vals, vals + 1.0, seed=9)
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
    r = inequality_report("j", vals, vals + 1.0, seed=3)
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
            inequality_report("golden/inequality", x**2, x, seed=3),
            equality_check("golden/equality", 0.25, 0.26, np.sin(np.arange(1000.0)), seed=4),
            threshold_report("golden/threshold", 0.01, 0.02, 1000, 5),
        ],
        details={"k": 1},
    )


GOLDEN_JSON = (
    '{\n  "details": {\n    "k": 1\n  },\n  "experiment": "golden",\n  "reports": [\n'
    '    {\n      "lhs_estimate": 0.33283349999999995,\n      "margin_sigmas": 70.67488988784726,\n'
    '      "n_samples": 1000,\n      "name": "golden/inequality",\n'
    '      "paired_diff_se": 0.0023582137908453793,\n      "rhs_estimate": 0.4995,\n'
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
    "golden/inequality,0.33283349999999995,0.4995,0.0023582137908453793,1000,3,true,70.67488988784726\n"
    "golden/equality,0.25,0.26,0.022360877686763623,1000,4,true,0.4472096372996774\n"
    "golden/threshold,0.01,0.02,0.0,1000,5,true,0.0\n"
)


def test_golden_report_bytes():
    # One report from each builder, pinned byte for byte in both formats.
    result = _golden_result()
    assert render_json(result.to_json_dict()) == GOLDEN_JSON.encode()
    assert render_csv(result.reports) == GOLDEN_CSV.encode()
