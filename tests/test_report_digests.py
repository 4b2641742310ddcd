"""Report bytes of every chunk-reduced experiment, and of the ordered-data
and coalition experiments, pinned.

Each config runs at 2 * CHUNK_SIZE + 12345 rows: three chunks, the last one
ragged.  The per-row work of these experiments runs inside the chunk
workers, which return only the columns a report reads; elementwise
arithmetic gives the same value per row in whichever chunk it runs, so no
digest moved when that work moved into the workers.  A digest moves only
with a declared change of report bytes.  `--workers 1` and `2` must agree.
"""

import hashlib

import pytest

from cexpect import cli
from cexpect.reports import render_csv, render_json
from cexpect.rng import CHUNK_SIZE

ROWS = 2 * CHUNK_SIZE + 12345

UNIFORM = {"family": "uniform", "lower": 0.0, "upper": 1.0}
NORMAL = {"family": "normal", "mean": 0.0, "sd": 1.0}
EXP1 = {"family": "exponential", "rate": 1.0}


def _suite(name, **changes):
    return {**cli.default_suite()[name], **changes, "n_samples": ROWS}


def configs():
    """(label, config) of every experiment whose per-row work moved into
    the workers, with tabulated (interpolated) models beside affine ones,
    then the ordered-data and coalition experiments; the dependent-broker
    coalition config also has non-uniform brokers and a max-of-two
    outsider.  The second order-stats config has a k == l case and Markov
    checks on uniform and exponential marginals; one coalition config has
    a single broker."""
    dependent_brokers = {"count": 3, "marginal": NORMAL, "rho_xx": 0.4}
    order_cases = [
        {"marginal": UNIFORM, "n": 4, "k": 2, "l": 2, "markov_check": True},
        {"marginal": EXP1, "n": 5, "k": 2, "l": 4, "markov_check": True},
    ]
    clayton = {"copula": {"family": "clayton", "alpha": 2.0}, "marginal_x": EXP1, "marginal_y": NORMAL}
    return [
        ("theorem1", _suite("theorem1")),
        ("theorem2", _suite("theorem2")),
        ("theorem3", _suite("theorem3")),
        ("theorem3-duplicate", _suite("theorem3", model={"kind": "duplicate", "rho": 0.5})),
        ("corollary-chain", _suite("corollary-chain")),
        ("corollary-chain-empty", _suite("corollary-chain", index_sets=[[], [2], [1, 2, 3]])),
        ("covariance", _suite("covariance")),
        ("covariance-clayton", _suite("covariance", model=clayton)),
        ("copula-swap", _suite("copula-swap")),
        ("sequence-stats", _suite("sequence-stats")),
        ("sequence-stats-clayton", _suite("sequence-stats", model=clayton)),
        ("martingale", _suite("martingale")),
        ("order-stats", _suite("order-stats")),
        ("order-stats-markov", _suite("order-stats", cases=order_cases)),
        ("records", _suite("records")),
        ("coalition", _suite("coalition")),
        ("coalition-one-broker", _suite("coalition", brokers={"count": 1, "marginal": UNIFORM})),
        (
            "coalition-dependent",
            _suite("coalition", brokers=dependent_brokers, outsider={"marginal": EXP1, "count": 2}),
        ),
    ]


def report_digest(cfg, workers):
    """sha256 of the experiment's JSON report and its CSV rows."""
    result = cli.run_experiment(cfg, workers=workers)
    blob = render_json(result.to_json_dict()) + render_csv(result.reports)
    return hashlib.sha256(blob).hexdigest()


# Recorded for report schema version 2: every report is a PairedReport, and
# the details repeat no report field.
DIGESTS = {
    "theorem1": "83be096233751bc6ecee160030f71e8fa0df247fc34a707db2253d5d8781763e",
    "theorem2": "f43b52c020fd411437ced168d268b8b5b41fe53b469586c95040e441dc9b63c0",
    "theorem3": "2f72cc5cab37ed78933381ee157508bca98f50431f7ed0786c3345bbd9713973",
    "theorem3-duplicate": "528b8c0fd4c65b4ee5d3640c6eb31d686fcf389f666d1335b6fe909add904e42",
    "corollary-chain": "074675e4598c15e24cabf1952810b51df128994348ddf01c09ca54ab2c955c69",
    "corollary-chain-empty": "e651b3f1e60d910ab897e576988ff09bd9c9227faa46c326b5df7053d3232a48",
    "covariance": "6bec93cd8cc177d431053b528192a7d5e17f104ad58fcd88a9d05f8936a078bb",
    "covariance-clayton": "669cf7267df9183f115e95ca7d2f2a7e8d868cf425fed4f3db53bae5d3925d36",
    "copula-swap": "22debdf4322b7a235550579340864be91a855d2671309736a4fba5e1ade2494d",
    "sequence-stats": "912937875967eb36685479caf08861b37c955ff7938ed307a1285ce5ea6323fb",
    "sequence-stats-clayton": "f0e94455bf4a39ae8fb7b96064f3460471fb3cdbac1a1bbc9d7f40db2552dc5b",
    "martingale": "c181efdf8b1d19efcc5fa35f72022425aabf203682d749667a1f66a75f97e2b6",
    "order-stats": "c9df05705fceae6fb9ec77c4d0a4c2c6dd27d570a83c1118e7baf9c2e598bd3f",
    "order-stats-markov": "eec22ed2528ef76aeb45b7218dbf22161d07eb645a3fc1e7e643eb767fa274ca",
    "records": "09d59106daff13616531b5de0718de39abe4be292438c061d0e988231d20bfc5",
    "coalition": "17a4b3268288b64d5ff1efb0ac268bada6fc34748bd1af89a965fc04716acb44",
    "coalition-one-broker": "c6c27a65514b3526322920773491e1b5ebde2e4829f811cdf59d808e8159253f",
    # Re-recorded when the dependent-broker predictor became the exact table.
    "coalition-dependent": "2ecc4b119608be68ee10165deded619a99d6ca11929c183dc56c334c421437ed",
}


@pytest.mark.parametrize("label, cfg", configs(), ids=[label for label, _ in configs()])
def test_report_bytes_pinned_for_any_worker_count(label, cfg):
    one = report_digest(cfg, workers=1)
    assert report_digest(cfg, workers=2) == one
    assert one == DIGESTS[label], one
