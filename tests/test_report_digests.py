"""Report bytes of every chunk-reduced experiment, and of the ordered-data
and coalition experiments, pinned.

Each config runs at 2 * CHUNK_SIZE + 12345 rows: three chunks, the last one
ragged.  The per-row work of these experiments runs inside the chunk
workers, which return only the columns a report reads; elementwise
arithmetic gives the same value per row in whichever chunk it runs, so the
digests below, recorded when the whole draw matrices were still assembled
before any per-row work, must not move.  The order-stats, records and
coalition digests were recorded when those operations still returned their
own result types and the runner named their reports.  `--workers 1` and `2`
must agree.
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


# Recorded with the draw matrices assembled whole before the per-row work,
# for the original order-stats, records and coalition configs before the
# operations returned ExperimentResult, and for "order-stats-markov" and
# "coalition-one-broker" while each order-stats report drew its own matrix
# and a one-broker coalition took its predictor column as the average.
DIGESTS = {
    "theorem1": "53856e25b30e36c2f2f27c8c1ce0a1ace52cc063104e868d52841ab3f1f22d5c",
    "theorem2": "3e2394f9887220f9cf00a1d6a763f1715c443e1cbd9484a93be7e05ac2ced5b3",
    "theorem3": "715254bcb6517cb0fcfa0ea2a3cea059c16baf66a7bd46339a51b8d7cf291783",
    "theorem3-duplicate": "062cd9848378eaa3c0979d9d7c1de6385a348c3bf2c5af9d45fd0d511d4da4c5",
    "corollary-chain": "350ad8e7c6fbb790cfa907f082f0d23b02c98da00e02c44080d9462779ae781e",
    "corollary-chain-empty": "cb858f7cbe05f2e0f49bd11df83f2e947b890d7f23aabf749fc9cbc0ae608928",
    "covariance": "dfa12b1aa60c344487f245ef26db02da483083f9f6661c618aa3bf374d25ab1f",
    "covariance-clayton": "f717df4dfe6eb56a568f8c360f2bc724aa6c1f2fc376376830a5370520372e54",
    "copula-swap": "212bccef8e8504864f2eaf7db687e96d16bebee0ad707de2d9531ffaab3acc70",
    "sequence-stats": "0957276175af7836b2efdc38f0e6e839165fe0eceb91dacfe5b83dbca5fbe959",
    "sequence-stats-clayton": "8a3285103b5f5c3916ce52c120af6649d5db5202202218c745dc4af00f657ce8",
    "martingale": "8c0c8133096b83a055b1bc8ce2317272b04e2ad910d8669a0c9ddb6484395624",
    "order-stats": "6a8ac590b586a363c7636947ded7e825eeb92e8fe95940eb54dce7b8ef260207",
    "order-stats-markov": "1691f1d9991d1c8886984588bbf251ba9986fcf6788ef065cbc5ad793b189538",
    "records": "fe738511ee3f9a7ffe71985c0141165f234c27a24551097abf367728c2958f7b",
    "coalition": "17310f5651ab58b04525e216e98f0b651934295474b92321482228289e7ca030",
    "coalition-one-broker": "fadef4b00172e67f6621643085b1b998d3bc9d5cd18124df81fc7907ef57d424",
    "coalition-dependent": "bea0c460e914ab318a62808d74ba2149acb513c5d97a7255b4b38c34b13586af",
}


@pytest.mark.parametrize("label, cfg", configs(), ids=[label for label, _ in configs()])
def test_report_bytes_pinned_for_any_worker_count(label, cfg):
    one = report_digest(cfg, workers=1)
    assert report_digest(cfg, workers=2) == one
    assert one == DIGESTS[label]
