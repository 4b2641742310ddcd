"""Report bytes of every chunk-reduced experiment, and of the ordered-data
and coalition experiments, pinned.

Each config runs at 2 * CHUNK_SIZE + 12345 rows: three chunks, the last one
ragged.  The per-row work of these experiments runs inside the chunk
workers, which return the statistics of their rows; the calling thread
merges them in chunk order, so the bytes depend on the fixed chunking and
not on the worker count.  A digest moves only with a declared change of
report bytes.  `--workers 1` and `2` must agree.
"""

import hashlib
import math

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
    a single broker.  The 128-step martingale walks in int16, the default
    one in int8.  One covariance config has a Gaussian copula with
    non-normal margins, which take both tails of its normal scores."""
    dependent_brokers = {"count": 3, "marginal": NORMAL, "rho_xx": 0.4}
    order_cases = [
        {"marginal": UNIFORM, "n": 4, "k": 2, "l": 2, "markov_check": True},
        {"marginal": EXP1, "n": 5, "k": 2, "l": 4, "markov_check": True},
    ]
    clayton = {"copula": {"family": "clayton", "alpha": 2.0}, "marginal_x": EXP1, "marginal_y": NORMAL}
    clayton_uniform = {**clayton, "marginal_x": UNIFORM, "marginal_y": UNIFORM}
    gaussian_exp_uniform = {
        "copula": {"family": "gaussian", "rho": 0.5},
        "marginal_x": EXP1,
        "marginal_y": UNIFORM,
    }
    return [
        ("theorem1", _suite("theorem1")),
        ("theorem2", _suite("theorem2")),
        ("theorem3", _suite("theorem3")),
        ("theorem3-duplicate", _suite("theorem3", model={"kind": "duplicate", "rho": 0.5})),
        ("corollary-chain", _suite("corollary-chain")),
        ("corollary-chain-empty", _suite("corollary-chain", index_sets=[[], [2], [1, 2, 3]])),
        ("covariance", _suite("covariance")),
        ("covariance-clayton", _suite("covariance", model=clayton)),
        ("covariance-gaussian-exp-uniform", _suite("covariance", model=gaussian_exp_uniform)),
        ("copula-swap", _suite("copula-swap")),
        ("sequence-stats", _suite("sequence-stats")),
        ("sequence-stats-clayton", _suite("sequence-stats", model=clayton)),
        ("sequence-stats-clayton-uniform", _suite("sequence-stats", model=clayton_uniform)),
        ("martingale", _suite("martingale")),
        ("martingale-128", _suite("martingale", walk_length=128, subsets=[[1], [64], [128], []])),
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
# the details repeat no report field.  Re-recorded once when the chunk
# workers began to return per-chunk statistics, merged in chunk order: the
# values moved only in their last bits (see PINNED below), and the digests
# of theorem3-duplicate, covariance, copula-swap and martingale-128 did not
# move.  Re-recorded again for theorem1, theorem2, covariance,
# covariance-clayton, copula-swap and the three sequence-stats configs when
# each row block of the bivariate and conditional-iid draws began to draw
# all of its columns before the next block: their draws changed.
# Re-recorded for covariance and sequence-stats when a Gaussian copula's
# normal scores began to map onto normal margins exactly, not through
# ndtri(ndtr(z)): their values moved in the last bits.  Re-recorded for
# theorem1 and theorem2 when a Gaussian-copies model began to draw the exact
# law of (Y, X_1, X̄) from three normals a row: its draws changed.  Re-recorded
# for theorem1 and theorem2 when the default battery dropped its two
# comonotone cells, which repeated its two n = 1 cells: two rows fewer
# each, and battery_size 20.
DIGESTS = {
    "theorem1": "1926211481219d3396876d2fada83b6f040895c632f6022c84d22c7b82c144a5",
    "theorem2": "5563c1544e0a74f6931c6274c7632f3cdebb83d4f734dfc171df273d3d5bcf5d",
    "theorem3": "ec3a44a965cf5f6cfffdcc9879b8163688aa1373a9ed849b17d41b1976c29c07",
    "theorem3-duplicate": "528b8c0fd4c65b4ee5d3640c6eb31d686fcf389f666d1335b6fe909add904e42",
    "corollary-chain": "361b3c89e3aa0b678e536db601a5b4adb1b655c314d6913b936e390411e32a4b",
    "corollary-chain-empty": "2446624033b1e024d898fd011bc1d50c4b601a2cbf186c2b3f06e3fcd76da8c6",
    "covariance": "9b7c933627ce7751c9388472aad512d505b5268292f817333a572c5319d084f3",
    "covariance-clayton": "3f6cd47e710b7df0b2ddce7a746526adb97db3a9690d5dd146f282f2fcdc1cfa",
    # Recorded before the score path, when non-normal margins of a Gaussian
    # copula took the quantile at ndtr(z); re-recorded when they began to
    # take both tails of their scores, _of_tails(ndtr(z), ndtr(-z)), so that
    # their upper halves are exact: the values moved in their last bits.
    "covariance-gaussian-exp-uniform": "c3ee56ddd43cd36583ade0b0bb36c1ce7439fa48e1872b6413fc98c955173cd4",
    # Re-recorded when the report became the largest lattice |z| at the
    # known margins, with each table's smallest relative step in the details.
    "copula-swap": "4444637abcba7d362e3334e65f80b55b05e7fceb2b336fc9a40ec6dfa7e674c5",
    "sequence-stats": "c41e38729c2642ccfc7e3f7079090140dcdc5cfb8a2850b4f04927abc49bd121",
    "sequence-stats-clayton": "4d393ae923dc5cded1e372f26f9d93a5e70cc6dc67d7489cfc836085573d6e7b",
    "sequence-stats-clayton-uniform": "284ef8dbc9c32c8d79d640d9bcc26e7d38af4ec56ca8a0abbdd26ebfeb94f5d9",
    "martingale": "1fe8333b214dc40f989d5a376046168e211565ddfa80b4e71a025dde4e9a7016",
    "martingale-128": "b60954d224fa5e4ad890a222da2c4ace0aabfd4996aec2ea4a66de7e0675571c",
    # Re-recorded when the Markov check became an indicator test of the
    # exact residual and records read exact hazard tables (order-stats,
    # order-stats-markov and records), and again for order-stats when its
    # chunk workers began to return the Markov check's per-bin sums, added
    # in chunk order: only the Markov z values moved, in their last bits.
    "order-stats": "dddddf570153f723954b40fc4f1c25c35070d532d55b86c0299dc9bd8b2811cd",
    "order-stats-markov": "5b1e6ccb66be6604c44eb9e50ff1037903d93ad0132d3b515c5221dcdcdfe247",
    # Re-recorded again when the record chunks grew from 8192 sequences to
    # CHUNK_SIZE, each drawn in row blocks: its draws past the first 8192
    # sequences changed.
    "records": "a05221e286dcbfd9901ba3d7cd5c17aa820001d511d419924f5a49beff8ecced",
    # Re-recorded when a market chunk began to draw in row blocks, each
    # block its brokers and then its outsider, and dependent brokers began
    # to map their normal scores through the broker's _of_score: the draws
    # changed.
    "coalition": "17a638fb798495224f705c6cd1104091b1f589f48dee07e2503907a36e609c25",
    "coalition-one-broker": "81c9f502bf0611cd880509af154954691c3ff6939b222eda8abb284fd80ff371",
    "coalition-dependent": "c4dea8703ca79032f01bbd67a517a27065a22bce88a1bbf5fc09c9efb353d5e6",
}


@pytest.mark.parametrize("label, cfg", configs(), ids=[label for label, _ in configs()])
def test_report_bytes_pinned_for_any_worker_count(label, cfg):
    one = report_digest(cfg, workers=1)
    assert report_digest(cfg, workers=2) == one
    assert one == DIGESTS[label], one


# (name, lhs, rhs, se, satisfied) of every report of configs(), recorded on
# the whole-column reductions that came before per-chunk statistics.  Merging
# each chunk's statistics in chunk order moves a report's values only in
# their last bits, so these hold within 1e-10 relative, the verdicts and
# names exactly, and an se of exactly 0 (a difference column that is
# identically 0) stays exactly 0.  The Markov rows and the records row were
# re-recorded when they began to read exact tables: the Markov check's
# indicator z against MARKOV_Z, and the records' hazard-space regressions
# in place of binned fits.  The rows of the bivariate models (covariance,
# copula-swap, sequence-stats) and the cond-iid rows of theorem1 and
# theorem2 were re-recorded when each row block began to draw all of its
# columns before the next block, the records row when the record chunks
# grew to CHUNK_SIZE sequences, drawn in row blocks, the coalition rows
# when a market chunk began to draw in row blocks, and the Gaussian-copies
# rows of theorem1 and theorem2 when each began to draw (Y, X_1, X̄) from
# three normals a row; the cond-iid rows held.  The four comonotone rows
# went when the default battery dropped its comonotone cells.
PINNED = {
    'theorem1': [
        ('theorem1/gaussian-copies(n=1,rxx=0,rxy=0.2)',
         0.9608621082932695, 0.9608621082932695, 0.0, True),
        ('theorem1/gaussian-copies(n=1,rxx=0,rxy=0.5)',
         0.7506735221041169, 0.7506735221041169, 0.0, True),
        ('theorem1/gaussian-copies(n=2,rxx=0,rxy=0.2)',
         0.942763454161214, 0.9647356713447217, 0.0007292843411473265, True),
        ('theorem1/gaussian-copies(n=2,rxx=0,rxy=0.5)',
         0.62914539897201, 0.7569591669859891, 0.0015543798434546298, True),
        ('theorem1/gaussian-copies(n=2,rxx=0.3,rxy=0.2)',
         0.948037057946314, 0.9637616163884729, 0.0006109486659085445, True),
        ('theorem1/gaussian-copies(n=2,rxx=0.3,rxy=0.5)',
         0.6655159271704528, 0.7560870574624039, 0.001317344876260924, True),
        ('theorem1/gaussian-copies(n=2,rxx=0.9,rxy=0.2)',
         0.9590016618244946, 0.9616923498555896, 0.00023146880411989437, True),
        ('theorem1/gaussian-copies(n=2,rxx=0.9,rxy=0.5)',
         0.7384724529982014, 0.7524632926577921, 0.0005099778793110766, True),
        ('theorem1/gaussian-copies(n=3,rxx=0,rxy=0.2)',
         0.9372481749978314, 0.9660122397464472, 0.0008409283502529936, True),
        ('theorem1/gaussian-copies(n=3,rxx=0,rxy=0.5)',
         0.5880961375306415, 0.7558843112342377, 0.0017676906120475955, True),
        ('theorem1/gaussian-copies(n=3,rxx=0.3,rxy=0.2)',
         0.943916904752135, 0.9645107021680727, 0.0007047570624894495, True),
        ('theorem1/gaussian-copies(n=3,rxx=0.3,rxy=0.5)',
         0.6372331112900852, 0.7568372258060769, 0.0015060510754203835, True),
        ('theorem1/gaussian-copies(n=3,rxx=0.9,rxy=0.2)',
         0.9583831396339246, 0.9618451504175684, 0.00026724816191118177, True),
        ('theorem1/gaussian-copies(n=3,rxx=0.9,rxy=0.5)',
         0.7344079371326894, 0.7527787073114497, 0.0005881507942751291, True),
        ('theorem1/gaussian-copies(n=5,rxx=0,rxy=0.2)',
         0.9334040665510527, 0.9673859210715291, 0.000920278540859743, True),
        ('theorem1/gaussian-copies(n=5,rxx=0.3,rxy=0.2)',
         0.9407224062176549, 0.9651606535621154, 0.0007714072634795576, True),
        ('theorem1/gaussian-copies(n=5,rxx=0.3,rxy=0.5)',
         0.6145454955600873, 0.7570046915334568, 0.0016362640099219811, True),
        ('theorem1/gaussian-copies(n=5,rxx=0.9,rxy=0.2)',
         0.9578889439241937, 0.9619582804841508, 0.00029272873297834747, True),
        ('theorem1/gaussian-copies(n=5,rxx=0.9,rxy=0.5)',
         0.7311572514778429, 0.7530086824013239, 0.0006436442211411279, True),
        ('theorem1/cond-iid(n=3,beta=0.8)',
         0.1907517180289499, 0.3387207673107811, 0.0008964901026480497, True),
    ],
    'theorem2': [
        ('theorem2/gaussian-copies(n=1,rxx=0,rxy=0.2)',
         1.6003560634905534, 1.6003560634905534, 0.0, True),
        ('theorem2/gaussian-copies(n=1,rxx=0,rxy=0.5)',
         0.9999663495397481, 0.9999663495397481, 0.0, True),
        ('theorem2/gaussian-copies(n=2,rxx=0,rxy=0.2)',
         1.099801631655693, 1.592838133277896, 0.004329540247278034, True),
        ('theorem2/gaussian-copies(n=2,rxx=0,rxy=0.5)',
         0.49977425154531857, 0.9932746399051724, 0.0032240319989345774, True),
        ('theorem2/gaussian-copies(n=2,rxx=0.3,rxy=0.2)',
         1.2499562998575229, 1.5946298716020249, 0.003724235211931009, True),
        ('theorem2/gaussian-copies(n=2,rxx=0.3,rxy=0.5)',
         0.6497620593605358, 0.9945609839382598, 0.002831060675801795, True),
        ('theorem2/gaussian-copies(n=2,rxx=0.9,rxy=0.2)',
         1.5502971766952085, 1.598722939764145, 0.0014821375494325916, True),
        ('theorem2/gaussian-copies(n=2,rxx=0.9,rxy=0.5)',
         0.9499266145305441, 0.9983206486276723, 0.0011655119364926492, True),
        ('theorem2/gaussian-copies(n=3,rxx=0,rxy=0.2)',
         0.9329977195765988, 1.590832643456403, 0.004839286619631881, True),
        ('theorem2/gaussian-copies(n=3,rxx=0,rxy=0.5)',
         0.3333299155335479, 0.9928644786605383, 0.0035097145809456515, True),
        ('theorem2/gaussian-copies(n=3,rxx=0.3,rxy=0.2)',
         1.1331677310885766, 1.5932355636755653, 0.0042091137209183446, True),
        ('theorem2/gaussian-copies(n=3,rxx=0.3,rxy=0.5)',
         0.5330952157304899, 0.9935216876322119, 0.003149522170395742, True),
        ('theorem2/gaussian-copies(n=3,rxx=0.9,rxy=0.2)',
         1.5336109736902475, 1.5984213615001372, 0.001706726100825961, True),
        ('theorem2/gaussian-copies(n=3,rxx=0.9,rxy=0.5)',
         0.9332472487631276, 0.9980239585269105, 0.0013398882489340112, True),
        ('theorem2/gaussian-copies(n=5,rxx=0,rxy=0.2)',
         0.7996388024725095, 1.5892394238482757, 0.0051584511982953225, True),
        ('theorem2/gaussian-copies(n=5,rxx=0.3,rxy=0.2)',
         1.0397460485140815, 1.5921204600320742, 0.0045295630877353514, True),
        ('theorem2/gaussian-copies(n=5,rxx=0.3,rxy=0.5)',
         0.43981700504953886, 0.9929190781923884, 0.003342546367903408, True),
        ('theorem2/gaussian-copies(n=5,rxx=0.9,rxy=0.2)',
         1.5202620474390411, 1.5981974410416564, 0.0018655029416029586, True),
        ('theorem2/gaussian-copies(n=5,rxx=0.9,rxy=0.5)',
         0.9199039696272052, 0.997805189168781, 0.001462563679786849, True),
        ('theorem2/cond-iid(n=3,beta=0.8)',
         0.15128002672854923, 0.3741248788760212, 0.0009345185332884497, True),
    ],
    'theorem3': [
        ('theorem3', 0.6673624065815512, 0.7501588814206627, 0.0012755194999094443, True),
    ],
    'theorem3-duplicate': [
        ('theorem3/duplicate', 0.7516952385481638, 0.7516952385481638, 0.0, True),
    ],
    'corollary-chain': [
        ('corollary-chain/[0]->[0, 1]',
         0.8629250905047684, 0.9441467995092363, 0.0014421650233488912, True),
        ('corollary-chain/[0, 1]->[0, 1, 2]',
         0.6361211648651489, 0.8629250905047684, 0.002200861667731252, True),
    ],
    'corollary-chain-empty': [
        ('corollary-chain/[]->[1]',
         0.8629250905047684, 0.9898723155549523, 0.0018313930118854676, True),
        ('corollary-chain/[1]->[0, 1, 2]',
         0.6361211648651489, 0.8629250905047684, 0.002200861667731252, True),
    ],
    'covariance': [
        ('covariance/cov(phi(Y),Y)=cov(X,Y)',
         0.5007335962499327, 0.49807951818322654, 0.0022829561989282958, True),
        ('covariance/cov(psi(X),X)=cov(X,Y)',
         0.4979329775273148, 0.49807951818322654, 0.0022869411530679878, True),
        ('covariance/cov(phi(Y),Y)=cov(psi(X),X)',
         0.5007335962499327, 0.4979329775273148, 0.0022774899767910263, True),
    ],
    'covariance-clayton': [
        ('covariance/cov(phi(Y),Y)=cov(X,Y)',
         0.5190704335430066, 0.521003325252336, 0.0021890593651260754, True),
        ('covariance/cov(psi(X),X)=cov(X,Y)',
         0.5189488684002078, 0.521003325252336, 0.0018681323372246562, True),
        ('covariance/cov(phi(Y),Y)=cov(psi(X),X)',
         0.5190704335430066, 0.5189488684002078, 0.0018697423466097402, True),
    ],
    'covariance-gaussian-exp-uniform': [
        ('covariance/cov(phi(Y),Y)=cov(X,Y)',
         0.12691316268436514, 0.126172849666969, 0.0007187452287573441, True),
        ('covariance/cov(psi(X),X)=cov(X,Y)',
         0.12611729853087686, 0.126172849666969, 0.0005766695627250084, True),
        ('covariance/cov(phi(Y),Y)=cov(psi(X),X)',
         0.12691316268436514, 0.12611729853087686, 0.0006144556892668814, True),
    ],
    'copula-swap': [
        ('copula-swap/gaussian#0/swapped', 3.323932165974008, 5.061181344720433, 0.0, True),
        ('copula-swap/gaussian#1/swapped', 2.936906160946205, 5.061181344720433, 0.0, True),
        ('copula-swap/gaussian#2/swapped', 2.8896709985140827, 5.061181344720433, 0.0, True),
        ('copula-swap/clayton#3/swapped', 2.2831566936913044, 5.061181344720433, 0.0, True),
    ],
    'sequence-stats': [
        ('sequence-stats/mean(Y2)=mean(X2)',
         -0.001607534178600632, -0.0019323983197967766, 0.0021192291815484523, True),
        ('sequence-stats/cov(Y1,Y2)=cov(X1,X2)',
         0.5993678066759556, 0.6033228515486637, 0.0021121886866500342, True),
    ],
    'sequence-stats-clayton': [
        ('sequence-stats/mean(Y2)=mean(X2)',
         -0.002712143306798181, -0.0003742487192254112, 0.0018318821244042492, True),
        ('sequence-stats/cov(Y1,Y2)=cov(X1,X2)',
         0.5239329569877988, 0.5241255982473939, 0.0019022147970973477, True),
    ],
    'sequence-stats-clayton-uniform': [
        ('sequence-stats/mean(Y2)=mean(X2)',
         0.499444422906474, 0.4998187919226623, 0.0005392797964597423, True),
        ('sequence-stats/cov(Y1,Y2)=cov(X1,X2)',
         0.05710347467994988, 0.05711327459925657, 0.0001380191221946847, True),
    ],
    'martingale': [
        ('martingale/subset=[1, 2, 3, 4, 5]', 1.0, 1.0, 0.0, True),
        ('martingale/subset=[1]', 1.0, 4.964550924925218, 0.01659232045577826, True),
        ('martingale/subset=[3]', 1.0, 2.9943521339869053, 0.00913865012308195, True),
        ('martingale/subset=[5]', 1.0, 1.0, 0.0, True),
        ('martingale/subset=[]', 1.0, 5.954245312619843, 0.020351556519831233, True),
    ],
    'martingale-128': [
        ('martingale/subset=[1]', 1.0, 128.31315673874087, 0.479946958613995, True),
        ('martingale/subset=[64]', 1.0, 64.69108264710599, 0.24187702912616083, True),
        ('martingale/subset=[128]', 1.0, 1.0, 0.0, True),
        ('martingale/subset=[]', 1.0, 129.34255353270532, 0.4831922215619463, True),
    ],
    'order-stats': [
        ('order-stats/uniform(n=5,k=3,l=4)',
         0.011896749294999074, 0.015948447996949028, 4.2630033964685594e-05, True),
        ('order-stats/markov/uniform(n=5)', 1.8465942216835778, 4.043622758962592, 0.0, True),
        ('order-stats/exponential(n=5,k=3,l=4)',
         1.0084066381981671, 1.2624114023654318, 0.0032035999798459536, True),
    ],
    'order-stats-markov': [
        ('order-stats/uniform(n=4,k=2,l=2)', 0.022219441135512476, 0.022219441135512476, 0.0, True),
        ('order-stats/markov/uniform(n=4)', 0.9963446854916002, 4.043622758962592, 0.0, True),
        ('order-stats/exponential(n=5,k=2,l=4)',
         1.0084066381981671, 1.372492099378263, 0.0038041697555902254, True),
        ('order-stats/markov/exponential(n=5)', 1.0673685658898515, 4.043622758962592, 0.0, True),
    ],
    'records': [
        ('records', 1.0016959734040911, 1.9980293998199326, 0.00921686385099883, True),
    ],
    'coalition': [
        ('coalition/broker1',
         0.015517810248157597, 0.017382121590827717, 1.820506750047972e-05, True),
        ('coalition/broker2',
         0.015517810248157597, 0.01742494306887579, 1.810583395137533e-05, True),
        ('coalition/broker3',
         0.015517810248157597, 0.01739203477464859, 1.8116064958874414e-05, True),
        ('coalition/broker4',
         0.015517810248157597, 0.01743458268359707, 1.818450862879733e-05, True),
    ],
    'coalition-one-broker': [
        ('coalition/broker1', 0.03309059014066176, 0.03309059014066176, 0.0, True),
    ],
    'coalition-dependent': [
        ('coalition/broker1', 1.0275230697444102, 1.0465525734187369, 0.0006096235844255275, True),
        ('coalition/broker2', 1.0275230697444102, 1.0468582493811218, 0.000610131478034184, True),
        ('coalition/broker3', 1.0275230697444102, 1.0464054629312907, 0.000612264542144962, True),
    ],
}


@pytest.mark.parametrize("label, cfg", configs(), ids=[label for label, _ in configs()])
def test_reports_move_only_in_their_last_bits(label, cfg):
    reports = cli.run_experiment(cfg, workers=1).reports
    assert [r.name for r in reports] == [row[0] for row in PINNED[label]]
    for report, (_, lhs, rhs, se, satisfied) in zip(reports, PINNED[label]):
        assert report.satisfied == satisfied
        values = (report.lhs_estimate, report.rhs_estimate, report.paired_diff_se)
        for got, pinned in zip(values, (lhs, rhs, se)):
            assert math.isclose(got, pinned, rel_tol=1e-10), (report.name, got, pinned)
        if se == 0.0:
            assert report.paired_diff_se == 0.0
