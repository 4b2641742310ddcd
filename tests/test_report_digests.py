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
    non-normal margins, which take the quantiles of its uniforms."""
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
# ndtri(ndtr(z)): their values moved in the last bits.
DIGESTS = {
    "theorem1": "d6c8f96baeea501640af7d881edcc511fff156acfe298b25f6469e11babe6582",
    "theorem2": "75d4fc4dbbedd8fcf9765cb48f69e3fb61dc20c6094ea4148dcc7c6c2cf7c461",
    "theorem3": "ec3a44a965cf5f6cfffdcc9879b8163688aa1373a9ed849b17d41b1976c29c07",
    "theorem3-duplicate": "528b8c0fd4c65b4ee5d3640c6eb31d686fcf389f666d1335b6fe909add904e42",
    "corollary-chain": "361b3c89e3aa0b678e536db601a5b4adb1b655c314d6913b936e390411e32a4b",
    "corollary-chain-empty": "2446624033b1e024d898fd011bc1d50c4b601a2cbf186c2b3f06e3fcd76da8c6",
    "covariance": "9b7c933627ce7751c9388472aad512d505b5268292f817333a572c5319d084f3",
    "covariance-clayton": "3f6cd47e710b7df0b2ddce7a746526adb97db3a9690d5dd146f282f2fcdc1cfa",
    # Recorded before the score path: non-normal margins of a Gaussian
    # copula take the quantile at ndtr(z), the bytes they had.
    "covariance-gaussian-exp-uniform": "ab83f90fe323edc25c91ae1bfcaec38ce5305f6ffe180ec79768607baba38248",
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
    "coalition": "0629a31c2a5b7c792f753b0d874e531b6737365ea32ca8c2c80fe42a3d9c746e",
    "coalition-one-broker": "741a4cb7be868bc5243338384b4453022013fac9ba5d53ba12cd5193a7e639de",
    "coalition-dependent": "7dbde1fb8d4190c04e1d01a104b7d7021e951014d28a607d0fa0ea2acfb8c9d1",
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
# columns before the next block, and the records row when the record
# chunks grew to CHUNK_SIZE sequences, drawn in row blocks.
PINNED = {
    'theorem1': [
        ('theorem1/gaussian-copies(n=1,rxx=0,rxy=0.2)',
         0.9637752075297112, 0.9637752075297112, 0.0, True),
        ('theorem1/gaussian-copies(n=1,rxx=0,rxy=0.5)',
         0.7510828736358682, 0.7510828736358682, 0.0, True),
        ('theorem1/gaussian-copies(n=2,rxx=0,rxy=0.2)',
         0.9435711005624775, 0.9637313572739842, 0.0007283134899619654, True),
        ('theorem1/gaussian-copies(n=2,rxx=0,rxy=0.5)',
         0.6269781724924774, 0.7524745986479614, 0.0015457491949936108, True),
        ('theorem1/gaussian-copies(n=2,rxx=0.3,rxy=0.2)',
         0.9495882559305101, 0.9637313572739842, 0.0006103697342386142, True),
        ('theorem1/gaussian-copies(n=2,rxx=0.3,rxy=0.5)',
         0.6645296910170755, 0.7524745986479614, 0.0013106247312624601, True),
        ('theorem1/gaussian-copies(n=2,rxx=0.9,rxy=0.2)',
         0.9616862427838317, 0.9637313572739842, 0.0002317198073948638, True),
        ('theorem1/gaussian-copies(n=2,rxx=0.9,rxy=0.5)',
         0.7398977861897335, 0.7524745986479614, 0.0005091025866600674, True),
        ('theorem1/gaussian-copies(n=3,rxx=0,rxy=0.2)',
         0.9318513285051012, 0.9582882989183594, 0.0008384699247616991, True),
        ('theorem1/gaussian-copies(n=3,rxx=0,rxy=0.5)',
         0.582405737203613, 0.7486775043645298, 0.001756225635465177, True),
        ('theorem1/gaussian-copies(n=3,rxx=0.3,rxy=0.2)',
         0.9397684425879326, 0.9582882989183594, 0.0007037278411423047, True),
        ('theorem1/gaussian-copies(n=3,rxx=0.3,rxy=0.5)',
         0.6322900149996554, 0.7486775043645298, 0.001498294670783502, True),
        ('theorem1/gaussian-copies(n=3,rxx=0.9,rxy=0.2)',
         0.9556326870265232, 0.9582882989183594, 0.00026748792320602775, True),
        ('theorem1/gaussian-copies(n=3,rxx=0.9,rxy=0.5)',
         0.7321018653409872, 0.7486775043645298, 0.00058759132052914, True),
        ('theorem1/gaussian-copies(n=5,rxx=0,rxy=0.2)',
         0.9306926291421688, 0.9632682685337971, 0.0009224430963194165, True),
        ('theorem1/gaussian-copies(n=5,rxx=0.3,rxy=0.2)',
         0.9403926631408724, 0.9632682685337971, 0.0007720259323838507, True),
        ('theorem1/gaussian-copies(n=5,rxx=0.3,rxy=0.5)',
         0.6115232130110998, 0.753260319377578, 0.001636105611857903, True),
        ('theorem1/gaussian-copies(n=5,rxx=0.9,rxy=0.2)',
         0.9599812465092468, 0.9632682685337971, 0.0002915189891722839, True),
        ('theorem1/gaussian-copies(n=5,rxx=0.9,rxy=0.5)',
         0.7327806080185737, 0.753260319377578, 0.0006405999566288157, True),
        ('theorem1/gaussian-copies(n=3,comono,rxy=0.5)',
         0.7510828736358682, 0.7510828736358682, 0.0, True),
        ('theorem1/gaussian-copies(n=5,comono,rxy=0.2)',
         0.9637752075297112, 0.9637752075297112, 0.0, True),
        ('theorem1/cond-iid(n=3,beta=0.8)',
         0.1907517180289499, 0.3387207673107811, 0.0008964901026480497, True),
    ],
    'theorem2': [
        ('theorem2/gaussian-copies(n=1,rxx=0,rxy=0.2)',
         1.590230980844971, 1.590230980844971, 0.0, True),
        ('theorem2/gaussian-copies(n=1,rxx=0,rxy=0.5)',
         0.9936184562878954, 0.9936184562878954, 0.0, True),
        ('theorem2/gaussian-copies(n=2,rxx=0,rxy=0.2)',
         1.100380245326874, 1.5966399120725099, 0.00433798650544361, True),
        ('theorem2/gaussian-copies(n=2,rxx=0,rxy=0.5)',
         0.5002141894366535, 0.9971045639110488, 0.0032289396757801143, True),
        ('theorem2/gaussian-copies(n=2,rxx=0.3,rxy=0.2)',
         1.2494659074625287, 1.5966399120725099, 0.0037295520196877372, True),
        ('theorem2/gaussian-copies(n=2,rxx=0.3,rxy=0.5)',
         0.6495015773823025, 0.9971045639110488, 0.0028342556540567176, True),
        ('theorem2/gaussian-copies(n=2,rxx=0.9,rxy=0.2)',
         1.5471018394131102, 1.5966399120725099, 0.0014816782660995093, True),
        ('theorem2/gaussian-copies(n=2,rxx=0.9,rxy=0.5)',
         0.9474447416967203, 0.9971045639110488, 0.0011657003582469382, True),
        ('theorem2/gaussian-copies(n=3,rxx=0,rxy=0.2)',
         0.930299181517334, 1.5893859977351805, 0.004837308681010899, True),
        ('theorem2/gaussian-copies(n=3,rxx=0,rxy=0.5)',
         0.3328052924535945, 0.9932942324421818, 0.0035004519307237597, True),
        ('theorem2/gaussian-copies(n=3,rxx=0.3,rxy=0.2)',
         1.1274357923227574, 1.5893859977351805, 0.004209887163843667, True),
        ('theorem2/gaussian-copies(n=3,rxx=0.3,rxy=0.5)',
         0.530836180764943, 0.9932942324421818, 0.003146481652899275, True),
        ('theorem2/gaussian-copies(n=3,rxx=0.9,rxy=0.2)',
         1.5221451865568907, 1.5893859977351805, 0.0017045602685458723, True),
        ('theorem2/gaussian-copies(n=3,rxx=0.9,rxy=0.5)',
         0.9262497615930886, 0.9932942324421818, 0.001337721910659772, True),
        ('theorem2/gaussian-copies(n=5,rxx=0,rxy=0.2)',
         0.8008471665530377, 1.5884303893626308, 0.005159118612912255, True),
        ('theorem2/gaussian-copies(n=5,rxx=0.3,rxy=0.2)',
         1.037583991649438, 1.5884303893626308, 0.0045185161369948185, True),
        ('theorem2/gaussian-copies(n=5,rxx=0.3,rxy=0.5)',
         0.4391166367606924, 0.9928053059507245, 0.003340182134957064, True),
        ('theorem2/gaussian-copies(n=5,rxx=0.9,rxy=0.2)',
         1.5102744352947346, 1.5884303893626308, 0.0018562151573242897, True),
        ('theorem2/gaussian-copies(n=5,rxx=0.9,rxy=0.5)',
         0.9139108315850103, 0.9928053059507245, 0.001456064036236477, True),
        ('theorem2/gaussian-copies(n=3,comono,rxy=0.5)',
         0.9936184562878954, 0.9936184562878954, 0.0, True),
        ('theorem2/gaussian-copies(n=5,comono,rxy=0.2)',
         1.590230980844971, 1.590230980844971, 0.0, True),
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
         0.015537522295179535, 0.01741461518317848, 1.8203741631445334e-05, True),
        ('coalition/broker2',
         0.015537522295179535, 0.017437022358124245, 1.808375774544374e-05, True),
        ('coalition/broker3',
         0.015537522295179535, 0.01741335724400479, 1.8098135055107748e-05, True),
        ('coalition/broker4',
         0.015537522295179535, 0.017449112907083567, 1.8171856506872374e-05, True),
    ],
    'coalition-one-broker': [
        ('coalition/broker1', 0.033442333980559596, 0.033442333980559596, 0.0, True),
    ],
    'coalition-dependent': [
        ('coalition/broker1', 1.0328705341156492, 1.052943986096033, 0.0005854803881454759, True),
        ('coalition/broker2', 1.0328705341156492, 1.052098889014948, 0.0005927913103776254, True),
        ('coalition/broker3', 1.0328705341156492, 1.0508923115315814, 0.0005953526143017722, True),
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
