"""Oracle checks on what a pass produced, independent of cexpect's own code.

The checks use closed forms and scipy, never cexpect's quadrature, and
allow Monte Carlo slack only through standard errors, so they keep holding
when a change declares a new random-stream layout. `Capture` keeps the
tables and record batches the workload's operations built; each check
returns one `Check` per table, batch or report it examined, or one failed
`Check` when there was nothing to examine.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from tracer import argument, patched

PHI = "condexp.BivariateModel.phi"
PSI = "condexp.BivariateModel.psi"
MAX_REGRESSION = "ordered.max_regression"
RECORDS = "ordered.simulate_records"

# Error allowed at a table node. Nodes come from quadrature to 1e-9
# absolute; every checked node read below 1e-10 when this check was added.
NODE_TOL = 1e-7
# Error allowed in E[phi(Y)] = E[X], in units of sd(X). It also takes in
# PCHIP interpolation between nodes, which is coarse where a regression
# function is log-singular at an end of its support: Gaussian(0.5) with
# X ~ Exp(1), Y ~ U(0, 1) read 1.8e-5 sd when this check was added. The bound
# stays well below 7e-4 sd, the standard error of a mean over 2M rows, the
# finest any report here resolves.
TOWER_TOL = 1e-4
SE_MULTIPLE = 4.0


class Capture:
    """Keeps (operation, name, args, result) for the captured entry points."""

    NAMES = (PHI, PSI, MAX_REGRESSION, RECORDS)

    def __init__(self):
        self.calls = []
        self.op = None

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls.append((self.op, name, args, kwargs, result))
            return result

        return captured

    def installed(self):
        return patched(self.NAMES, self.wrap)

    def of(self, *names):
        return [c for c in self.calls if c[1] in names]


@dataclass(frozen=True)
class Check:
    op: object
    label: str
    ok: bool
    detail: str


def _family(marginal):
    return type(marginal).__name__


def _is_unit_uniform(m):
    return _family(m) == "Uniform" and m.lower == 0.0 and m.upper == 1.0


def _nothing(label):
    return [Check(None, label, False, "nothing captured to check")]


def fgm_uniform_tables(capture, ops):
    """FGM(theta) with U(0,1) marginals: phi(v) = psi(v) = 1/2 + theta(2v-1)/6."""
    out = []
    for op, name, args, kwargs, table in capture.of(PHI, PSI):
        model = args[0]
        if not (
            _family(model.copula) == "FGM"
            and _is_unit_uniform(model.marginal_x)
            and _is_unit_uniform(model.marginal_y)
        ):
            continue
        expected = 0.5 + model.copula.theta * (2.0 * table.grid - 1.0) / 6.0
        err = float(np.max(np.abs(table.values - expected)))
        out.append(Check(op, f"{name} FGM closed form", err <= NODE_TOL, f"max error {err:.3g}"))
    return out or _nothing("FGM uniform phi/psi")


def max_regression_closed_forms(capture, ops):
    """x + H_m / rate (exponential) and (x + m b) / (m + 1) (uniform), m = n - j.

    Only nodes with F(x) < 1 count: at the upper end of a bounded support
    the conditional law is undefined and the table repeats its last value.
    """
    out = []
    for op, name, args, kwargs, table in capture.of(MAX_REGRESSION):
        m = argument(args, kwargs, 0, "m")
        mm = argument(args, kwargs, 1, "n") - argument(args, kwargs, 2, "j")
        inside = np.asarray(m.sf(table.grid)) > 0.0
        x = table.grid[inside]
        if _family(m) == "Exponential":
            expected = x + sum(1.0 / i for i in range(1, mm + 1)) / m.rate
        elif _family(m) == "Uniform":
            expected = (x + mm * m.upper) / (mm + 1.0)
        else:
            continue
        err = float(np.max(np.abs(table.values[inside] - expected) / np.maximum(1.0, np.abs(expected))))
        out.append(
            Check(op, f"{name} {_family(m)} m={mm} closed form", err <= NODE_TOL, f"max error {err:.3g}")
        )
    return out or _nothing("max_regression closed forms")


def tower_property(capture, ops):
    """E[phi(Y)] = E[X] and E[psi(X)] = E[Y], integrated with scipy's quad."""
    out = []
    for op, name, args, kwargs, table in capture.of(PHI, PSI):
        model = args[0]
        if name == PHI:
            target, conditioner = model.marginal_x, model.marginal_y
        else:
            target, conditioner = model.marginal_y, model.marginal_x
        lo, hi = table.domain
        value, _ = integrate.quad(
            lambda t: float(table(t)) * float(conditioner.pdf(t)),
            lo, hi, points=table.grid[1:-1:8], limit=2000,
        )
        err = abs(value - target.mean()) / math.sqrt(target.variance())
        out.append(
            Check(op, f"{name} tower property", err <= TOWER_TOL, f"error {err:.3g} sd")
        )
    return out or _nothing("phi/psi tower property")


def record_hazards(capture, ops):
    """-log sf(depth-n record) is Gamma(n, 1): its mean is within 4 SE of n."""
    out = []
    for op, name, args, kwargs, batch in capture.of(RECORDS):
        m = argument(args, kwargs, 0, "m")
        depth = argument(args, kwargs, 1, "depth")
        hazard = -np.log(np.asarray(m.sf(batch.values[:, 0]), dtype=float))
        se = float(np.std(hazard, ddof=1)) / math.sqrt(hazard.size)
        z = (float(np.mean(hazard)) - depth) / se
        out.append(
            Check(op, f"records depth {depth} hazard mean", abs(z) <= SE_MULTIPLE, f"z = {z:.2f}")
        )
    return out or _nothing("record hazards")


def record_counts(capture, ops):
    """Kept plus discarded sequences equal the sequences attempted."""
    out = []
    for op, (cfg, result) in enumerate(ops):
        if cfg["experiment"] != "records" or result is None:
            continue
        kept = result.details["n_kept"]
        discarded = result.details["n_discarded"]
        out.append(
            Check(op, "records kept + discarded", kept + discarded == cfg["n_samples"],
                  f"{kept} + {discarded} of {cfg['n_samples']}")
        )
    return out or _nothing("record counts")


def corollary_closed_forms(capture, ops):
    """Monte Carlo MSE per index set within 4 SE of the closed form.

    Residuals of an exact Gaussian regression are N(0, s2), so the squared
    error has variance 2 s2^2.
    """
    out = []
    for op, (cfg, result) in enumerate(ops):
        if cfg["experiment"] != "corollary-chain" or result is None:
            continue
        n = cfg["n_samples"]
        for s, exact, mc in zip(
            result.details["index_sets"],
            result.details["closed_form_mse"],
            result.details["monte_carlo_mse"],
        ):
            z = (mc - exact) / (exact * math.sqrt(2.0 / n))
            out.append(Check(op, f"corollary {s} closed form", abs(z) <= SE_MULTIPLE, f"z = {z:.2f}"))
    return out or _nothing("corollary closed forms")


def martingale_exact(capture, ops):
    """rhs estimate within 4 SE of exact_rhs = n + 1 - k.

    S_{n+1} - S_k sums d = n + 1 - k fair +/-1 steps, so its square has
    mean d and variance 2 d^2 - 2 d.
    """
    out = []
    for op, (cfg, result) in enumerate(ops):
        if cfg["experiment"] != "martingale" or result is None:
            continue
        for report in result.reports:
            key = report.name.rsplit("/", 1)[-1]
            d = result.details[key]["exact_rhs"]
            se = math.sqrt((2.0 * d * d - 2.0 * d) / report.n_samples)
            gap = report.rhs_estimate - d
            ok = abs(gap) <= SE_MULTIPLE * se if se > 0 else gap == 0.0
            out.append(Check(op, f"martingale {key} exact rhs", ok, f"gap {gap:.3g}, se {se:.3g}"))
    return out or _nothing("martingale exact rhs")


ORACLES = {
    "tabulation": [fgm_uniform_tables, max_regression_closed_forms, tower_property],
    "records": [record_hazards, record_counts],
    "sampling": [corollary_closed_forms, martingale_exact],
}


def run_oracles(workload, capture, ops):
    checks = []
    for oracle in ORACLES[workload]:
        checks.extend(oracle(capture, ops))
    return checks
