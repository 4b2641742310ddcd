"""Monte Carlo verification harness for the predictor inequalities.

Each verify_* operation draws with common random numbers, evaluates both
sides of an inequality (or identity) on the same draws, and emits a typed
report whose verdict allows only Monte Carlo slack (3 paired SEs for
inequalities, 4 for identities).  Degenerate cases where both sides are the
same computation produce margin exactly 0.

Replications run in fixed-size chunks with per-chunk Philox streams (see
rng.py).  Each chunk worker draws its rows and reduces them to the
statistics its reports read: the reports.Moments of the paired squared
errors (lhs, lhs - rhs) for an inequality, or of the raw per-row
variables whose co-moments give the covariance and sequence-stats
identities.  No column outlives its chunk.  The calling thread merges the
chunks' Moments in chunk order, so the bytes of a report do not depend on
the number of workers, and they differ from whole-column np.mean and
np.std only in their last bits.

Copula-swap keeps no column either.  Each worker bins its draws on a
lattice at the known margins and returns the integer count of each cell;
the calling thread adds the counts in chunk order, so the report bytes are
the same for any chunking or worker count.
"""

import numpy as np
from scipy.special import ndtri

from .condexp import (
    INCREASING,
    BivariateModel,
    GaussianVector,
    RegressionFunction,
    chebyshev_nodes,
    fill_massless,
)
from .config import Fields
from .copulas import EmpiricalCopula, Gaussian, lattice_counts, sup_distance_swapped
from .errors import ConstructionError, DomainError, UnsupportedModelError
from .marginals import Marginal, Normal, Uniform, marginal_from_config
from .quadrature import tabulate
from .reports import (
    ExperimentResult,
    Moments,
    check_unique_names,
    equality_check,
    inequality_report,
    merged,
    paired_moments,
    threshold_report,
)
from .rng import check_row_width, run_chunked

# Stream tags (part of the reproducibility contract).
TAG_MAIN = 1

# Copula-swap counts draws on a COPULA_SWAP_GRID x COPULA_SWAP_GRID lattice
# and passes a model whose largest |z| over the lattice is within
# COPULA_SWAP_Z; neither is a config key, so no config can switch the check
# off.  Each lattice count is binomial, and (49^2 - 1) = 2400 of them have
# 0 < C < 1.  Each z reads an exact two-sided binomial tail, so a Bonferroni
# bound over those cells at size 1e-3 a model is
# z* = -ndtri(1e-3 / (2 * 2400)), about 5.061.
COPULA_SWAP_GRID = 50
COPULA_SWAP_Z = float(-ndtri(1e-3 / (2 * ((COPULA_SWAP_GRID - 1) ** 2 - 1))))


# ---------------------------------------------------------------------------
# Models of "copies" X_1..X_n sharing one marginal, jointly with Y.


class GaussianCopies:
    """(Y, X_1..X_n) jointly Gaussian: equicorrelated copies, common cross-corr.

    rho_xx = 1.0 requests the comonotone limit X_1 = ... = X_n, implemented
    by sampling one X and replicating it, so degenerate-equality reports come
    out exact.
    """

    def __init__(self, n_copies, rho_xx, rho_xy, mean_x=0.0, sd_x=1.0, mean_y=0.0, sd_y=1.0):
        if n_copies < 1:
            raise ConstructionError(f"n_copies must be >= 1, got {n_copies}", "n_copies")
        check_row_width(n_copies, "n_copies")
        for param, sd in (("sd_x", sd_x), ("sd_y", sd_y)):
            if not sd > 0:
                raise ConstructionError(f"{param} must be > 0, got {sd}", param)
        if not (-1.0 < rho_xy < 1.0):
            raise ConstructionError(f"rho_xy must be in (-1, 1), got {rho_xy}", "rho_xy")
        if not -1.0 <= rho_xx <= 1.0:
            raise ConstructionError(f"rho_xx must be in [-1, 1], got {rho_xx}", "rho_xx")
        if n_copies > 1 and rho_xx <= -1.0 / (n_copies - 1):
            raise ConstructionError(
                f"rho_xx must be > -1/(n_copies-1) = {-1.0 / (n_copies - 1):.6g}, got {rho_xx}",
                "rho_xx",
            )
        self.n_copies = int(n_copies)
        self.rho_xx = float(rho_xx)
        self.rho_xy = float(rho_xy)
        self.mean_x = float(mean_x)
        self.sd_x = float(sd_x)
        self.mean_y = float(mean_y)
        self.sd_y = float(sd_y)
        self.comonotone = self.rho_xx == 1.0
        # The comonotone covariance is singular: draw (Y, X) and repeat X.
        k = 1 if self.comonotone else self.n_copies
        cov = np.empty((k + 1, k + 1))
        cov[0, 0] = sd_y**2
        cov[0, 1:] = cov[1:, 0] = rho_xy * sd_x * sd_y
        xx = np.full((k, k), rho_xx * sd_x**2)
        np.fill_diagonal(xx, sd_x**2)
        cov[1:, 1:] = xx
        mean = np.concatenate([[mean_y], np.full(k, mean_x)])
        try:
            self._joint = GaussianVector(mean, cov)
        except ConstructionError as exc:
            raise ConstructionError(
                f"copies model (n={n_copies}, rho_xx={rho_xx}, rho_xy={rho_xy}) "
                f"is not positive definite: {exc}"
            ) from exc

    def label(self):
        tag = "comono" if self.comonotone else f"rxx={self.rho_xx:g}"
        return f"gaussian-copies(n={self.n_copies},{tag},rxy={self.rho_xy:g})"

    def sample(self, rng, n):
        """Returns (Y, X) with X of shape (n, n_copies)."""
        mat = self._joint.sample(rng, n)
        x = mat[:, 1:]
        if self.comonotone:
            x = np.repeat(x, self.n_copies, axis=1)
        return mat[:, 0], x

    def predictor(self):
        """x -> E(Y | X_i = x); one shared affine rule for all copies."""
        x_marginal = Normal(mean_=self.mean_x, sd=self.sd_x)
        y_marginal = Normal(mean_=self.mean_y, sd=self.sd_y)
        return BivariateModel(Gaussian(self.rho_xy), x_marginal, y_marginal).psi()


class ConditionalIidCopies:
    """Copies built as X_i = beta * Y + eps_i with iid noise.

    Not jointly Gaussian unless the noise is; shows the inequalities do not
    hinge on the Gaussian equicorrelation construction.  E(Y | X_i = x) is
    tabulated by quadrature of f_Y(y) * f_eps(x - beta * y).
    """

    def __init__(self, n_copies, beta, y_marginal: Marginal, noise: Marginal):
        if n_copies < 1:
            raise ConstructionError(f"n_copies must be >= 1, got {n_copies}", "n_copies")
        check_row_width(n_copies, "n_copies")
        if beta == 0.0:
            raise ConstructionError("beta must be nonzero", "beta")
        self.n_copies = int(n_copies)
        self.beta = float(beta)
        self.y_marginal = y_marginal
        self.noise = noise
        self.comonotone = False

    def label(self):
        return f"cond-iid(n={self.n_copies},beta={self.beta:g})"

    def sample(self, rng, n):
        y = self.y_marginal.sample(rng, n)
        eps = self.noise.sample(rng, n * self.n_copies).reshape(n, self.n_copies)
        return y, self.beta * y[:, None] + eps

    def predictor(self):
        b = self.beta
        y_lo, y_hi = self.y_marginal.truncated_support()
        e_lo, e_hi = self.noise.truncated_support()
        x_ends = (b * y_lo + e_lo, b * y_hi + e_hi, b * y_lo + e_hi, b * y_hi + e_lo)
        x_lo, x_hi = min(x_ends), max(x_ends)
        inset = 1e-6 * (x_hi - x_lo)
        grid = chebyshev_nodes(x_lo + inset, x_hi - inset)
        lo = np.maximum(y_lo, np.minimum((grid - e_lo) / b, (grid - e_hi) / b))
        hi = np.minimum(y_hi, np.maximum((grid - e_lo) / b, (grid - e_hi) / b))
        open_rows = np.flatnonzero(hi > lo)

        def weight(rows, y):
            x = grid[open_rows[rows], None]
            return self.y_marginal.pdf(y) * self.noise.pdf(x - b * y)

        num = tabulate(lambda rows, y: y * weight(rows, y), lo[open_rows], hi[open_rows])
        den = tabulate(weight, lo[open_rows], hi[open_rows])
        values = np.full_like(grid, np.nan)
        has_mass = den > 0
        values[open_rows[has_mass]] = num[has_mass] / den[has_mass]
        # A node with an empty y-interval, or whose joint density underflows
        # to 0 (far tails of a max-of-iid), carries no mass: it copies the
        # previous computed node's value, or the first one before any.
        return RegressionFunction(grid, fill_massless(values, ~np.isnan(values)))


def copies_models_from_config(cfg):
    """The copies models of a JSON-config dict: the default battery for kind
    "battery", else the one model it describes; raises ConfigError naming
    every field at fault."""
    f = Fields(cfg, "a copies model object")
    kinds = ("battery", "gaussian-copies", "conditional-iid")
    kind = f.choice("kind", kinds, default="gaussian-copies")
    if kind == "battery":
        return f.close(default_copies_battery())
    model = None
    if kind == "gaussian-copies":
        model = f.build(
            GaussianCopies,
            n_copies=f.integer("n_copies"),
            rho_xx=f.number("rho_xx"),
            rho_xy=f.number("rho_xy"),
            mean_x=f.number("mean_x", 0.0),
            sd_x=f.number("sd_x", 1.0),
            mean_y=f.number("mean_y", 0.0),
            sd_y=f.number("sd_y", 1.0),
        )
    elif kind == "conditional-iid":
        model = f.build(
            ConditionalIidCopies,
            n_copies=f.integer("n_copies"),
            beta=f.number("beta"),
            y_marginal=f.model("y", marginal_from_config),
            noise=f.model("noise", marginal_from_config),
        )
    return f.close([model])


def default_copies_battery():
    """The PD-feasible grid of copies models plus degenerate special cases.

    Grid n in {1,2,3,5} x rho_xx in {0, 0.3, 0.9} x rho_xy in {0.2, 0.5},
    dropping the one non-positive-definite cell (n=5, rho_xx=0, rho_xy=0.5)
    and collapsing rho_xx for n=1 (it has no effect with a single copy).
    Adds two comonotone cells and one conditional-iid cell.
    """
    models = []
    for rho_xy in (0.2, 0.5):
        models.append(GaussianCopies(1, 0.0, rho_xy))
    for n in (2, 3, 5):
        for rho_xx in (0.0, 0.3, 0.9):
            for rho_xy in (0.2, 0.5):
                if n * rho_xy**2 >= 1.0 + (n - 1) * rho_xx:
                    continue
                models.append(GaussianCopies(n, rho_xx, rho_xy))
    models.append(GaussianCopies(3, 1.0, 0.5))
    models.append(GaussianCopies(5, 1.0, 0.2))
    models.append(
        ConditionalIidCopies(3, 0.8, Normal(mean_=0.0, sd=1.0), Uniform(lower=-1.0, upper=1.0))
    )
    return models


def _verify_averaging(experiment, models, averaged, n_samples, seed, pool):
    """One inequality report per copies model, each on `seed`: the squared
    error of the row average of the columns `averaged(model)` makes of the
    copies, as a predictor of Y, against that of its first column.  A
    comonotone model's columns are one column repeated, so its average is
    that column exactly."""
    reports = []
    for model in models:
        columns = averaged(model)

        def worker(rng, count):
            y, x = model.sample(rng, count)
            values = columns(x)
            average = values[:, 0] if model.comonotone else values.mean(axis=1)
            return paired_moments((y - average) ** 2, (y - values[:, 0]) ** 2)

        stats = merged(run_chunked(worker, n_samples, seed, TAG_MAIN, pool=pool))
        reports.append(inequality_report(f"{experiment}/{model.label()}", stats, seed))
    return ExperimentResult(experiment, reports, {"battery_size": len(models)})


def verify_theorem1(models, n_samples, seed, pool=None):
    """Averaged predictor beats any single predictor, for each copies model:
    E(Y - mean_i E(Y|X_i))^2 <= E(Y - E(Y|X_1))^2, on common draws.

    The reports rest on the copies' exchangeability: by Jensen,
    (y - mean_i v_i)^2 <= mean_i (y - v_i)^2 on every draw, and exchangeable
    columns v_i share one expected error, so any exchangeable predictor
    columns pass, a wrong predictor included.
    """
    return _verify_averaging("theorem1", models, lambda m: m.predictor(), n_samples, seed, pool)


def verify_theorem2(models, n_samples, seed, pool=None):
    """Averaged copies beat any single copy, for each copies model:
    E(Y - mean_i X_i)^2 <= E(Y - X_1)^2, on common draws.

    As in verify_theorem1, the reports rest on the copies' exchangeability:
    by Jensen, any exchangeable columns pass, whatever their joint law with Y.
    """
    return _verify_averaging("theorem2", models, lambda m: lambda x: x, n_samples, seed, pool)


def verify_theorem3(v: GaussianVector, n_samples, seed, pool=None):
    """Two conditioners beat the better single conditioner:
    E[X - E(X|Y,Z)]^2 <= min over single-conditioner MSEs.

    `v` is (X, Y, Z), or 2-dimensional (X, Y) with Z = Y exactly: then
    conditioning collapses to the single distinct value and the report shows
    margin exactly 0, under the name "theorem3/duplicate".
    """
    if v.dim not in (2, 3):
        raise DomainError(f"theorem3 needs a 2- or 3-dimensional vector, got d={v.dim}", "dim")
    duplicate = v.dim == 2
    # Conditioning on (Y, Z), on Y and on Z; Z = Y collapses all three to Y.
    sets = [(1,)] * 3 if duplicate else [(1, 2), (1,), (2,)]
    by_y, by_z = _conditioning_errors(v, 0, sets, [(0, 1), (0, 2)], n_samples, seed, pool)
    closed = {
        key: v.residual_variance(0, s) for key, s in zip(("mse_both", "mse_y", "mse_z"), sets)
    }
    # by_y and by_z share lhs, so the smaller mean difference marks the
    # better single conditioner.
    stats = by_y if by_y.mean[1] >= by_z.mean[1] else by_z
    name = "theorem3/duplicate" if duplicate else "theorem3"
    report = inequality_report(name, stats, seed)
    return ExperimentResult("theorem3", [report], {"closed_form": closed})


def check_theorem3_dim(dim):
    """An explicit theorem 3 vector is (X, Y, Z): 3-dimensional."""
    if dim != 3:
        raise DomainError(f"theorem3 needs a 3-dimensional vector, got d={dim}", "dim")


def _linear_pred(v: GaussianVector, target, given, mat):
    if len(given) == 0:
        return np.full(mat.shape[0], v.mean[target])
    intercept, coefs = v.conditional_coefficients(target, given)
    return intercept + mat[:, list(given)] @ coefs


def _conditioning_errors(v: GaussianVector, target, index_sets, pairs, n_samples, seed, pool):
    """The paired_moments of the squared errors of E(X_target | X_s) for
    s = index_sets[a] against s = index_sets[b], for each pair (a, b) of
    `pairs`, all on the same draws of `v`.  A repeated set is one column, so
    its pairs read an identically 0 difference."""

    def worker(rng, count):
        mat = v.sample(rng, count)
        x = mat[:, target]
        errors = {s: (x - _linear_pred(v, target, s, mat)) ** 2 for s in dict.fromkeys(index_sets)}
        return [paired_moments(errors[index_sets[a]], errors[index_sets[b]]) for a, b in pairs]

    return merged(run_chunked(worker, n_samples, seed, TAG_MAIN, pool=pool))


def _chain_name(shorter, longer):
    return f"corollary-chain/{list(shorter)}->{list(longer)}"


def chain_index_sets(dim, index_sets):
    """The index sets of a corollary chain, each sorted, after checking that
    they are at least two, nested, inside 0..dim-1 without the target dim-1,
    and that no adjacent pair repeats an earlier pair's report name."""
    target = dim - 1
    sets = [tuple(sorted(s)) for s in index_sets]
    if len(sets) < 2:
        raise DomainError("need at least two index sets", "index_sets")
    for pos, s in enumerate(sets):
        param = f"index_sets[{pos}]"
        if target in s:
            raise DomainError("an index set must not contain the target index", param)
        if any(not 0 <= i < dim for i in s):
            raise DomainError(f"indices out of range for dimension {dim}", param)
        if pos and not set(sets[pos - 1]).issubset(s):
            raise DomainError("index sets must be nested: this set misses an earlier index", param)
    names = [(pos + 1, _chain_name(*pair)) for pos, pair in enumerate(zip(sets, sets[1:]))]
    check_unique_names(names, "index_sets")
    return sets


def verify_corollary_chain(v: GaussianVector, index_sets, n_samples, seed, pool=None):
    """Nested conditioning never hurts: MSE of predicting the last coordinate
    is nonincreasing along a chain of nested index sets.  One report per
    adjacent pair.
    """
    target = v.dim - 1
    sets = chain_index_sets(v.dim, index_sets)
    pairs = [(i + 1, i) for i in range(len(sets) - 1)]
    stats = _conditioning_errors(v, target, sets, pairs, n_samples, seed, pool)
    closed = [v.residual_variance(target, s) if s else float(v.cov[target, target]) for s in sets]

    reports = []
    for i, pair_stats in enumerate(stats):
        name = _chain_name(sets[i], sets[i + 1])
        reports.append(inequality_report(name, pair_stats, seed))
    details = {
        "index_sets": [list(s) for s in sets],
        "closed_form_mse": closed,
        # The reports' means, one per index set, beside closed_form_mse:
        # perfbench's closed-form oracle reads them here.
        "monte_carlo_mse": [reports[0].rhs_estimate] + [r.lhs_estimate for r in reports],
    }
    return ExperimentResult(experiment="corollary-chain", reports=reports, details=details)


def _medians(model: BivariateModel):
    """The medians of X and Y, by which covariance and sequence-stats shift
    their draws, and each regression's values by the median of the variable
    it predicts, so that the quadratic forms of their products' co-moments
    do not cancel."""
    return float(model.marginal_x._quantile(0.5)), float(model.marginal_y._quantile(0.5))


def verify_covariance_identity(model: BivariateModel, n_samples, seed, pool=None):
    """Cov(E(X|Y), Y) = Cov(E(Y|X), X) = Cov(X, Y), all on common draws.

    The products are centred at the sample means, which no worker knows, so
    each returns the Moments of w = (X, Y, phi(Y), psi(X), phi(Y) Y,
    psi(X) X, X Y), shifted by the medians.  A centred product, and each
    paired difference of two, is then c . w plus a constant, with c set by
    the merged means: its variance is the quadratic form of the co-moments.
    """
    phi = model.phi()
    psi = model.psi()
    mid_x, mid_y = _medians(model)

    def worker(rng, count):
        x, y = model.sample(rng, count)
        phi_y, psi_x = phi(y) - mid_x, psi(x) - mid_y
        x, y = x - mid_x, y - mid_y
        return Moments.of((x, y, phi_y, psi_x, phi_y * y, psi_x * x, x * y))

    stats = merged(run_chunked(worker, n_samples, seed, TAG_MAIN, pool=pool))
    cov = stats.m2 / (n_samples - 1)
    cov_xy, cov_phi, cov_psi = cov[0, 1], cov[2, 1], cov[3, 0]
    # (phi(Y) - m)(Y - m), (psi(X) - m)(X - m) and (X - m)(Y - m) as c . w.
    mx, my, mphi, mpsi = stats.mean[:4]
    phi_y, psi_x, x_y = np.zeros((3, 7))
    phi_y[[4, 2, 1]] = 1.0, -my, -mphi
    psi_x[[5, 3, 0]] = 1.0, -mx, -mpsi
    x_y[[6, 0, 1]] = 1.0, -my, -mx
    checks = equality_check(
        [
            "covariance/cov(phi(Y),Y)=cov(X,Y)",
            "covariance/cov(psi(X),X)=cov(X,Y)",
            "covariance/cov(phi(Y),Y)=cov(psi(X),X)",
        ],
        [cov_phi, cov_psi, cov_phi],
        [cov_xy, cov_xy, cov_psi],
        [stats.se(phi_y - x_y), stats.se(psi_x - x_y), stats.se(phi_y - psi_x)],
        n_samples,
        seed,
    )
    return ExperimentResult(experiment="covariance", reports=checks)


def copula_swap_tables(model):
    """(phi, psi) of a copula-swap model, tabulated and checked before any
    draw: both must be strictly increasing, as the inversion chain behind
    the theorem needs; raises UnsupportedModelError otherwise."""
    phi, psi = model.phi(), model.psi()
    for label, f in (("phi", phi), ("psi", psi)):
        if f.monotonicity != INCREASING:
            raise UnsupportedModelError(
                f"copula-swap verification needs strictly increasing {label}; "
                f"got {f.monotonicity}",
                "model",
            )
    return phi, psi


def copula_swap_z(model, n_samples, seed, pool=None):
    """sup_distance_swapped of the draws' empirical copula at the known
    margins: the largest |z| of the lattice counts against C(t, s).

    Each chunk worker draws (x, y) with model.sample and returns the
    lattice_counts of (s, t) = (F_Y(y), F_X(x)), which have the ranks of
    (Z1, Z2) = (phi(Y), psi(X)) when phi and psi are strictly increasing;
    the calling thread adds the counts in chunk order.  The margins are the
    model's known cdfs, so a wrong marginal sampler fails too.
    """
    grid = COPULA_SWAP_GRID

    def worker(rng, count):
        x, y = model.sample(rng, count)
        return lattice_counts(model.marginal_y.cdf(y), model.marginal_x.cdf(x), grid)

    counts = sum(run_chunked(worker, n_samples, seed, TAG_MAIN, pool=pool))
    return sup_distance_swapped(EmpiricalCopula(counts, grid), model.copula)


def _min_relative_step(f):
    """Smallest step between a table's nodes over the table's span: how far
    an increasing table is from a flat (0) or falling (< 0) step."""
    return float(np.min(np.diff(f.values)) / (f.values.max() - f.values.min()))


def verify_copula_theorem(models, tables, n_samples, seed, pool=None):
    """The copula of (Z1, Z2) = (E(X|Y), E(Y|X)) is the argument-swapped C,
    for each BivariateModel of `models`, each on the same seed.

    `tables` holds copula_swap_tables(model) of each model.  If phi and psi
    are strictly increasing, (Z1, Z2) has the ranks of (Y, X) and its
    copula is C(t, s) (Nelsen 2006, Thm 2.4.3).  copula_swap_tables checks
    that premise only to the INCREASING tolerance of condexp, which admits
    flat and slightly falling steps, so the details record how near each
    table comes to one.  The draws check only the sampler, and no worker
    evaluates phi or psi: the report is copula_swap_z against
    COPULA_SWAP_Z.  Model i
    is named "copula-swap/{family}#i": its report is that name plus
    "/swapped", and its details, keyed by it, hold the lattice size and each
    table's smallest relative step.
    """
    reports = []
    details = {}
    for pos, (model, (phi, psi)) in enumerate(zip(models, tables)):
        z = copula_swap_z(model, n_samples, seed, pool=pool)
        name = f"copula-swap/{model.copula.to_config()['family']}#{pos}"
        reports.append(threshold_report(f"{name}/swapped", z, COPULA_SWAP_Z, n_samples, seed))
        details[name] = {
            "grid": COPULA_SWAP_GRID,
            "phi_min_relative_step": _min_relative_step(phi),
            "psi_min_relative_step": _min_relative_step(psi),
        }
    return ExperimentResult(experiment="copula-swap", reports=reports, details=details)


def predicted_sequence_stats(model: BivariateModel, n_samples, seed, pool=None):
    """Predicted-sequence identities for (X1, X2) with Y2 = E(X2 | X1):
    E Y2 = E X2 and Cov(Y1, Y2) = Cov(X1, X2), where Y1 = X1.

    The paired differences are Y2 - X2 and (X1 - mean X1)(Y2 - X2).  As in
    verify_covariance_identity, each worker returns the Moments of
    (X1, X2, Y2, X1 X2, X1 Y2), shifted by the medians, and each difference
    is a combination of them with weights set by the merged means.
    """
    psi = model.psi()  # x1 -> E(X2 | X1 = x1)
    mid_1, mid_2 = _medians(model)

    def worker(rng, count):
        x1, x2 = model.sample(rng, count)
        y2 = psi(x1) - mid_2
        x1, x2 = x1 - mid_1, x2 - mid_2
        return Moments.of((x1, x2, y2, x1 * x2, x1 * y2))

    stats = merged(run_chunked(worker, n_samples, seed, TAG_MAIN, pool=pool))
    cov = stats.m2 / (n_samples - 1)
    m1 = stats.mean[0]
    # Y2 - X2, and (X1 - m1)(Y2 - X2) = X1 Y2 - X1 X2 - m1 Y2 + m1 X2.
    mean_diff = np.array([0.0, -1.0, 1.0, 0.0, 0.0])
    cov_diff = np.array([0.0, m1, -m1, -1.0, 1.0])
    checks = equality_check(
        ["sequence-stats/mean(Y2)=mean(X2)", "sequence-stats/cov(Y1,Y2)=cov(X1,X2)"],
        [stats.mean[2] + mid_2, cov[0, 2]],
        [stats.mean[1] + mid_2, cov[0, 1]],
        [stats.se(mean_diff), stats.se(cov_diff)],
        n_samples,
        seed,
    )
    return ExperimentResult(experiment="sequence-stats", reports=checks)


def martingale_exact_mse(n, k):
    """E[S_{n+1} - S_k]^2 for the +/-1 walk; k = 0 means predicting by 0."""
    return float(n + 1 - k)


def _subset_name(subset):
    return f"martingale/subset={sorted(subset)}"


def martingale_subsets(walk_length, subsets):
    """The subsets of 1..walk_length to score, each deduplicated and sorted,
    after checking that no two are the same list once sorted (their reports
    would share a name)."""
    if walk_length < 1:
        raise DomainError(f"walk length must be >= 1, got {walk_length}", "walk_length")
    check_row_width(walk_length, "walk_length")
    if not subsets:
        raise DomainError("need at least one subset", "subsets")
    sets = [tuple(sorted(set(subset))) for subset in subsets]
    for pos, subset in enumerate(sets):
        if subset and (subset[0] < 1 or subset[-1] > walk_length):
            message = f"subset {list(subset)} must lie within 1..{walk_length}"
            raise DomainError(message, f"subsets[{pos}]")
    check_unique_names([(pos, _subset_name(s)) for pos, s in enumerate(subsets)], "subsets")
    return sets


def martingale_predictors(walk_length, subsets):
    """The walk indices k whose S_k predicts S_{walk_length + 1}, sorted:
    walk_length itself, for the full-information forecast, and the latest
    index of each checked subset, 0 (predicting by 0) for an empty one."""
    return sorted({walk_length, *(subset[-1] if subset else 0 for subset in subsets)})


def martingale_checks(walk_length, n_samples, seed, subsets, pool=None):
    """Martingale forecast checks on the symmetric +/-1 random walk.

    lhs = E[S_{n+1} - S_n]^2 (the optimal full-information forecast error,
    exactly 1); rhs = E[S_{n+1} - S_max(subset)]^2, since the conditional
    expectation given any subset of the past is the value at its latest
    index.  Empty subset predicts by the mean 0.  Every subset is scored on
    the same walk, drawn once.  Returns the experiment's ExperimentResult:
    one report per subset, in order, named "martingale/subset=[...]" by the
    subset as given, sorted, and that subset's exact MSEs keyed
    "subset=[...]" in the details.
    """
    n = int(walk_length)
    given = [sorted(int(k) for k in subset) for subset in subsets]
    subsets = martingale_subsets(n, given)
    latest = [subset[-1] if subset else 0 for subset in subsets]
    predictors = martingale_predictors(n, subsets)
    others = [k for k in predictors if k != n]
    # |S_{n+1} - S_k| <= n + 1, so the narrowest signed type holding
    # -(n + 2) holds each error.
    step_dtype = np.min_scalar_type(-(n + 2))

    def worker(rng, count):
        steps = rng.integers(0, 2, size=(count, n + 1)).astype(step_dtype)
        steps *= 2
        steps -= 1
        # S_{n+1} - S_k is the sum of steps k+1..n+1, columns k..n of
        # `steps`: exact suffix sums, added column by column from the last.
        error = np.zeros(count, dtype=step_dtype)
        sq = {}
        column = n + 1
        for k in reversed(predictors):
            while column > k:
                column -= 1
                error += steps[:, column]
            sq[k] = np.square(error, dtype=np.float64)
        lhs = sq[n]
        # The paired Moments of each predictor but S_n, or of lhs alone
        # when there is none.
        return [Moments.of((lhs, lhs - sq[k])) for k in others] or [Moments.of((lhs,))]

    stats = merged(run_chunked(worker, n_samples, seed, TAG_MAIN, pool=pool))
    by_predictor = dict(zip(others, stats))
    # S_n's difference from lhs is identically 0, so its statistics are
    # exactly 0; lhs's are entry 0 of any of the Moments, since `of` and
    # `merge` act entry by entry.
    lhs = stats[0]
    by_predictor[n] = Moments(lhs.n, np.array([lhs.mean[0], 0.0]), np.diag([lhs.m2[0, 0], 0.0]))
    reports = []
    details = {}
    for k, indices in zip(latest, given):
        name = _subset_name(indices)
        reports.append(inequality_report(name, by_predictor[k], seed))
        # perfbench's exact-rhs oracle reads the exact MSEs, keyed by subset.
        details[name.removeprefix("martingale/")] = {
            "exact_lhs": 1.0,
            "exact_rhs": martingale_exact_mse(n, k),
        }
    return ExperimentResult(experiment="martingale", reports=reports, details=details)
