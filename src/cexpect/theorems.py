"""Monte Carlo verification harness for the predictor inequalities.

Each verify_* operation draws with common random numbers, evaluates both
sides of an inequality (or identity) on the same draws, and emits a typed
report whose verdict allows only Monte Carlo slack (3 paired SEs for
inequalities, 4 for identities).  Degenerate cases where both sides are the
same computation produce margin exactly 0.

Replications run in fixed-size chunks with per-chunk Philox streams (see
rng.py), so reports are bit-identical for any worker count.
"""

import math
from dataclasses import dataclass

import numpy as np

from .condexp import (
    INCREASING,
    BivariateModel,
    GaussianVector,
    RegressionFunction,
    chebyshev_nodes,
)
from .config import Fields
from .copulas import EmpiricalCopula, sup_distance, sup_distance_swapped
from .errors import ConstructionError, DomainError, UnsupportedModelError
from .marginals import Marginal, Normal, Uniform, marginal_from_config
from .quadrature import tabulate
from .reports import (
    ExperimentResult,
    equality_check,
    inequality_report,
    threshold_report,
)
from .rng import simulate_chunked

# Stream tags (part of the reproducibility contract).
TAG_MAIN = 1

COPULA_SWAP_DEFAULT_THRESHOLD = 0.02
COPULA_SWAP_DEFAULT_GRID = 50


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
        if self.comonotone or self.n_copies == 1:
            cov = np.array(
                [
                    [sd_y**2, rho_xy * sd_x * sd_y],
                    [rho_xy * sd_x * sd_y, sd_x**2],
                ]
            )
            mean = np.array([mean_y, mean_x])
        else:
            k = self.n_copies
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
        y = mat[:, 0]
        if self.comonotone or self.n_copies == 1:
            x = np.repeat(mat[:, 1:2], self.n_copies, axis=1)
        else:
            x = mat[:, 1:]
        return y, x

    def predictor(self):
        """x -> E(Y | X_i = x); one shared affine rule for all copies."""
        slope = self.rho_xy * self.sd_y / self.sd_x
        intercept = self.mean_y - slope * self.mean_x
        x_marg = Normal(mean_=self.mean_x, sd=self.sd_x)
        lo, hi = x_marg.truncated_support()
        grid = chebyshev_nodes(lo, hi)
        return RegressionFunction(grid, intercept + slope * grid, affine=(intercept, slope))


class ConditionalIidCopies:
    """Copies built as X_i = beta * Y + eps_i with iid noise.

    Not jointly Gaussian unless the noise is; shows the inequalities do not
    hinge on the Gaussian equicorrelation construction.  E(Y | X_i = x) is
    tabulated by quadrature of f_Y(y) * f_eps(x - beta * y).
    """

    def __init__(self, n_copies, beta, y_marginal: Marginal, noise: Marginal):
        if n_copies < 1:
            raise ConstructionError(f"n_copies must be >= 1, got {n_copies}", "n_copies")
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
        known = np.flatnonzero(~np.isnan(values))
        if known.size:
            nodes = np.arange(grid.size)
            values = values[known[np.maximum(np.searchsorted(known, nodes, side="right") - 1, 0)]]
        return RegressionFunction(grid, values)


def copies_model_from_config(cfg):
    """Build a copies model from its JSON-config dict representation; raises
    ConfigError naming every field at fault."""
    f = Fields(cfg, "a copies model object")
    kind = f.choice("kind", ("gaussian-copies", "conditional-iid"), default="gaussian-copies")
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
    return f.close(model)


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


def _row_average(columns, comonotone):
    """Mean over copies; identical-copy models take the shared column exactly."""
    if comonotone or columns.shape[1] == 1:
        return columns[:, 0]
    return columns.mean(axis=1)


def verify_theorem1(model, n_samples, seed, pool=None, name=None):
    """Averaged predictor beats any single predictor:
    E(Y - mean_i E(Y|X_i))^2 <= E(Y - E(Y|X_1))^2, on common draws.
    """
    psi = model.predictor()
    y, x = simulate_chunked(
        lambda rng, count: model.sample(rng, count), n_samples, seed, TAG_MAIN, pool=pool
    )
    preds = psi(x)
    avg = _row_average(preds, model.comonotone)
    lhs_sq = (y - avg) ** 2
    rhs_sq = (y - preds[:, 0]) ** 2
    return inequality_report(name or f"theorem1/{model.label()}", lhs_sq, rhs_sq, seed)


def verify_theorem2(model, n_samples, seed, pool=None, name=None):
    """Averaged copies beat any single copy:
    E(Y - mean_i X_i)^2 <= E(Y - X_1)^2, on common draws.
    """
    y, x = simulate_chunked(
        lambda rng, count: model.sample(rng, count), n_samples, seed, TAG_MAIN, pool=pool
    )
    avg = _row_average(x, model.comonotone)
    lhs_sq = (y - avg) ** 2
    rhs_sq = (y - x[:, 0]) ** 2
    return inequality_report(name or f"theorem2/{model.label()}", lhs_sq, rhs_sq, seed)


@dataclass
class Theorem3Result:
    report: object
    closed_form: dict


def verify_theorem3(v: GaussianVector, n_samples, seed, pool=None, name=None, duplicate_last=False):
    """Two conditioners beat the better single conditioner:
    E[X - E(X|Y,Z)]^2 <= min over single-conditioner MSEs.

    With duplicate_last=True, `v` is 2-dimensional (X, Y) and Z = Y exactly;
    conditioning collapses to the single distinct value and the report shows
    margin exactly 0.
    """
    check_theorem3_dim(v.dim, duplicate_last)
    if duplicate_last:
        mat = simulate_chunked(
            lambda rng, count: (v.sample(rng, count),), n_samples, seed, TAG_MAIN, pool=pool
        )[0]
        mat = np.column_stack([mat, mat[:, 1]])
        base = v
        pred_both = _linear_pred(base, 0, (1,), mat)
        pred_y = pred_both
        pred_z = pred_both
        closed = {
            "mse_both": base.residual_variance(0, (1,)),
            "mse_y": base.residual_variance(0, (1,)),
            "mse_z": base.residual_variance(0, (1,)),
        }
    else:
        mat = simulate_chunked(
            lambda rng, count: (v.sample(rng, count),), n_samples, seed, TAG_MAIN, pool=pool
        )[0]
        pred_both = _linear_pred(v, 0, (1, 2), mat)
        pred_y = _linear_pred(v, 0, (1,), mat)
        pred_z = _linear_pred(v, 0, (2,), mat)
        closed = {
            "mse_both": v.residual_variance(0, (1, 2)),
            "mse_y": v.residual_variance(0, (1,)),
            "mse_z": v.residual_variance(0, (2,)),
        }

    x = mat[:, 0]
    lhs_sq = (x - pred_both) ** 2
    rhs_y_sq = (x - pred_y) ** 2
    rhs_z_sq = (x - pred_z) ** 2
    rhs_sq = rhs_y_sq if float(np.mean(rhs_y_sq)) <= float(np.mean(rhs_z_sq)) else rhs_z_sq
    report = inequality_report(name or "theorem3", lhs_sq, rhs_sq, seed)
    return Theorem3Result(report=report, closed_form=closed)


def check_theorem3_dim(dim, duplicate_last=False):
    """Theorem 3 takes (X, Y, Z), or (X, Y) when Z duplicates Y."""
    want = 2 if duplicate_last else 3
    if dim != want:
        raise DomainError(f"theorem3 needs a {want}-dimensional vector, got d={dim}", "dim")


def _linear_pred(v: GaussianVector, target, given, mat):
    if len(given) == 0:
        return np.full(mat.shape[0], v.mean[target])
    intercept, coefs = v.conditional_coefficients(target, given)
    return intercept + mat[:, list(given)] @ coefs


def chain_index_sets(dim, index_sets, target):
    """The index sets of a corollary chain, each sorted, after checking that
    they are at least two, nested, and inside 0..dim-1 without `target`."""
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
    return sets


def verify_corollary_chain(v: GaussianVector, index_sets, n_samples, seed, target=None, pool=None, name=None):
    """Nested conditioning never hurts: MSE is nonincreasing along a chain
    of nested index sets.  One report per adjacent pair.
    """
    if target is None:
        target = v.dim - 1
    sets = chain_index_sets(v.dim, index_sets, target)
    mat = simulate_chunked(
        lambda rng, count: (v.sample(rng, count),), n_samples, seed, TAG_MAIN, pool=pool
    )[0]
    x = mat[:, target]
    sq_errors = []
    closed = []
    for s in sets:
        pred = _linear_pred(v, target, s, mat)
        sq_errors.append((x - pred) ** 2)
        closed.append(v.residual_variance(target, s) if s else float(v.cov[target, target]))

    reports = []
    base = name or "corollary-chain"
    for i in range(len(sets) - 1):
        reports.append(
            inequality_report(
                f"{base}/{list(sets[i])}->{list(sets[i + 1])}",
                sq_errors[i + 1],
                sq_errors[i],
                seed,
            )
        )
    details = {
        "index_sets": [list(s) for s in sets],
        "closed_form_mse": closed,
        "monte_carlo_mse": [float(np.mean(e)) for e in sq_errors],
    }
    return ExperimentResult(experiment=base, reports=reports, details=details)


def verify_covariance_identity(model: BivariateModel, n_samples, seed, pool=None, name=None):
    """Cov(E(X|Y), Y) = Cov(E(Y|X), X) = Cov(X, Y), all on common draws."""
    phi = model.phi()
    psi = model.psi()
    x, y = simulate_chunked(
        lambda rng, count: model.sample(rng, count), n_samples, seed, TAG_MAIN, pool=pool
    )
    z1 = phi(y)
    z2 = psi(x)
    xc = x - x.mean()
    yc = y - y.mean()
    z1c = z1 - z1.mean()
    z2c = z2 - z2.mean()
    n = x.size
    cov_phi = float(np.sum(z1c * yc) / (n - 1))
    cov_psi = float(np.sum(z2c * xc) / (n - 1))
    cov_xy = float(np.sum(xc * yc) / (n - 1))

    base = name or "covariance"
    checks = [
        equality_check(f"{base}/cov(phi(Y),Y)=cov(X,Y)", cov_phi, cov_xy, z1c * yc - xc * yc, seed),
        equality_check(f"{base}/cov(psi(X),X)=cov(X,Y)", cov_psi, cov_xy, z2c * xc - xc * yc, seed),
        equality_check(f"{base}/cov(phi(Y),Y)=cov(psi(X),X)", cov_phi, cov_psi, z1c * yc - z2c * xc, seed),
    ]
    details = {"cov_phi_y": cov_phi, "cov_psi_x": cov_psi, "cov_xy": cov_xy}
    return ExperimentResult(experiment=base, reports=checks, details=details)


def predictor_pair_covariance(rho, cov_xy):
    """Analytic Cov(E(X|Y), E(Y|X)) for the bivariate normal: rho^2 Cov(X,Y).

    Valid for any |rho| <= 1 (the degenerate rho = +/-1 limit is symbolic,
    no sampling involved); equals Cov(X, Y) only when rho^2 = 1.
    """
    if not (-1.0 <= rho <= 1.0):
        raise DomainError(f"rho must be in [-1, 1], got {rho}")
    return rho * rho * cov_xy


def covariance_counterexample(v: GaussianVector):
    """(Cov(Z1, Z2), Cov(X, Y)) for a bivariate normal vector.

    Demonstrates Cov(E(X|Y), E(Y|X)) = rho^2 Cov(X,Y) != Cov(X,Y) whenever
    rho^2 != 1 and Cov(X,Y) != 0.
    """
    if v.dim != 2:
        raise DomainError(f"counterexample needs a 2-dimensional vector, got d={v.dim}")
    cov_xy = float(v.cov[0, 1])
    rho = cov_xy / math.sqrt(float(v.cov[0, 0]) * float(v.cov[1, 1]))
    return predictor_pair_covariance(rho, cov_xy), cov_xy


def check_copula_swap(grid, threshold):
    """A lattice of grid >= 2 points a side and a positive threshold."""
    if grid < 2:
        raise DomainError(f"grid must be >= 2, got {grid}", "grid")
    if not threshold > 0:
        raise DomainError(f"threshold must be > 0, got {threshold}", "threshold")


def verify_copula_theorem(
    model: BivariateModel,
    n_samples,
    seed,
    grid=COPULA_SWAP_DEFAULT_GRID,
    threshold=COPULA_SWAP_DEFAULT_THRESHOLD,
    pool=None,
    name=None,
):
    """The copula of (Z1, Z2) = (E(X|Y), E(Y|X)) is the argument-swapped C.

    Requires strictly increasing regression functions (the inversion chain
    behind the theorem needs them); models violating that are rejected.
    Compares the empirical copula of (Z1, Z2) against C(s, t) and, since all
    supported families are exchangeable, against C(t, s) as well.
    """
    check_copula_swap(grid, threshold)
    phi = model.phi()
    psi = model.psi()
    for label, f in (("phi", phi), ("psi", psi)):
        if f.monotonicity != INCREASING:
            raise UnsupportedModelError(
                f"copula-swap verification needs strictly increasing {label}; "
                f"got {f.monotonicity}"
            )
    x, y = simulate_chunked(
        lambda rng, count: model.sample(rng, count), n_samples, seed, TAG_MAIN, pool=pool
    )
    z1 = phi(y)
    z2 = psi(x)
    emp = EmpiricalCopula(np.asarray(z1), np.asarray(z2))
    d_swapped = sup_distance_swapped(emp, model.copula, grid)
    d_direct = sup_distance(emp, model.copula, grid)

    base = name or "copula-swap"
    reports = [
        threshold_report(f"{base}/swapped", d_swapped, threshold, n_samples, seed),
        threshold_report(f"{base}/exchangeable", d_direct, threshold, n_samples, seed),
    ]
    details = {
        "sup_distance_swapped": d_swapped,
        "sup_distance_exchangeable": d_direct,
        "grid": int(grid),
    }
    return ExperimentResult(experiment=base, reports=reports, details=details)


def predicted_sequence_stats(model: BivariateModel, n_samples, seed, pool=None, name=None):
    """Predicted-sequence identities for (X1, X2) with Y2 = E(X2 | X1):
    E Y2 = E X2 and Cov(Y1, Y2) = Cov(X1, X2), where Y1 = X1.
    """
    psi = model.psi()  # x1 -> E(X2 | X1 = x1)
    x1, x2 = simulate_chunked(
        lambda rng, count: model.sample(rng, count), n_samples, seed, TAG_MAIN, pool=pool
    )
    y2 = psi(x1)
    n = x1.size
    x1c = x1 - x1.mean()
    mean_y2 = float(np.mean(y2))
    mean_x2 = float(np.mean(x2))
    cov_pred = float(np.sum(x1c * (y2 - y2.mean())) / (n - 1))
    cov_raw = float(np.sum(x1c * (x2 - x2.mean())) / (n - 1))

    base = name or "sequence-stats"
    checks = [
        equality_check(f"{base}/mean(Y2)=mean(X2)", mean_y2, mean_x2, y2 - x2, seed),
        equality_check(f"{base}/cov(Y1,Y2)=cov(X1,X2)", cov_pred, cov_raw, x1c * (y2 - x2), seed),
    ]
    details = {
        "mean_y2": mean_y2,
        "mean_x2": mean_x2,
        "cov_y1_y2": cov_pred,
        "cov_x1_x2": cov_raw,
    }
    return ExperimentResult(experiment=base, reports=checks, details=details)


def martingale_exact_mse(n, k):
    """E[S_{n+1} - S_k]^2 for the +/-1 walk; k = 0 means predicting by 0."""
    return float(n + 1 - k)


def martingale_subsets(walk_length, subsets):
    """The subsets of 1..walk_length to score, each deduplicated and sorted."""
    if walk_length < 1:
        raise DomainError(f"walk length must be >= 1, got {walk_length}", "walk_length")
    if not subsets:
        raise DomainError("need at least one subset", "subsets")
    subsets = [tuple(sorted(set(subset))) for subset in subsets]
    for pos, subset in enumerate(subsets):
        if subset and (subset[0] < 1 or subset[-1] > walk_length):
            message = f"subset {list(subset)} must lie within 1..{walk_length}"
            raise DomainError(message, f"subsets[{pos}]")
    return subsets


def martingale_checks(walk_length, n_samples, seed, subsets, pool=None, names=None):
    """Martingale forecast checks on the symmetric +/-1 random walk.

    lhs = E[S_{n+1} - S_n]^2 (the optimal full-information forecast error,
    exactly 1); rhs = E[S_{n+1} - S_max(subset)]^2, since the conditional
    expectation given any subset of the past is the value at its latest
    index.  Empty subset predicts by the mean 0.  Every subset is scored on
    the same walk, drawn once; returns one ExperimentResult per subset, in
    order, named by `names` when given.
    """
    n = int(walk_length)
    subsets = martingale_subsets(n, [[int(k) for k in subset] for subset in subsets])

    def worker(rng, count):
        steps = rng.integers(0, 2, size=(count, n + 1)).astype(np.float64) * 2.0 - 1.0
        return (np.cumsum(steps, axis=1),)

    walk = simulate_chunked(worker, n_samples, seed, TAG_MAIN, pool=pool)[0]
    s_next = walk[:, n]
    lhs_sq = (s_next - walk[:, n - 1]) ** 2
    results = []
    for pos, subset in enumerate(subsets):
        if subset:
            pred = walk[:, subset[-1] - 1]
        else:
            pred = np.zeros(walk.shape[0])
        rhs_sq = (s_next - pred) ** 2
        base = names[pos] if names else f"martingale/subset={list(subset)}"
        report = inequality_report(base, lhs_sq, rhs_sq, seed)
        closed = {
            "exact_lhs": 1.0,
            "exact_rhs": martingale_exact_mse(n, subset[-1] if subset else 0),
        }
        results.append(ExperimentResult(experiment=base, reports=[report], details=closed))
    return results


def martingale_check(walk_length, n_samples, seed, subset=(), pool=None, name=None):
    """One-subset form of `martingale_checks`."""
    names = [name] if name else None
    return martingale_checks(walk_length, n_samples, seed, [subset], pool, names)[0]
