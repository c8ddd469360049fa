"""Two-component Gaussian-mixture thermometry of IQ readout clouds.

A cloud of demodulated (I, Q) outcomes contains the two pointer states of
the qubit, which carry the same amplifier-added noise. An
expectation-maximization fit of two Gaussians with one shared covariance
yields the state populations; the effective qubit temperature follows
from the two-level Boltzmann ratio

    T_q = (h f_q / k_B) / ln(p_g / p_e).

By default the heavier component is labeled ground state, valid for
T_q << h f_q / k_B; a reference center can be supplied instead for
near-degenerate populations.

EM runs under squared extrapolation (SQUAREM, Varadhan and Roland 2008):
after every two EM steps one step starts from a point extrapolated along
them and is kept only when the log-likelihood does not fall. A sweep
leaves out of its mean, with the reason, any cloud whose fit did not
converge, whose states lie less than 1.5 pooled sigma apart or whose
populations are inverted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import H, K_B, ComputationError, IQCloud, ValidationError

__all__ = [
    "MixtureModel",
    "SweepResult",
    "fit_mixture",
    "sample_mixture",
    "temperature_from_populations",
    "sweep_temperature",
    "DegenerateCovariance",
    "InvertedPopulation",
]


_EM_TOL = 1e-10  # relative log-likelihood change that ends EM
_EM_MAX_ITER = 500
_MIN_SEPARATION = 1.5  # pooled sigma; a sweep leaves out clouds split less cleanly


class DegenerateCovariance(ComputationError):
    """The mixture covariance collapsed onto (numerically) zero variance."""


class InvertedPopulation(ComputationError):
    """p_e >= p_g: infinite or negative temperature, out-of-equilibrium data."""


@dataclass(frozen=True)
class MixtureModel:
    """Two-component Gaussian mixture; component 0 is the ground state.

    separation is the distance between the means in pooled-sigma units; a
    value around or below 1 flags an unidentifiable near-degenerate split.
    """

    weights: tuple
    means: np.ndarray
    covariances: np.ndarray
    separation: float = float("nan")
    converged: bool = True
    n_iterations: int = 0
    log_likelihood_path: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if len(w) != 2 or not all(0.0 < x < 1.0 for x in w) or abs(sum(w) - 1.0) > 1e-9:
            raise ValidationError(f"weights must be two values in (0, 1) summing to 1, got {w}")
        object.__setattr__(self, "weights", w)
        means = np.array(self.means, dtype=float)
        covs = np.array(self.covariances, dtype=float)
        if means.shape != (2, 2) or covs.shape != (2, 2, 2):
            raise ValidationError("means must be (2, 2) and covariances (2, 2, 2)")
        for c in covs:
            if not np.allclose(c, c.T) or np.linalg.det(c) <= 0 or c[0, 0] <= 0:
                raise ValidationError("covariances must be symmetric positive definite")
        means.setflags(write=False)
        covs.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)

    @property
    def p_g(self) -> float:
        return self.weights[0]

    @property
    def p_e(self) -> float:
        return self.weights[1]


@dataclass(frozen=True)
class SweepResult:
    """Per-cloud temperatures and fit flags plus aggregate statistics over a sweep."""

    f_q: np.ndarray
    t_q: np.ndarray
    converged: tuple
    n_iterations: tuple
    separation: np.ndarray
    mean: float
    sigma: float
    excluded: tuple


def _kmeanspp(points, rng):
    """Two k-means++ centers, then a short Lloyd refinement.

    A point joins cluster 1 only when strictly nearer c1: x·(c1 − c0) > (|c1|² − |c0|²)/2.
    """
    n = points.shape[0]
    c0 = points[rng.integers(n)]
    d2 = points - c0
    d2 = np.sum(np.square(d2, out=d2), axis=1)
    total = d2.sum()
    if total <= 0:
        raise DegenerateCovariance("all points coincide; mixture is unidentifiable")
    centers = np.array([c0, points[rng.choice(n, p=d2 / total)]])
    point_sum = points.sum(axis=0)
    labels = None
    for _ in range(25):
        c0, c1 = centers
        new_labels = (points @ (c1 - c0) > 0.5 * (c1 @ c1 - c0 @ c0)).astype(np.intp)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        n1 = int(np.count_nonzero(labels))
        if 0 < n1 < n:
            sum1 = labels @ points
            centers = np.array([(point_sum - sum1) / (n - n1), sum1 / n1])
        else:
            # Re-seed the empty cluster on the farthest point.
            dist2 = np.minimum(*(np.sum((points - c) ** 2, axis=1) for c in centers))
            empty = int(n1 == 0)
            centers[1 - empty], centers[empty] = point_sum / n, points[np.argmax(dist2)]
    return centers, labels


def _em_map(x, var_floor):
    """The shared-covariance EM map over the centred points x, as a function of θ.

    θ = (w1, μ0, μ1, Σ00, Σ01, Σ11); the map returns (θ after one E and one
    M step, ln L(θ)) and needs only the moment sums Σx and Σxxᵀ besides one
    pass of the linear discriminant over the points, whose per-point arrays
    live in three float buffers and one bool buffer made once per fit.
    """
    n = x.shape[0]
    sum_x, sum_xx = x.sum(axis=0), x.T @ x
    a, e, t = np.empty(n), np.empty(n), np.empty(n)
    positive = np.empty(n, dtype=bool)

    def em_map(theta):
        w1, m0, m1 = theta[0], theta[1:3], theta[3:5]
        c00, c01, c11 = theta[5:]
        # E step: log-odds a = x·w + b, responsibility r1 = sigmoid(a)
        det = c00 * c11 - c01**2
        if det <= 0 or not np.isfinite(det):
            raise DegenerateCovariance("component covariance is not positive definite")
        prec = np.array([[c11, -c01], [-c01, c00]]) / det
        b = math.log(w1 / (1.0 - w1)) - 0.5 * (m1 @ prec @ m1 - m0 @ prec @ m0)
        np.add(np.matmul(x, prec @ (m1 - m0), out=a), b, out=a)
        # softplus(a) = max(a, 0) + log1p(e) and sigmoid(a) = max(e, a > 0)/(1 + e)
        # with e = exp(-|a|) in [0, 1]: one exp and one log1p per point, no overflow.
        np.exp(np.negative(np.abs(a, out=e), out=e), out=e)
        softplus_sum = np.maximum(a, 0.0, out=t).sum() + np.log1p(e, out=t).sum()
        # ln L = n(ln π0 − ½ ln det Σ − ln 2π) − ½ Σ (x−μ0)ᵀΣ⁻¹(x−μ0) + Σ softplus(a)
        quad0 = np.sum(prec * sum_xx) - 2.0 * m0 @ prec @ sum_x + n * (m0 @ prec @ m0)
        ll = n * (math.log(1.0 - w1) - 0.5 * math.log(det) - math.log(2.0 * math.pi))
        ll = float(ll - 0.5 * quad0 + softplus_sum)
        r1 = np.maximum(e, np.greater(a, 0.0, out=positive), out=a)
        r1 /= np.add(e, 1.0, out=t)
        # M step
        n1 = float(r1.sum())
        n0 = n - n1
        if min(n0, n1) < 1e-10:
            raise DegenerateCovariance("a component lost all responsibility mass")
        m1 = r1 @ x / n1
        m0 = (sum_x - n1 * m1) / n0
        cov = (sum_xx - n0 * np.outer(m0, m0) - n1 * np.outer(m1, m1)) / n
        det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
        if det <= var_floor**2 or min(cov[0, 0], cov[1, 1]) <= var_floor:
            raise DegenerateCovariance("shared covariance collapsed during EM")
        return np.array([n1 / n, *m0, *m1, cov[0, 0], cov[0, 1], cov[1, 1]]), ll

    return em_map


def _squarem(em_map, theta):
    """Iterate the EM map em_map(θ) -> (F(θ), ln L(θ)) with squared extrapolation.

    θ = (w1, μ0, μ1, Σ00, Σ01, Σ11). Each SqS3 cycle (Varadhan and Roland
    2008) maps θ1 = F(θ0), θ2 = F(θ1), takes r = θ1 − θ0, v = θ2 − 2θ1 + θ0,
    α = clip(|r|/|v|, 1, step_max) and tries θ' = θ0 + 2αr + α²v (α = 1
    gives θ2). If θ' is admissible (0 < w1 < 1, Σ positive definite), its
    map does not raise and ln L(θ') >= ln L(θ1), the next θ0 is F(θ');
    otherwise it is θ2 and ln L(θ') is not recorded, so the recorded path is
    monotone. step_max starts at 1, grows ×4 when a step at the cap is
    accepted and shrinks ÷4, never below 1, when a step is rejected.

    Stops once two consecutive recorded ln L differ by at most 1e-10
    relatively, or after _EM_MAX_ITER map evaluations, extrapolated ones
    included. Returns (θ, ln L path, converged, map evaluations), where θ is
    the last map output the iteration continued from.
    """
    path, n_evals, step_max = [], 0, 1.0

    def record(ll):
        path.append(ll)
        return len(path) > 1 and abs(ll - path[-2]) <= _EM_TOL * max(1.0, abs(ll))

    while True:
        theta1, ll0 = em_map(theta)
        n_evals += 1
        converged = record(ll0)
        if converged or n_evals >= _EM_MAX_ITER:
            return theta1, path, converged, n_evals
        theta2, ll1 = em_map(theta1)
        n_evals += 1
        converged = record(ll1)
        if converged or n_evals >= _EM_MAX_ITER:
            return theta2, path, converged, n_evals
        r, v = theta1 - theta, theta2 - 2.0 * theta1 + theta
        norm_v = float(np.linalg.norm(v))
        alpha = step_max if norm_v == 0.0 else min(max(np.linalg.norm(r) / norm_v, 1.0), step_max)
        trial = theta + 2.0 * alpha * r + alpha**2 * v
        theta, accepted = theta2, False
        w1, c00, c01, c11 = trial[0], trial[5], trial[6], trial[7]
        if 0.0 < w1 < 1.0 and c00 > 0.0 and c00 * c11 - c01**2 > 0.0:
            try:
                mapped, ll_trial = em_map(trial)
                accepted = ll_trial >= ll1
            except DegenerateCovariance:
                pass
            n_evals += 1
        if accepted:
            if alpha == step_max:
                step_max *= 4.0
            theta = mapped
            converged = record(ll_trial)
            if converged:
                return theta, path, converged, n_evals
        else:
            step_max = max(1.0, step_max / 4.0)
        if n_evals >= _EM_MAX_ITER:
            return theta, path, False, n_evals


def fit_mixture(cloud: IQCloud, seed: int = 0, *, ground_center=None) -> MixtureModel:
    """EM fit of a two-component Gaussian mixture with one shared covariance.

    Both pointer states carry the same amplifier-added noise ("EEE" model of
    Fraley and Raftery 2002), so the E step is a linear discriminant and the
    M step needs only moment sums; covariances holds the shared estimate twice.
    cloud.points is column-major (see IQCloud), so every reduction over the
    points runs down a contiguous column, and the fit depends on the point
    values alone, not on the memory layout the cloud was built from.

    The EM map runs under squared extrapolation (see _squarem).
    n_iterations counts every evaluation of the map, the extrapolated ones
    included, and log_likelihood_path holds the log-likelihoods the
    iteration kept, which never fall.

    Deterministic for a given seed, which must be non-negative (k-means++
    initialization draws from a seeded generator). The component with the
    larger weight is labeled ground state unless ground_center is given, in
    which case the component closer to that center is. EM stops once the log-likelihood
    changes by at most 1e-10 relatively, or after a fixed 500 map
    evaluations, which the result reports as converged=False.
    """
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    points = np.asarray(cloud.points, dtype=float)
    n = points.shape[0]
    if n < 4:
        raise ValidationError(f"mixture fit needs >= 4 points, got {n}")
    total_var = float(points.var(axis=0).sum())
    if total_var <= 0 or not np.isfinite(total_var):
        raise DegenerateCovariance("cloud has zero variance; mixture is unidentifiable")
    var_floor = 1e-12 * total_var

    # Centred moments stay free of cancellation for clouds far from the origin.
    origin = points.mean(axis=0)
    x = points - origin

    centers, labels = _kmeanspp(x, np.random.default_rng(seed))
    weights = np.clip([np.mean(labels == k) for k in (0, 1)], 2.0 / n, 1.0 - 2.0 / n)
    weights /= weights.sum()
    d = centers[labels]
    np.subtract(x, d, out=d)
    cov = d.T @ d / n
    del d, labels  # freed before EM allocates its buffers
    cov[[0, 1], [0, 1]] = np.maximum(np.diag(cov), var_floor)
    theta0 = np.array([weights[1], *centers[0], *centers[1], cov[0, 0], cov[0, 1], cov[1, 1]])

    theta, ll_path, converged, n_evals = _squarem(_em_map(x, var_floor), theta0)
    weights = np.array([1.0 - theta[0], theta[0]])
    means = theta[1:5].reshape(2, 2) + origin
    cov = np.array([[theta[5], theta[6]], [theta[6], theta[7]]])
    if ground_center is not None:
        ref = np.asarray(ground_center, dtype=float)
        order = np.argsort([np.linalg.norm(means[k] - ref) for k in (0, 1)])
    else:
        order = np.argsort(-weights)
    weights, means = weights[order], means[order]

    pooled = np.trace(cov) / 2.0
    separation = float(np.linalg.norm(means[0] - means[1]) / math.sqrt(pooled))
    return MixtureModel(
        weights=(float(weights[0]), float(weights[1])),
        means=means,
        covariances=np.array([cov, cov]),
        separation=separation,
        converged=converged,
        n_iterations=n_evals,
        log_likelihood_path=np.asarray(ll_path),
    )


def sample_mixture(model: MixtureModel, n_points: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n_points from the mixture, shuffled so order carries no label."""
    n_g = rng.binomial(n_points, model.weights[0])
    parts = [
        rng.multivariate_normal(model.means[0], model.covariances[0], size=n_g),
        rng.multivariate_normal(model.means[1], model.covariances[1], size=n_points - n_g),
    ]
    points = np.concatenate(parts, axis=0)
    return points[rng.permutation(n_points)]


def temperature_from_populations(p_e: float, p_g: float, f_q: float) -> float:
    """Effective temperature from the excited/ground population ratio.

    Invariant under common rescaling of (p_e, p_g); only the ratio enters.
    """
    if p_e <= 0 or p_g <= 0:
        raise ValidationError("populations must be positive")
    if f_q <= 0:
        raise ValidationError("f_q must be positive")
    if p_e >= p_g:
        raise InvertedPopulation(
            f"p_e={p_e:.4g} >= p_g={p_g:.4g}: temperature is undefined (out of equilibrium)"
        )
    return (H * f_q / K_B) / math.log(p_g / p_e)


def _cloud_temperature(model: MixtureModel, f_q: float) -> float:
    """T_q of one fitted cloud; ComputationError when the fit cannot be trusted."""
    if not model.converged:
        raise ComputationError(f"EM did not converge in {model.n_iterations} map evaluations")
    if not model.separation >= _MIN_SEPARATION:
        raise ComputationError(
            f"separation {model.separation:.3g} < {_MIN_SEPARATION:g} pooled sigma: "
            "the two states are not resolved"
        )
    return temperature_from_populations(model.p_e, model.p_g, f_q)


def sweep_temperature(clouds, seed: int = 0, *, ground_center=None) -> SweepResult:
    """Per-cloud mixture temperatures plus mean and population sigma.

    A cloud whose fit raised DegenerateCovariance or did not converge,
    whose components lie less than 1.5 pooled sigma apart, or whose fitted
    populations are inverted is left out of the aggregate and reported in
    SweepResult.excluded as (index, reason). When every cloud is left out
    the sweep raises ComputationError, or InvertedPopulation or
    DegenerateCovariance when every cloud was left out for that reason.

    clouds may be any iterable and is consumed lazily: each cloud is released
    before the next one is drawn, so a generator of file reads holds one at a time.
    """
    f_qs, t_qs, fits, excluded, idx = [], [], [], [], -1
    for cloud in clouds:  # not enumerate, whose reused tuple would keep the last cloud
        idx, f_q = idx + 1, cloud.f_q
        try:
            model = fit_mixture(cloud, seed=seed + idx, ground_center=ground_center)
            t_q = _cloud_temperature(model, f_q)
        except ComputationError as exc:
            excluded.append((idx, exc.with_traceback(None)))  # its frames hold the cloud
            continue
        finally:
            del cloud
        f_qs.append(f_q)
        t_qs.append(t_q)
        fits.append(model)
    if idx < 0:
        raise ValidationError("need at least one cloud")
    if not t_qs:
        kinds = {type(exc) for _, exc in excluded}
        raise (kinds.pop() if len(kinds) == 1 else ComputationError)(
            "every cloud was excluded; no temperature to report: "
            + "; ".join(f"cloud {idx}: {exc}" for idx, exc in excluded)
        )
    t_arr = np.asarray(t_qs)
    return SweepResult(
        f_q=np.asarray(f_qs),
        t_q=t_arr,
        converged=tuple(m.converged for m in fits),
        n_iterations=tuple(m.n_iterations for m in fits),
        separation=np.array([m.separation for m in fits]),
        mean=float(t_arr.mean()),
        sigma=float(t_arr.std()),
        excluded=tuple((idx, str(exc)) for idx, exc in excluded),
    )
