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
    d2 = np.sum((points - c0) ** 2, axis=1)
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
            dist2 = np.sum((points[:, None, :] - centers) ** 2, axis=2).min(axis=1)
            empty = int(n1 == 0)
            centers[1 - empty], centers[empty] = point_sum / n, points[np.argmax(dist2)]
    return centers, labels


def fit_mixture(cloud: IQCloud, seed: int = 0, *, ground_center=None) -> MixtureModel:
    """EM fit of a two-component Gaussian mixture with one shared covariance.

    Both pointer states carry the same amplifier-added noise ("EEE" model of
    Fraley and Raftery 2002), so the E step is a linear discriminant and the
    M step needs only moment sums; covariances holds the shared estimate twice.

    Deterministic for a given seed (k-means++ initialization draws from a
    seeded generator). The component with the larger weight is labeled
    ground state unless ground_center is given, in which case the
    component closer to that center is. EM stops once the log-likelihood
    changes by at most 1e-10 relatively, or after a fixed 500 iterations,
    which the result reports as converged=False.
    """
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
    sum_x, sum_xx = x.sum(axis=0), x.T @ x

    centers, labels = _kmeanspp(x, np.random.default_rng(seed))
    weights = np.clip([np.mean(labels == k) for k in (0, 1)], 2.0 / n, 1.0 - 2.0 / n)
    weights /= weights.sum()
    m0, m1 = centers
    d = x - centers[labels]
    cov = d.T @ d / n
    cov[[0, 1], [0, 1]] = np.maximum(np.diag(cov), var_floor)

    ll_path, converged, it = [], False, 0
    for it in range(1, _EM_MAX_ITER + 1):
        # E step: log-odds a = x·w + b, responsibility r1 = sigmoid(a)
        det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
        if det <= 0 or not np.isfinite(det):
            raise DegenerateCovariance("component covariance is not positive definite")
        prec = np.array([[cov[1, 1], -cov[0, 1]], [-cov[0, 1], cov[0, 0]]]) / det
        b = math.log(weights[1] / weights[0]) - 0.5 * (m1 @ prec @ m1 - m0 @ prec @ m0)
        a = x @ (prec @ (m1 - m0)) + b
        # softplus(a) = max(a, 0) + log1p(e) and sigmoid(a) = (a > 0 ? 1 : e)/(1 + e)
        # with e = exp(-|a|) <= 1: one exp and one log1p per point, no overflow.
        e = np.exp(-np.abs(a))
        softplus_sum = np.maximum(a, 0.0).sum() + np.log1p(e).sum()
        # ln L = n(ln π0 − ½ ln det Σ − ln 2π) − ½ Σ (x−μ0)ᵀΣ⁻¹(x−μ0) + Σ softplus(a)
        quad0 = np.sum(prec * sum_xx) - 2.0 * m0 @ prec @ sum_x + n * (m0 @ prec @ m0)
        ll = n * (math.log(weights[0]) - 0.5 * math.log(det) - math.log(2.0 * math.pi))
        ll = float(ll - 0.5 * quad0 + softplus_sum)
        ll_path.append(ll)
        r1 = np.where(a > 0.0, 1.0, e) / (1.0 + e)
        # M step
        n1 = float(r1.sum())
        n0 = n - n1
        if min(n0, n1) < 1e-10:
            raise DegenerateCovariance("a component lost all responsibility mass")
        weights = np.array([n0, n1]) / n
        m1 = r1 @ x / n1
        m0 = (sum_x - n1 * m1) / n0
        cov = (sum_xx - n0 * np.outer(m0, m0) - n1 * np.outer(m1, m1)) / n
        det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
        if det <= var_floor**2 or min(cov[0, 0], cov[1, 1]) <= var_floor:
            raise DegenerateCovariance("shared covariance collapsed during EM")
        if len(ll_path) > 1 and abs(ll_path[-1] - ll_path[-2]) <= _EM_TOL * max(1.0, abs(ll)):
            converged = True
            break

    means = np.array([m0, m1]) + origin
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
        n_iterations=it,
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


def sweep_temperature(clouds, seed: int = 0, *, ground_center=None) -> SweepResult:
    """Per-cloud mixture temperatures plus mean and population sigma.

    Clouds whose fitted populations are inverted are excluded from the
    aggregate and reported in SweepResult.excluded as (index, reason).
    """
    clouds = list(clouds)
    if not clouds:
        raise ValidationError("need at least one cloud")
    f_qs, t_qs, fits, excluded = [], [], [], []
    for idx, cloud in enumerate(clouds):
        model = fit_mixture(cloud, seed=seed + idx, ground_center=ground_center)
        try:
            t_q = temperature_from_populations(model.p_e, model.p_g, cloud.f_q)
        except InvertedPopulation as exc:
            excluded.append((idx, str(exc)))
            continue
        f_qs.append(cloud.f_q)
        t_qs.append(t_q)
        fits.append(model)
    if not t_qs:
        raise InvertedPopulation("every cloud was excluded; no temperature to report")
    t_arr = np.asarray(t_qs)
    return SweepResult(
        f_q=np.asarray(f_qs),
        t_q=t_arr,
        converged=tuple(m.converged for m in fits),
        n_iterations=tuple(m.n_iterations for m in fits),
        separation=np.array([m.separation for m in fits]),
        mean=float(t_arr.mean()),
        sigma=float(t_arr.std()),
        excluded=tuple(excluded),
    )
