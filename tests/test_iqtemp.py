import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linetherm import iqtemp
from linetherm.core import H, K_B, ComputationError, IQCloud, ValidationError
from linetherm.iqtemp import (
    DegenerateCovariance,
    InvertedPopulation,
    MixtureModel,
    fit_mixture,
    sweep_temperature,
    temperature_from_populations,
)
from linetherm.synth import gen_iq

EYE2 = np.array([np.eye(2), np.eye(2)])


def mixture(p_g, half_sep=2.0):
    return MixtureModel(
        weights=(p_g, 1.0 - p_g),
        means=np.array([[-half_sep, 0.0], [half_sep, 0.0]]),
        covariances=EYE2,
    )


def boltzmann_pg(t_q, f_q):
    ratio = np.exp(-H * f_q / (K_B * t_q))
    return 1.0 / (1.0 + ratio)


def test_mixture_model_validation():
    with pytest.raises(ValidationError):
        MixtureModel(weights=(0.6, 0.6), means=np.zeros((2, 2)), covariances=EYE2)
    with pytest.raises(ValidationError):
        MixtureModel(weights=(0.7, 0.3), means=np.zeros((2, 2)),
                     covariances=np.array([np.eye(2), -np.eye(2)]))


def test_well_separated_weight_recovery():
    cloud = gen_iq(mixture(0.9, half_sep=3.0), 50_000, 0.5e9, seed=5)
    model = fit_mixture(cloud, seed=5)
    assert model.p_g == pytest.approx(0.9, abs=0.005)
    assert model.p_e == pytest.approx(0.1, abs=0.005)
    assert model.converged


def test_touching_two_sigma_circles_weight_bias():
    # pointer states at +-2 sigma, as in the reference IQ distributions
    cloud = gen_iq(mixture(0.713), 50_000, 0.5e9, seed=8)
    model = fit_mixture(cloud, seed=8)
    assert model.p_g == pytest.approx(0.713, abs=0.01)
    assert model.separation == pytest.approx(4.0, rel=0.1)


def test_identical_points_degenerate():
    cloud = IQCloud(points=np.full((200, 2), 1.3), f_q=1e9)
    with pytest.raises(DegenerateCovariance):
        fit_mixture(cloud)


def test_single_cluster_flagged_by_separation():
    rng = np.random.default_rng(0)
    cloud = IQCloud(points=rng.standard_normal((5000, 2)), f_q=1e9)
    try:
        model = fit_mixture(cloud, seed=0)
    except DegenerateCovariance:
        return  # collapse is an accepted outcome for unidentifiable input
    assert model.separation < 1.5  # near-degenerate split is flagged


def test_seed_determinism():
    cloud = gen_iq(mixture(0.7), 5000, 0.5e9, seed=4)
    a = fit_mixture(cloud, seed=9)
    b = fit_mixture(cloud, seed=9)
    assert a.weights == b.weights
    assert np.array_equal(a.means, b.means)


def test_fit_does_not_depend_on_the_callers_memory_layout():
    points = gen_iq(mixture(0.8, half_sep=1.0), 5000, 0.5e9, seed=6).points
    fits = [fit_mixture(IQCloud(points=np.array(points, order=order), f_q=0.5e9), seed=2)
            for order in ("C", "F")]
    a, b = fits
    assert a.weights == b.weights and a.separation == b.separation
    assert a.n_iterations == b.n_iterations and a.converged == b.converged
    for name in ("means", "covariances", "log_likelihood_path"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_nonconvergence_flag_and_raise(monkeypatch):
    cloud = gen_iq(mixture(0.6, half_sep=0.5), 2000, 0.5e9, seed=3)
    monkeypatch.setattr(iqtemp, "_EM_MAX_ITER", 2)
    flagged = fit_mixture(cloud, seed=3)
    assert flagged.n_iterations == 2
    assert not flagged.converged


def test_touching_two_sigma_low_p_e_converges_to_truth():
    # a model with two free covariances has its likelihood maximum at a
    # wrong split of this cloud (p_e ~ 0.2 against 0.05)
    p_e, f_q = 0.05, 0.5e9
    cloud = gen_iq(mixture(1.0 - p_e, half_sep=1.0), 50_000, f_q, seed=3)
    model = fit_mixture(cloud, seed=3)
    assert model.converged
    t_q = temperature_from_populations(model.p_e, model.p_g, f_q)
    assert t_q == pytest.approx(temperature_from_populations(p_e, 1.0 - p_e, f_q), abs=2e-3)
    assert np.array_equal(model.covariances[0], model.covariances[1])
    # plain EM takes 324 map evaluations on this cloud
    assert model.n_iterations <= 120


def test_em_log_likelihood_monotone():
    cloud = gen_iq(mixture(0.713), 20_000, 0.5e9, seed=2)
    model = fit_mixture(cloud, seed=2)
    diffs = np.diff(model.log_likelihood_path)
    assert np.all(diffs >= -1e-7 * np.abs(model.log_likelihood_path[:-1]))


def test_label_symmetry_under_point_permutation():
    cloud = gen_iq(mixture(0.713), 20_000, 0.5e9, seed=6)
    rng = np.random.default_rng(123)
    shuffled = IQCloud(points=cloud.points[rng.permutation(len(cloud.points))], f_q=cloud.f_q)
    t_a = temperature_from_populations(*fit_mixture(cloud, seed=1).weights[::-1], cloud.f_q)
    t_b = temperature_from_populations(*fit_mixture(shuffled, seed=1).weights[::-1], cloud.f_q)
    assert t_a == pytest.approx(t_b, rel=1e-3)


def test_ground_center_labeling():
    cloud = gen_iq(mixture(0.3), 20_000, 0.5e9, seed=7)  # minority at (-2, 0)
    by_weight = fit_mixture(cloud, seed=7)
    assert by_weight.means[0][0] > 0  # heavier component sits at +2
    by_center = fit_mixture(cloud, seed=7, ground_center=(-2.0, 0.0))
    assert by_center.means[0][0] < 0
    assert by_center.p_g == pytest.approx(0.3, abs=0.02)


def test_refit_weights_within_sampling_error():
    p_g, n = 0.713, 50_000
    cloud = gen_iq(mixture(p_g), n, 0.5e9, seed=11)
    model = fit_mixture(cloud, seed=11)
    bound = 3.0 * np.sqrt(p_g * (1.0 - p_g) / n)
    assert abs(model.p_g - p_g) < bound + 0.005  # sampling plus small EM bias


def test_temperature_reference_point():
    t_q = temperature_from_populations(0.4029, 1.0, 0.5e9)
    assert t_q == pytest.approx(0.0264, abs=1e-4)


def test_temperature_limits_and_errors():
    assert temperature_from_populations(1e-12, 1.0, 0.5e9) < 1e-3
    f_q = 0.030 * K_B / H  # h f / k_B = 30 mK
    assert temperature_from_populations(np.exp(-1.0), 1.0, f_q) == pytest.approx(0.030, rel=1e-12)
    with pytest.raises(InvertedPopulation):
        temperature_from_populations(0.6, 0.4, 0.5e9)
    with pytest.raises(ValidationError):
        temperature_from_populations(0.0, 0.4, 0.5e9)


@settings(deadline=None)
@given(st.floats(1e-3, 0.49), st.floats(0.1, 100.0))
def test_temperature_scale_invariance(p_e, scale):
    p_g = 1.0 - p_e
    t_a = temperature_from_populations(p_e, p_g, 0.5e9)
    t_b = temperature_from_populations(p_e * scale, p_g * scale, 0.5e9)
    assert t_a == pytest.approx(t_b, rel=1e-12)


def test_sweep_constant_temperature():
    f_qs = np.linspace(0.285e9, 1.23e9, 5)
    clouds = [
        gen_iq(mixture(boltzmann_pg(0.0264, fq)), 20_000, fq, seed=40 + i)
        for i, fq in enumerate(f_qs)
    ]
    sweep = sweep_temperature(clouds, seed=0)
    assert sweep.mean == pytest.approx(0.0264, abs=2e-3)
    assert sweep.excluded == ()


def test_sweep_excludes_inverted_cloud():
    f_q = 0.5e9
    clouds = [gen_iq(mixture(0.713), 5000, f_q, seed=i) for i in range(9)]
    clouds.append(gen_iq(mixture(0.3), 5000, f_q, seed=99))  # inverted at the ground position
    sweep = sweep_temperature(clouds, seed=0, ground_center=(-2.0, 0.0))
    assert len(sweep.t_q) == 9
    assert len(sweep.excluded) == 1 and sweep.excluded[0][0] == 9


def test_sweep_excludes_unconverged_cloud(monkeypatch):
    monkeypatch.setattr(iqtemp, "_EM_MAX_ITER", 30)  # the 4 sigma clouds need 9, the 2 sigma one 64
    clouds = [gen_iq(mixture(0.9, half_sep=2.0), 20_000, 0.5e9, seed=1),
              gen_iq(mixture(0.95, half_sep=1.0), 20_000, 0.5e9, seed=2),
              gen_iq(mixture(0.9, half_sep=2.0), 20_000, 0.5e9, seed=3)]
    sweep = sweep_temperature(clouds, seed=0)
    assert len(sweep.t_q) == 2 and all(sweep.converged)
    assert [idx for idx, _ in sweep.excluded] == [1]
    assert "did not converge in 30 map evaluations" in sweep.excluded[0][1]


def test_sweep_excludes_low_separation_cloud():
    clouds = [gen_iq(mixture(0.9, half_sep=2.0), 5000, 0.5e9, seed=1),
              gen_iq(mixture(0.7, half_sep=0.5), 5000, 0.5e9, seed=0)]
    sweep = sweep_temperature(clouds, seed=0)
    assert len(sweep.t_q) == 1 and sweep.separation[0] >= 1.5
    assert [idx for idx, _ in sweep.excluded] == [1]
    assert "< 1.5 pooled sigma" in sweep.excluded[0][1]


def test_sweep_without_a_usable_cloud_raises():
    clouds = [gen_iq(mixture(0.7, half_sep=0.5), 5000, 0.5e9, seed=0),
              gen_iq(mixture(0.3), 5000, 0.5e9, seed=1)]
    with pytest.raises(ComputationError, match="every cloud was excluded") as info:
        sweep_temperature(clouds, seed=1, ground_center=(-2.0, 0.0))
    assert not isinstance(info.value, InvertedPopulation)
    assert "cloud 0: separation" in str(info.value) and "cloud 1: p_e=" in str(info.value)


def test_sweep_all_excluded():
    clouds = [gen_iq(mixture(0.3), 5000, 0.5e9, seed=1)]
    with pytest.raises(InvertedPopulation):
        sweep_temperature(clouds, seed=0, ground_center=(-2.0, 0.0))


def test_sweep_without_clouds_is_invalid():
    with pytest.raises(ValidationError):
        sweep_temperature([])
    with pytest.raises(ValidationError, match="at least one cloud"):
        sweep_temperature(cloud for cloud in ())


def _sweep_clouds(n_points=5000):
    """A 4 sigma cloud, a merged one the sweep leaves out, and another 4 sigma cloud."""
    yield gen_iq(mixture(0.9, half_sep=2.0), n_points, 0.4e9, seed=1)
    yield gen_iq(mixture(0.7, half_sep=0.5), n_points, 0.6e9, seed=2)
    yield gen_iq(mixture(0.8, half_sep=2.0), n_points, 0.8e9, seed=3)


def test_sweep_over_a_generator_matches_the_list():
    lazy = sweep_temperature(_sweep_clouds(), seed=3)
    eager = sweep_temperature(list(_sweep_clouds()), seed=3)
    for name in ("f_q", "t_q", "separation"):
        np.testing.assert_array_equal(getattr(lazy, name), getattr(eager, name), strict=True)
    for name in ("converged", "n_iterations", "mean", "sigma", "excluded"):
        assert getattr(lazy, name) == getattr(eager, name)
    assert [idx for idx, _ in lazy.excluded] == [1]


def _traced_peak(clouds):
    tracemalloc.start()
    try:
        sweep = sweep_temperature(clouds, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return sweep, peak


def test_sweep_over_a_generator_holds_one_cloud_at_a_time():
    n_points = 20_000
    cloud_bytes = n_points * 2 * 8

    def clouds(n_good, degenerate=False):
        if degenerate:  # left out with DegenerateCovariance, raised inside fit_mixture
            yield IQCloud(points=np.full((n_points, 2), 1.3), f_q=0.5e9)
        for i in range(n_good):
            yield gen_iq(mixture(0.9), n_points, 0.5e9, seed=i)

    _traced_peak(clouds(1))  # the first sweep of a process also makes one-off allocations
    _, one = _traced_peak(clouds(1))
    sweep, four = _traced_peak(clouds(3, degenerate=True))
    assert len(sweep.t_q) == 3 and [idx for idx, _ in sweep.excluded] == [0]
    assert four <= 1.1 * one
    # The cloud, its centred copy and the EM map's three half-cloud buffers.
    assert four <= 5 * cloud_bytes


def test_minimum_points():
    with pytest.raises(ValidationError):
        fit_mixture(IQCloud(points=np.random.default_rng(0).standard_normal((3, 2)), f_q=1e9))


# -- reference EM and k-means: per-component and distance-based forms -------

def _log_gauss(points, mean, cov):
    d = points - mean
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
    quad = (
        d[:, 0] ** 2 * cov[1, 1] - 2.0 * d[:, 0] * d[:, 1] * cov[0, 1] + d[:, 1] ** 2 * cov[0, 0]
    ) / det
    return -0.5 * (quad + math.log(det) + 2.0 * math.log(2.0 * math.pi))


def _reference_map(points):
    """Shared-covariance EM map with (n, 2) log-responsibilities, one Gaussian per component.

    Same θ = (w1, μ0, μ1, Σ00, Σ01, Σ11) as iqtemp's map, means in the
    points' own coordinates.
    """
    n = points.shape[0]
    log_resp = np.empty((n, 2))

    def em_map(theta):
        weights = (1.0 - theta[0], theta[0])
        means = theta[1:5].reshape(2, 2)
        cov = np.array([[theta[5], theta[6]], [theta[6], theta[7]]])
        for k in (0, 1):
            log_resp[:, k] = math.log(weights[k]) + _log_gauss(points, means[k], cov)
        norm = np.logaddexp(log_resp[:, 0], log_resp[:, 1])
        resp = np.exp(log_resp - norm[:, None])
        nk = resp.sum(axis=0)
        new_means = np.array([resp[:, k] @ points / nk[k] for k in (0, 1)])
        cov = np.zeros((2, 2))
        for k in (0, 1):
            d = points - new_means[k]
            cov += (resp[:, k][:, None] * d).T @ d
        cov /= n
        new = np.array([nk[1] / n, *new_means.ravel(), cov[0, 0], cov[0, 1], cov[1, 1]])
        return new, float(norm.sum())

    return em_map


def _initial_theta(points, seed):
    """fit_mixture's k-means start as θ, means in the points' own coordinates."""
    n = points.shape[0]
    var_floor = 1e-12 * float(points.var(axis=0).sum())
    origin = points.mean(axis=0)
    centers, labels = iqtemp._kmeanspp(points - origin, np.random.default_rng(seed))
    weights = np.clip([np.mean(labels == k) for k in (0, 1)], 2.0 / n, 1.0 - 2.0 / n)
    weights /= weights.sum()
    d = points - origin - centers[labels]
    cov = d.T @ d / n
    cov[0, 0] = max(cov[0, 0], var_floor)
    cov[1, 1] = max(cov[1, 1], var_floor)
    means = centers + origin
    return np.array([weights[1], *means.ravel(), cov[0, 0], cov[0, 1], cov[1, 1]]), var_floor


def _reference_em(points, seed):
    """The per-component map from fit_mixture's start, under fit_mixture's driver and labelling."""
    theta, _ = _initial_theta(points, seed)
    theta, _, converged, n_iterations = iqtemp._squarem(_reference_map(points), theta)
    weights = np.array([1.0 - theta[0], theta[0]])
    order = np.argsort(-weights)
    means = theta[1:5].reshape(2, 2)
    cov = np.array([[theta[5], theta[6]], [theta[6], theta[7]]])
    return weights[order], means[order], cov, n_iterations, converged


@pytest.mark.parametrize("half_sep", [1.0, 2.0])
@pytest.mark.parametrize("p_e", [0.05, 0.2, 0.4])
def test_discriminant_em_matches_per_component_em(half_sep, p_e):
    seed = int(100 * p_e + 10 * half_sep)
    cloud = gen_iq(mixture(1.0 - p_e, half_sep), 10_000, 0.5e9, seed=seed)
    weights, means, cov, n_iterations, converged = _reference_em(cloud.points, seed)
    model = fit_mixture(cloud, seed=seed)
    assert model.n_iterations == n_iterations
    assert model.converged == converged
    np.testing.assert_allclose(model.weights, weights, rtol=1e-9, atol=0)
    np.testing.assert_allclose(model.means, means, rtol=1e-9, atol=0)
    np.testing.assert_allclose(model.covariances[0], cov, rtol=1e-9, atol=0)


def _mean_shift(points):
    """Adds the points' mean to both component means of a θ."""
    origin = points.mean(axis=0)
    return np.array([0.0, *origin, *origin, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("half_sep", [1.0, 2.0])
def test_discriminant_map_matches_per_component_map_in_one_step(half_sep):
    cloud = gen_iq(mixture(0.8, half_sep), 10_000, 0.5e9, seed=31)
    points = cloud.points
    theta, var_floor = _initial_theta(points, 31)
    shift = _mean_shift(points)
    mapped, ll = iqtemp._em_map(points - shift[1:3], var_floor)(theta - shift)
    ref_mapped, ref_ll = _reference_map(points)(theta)
    np.testing.assert_allclose(mapped + shift, ref_mapped, rtol=1e-9, atol=0)
    assert ll == pytest.approx(ref_ll, rel=1e-9, abs=0)


def _plain_em(points, seed):
    """fit_mixture's map from its start, one EM step at a time, under its stop rule and budget."""
    theta, var_floor = _initial_theta(points, seed)
    shift = _mean_shift(points)
    em_map = iqtemp._em_map(points - shift[1:3], var_floor)
    theta, path = theta - shift, []
    for _ in range(iqtemp._EM_MAX_ITER):
        theta, ll = em_map(theta)
        path.append(ll)
        if len(path) > 1 and abs(ll - path[-2]) <= iqtemp._EM_TOL * max(1.0, abs(ll)):
            return theta, path, True
    return theta, path, False


@pytest.mark.parametrize("half_sep, p_e, seed", [(1.0, 0.05, 3), (1.0, 0.2, 4), (2.0, 0.05, 5),
                                                 (2.0, 0.3, 6)])
def test_accelerated_em_ends_no_lower_than_plain_em(half_sep, p_e, seed):
    f_q = 0.5e9
    cloud = gen_iq(mixture(1.0 - p_e, half_sep), 50_000, f_q, seed=seed)
    model = fit_mixture(cloud, seed=seed)
    theta, path, converged = _plain_em(cloud.points, seed)
    assert model.converged and converged
    assert model.n_iterations < len(path)
    ll, plain_ll = model.log_likelihood_path[-1], path[-1]
    assert ll >= plain_ll - 1e-9 * abs(plain_ll)
    plain_p_e = min(theta[0], 1.0 - theta[0])
    t_q = temperature_from_populations(model.p_e, model.p_g, f_q)
    t_plain = temperature_from_populations(plain_p_e, 1.0 - plain_p_e, f_q)
    assert t_q == pytest.approx(t_plain, rel=0, abs=1e-5)


def test_em_on_a_far_shifted_cloud_matches_the_unshifted_cloud():
    cloud = gen_iq(mixture(0.8), 10_000, 0.5e9, seed=21)
    shifted = IQCloud(points=cloud.points + 1e6, f_q=cloud.f_q)
    near, far = fit_mixture(cloud, seed=21), fit_mixture(shifted, seed=21)
    assert far.n_iterations == near.n_iterations
    assert far.p_e == pytest.approx(near.p_e, rel=1e-9)
    np.testing.assert_allclose(far.means - 1e6, near.means, rtol=0, atol=1e-6)


def _reference_kmeanspp(points, rng):
    """k-means++ seeding, then Lloyd steps by argmin of squared distances."""
    n = points.shape[0]
    c0 = points[rng.integers(n)]
    d2 = np.sum((points - c0) ** 2, axis=1)
    c1 = points[rng.choice(n, p=d2 / d2.sum())]
    centers = np.array([c0, c1])
    labels = None
    for _ in range(25):
        dist2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dist2, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for k in (0, 1):
            mask = labels == k
            if not np.any(mask):
                centers[k] = points[np.argmax(np.min(dist2, axis=1))]
            else:
                centers[k] = points[mask].mean(axis=0)
    return centers, labels


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(4, 400),
    st.floats(0.0, 4.0),
    st.floats(0.0, 1.0),
    st.floats(1e-3, 1e3),
)
def test_half_plane_kmeans_matches_argmin_reference(seed, n, half_sep, p_e, scale):
    rng = np.random.default_rng(seed)
    offsets = np.where(rng.random(n) < p_e, half_sep, -half_sep)
    points = scale * (rng.standard_normal((n, 2)) + np.outer(offsets, [1.0, 0.0]))
    centers, labels = iqtemp._kmeanspp(points, np.random.default_rng(seed))
    ref_centers, ref_labels = _reference_kmeanspp(points, np.random.default_rng(seed))
    assert np.array_equal(labels, ref_labels)
    np.testing.assert_allclose(centers, ref_centers, rtol=1e-9, atol=1e-12 * scale)


class _RepeatedCenterRng:
    """Puts both k-means++ centers on equal points: the first Lloyd step empties cluster 1."""

    def integers(self, n):
        return 0

    def choice(self, n, p):
        return 1


def test_kmeans_reseeds_an_empty_cluster_on_the_farthest_point():
    cloud = gen_iq(mixture(0.7), 500, 0.5e9, seed=12)
    points = cloud.points.copy()
    points[1] = points[0]
    ref_centers, ref_labels = _reference_kmeanspp(points, _RepeatedCenterRng())
    centers, labels = iqtemp._kmeanspp(points, _RepeatedCenterRng())
    assert np.array_equal(labels, ref_labels)
    assert 0 < np.count_nonzero(labels) < len(points)
    np.testing.assert_allclose(centers, ref_centers, rtol=1e-9)
