import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linetherm import iqtemp
from linetherm.core import H, K_B, IQCloud, ValidationError
from linetherm.iqtemp import (
    DegenerateCovariance,
    InvertedPopulation,
    MixtureModel,
    fit_mixture,
    measurement_photons,
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


def test_em_log_likelihood_monotone():
    cloud = gen_iq(mixture(0.713), 20_000, 0.5e9, seed=2)
    model = fit_mixture(cloud, seed=2)
    diffs = np.diff(model.log_likelihood_path)
    assert np.all(diffs >= -1e-7 * np.abs(model.log_likelihood_path[:-1]))


def test_label_symmetry_under_point_permutation():
    cloud = gen_iq(mixture(0.713), 20_000, 0.5e9, seed=6)
    rng = np.random.default_rng(123)
    shuffled = IQCloud(points=cloud.points[rng.permutation(cloud.n_points)], f_q=cloud.f_q)
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


def test_measurement_photons():
    assert measurement_photons(0.0, 1.0, 1.0) == 0.0
    kappa = 2 * np.pi * 4.10e6
    assert measurement_photons(0.16, kappa, 1e-6) == pytest.approx(1.03, abs=0.01)
    base = measurement_photons(0.16, kappa, 1e-6)
    assert measurement_photons(0.16, kappa, 2e-6) == pytest.approx(2 * base, rel=1e-12)
    assert measurement_photons(0.32, kappa, 1e-6) == pytest.approx(2 * base, rel=1e-12)
    with pytest.raises(ValidationError):
        measurement_photons(-0.1, kappa, 1e-6)


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


def test_sweep_all_excluded():
    clouds = [gen_iq(mixture(0.3), 5000, 0.5e9, seed=1)]
    with pytest.raises(InvertedPopulation):
        sweep_temperature(clouds, seed=0, ground_center=(-2.0, 0.0))


def test_sweep_without_clouds_is_invalid():
    with pytest.raises(ValidationError):
        sweep_temperature([])


def test_minimum_points():
    with pytest.raises(ValidationError):
        fit_mixture(IQCloud(points=np.random.default_rng(0).standard_normal((3, 2)), f_q=1e9))
