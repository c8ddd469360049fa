import numpy as np
import pytest

from linetherm.core import ValidationError
from linetherm.decoherence import ramsey_model, relaxation_model
from linetherm.heatpulse import HeatPulseModelParams, trajectory
from linetherm.iqtemp import MixtureModel
from linetherm.resonator import unwrapped_phase
from linetherm.synth import (
    gen_decay,
    gen_fin,
    gen_heatpulse,
    gen_iq,
    gen_phase,
    stream,
)

GRID = np.linspace(0.0, 10e-6, 60)
RELAX = {"A": 1.0, "gamma1_per_s": 4.77e5, "B": 0.05}


def test_stream_determinism_and_independence():
    a = stream(7, "gamma").standard_normal(5)
    b = stream(7, "gamma").standard_normal(5)
    c = stream(7, "delta_f").standard_normal(5)
    d = stream(8, "gamma").standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_gen_decay_zero_noise_is_model():
    trace = gen_decay("relaxation", RELAX, GRID)
    assert np.array_equal(trace.signal, relaxation_model(GRID, 1.0, 4.77e5, 0.05))
    assert trace.sigma is None
    rams = {"A": 1.0, "gamma2_star_per_s": 3.35e5, "delta_f_hz": 2.5e5, "phi_rad": 0.1, "B": 0.0}
    trace = gen_decay("ramsey", rams, GRID)
    assert np.array_equal(trace.signal, ramsey_model(GRID, 1.0, 3.35e5, 2.5e5, 0.1, 0.0))


def test_gen_decay_seeding():
    a = gen_decay("relaxation", RELAX, GRID, noise=0.01, seed=1)
    b = gen_decay("relaxation", RELAX, GRID, noise=0.01, seed=1)
    c = gen_decay("relaxation", RELAX, GRID, noise=0.01, seed=2)
    assert np.array_equal(a.signal, b.signal)
    assert not np.array_equal(a.signal, c.signal)
    assert np.array_equal(a.sigma, np.full(GRID.size, 0.01))


def test_gen_decay_bad_kind():
    with pytest.raises(ValidationError):
        gen_decay("rabi", RELAX, GRID)
    with pytest.raises(ValidationError):
        gen_decay("relaxation", RELAX, [])


def test_gen_heatpulse_zero_noise_and_offsets(table1):
    t = np.linspace(0.0, 2e-3, 30)
    model = HeatPulseModelParams(t0=0.058, delta_t=0.055, tau_cool=0.28e-3,
                                 gamma_offset=2.4e5, f0_offset=1.5e3)
    series = gen_heatpulse(model, table1, t, t_heat=5e-6)
    gamma, delta_f = trajectory(model, table1, t)
    assert np.array_equal(series.gamma2_star, gamma + 2.4e5)
    assert np.array_equal(series.delta_f, delta_f + 1.5e3)
    assert series.t_heat == 5e-6


def test_gen_heatpulse_flat_without_heating(table1):
    model = HeatPulseModelParams(t0=0.058, delta_t=0.0, tau_cool=0.28e-3)
    series = gen_heatpulse(model, table1, np.linspace(0.0, 1e-3, 10))
    assert np.ptp(series.gamma2_star) == 0.0


def test_gen_heatpulse_decays_to_baseline_by_five_tau(table1):
    tau = 0.28e-3
    model = HeatPulseModelParams(t0=0.058, delta_t=0.114, tau_cool=tau, gamma_offset=2.4e5)
    t = np.linspace(0.0, 10 * tau, 60)
    series = gen_heatpulse(model, table1, t)
    baseline = series.gamma2_star[-1]
    rise0 = series.gamma2_star[0] - baseline
    after_5tau = series.gamma2_star[t >= 5 * tau] - baseline
    assert np.all(after_5tau < 0.05 * rise0)
    assert np.all(np.diff(series.gamma2_star) < 0.0)


def test_gen_heatpulse_observable_streams_do_not_interact(table1):
    t = np.linspace(0.0, 2e-3, 30)
    model = HeatPulseModelParams(t0=0.058, delta_t=0.055, tau_cool=0.28e-3)
    only_gamma = gen_heatpulse(model, table1, t, noise_gamma=1e3, seed=5)
    both = gen_heatpulse(model, table1, t, noise_gamma=1e3, noise_delta_f=100.0, seed=5)
    # enabling the frequency stream must not shift the rate stream
    assert np.array_equal(only_gamma.gamma2_star, both.gamma2_star)


def test_gen_fin_noiseless_matches_slopes():
    powers = [1e-6, 2e-6, 4e-6]
    exp = gen_fin(1.0, 1.6e4, 0.045, 0.025, 0.022, 0.1, powers)
    rises = (exp.t_o - exp.t_d) / exp.p_heat
    assert np.allclose(rises, 1.6e4 / np.sinh(1.0), rtol=1e-12)
    noisy = gen_fin(1.0, 1.6e4, 0.045, 0.025, 0.022, 0.1, powers, rel_noise=0.05, seed=1)
    assert noisy.allow_noise


def test_gen_iq_statistics():
    model = MixtureModel(weights=(0.713, 0.287),
                         means=np.array([[-2.0, 0.0], [2.0, 0.0]]),
                         covariances=np.array([np.eye(2), np.eye(2)]))
    cloud = gen_iq(model, 50_000, 0.5e9, seed=12)
    frac_left = float(np.mean(cloud.points[:, 0] < 0.0))
    assert frac_left == pytest.approx(0.713, abs=0.02)
    again = gen_iq(model, 50_000, 0.5e9, seed=12)
    assert np.array_equal(cloud.points, again.points)


def test_gen_phase_zero_noise_is_model():
    params = {"f_g_hz": 7.458e9, "f_e_hz": 7.4553e9,
              "kappa_g_rad_per_s": 2 * np.pi * 3.79e6,
              "kappa_e_rad_per_s": 2 * np.pi * 4.47e6,
              "tau_delay_s": 10e-9, "theta0_rad": 0.2}
    f = np.linspace(7.43e9, 7.49e9, 100)
    sweep = gen_phase(params, f, n_bar_readout=0.05)
    expected = unwrapped_phase(f, 7.458e9, params["kappa_g_rad_per_s"], None, 10e-9, 0.2)
    assert np.array_equal(sweep.phase_g, expected)
    assert sweep.n_bar_readout == 0.05
