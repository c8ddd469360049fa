import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linetherm import heatpulse
from linetherm.core import ValidationError
from linetherm.fitkit import numeric_jacobian
from linetherm.heatpulse import (
    _curves,
    HeatPulseModelParams,
    _initial_guesses,
    fit_cooling,
    trajectory,
)
from linetherm.shotnoise import bose_einstein, dephasing_full
from linetherm.synth import gen_heatpulse

GRID = np.linspace(0.0, 2e-3, 41)

FLEX = dict(t0=0.058, tau=0.28e-3, delta_ts=(0.024, 0.055, 0.114))
COAX = dict(t0=0.071, tau=0.55e-3, delta_ts=(0.020, 0.063, 0.098))


def make_datasets(sys, scenario, noise_gamma=0.0, noise_delta_f=0.0, seed=0,
                  gamma_offset=2.4e5, f0_offset=1.5e3, grid=GRID):
    out = []
    for j, dt in enumerate(scenario["delta_ts"]):
        model = HeatPulseModelParams(
            t0=scenario["t0"], delta_t=dt, tau_cool=scenario["tau"],
            gamma_offset=gamma_offset, f0_offset=f0_offset,
        )
        out.append(
            gen_heatpulse(model, sys, grid, noise_gamma=noise_gamma,
                          noise_delta_f=noise_delta_f, seed=seed + j, t_heat=(j + 1) * 5e-6)
        )
    return out


@pytest.mark.parametrize("t0, delta_t, tau", [(0.058, 0.024, 0.28e-3), (0.071, 0.0, 0.55e-3),
                                            (0.02, 0.5, 1e-5), (1.0, 3.0, 1e-3)])
def test_curves_bitwise_equal_checked_public_functions(table1, t0, delta_t, tau):
    temp = t0 + delta_t * np.exp(-GRID / tau)
    ref = dephasing_full(bose_einstein(temp, table1.f_r), table1)
    gamma, delta_f = _curves(GRID, t0, delta_t, tau, table1)
    assert np.array_equal(gamma, ref.gamma_n)
    assert np.array_equal(delta_f, ref.delta_f_stark)


def test_model_params_validation():
    with pytest.raises(ValidationError):
        HeatPulseModelParams(t0=0.0, delta_t=0.0, tau_cool=1e-3)
    with pytest.raises(ValidationError):
        HeatPulseModelParams(t0=0.058, delta_t=-0.1, tau_cool=1e-3)
    with pytest.raises(ValidationError):
        HeatPulseModelParams(t0=0.058, delta_t=0.1, tau_cool=0.0)


def test_trajectory_no_heating_is_constant(table1):
    model = HeatPulseModelParams(t0=0.058, delta_t=0.0, tau_cool=0.28e-3)
    gamma, delta_f = trajectory(model, table1, GRID)
    assert np.ptp(gamma) == 0.0
    assert np.ptp(delta_f) == 0.0


def test_trajectory_late_time_baseline(table1):
    model = HeatPulseModelParams(t0=0.058, delta_t=0.114, tau_cool=0.28e-3)
    gamma_inf, _ = trajectory(model, table1, 50 * 0.28e-3)
    # at T0 = 58 mK the occupation is ~2.1e-3 photons
    assert gamma_inf == pytest.approx(1.63e4, rel=0.01)
    n_base = bose_einstein(0.058, table1.f_r)
    assert n_base == pytest.approx(2.1e-3, rel=0.05)
    assert gamma_inf == pytest.approx(dephasing_full(n_base, table1).gamma_n, rel=1e-9)


def test_trajectory_at_pulse_end(table1):
    # T(0) = 172 mK; oracle composed inline from the constituent formulas
    model = HeatPulseModelParams(t0=0.058, delta_t=0.114, tau_cool=0.28e-3)
    gamma0, df0 = trajectory(model, table1, 0.0)
    n = bose_einstein(0.172, table1.f_r)
    assert n == pytest.approx(0.143, rel=0.01)
    z = (1 + 1j * table1.chi / table1.kappa) ** 2 + 4j * table1.chi * n / table1.kappa
    val = 0.5 * table1.kappa * (np.sqrt(z) - 1.0)
    assert gamma0 == pytest.approx(val.real, rel=1e-12)
    assert df0 == pytest.approx(val.imag / (2 * np.pi) - table1.chi / (4 * np.pi), rel=1e-12)


def test_trajectory_monotone_decay(table1):
    model = HeatPulseModelParams(t0=0.058, delta_t=0.114, tau_cool=0.28e-3)
    gamma, delta_f = trajectory(model, table1, GRID)
    assert np.all(np.diff(gamma) < 0.0)
    assert np.all(np.diff(np.abs(delta_f)) < 0.0)
    with pytest.raises(ValidationError):
        trajectory(model, table1, -1e-3)


def test_fit_cooling_flexline_noiseless(table1):
    datasets = make_datasets(table1, FLEX)
    result = fit_cooling(datasets, table1, FLEX["t0"])
    assert result.converged
    assert result.params["tau_cool_s"] == pytest.approx(FLEX["tau"], rel=1e-6)
    for j, dt in enumerate(FLEX["delta_ts"]):
        assert result.params[f"delta_t_k[{j}]"] == pytest.approx(dt, rel=1e-6)
    assert result.params["gamma_offset_per_s"] == pytest.approx(2.4e5, rel=1e-6)
    assert result.params["f0_offset_hz"] == pytest.approx(1.5e3, rel=1e-6)


def test_fit_cooling_coax_noiseless(table1):
    grid = np.linspace(0.0, 4e-3, 41)
    datasets = make_datasets(table1, COAX, grid=grid)
    result = fit_cooling(datasets, table1, COAX["t0"])
    assert result.params["tau_cool_s"] == pytest.approx(COAX["tau"], rel=1e-6)


def test_fit_cooling_noisy(table1):
    datasets = make_datasets(table1, FLEX, noise_gamma=2e3, noise_delta_f=300.0, seed=17)
    result = fit_cooling(datasets, table1, FLEX["t0"])
    assert result.params["tau_cool_s"] == pytest.approx(FLEX["tau"], rel=0.05)


def test_fit_cooling_offset_independence(table1):
    # recovered physics must not depend on the offsets used in generation
    a = fit_cooling(make_datasets(table1, FLEX, gamma_offset=0.0, f0_offset=0.0),
                    table1, FLEX["t0"])
    b = fit_cooling(make_datasets(table1, FLEX, gamma_offset=9.9e5, f0_offset=-3e4),
                    table1, FLEX["t0"])
    assert a.params["tau_cool_s"] == pytest.approx(b.params["tau_cool_s"], rel=1e-8)
    for j in range(3):
        assert a.params[f"delta_t_k[{j}]"] == pytest.approx(
            b.params[f"delta_t_k[{j}]"], rel=1e-7
        )


def test_fit_cooling_null_heating_consistent_with_zero(table1):
    model = HeatPulseModelParams(t0=0.058, delta_t=0.0, tau_cool=0.28e-3,
                                 gamma_offset=2.4e5, f0_offset=1e3)
    data = gen_heatpulse(model, table1, GRID, noise_gamma=2e3, noise_delta_f=300.0, seed=11)
    result = fit_cooling([data], table1, 0.058)
    assert abs(result.params["delta_t_k"]) <= 2.0 * result.sigmas["delta_t_k"]


def test_fit_cooling_single_dataset_matches_repeat(table1):
    data = make_datasets(table1, FLEX)[:1]
    a = fit_cooling(data, table1, FLEX["t0"])
    b = fit_cooling(data, table1, FLEX["t0"])
    assert a.params == b.params
    assert a.params["tau_cool_s"] == pytest.approx(FLEX["tau"], rel=1e-6)


def test_fit_cooling_fit_t0_recovers_fixed_value(table1):
    datasets = make_datasets(table1, FLEX)
    result = fit_cooling(datasets, table1, 0.055, fit_t0=True)
    assert result.params["t0_k"] == pytest.approx(0.058, rel=1e-4)


def _with_first_rate(data, rate):
    gamma = data.gamma2_star.copy()
    gamma[0] = rate
    return dataclasses.replace(data, gamma2_star=gamma)


@pytest.mark.parametrize("delta_t, first_rate", [(0.024, 1e8), (0.0, 1e5)])
def test_fit_cooling_first_rate_outside_model(table1, delta_t, first_rate):
    # 1e8 /s lies above the n_bar = 10 rate; 1e5 /s lies below the 2.4e5 /s
    # offset, which means no photons.
    model = HeatPulseModelParams(t0=0.058, delta_t=delta_t, tau_cool=0.28e-3,
                                 gamma_offset=2.4e5, f0_offset=1e3)
    data = _with_first_rate(gen_heatpulse(model, table1, GRID), first_rate)
    guesses = _initial_guesses(data.t_cool, data.gamma2_star, data.delta_f,
                               np.zeros(len(data), dtype=int), table1, 0.058)
    assert np.all(np.isfinite(np.hstack(guesses)))
    result = fit_cooling([data], table1, 0.058)
    assert result.converged
    assert np.all(np.isfinite(list(result.params.values())))


def test_fit_cooling_dataset_without_rise_starts_at_floor(table1):
    # The heated dataset's tail lifts the offset guess above every rate of the
    # unheated one, so none of its samples rises above T0.
    datasets = [gen_heatpulse(HeatPulseModelParams(t0=0.058, delta_t=dt, tau_cool=0.28e-3,
                                                   gamma_offset=2.4e5, f0_offset=1e3),
                              table1, GRID) for dt in (0.024, 0.0)]
    t, gamma, delta_f = (np.concatenate([getattr(d, name) for d in datasets])
                         for name in ("t_cool", "gamma2_star", "delta_f"))
    guesses = _initial_guesses(t, gamma, delta_f, np.repeat([0, 1], GRID.size), table1, 0.058)
    assert guesses[2][1] == 1e-4
    result = fit_cooling(datasets, table1, 0.058)
    assert result.converged
    assert result.params["tau_cool_s"] == pytest.approx(0.28e-3, rel=1e-8, abs=0.0)


def test_fit_cooling_first_rate_below_offset_reaches_least_squares_optimum(table1, monkeypatch):
    # One rate below the offset at t = 0 moves the least-squares optimum to
    # tau ~ 0.55 ms; a fit started at the truth ends at the same cost.
    model = HeatPulseModelParams(t0=0.058, delta_t=0.024, tau_cool=0.28e-3,
                                 gamma_offset=2.4e5, f0_offset=1e3)
    data = _with_first_rate(gen_heatpulse(model, table1, GRID), 2e5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fit_cooling([data], table1, 0.058)
    guesses = heatpulse._initial_guesses

    def start_at_truth(*args):
        *_, base_gamma, base_df = guesses(*args)
        return 2.4e5, 1e3, [0.024], 0.28e-3, base_gamma, base_df

    monkeypatch.setattr(heatpulse, "_initial_guesses", start_at_truth)
    reference = fit_cooling([data], table1, 0.058)
    assert result.converged and reference.converged
    assert result.residual_norm == pytest.approx(reference.residual_norm, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("tau", [0.1e-3, 0.28e-3, 0.5e-3, 1e-3])
@pytest.mark.parametrize("delta_t", [0.005, 0.012, 0.024, 0.060, 0.120])
def test_fit_cooling_noiseless_grid_recovers_truth(table1, delta_t, tau):
    model = HeatPulseModelParams(t0=0.058, delta_t=delta_t, tau_cool=tau,
                                 gamma_offset=2.4e5, f0_offset=1e3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fit_cooling([gen_heatpulse(model, table1, GRID)], table1, 0.058)
    assert result.converged
    assert result.params["tau_cool_s"] == pytest.approx(tau, rel=1e-8, abs=0.0)
    assert result.params["delta_t_k"] == pytest.approx(delta_t, rel=1e-8, abs=0.0)


def test_fit_cooling_input_validation(table1):
    with pytest.raises(ValidationError):
        fit_cooling([], table1, 0.058)
    short = gen_heatpulse(
        HeatPulseModelParams(t0=0.058, delta_t=0.01, tau_cool=1e-3),
        table1, np.linspace(0, 1e-3, 3),
    )
    with pytest.raises(ValidationError):
        fit_cooling([short], table1, 0.058)
    good = make_datasets(table1, FLEX)[:1]
    with pytest.raises(ValidationError):
        fit_cooling(good, table1, -0.05)


def _cooling_stack(captured_stack, datasets, table1, fit_t0=False):
    """The stack fit_cooling hands to joint_fit, before any evaluation."""
    return captured_stack(heatpulse, "joint_fit",
                          lambda: fit_cooling(datasets, table1, FLEX["t0"], fit_t0=fit_t0))


@settings(deadline=None, max_examples=60)
@given(st.floats(1e-4, 0.2), st.floats(1e-5, 1e-2), st.booleans())
def test_fit_cooling_jac_matches_numeric_jacobian(captured_stack, dense_jacobian, table1, delta_t,
                                                  tau, fit_t0):
    datasets = make_datasets(table1, FLEX, noise_gamma=2e3, noise_delta_f=300.0, seed=3)
    stack = _cooling_stack(captured_stack, datasets, table1, fit_t0)
    truth = {"tau_cool_s": tau, "gamma_offset_per_s": 2.4e5, "f0_offset_hz": 1.5e3,
             "t0_k": FLEX["t0"]}
    t = stack.internal(np.array([truth.get(spec.name, delta_t) for spec in stack.specs]))

    def residual(u):
        return stack.residual(stack.external(u))

    residual(t)
    assert stack.problem.jac is not None
    assert list(stack.sizes) == [2 * len(d) for d in datasets]
    analytic = dense_jacobian(stack, t)
    numeric = numeric_jacobian(residual, t)
    assert np.max(np.abs(analytic - numeric) / np.maximum(np.abs(analytic), 1.0)) < 1e-6


def test_fit_cooling_rows_are_gamma_then_delta_f_per_dataset(captured_stack, table1):
    datasets = make_datasets(table1, FLEX, noise_gamma=2e3, noise_delta_f=300.0, seed=3)
    stack = _cooling_stack(captured_stack, datasets, table1)
    x = stack.external(stack.internal(stack.x0))
    p = dict(zip(stack.names, x))
    pooled_g = np.concatenate([d.gamma2_star - d.gamma2_star.mean() for d in datasets])
    pooled_f = np.concatenate([d.delta_f - d.delta_f.mean() for d in datasets])
    w_gamma = 1.0 / float(np.sqrt(np.mean(pooled_g**2)))
    w_df = 1.0 / float(np.sqrt(np.mean(pooled_f**2)))
    expected = []
    for j, d in enumerate(datasets):
        gamma, delta_f = _curves(d.t_cool, FLEX["t0"], p[f"delta_t_k[{j}]"],
                                 p["tau_cool_s"], table1)
        expected += [(gamma + p["gamma_offset_per_s"] - d.gamma2_star) * w_gamma,
                     (delta_f + p["f0_offset_hz"] - d.delta_f) * w_df]
    assert np.array_equal(stack.residual(x), np.concatenate(expected))
