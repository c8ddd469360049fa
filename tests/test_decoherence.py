import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linetherm import decoherence
from linetherm.core import ValidationError
from linetherm.decoherence import (
    AliasWarning,
    DecayTrace,
    NegativeDephasing,
    RATE_NAMES,
    fit_echo,
    fit_ramsey,
    fit_relaxation,
    nyquist_frequency,
    pure_dephasing,
    summarize_rates,
    warn_if_aliased,
)
from linetherm.synth import gen_decay

GRID = np.linspace(0.0, 10e-6, 100)


def test_trace_validation():
    with pytest.raises(ValidationError):
        DecayTrace(kind="rabi", times=GRID, signal=np.zeros_like(GRID))
    with pytest.raises(ValidationError):
        DecayTrace(kind="echo", times=GRID[::-1], signal=np.zeros_like(GRID))
    with pytest.raises(ValidationError):
        DecayTrace(kind="echo", times=GRID, signal=np.zeros(3))
    with pytest.raises(ValidationError):
        DecayTrace(kind="echo", times=GRID, signal=np.zeros_like(GRID), sigma=-np.ones_like(GRID))


def test_relaxation_noiseless_recovery():
    trace = gen_decay("relaxation", {"A": 1.0, "gamma1_per_s": 4.77e5, "B": 0.0}, GRID)
    result = fit_relaxation(trace)
    assert result.params["gamma1_per_s"] == pytest.approx(4.77e5, rel=1e-8)
    assert result.params["A"] == pytest.approx(1.0, rel=1e-8)
    assert result.params["B"] == pytest.approx(0.0, abs=1e-8)
    assert result.converged


def test_relaxation_constant_signal_flagged():
    trace = DecayTrace(kind="relaxation", times=GRID, signal=np.full_like(GRID, 0.7))
    result = fit_relaxation(trace)
    assert not result.converged
    assert result.diagnostics.get("rank_deficient")


def test_relaxation_noisy_within_2pct():
    trace = gen_decay(
        "relaxation", {"A": 1.0, "gamma1_per_s": 4.77e5, "B": 0.0}, GRID, noise=0.01, seed=42
    )
    result = fit_relaxation(trace)
    assert result.params["gamma1_per_s"] == pytest.approx(4.77e5, rel=0.02)


def test_ramsey_noiseless_recovery():
    truth = {"A": 1.0, "gamma2_star_per_s": 3.35e5, "delta_f_hz": 2.5e5, "phi_rad": 0.3, "B": 0.5}
    trace = gen_decay("ramsey", truth, GRID)
    result = fit_ramsey(trace)
    assert result.params["gamma2_star_per_s"] == pytest.approx(3.35e5, rel=1e-6)
    assert result.params["delta_f_hz"] == pytest.approx(2.5e5, rel=1e-6)
    assert result.params["phi_rad"] == pytest.approx(0.3, abs=1e-6)


def test_ramsey_pure_decay_pins_detuning():
    trace = DecayTrace(kind="ramsey", times=GRID, signal=np.exp(-3.35e5 * GRID))
    result = fit_ramsey(trace)
    assert result.params["gamma2_star_per_s"] == pytest.approx(3.35e5, rel=1e-4)
    # detuning pinned at zero; the fit is degenerate in (delta_f, phi) there
    assert abs(result.params["delta_f_hz"]) < 1.0
    assert result.diagnostics.get("rank_deficient") or (
        result.sigmas["delta_f_hz"] > abs(result.params["delta_f_hz"])
    )


@settings(deadline=None)
@given(st.floats(-np.pi, np.pi, exclude_min=True), st.integers(0, 2**32 - 1))
def test_ramsey_recovers_rate_at_any_phase(phi, seed):
    # 101 points over 20 us at noise 0.02 on A = 0.4: the start point's
    # amplitude and phase come from a linear fit, so no phase strands the fit.
    truth = {"A": 0.4, "gamma2_star_per_s": 1.5e5, "delta_f_hz": 4e5, "phi_rad": phi, "B": 0.5}
    result = fit_ramsey(gen_decay("ramsey", truth, np.linspace(0.0, 20e-6, 101), 0.02, seed))
    assert result.converged
    assert result.params["gamma2_star_per_s"] == pytest.approx(1.5e5, rel=0.2)


def test_ramsey_frequency_jitter_statistics():
    # per-trace detunings jittered by 1.0 kHz; fitted scatter must reproduce it
    rng = np.random.default_rng(2024)
    jitter = rng.normal(0.0, 1.0e3, size=100)
    fitted = []
    for k, dj in enumerate(jitter):
        truth = {
            "A": 1.0,
            "gamma2_star_per_s": 3.35e5,
            "delta_f_hz": 2.5e5 + dj,
            "phi_rad": 0.0,
            "B": 0.0,
        }
        trace = gen_decay("ramsey", truth, GRID, noise=0.002, seed=k)
        fitted.append(fit_ramsey(trace).params["delta_f_hz"])
    fitted = np.asarray(fitted)
    rms = float(np.sqrt(np.mean((fitted - fitted.mean()) ** 2)))
    assert rms == pytest.approx(1.0e3, rel=0.20)


def test_echo_noiseless_recovery():
    trace = gen_decay("echo", {"A": 1.0, "gamma2_echo_per_s": 2.56e5, "B": 0.0}, GRID)
    result = fit_echo(trace)
    assert result.params["gamma2_echo_per_s"] == pytest.approx(2.56e5, rel=1e-8)


def test_echo_zero_amplitude_flagged():
    trace = DecayTrace(kind="echo", times=GRID, signal=np.full_like(GRID, 0.3))
    result = fit_echo(trace)
    assert not result.converged


def test_echo_noisy_within_3pct():
    trace = gen_decay(
        "echo", {"A": 1.0, "gamma2_echo_per_s": 2.56e5, "B": 0.0}, GRID, noise=0.01, seed=7
    )
    result = fit_echo(trace)
    assert result.params["gamma2_echo_per_s"] == pytest.approx(2.56e5, rel=0.03)


def test_kind_mismatch_rejected():
    trace = gen_decay("echo", {"A": 1.0, "gamma2_echo_per_s": 2.56e5, "B": 0.0}, GRID)
    with pytest.raises(ValidationError):
        fit_relaxation(trace)


def test_minimum_points():
    t = GRID[:6]
    trace = DecayTrace(kind="ramsey", times=t, signal=np.cos(2e5 * t))
    with pytest.raises(ValidationError):
        fit_ramsey(trace)


@pytest.mark.parametrize(
    "kind,truth",
    [
        ("relaxation", {"A": 0.8, "gamma1_per_s": 4.77e5, "B": 0.1}),
        ("ramsey", {"A": 0.8, "gamma2_star_per_s": 3.35e5, "delta_f_hz": 3.1e5, "phi_rad": -0.7, "B": 0.2}),
        ("echo", {"A": 0.8, "gamma2_echo_per_s": 2.56e5, "B": 0.1}),
    ],
)
def test_noiseless_round_trip_all_kinds(kind, truth):
    trace = gen_decay(kind, truth, GRID)
    fit = {"relaxation": fit_relaxation, "ramsey": fit_ramsey, "echo": fit_echo}[kind]
    result = fit(trace)
    for name, value in truth.items():
        assert result.params[name] == pytest.approx(value, rel=1e-6, abs=1e-6)


def test_time_unit_rescaling_invariance():
    trace_s = gen_decay("relaxation", {"A": 1.0, "gamma1_per_s": 4.77e5, "B": 0.1}, GRID)
    trace_us = DecayTrace(kind="relaxation", times=trace_s.times * 1e6, signal=trace_s.signal)
    g_s = fit_relaxation(trace_s).params["gamma1_per_s"]
    g_us = fit_relaxation(trace_us).params["gamma1_per_s"]
    assert g_s * GRID[-1] == pytest.approx(g_us * GRID[-1] * 1e6, rel=1e-9)


def test_pure_dephasing_reference_rates():
    assert pure_dephasing(2.56e5, 4.77e5) == pytest.approx(1.75e4, rel=1e-12)
    assert pure_dephasing(4.77e5 / 2.0, 4.77e5) == 0.0
    assert pure_dephasing(2.7e4 + 4.77e5 / 2.0, 4.77e5) == pytest.approx(2.7e4, rel=1e-12)
    with pytest.raises(NegativeDephasing):
        pure_dephasing(1e5, 4.77e5)


@settings(deadline=None)
@given(st.floats(0.0, 1e6), st.floats(0.0, 1e6))
def test_pure_dephasing_identity(gamma2, gamma1):
    if gamma2 >= gamma1 / 2.0:
        assert pure_dephasing(gamma2, gamma1) + gamma1 / 2.0 == pytest.approx(gamma2, rel=1e-12, abs=1e-12)


def test_summarize_rates_hand_values():
    summary = summarize_rates([1.0, 2.0, 3.0])
    assert summary.mean == pytest.approx(2.0)
    assert summary.sigma == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)
    assert summary.n_samples == 3


def test_summarize_rates_seeded_gaussian():
    rng = np.random.default_rng(99)
    samples = rng.normal(4.77e5, 9e3, size=1000)
    summary = summarize_rates(samples)
    assert abs(summary.mean - 4.77e5) < 3.0 * 9e3 / np.sqrt(1000)
    assert summary.sigma == pytest.approx(9e3, rel=0.15)


def test_summarize_rates_degenerate():
    assert summarize_rates([5.0, 5.0, 5.0]).sigma == 0.0
    with pytest.raises(ValidationError):
        summarize_rates([1.0])


def test_alias_warning():
    t = np.linspace(0.0, 9e-6, 10)  # dt = 1 us, Nyquist 0.5 MHz
    assert nyquist_frequency(t) == pytest.approx(0.5e6)
    with pytest.warns(AliasWarning):
        assert warn_if_aliased(0.7e6, t)
    assert not warn_if_aliased(0.3e6, t)


_FITS = {"relaxation": fit_relaxation, "ramsey": fit_ramsey, "echo": fit_echo}
_RATES = {"relaxation": 4.77e5, "ramsey": 3.35e5, "echo": 2.56e5}


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("kind", list(_FITS))
@settings(deadline=None)
@given(st.floats(0.3, 2.0), st.floats(0.5, 2.0), st.floats(1e5, 4e5), st.floats(-np.pi, np.pi),
       st.floats(-0.5, 1.0))
def test_decay_jac_matches_numeric_jacobian(captured_stack, jacobian_error, kind, weighted, a,
                                            rate_factor, delta_f, phi, b):
    # Points around the noiseless-recovery truths; weights 1/sigma with
    # sigma in [0.005, 0.02] enter the engine's weighted block. The largest
    # error seen over 3000 random points was 2.3e-9.
    rng = np.random.default_rng(0)
    sigma = rng.uniform(0.005, 0.02, GRID.size) if weighted else None
    trace = DecayTrace(kind=kind, times=GRID, signal=np.exp(-_RATES[kind] * GRID), sigma=sigma)
    stack = captured_stack(decoherence, "lm_fit", lambda: _FITS[kind](trace))
    point = {"A": a, RATE_NAMES[kind]: _RATES[kind] * rate_factor, "delta_f_hz": delta_f,
             "phi_rad": phi, "B": b}
    assert (stack.problem.weights is None) != weighted
    assert jacobian_error(stack, stack.internal(np.array([point[n] for n in stack.names]))) < 1e-7
