import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linetherm import resonator
from linetherm.core import TWO_PI, ComputationError, ValidationError
from linetherm.resonator import (
    PhaseSweep,
    SpanTooNarrow,
    extrapolate_chi,
    fit_phase_pair,
    reflection_phase,
    unwrapped_phase,
)
from linetherm.synth import gen_phase

TRUTH = {
    "f_g_hz": 7.458e9,
    "f_e_hz": 7.458e9 - 2.66e6,
    "kappa_g_rad_per_s": TWO_PI * 3.79e6,
    "kappa_e_rad_per_s": TWO_PI * 4.47e6,
    "tau_delay_s": 35e-9,
    "theta0_rad": 0.4,
}
GRID = np.linspace(7.458e9 - 30e6, 7.458e9 + 30e6, 401)


def test_phase_sweep_validation():
    with pytest.raises(ValidationError):
        PhaseSweep(frequencies=GRID[::-1], phase_g=np.zeros_like(GRID), phase_e=np.zeros_like(GRID))
    with pytest.raises(ValidationError):
        PhaseSweep(frequencies=GRID, phase_g=np.zeros(3), phase_e=np.zeros_like(GRID))


def test_on_resonance_overcoupled_reflection():
    assert reflection_phase(7.458e9, 7.458e9, TWO_PI * 4.1e6) == pytest.approx(np.pi)


def test_far_detuned_limit():
    f0, kappa = 7.458e9, TWO_PI * 4.1e6
    tau, theta0 = 12e-9, 0.7
    for f in (f0 - 5e9, f0 + 5e9):
        expected = theta0 - TWO_PI * f * tau
        assert reflection_phase(f, f0, kappa, None, tau, theta0) == pytest.approx(
            expected, abs=2e-3
        )


def test_full_winding_two_pi():
    f0, kappa = 7.458e9, TWO_PI * 4.1e6
    lw = kappa / TWO_PI
    f = np.linspace(f0 - 50 * lw, f0 + 50 * lw, 20001)
    phase = unwrapped_phase(f, f0, kappa)
    assert phase[0] - phase[-1] == pytest.approx(TWO_PI, abs=0.05)


def test_kappa_c_validation():
    with pytest.raises(ValidationError):
        reflection_phase(1e9, 1e9, -1.0)
    with pytest.raises(ValidationError):
        reflection_phase(1e9, 1e9, 1.0, kappa_c=2.0)


def test_pair_fit_noiseless_exact():
    sweep = gen_phase(TRUTH, GRID)
    result = fit_phase_pair(sweep)
    assert result.converged
    for name, value in TRUTH.items():
        assert result.params[name] == pytest.approx(value, rel=1e-6)
    assert result.params["chi_rad_per_s"] == pytest.approx(TWO_PI * (-2.66e6), rel=1e-6)
    assert result.params["kappa_mean_rad_per_s"] == pytest.approx(TWO_PI * 4.13e6, rel=1e-6)


def test_pair_fit_identical_traces_zero_chi():
    same = {**TRUTH, "f_e_hz": TRUTH["f_g_hz"], "kappa_e_rad_per_s": TRUTH["kappa_g_rad_per_s"]}
    sweep = gen_phase(same, GRID)
    result = fit_phase_pair(sweep)
    assert abs(result.params["chi_rad_per_s"]) < TWO_PI * 1.0  # |chi|/2pi below 1 Hz


def test_pair_fit_noisy_two_percent():
    sweep = gen_phase(TRUTH, GRID, noise=0.01, seed=7)
    result = fit_phase_pair(sweep)
    assert result.params["chi_rad_per_s"] == pytest.approx(TWO_PI * (-2.66e6), rel=0.02)
    assert result.params["kappa_g_rad_per_s"] == pytest.approx(TRUTH["kappa_g_rad_per_s"], rel=0.02)
    assert result.params["kappa_e_rad_per_s"] == pytest.approx(TRUTH["kappa_e_rad_per_s"], rel=0.02)


def test_chi_antisymmetric_under_trace_swap():
    sweep = gen_phase(TRUTH, GRID, noise=0.005, seed=3)
    swapped = PhaseSweep(frequencies=sweep.frequencies, phase_g=sweep.phase_e,
                         phase_e=sweep.phase_g, n_bar_readout=sweep.n_bar_readout)
    chi_a = fit_phase_pair(sweep).params["chi_rad_per_s"]
    chi_b = fit_phase_pair(swapped).params["chi_rad_per_s"]
    assert chi_a == pytest.approx(-chi_b, rel=1e-6)


def test_added_delay_moves_only_tau():
    base = gen_phase(TRUTH, GRID)
    extra = 8e-9
    shifted = PhaseSweep(
        frequencies=GRID,
        phase_g=base.phase_g - TWO_PI * GRID * extra,
        phase_e=base.phase_e - TWO_PI * GRID * extra,
    )
    a = fit_phase_pair(base)
    b = fit_phase_pair(shifted)
    assert b.params["tau_delay_s"] == pytest.approx(TRUTH["tau_delay_s"] + extra, rel=1e-8)
    for name in ("f_g_hz", "f_e_hz", "kappa_g_rad_per_s", "kappa_e_rad_per_s", "chi_rad_per_s"):
        assert b.params[name] == pytest.approx(a.params[name], rel=1e-8)


def test_span_too_narrow():
    f = np.linspace(7.458e9 - 3e6, 7.458e9 + 3e6, 101)
    sweep = gen_phase(TRUTH, f)
    with pytest.raises(SpanTooNarrow):
        fit_phase_pair(sweep)


def test_sigmas_follow_covariance():
    sweep = gen_phase(TRUTH, GRID, noise=0.01, seed=1)
    result = fit_phase_pair(sweep)
    for i, name in enumerate(result.param_names):
        assert result.sigmas[name] == pytest.approx(
            float(np.sqrt(result.covariance[i, i])), rel=1e-9
        )


def test_extrapolate_chi_exponential_trend():
    chi0 = TWO_PI * (-2.70e6)
    n = np.linspace(0.0, 0.6, 14)
    chi = chi0 + TWO_PI * 0.35e6 * (1.0 - np.exp(-n / 0.12))
    assert extrapolate_chi(np.column_stack([n, chi])) == pytest.approx(chi0, rel=1e-6)


def test_extrapolate_chi_constant_and_linear():
    n = np.linspace(0.0, 0.5, 8)
    const = np.full_like(n, TWO_PI * (-2.7e6))
    assert extrapolate_chi(np.column_stack([n, const])) == pytest.approx(
        TWO_PI * (-2.7e6), rel=1e-9
    )
    two = np.array([[0.1, -1.0e6], [0.3, -0.8e6]])
    assert extrapolate_chi(two) == pytest.approx(-1.1e6, rel=1e-9)
    with pytest.raises(ValidationError):
        extrapolate_chi([[0.1, -1.0e6]])


def test_extrapolate_chi_fits_the_trend_only_at_four_distinct_n_bar():
    # Two distinct n_bar: the line through the pairs' means, not a trend fit.
    assert extrapolate_chi([(1, 1), (1, 2), (2, 3), (2, 4)]) == pytest.approx(-0.5, rel=1e-12)


@pytest.mark.parametrize("points", [[(0, 1), (0, 2), (0, 3), (0, 4)], [(1, 5), (1, 6)]])
def test_extrapolate_chi_needs_two_distinct_n_bar(points):
    with pytest.raises(ValidationError, match="distinct"):
        extrapolate_chi(points)


@pytest.mark.parametrize("points", [[(math.nan, 1), (0.1, 2), (0.2, 3)],
                                    [(0.1, math.nan), (0.2, 3)],
                                    [(0.1, 1), (0.2, math.inf)]])
def test_extrapolate_chi_rejects_non_finite_input(points, capfd):
    with pytest.raises(ValidationError, match="finite"):
        extrapolate_chi(points)
    assert capfd.readouterr().err == ""  # no LAPACK complaint about NaN


def test_extrapolate_chi_trend_fit_that_fails_raises():
    # A straight line has no finite n_c: the trend fit exhausts its budget.
    with pytest.raises(ComputationError, match="converge"):
        extrapolate_chi([(0, 1), (1, 2), (2, 3), (3, 4)])


# Points within a few linewidths and 10 ns of the truth, with theta0c on the
# truth's branch so the residual, and the rounding of its differences, stays
# small. The f0 columns are differenced with a 10 Hz step: 1e-6 of 7.458 GHz
# would be 7.5 kHz, whose truncation error across a 4 MHz linewidth is 1e-5.
# kappa_c_frac's internal step is 1e-4: near its bound of 1 its column is
# small, and 1e-6 of its value rounds to errors of several 1e-6. The largest
# error seen over 800 random points was 3e-7; a wrong column errs by O(1).
@settings(deadline=None)
@given(st.floats(-2e6, 2e6), st.floats(-2e6, 2e6), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
       st.floats(25e-9, 45e-9), st.floats(-0.5, 0.5), st.floats(0.6, 0.99), st.booleans())
def test_phase_pair_jac_matches_numeric_jacobian(captured_stack, jacobian_error, shift_g,
                                                 shift_e, scale_g, scale_e, tau, shift_theta,
                                                 kappa_c_frac, fit_kappa_c):
    stack = captured_stack(resonator, "joint_fit",
                           lambda: fit_phase_pair(gen_phase(TRUTH, GRID), fit_kappa_c=fit_kappa_c))
    f_ref = 0.5 * (GRID[0] + GRID[-1])
    point = {"f_hz[0]": TRUTH["f_g_hz"] + shift_g, "f_hz[1]": TRUTH["f_e_hz"] + shift_e,
             "kappa_rad_per_s[0]": TRUTH["kappa_g_rad_per_s"] * scale_g,
             "kappa_rad_per_s[1]": TRUTH["kappa_e_rad_per_s"] * scale_e,
             "tau_delay_s": tau, "kappa_c_frac": kappa_c_frac,
             "theta0c_rad": TRUTH["theta0_rad"] - TWO_PI * f_ref * tau + shift_theta}
    assert stack.problem.sizes == [GRID.size, GRID.size]
    assert ("kappa_c_frac" in stack.names) == fit_kappa_c
    t = stack.internal(np.array([point[name] for name in stack.names]))
    scale = np.maximum(np.abs(t), 1.0)
    scale[[stack.names.index("f_hz[0]"), stack.names.index("f_hz[1]")]] = 1e7
    if fit_kappa_c:
        scale[stack.names.index("kappa_c_frac")] = 100.0
    assert jacobian_error(stack, t, scale) < 2e-6


@settings(deadline=None)
@given(st.floats(-2e7, -1e7), st.floats(1e6, 4e6), st.floats(0.05, 0.3))
def test_extrapolate_chi_jac_matches_numeric_jacobian(captured_stack, jacobian_error, chi0, a,
                                                      n_c):
    # Around test_extrapolate_chi_exponential_trend's truth; the largest error
    # seen over 500 random points was 3.8e-9.
    n = np.linspace(0.0, 0.6, 14)
    chi = TWO_PI * (-2.70e6) + TWO_PI * 0.35e6 * (1.0 - np.exp(-n / 0.12))
    stack = captured_stack(resonator, "lm_fit", lambda: extrapolate_chi(np.column_stack([n, chi])))
    assert stack.names == ["chi0", "a", "n_c"]
    assert jacobian_error(stack, stack.internal(np.array([chi0, a, n_c]))) < 1e-7
