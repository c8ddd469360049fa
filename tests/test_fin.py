import math

import numpy as np
import pytest

from linetherm.core import ComputationError, ValidationError
from linetherm.fin import (
    FinExtraction,
    FinParams,
    NoPointsBelowThreshold,
    RatioBelowOne,
    UnphysicalRatio,
    analytic_profile,
    extract_resistances,
    fit_inverse_T,
    fit_origin_slope,
    invert_ratio,
    predicted_diffs,
    ratio_function,
    slopes_from_shape,
    solve_discrete,
)
from linetherm.synth import gen_fin

LONG = dict(l_c=0.045, d_hc=0.025)  # long-clamp geometry, d/L = 25/45
D_OVER_L = LONG["d_hc"] / LONG["l_c"]


def params(u, g=1.6e4, p=1e-6, t_d=0.1):
    return FinParams(r_s=g * u, r_t=g / u, t_d=t_d, p_heat=p, **LONG)


def test_fin_params_validation():
    with pytest.raises(ValidationError):
        FinParams(r_s=-1.0, r_t=1.0, l_c=0.045)
    with pytest.raises(ValidationError):
        FinParams(r_s=1.0, r_t=0.0, l_c=0.045)
    with pytest.raises(ValidationError):
        FinParams(r_s=1.0, r_t=1.0, l_c=0.0)
    with pytest.raises(ValidationError):
        FinExtraction(u=-1.0, g=1.0, slope_h=1.0, slope_o=1.0, threshold=1e-6)


def test_discrete_no_power_uniform():
    sol = solve_discrete(params(1.0, p=0.0), 50)
    assert np.all(sol.temps == 0.1)
    assert sol.t_h == 0.1 and sol.t_o == 0.1


def test_discrete_perfect_conduction_limit():
    # R_s/R_t -> 0: the whole strip sits at T_d + P*R_t
    p = FinParams(r_s=1e-6, r_t=1e6, t_d=0.1, p_heat=1e-6, **LONG)
    sol = solve_discrete(p, 2000)
    assert (sol.t_o - 0.1) / 1e-6 == pytest.approx(1e6, rel=1e-3)


def test_discrete_matches_analytic_profile():
    for u in (0.1, 1.0, 5.0):
        p = params(u)
        sol = solve_discrete(p, 10_000)
        idx = np.linspace(0, sol.x.size - 1, 20, dtype=int)[1:-1]
        analytic = analytic_profile(p, sol.x[idx])
        rel = np.abs((sol.temps[idx] - p.t_d) / (analytic - p.t_d) - 1.0)
        assert rel.max() < 1e-4


def test_discrete_second_order_convergence():
    p = params(1.0)
    errs = []
    for n in (100, 200):
        sol = solve_discrete(p, n)
        analytic = analytic_profile(p, sol.x)
        errs.append(np.max(np.abs((sol.temps - p.t_d) / (analytic - p.t_d) - 1.0)))
    assert errs[0] / errs[1] >= 3.0


def test_discrete_energy_balance():
    p = params(2.5)
    n = 500
    sol = solve_discrete(p, n)
    leak = np.sum((sol.temps - p.t_d) / (p.r_t * n))
    assert leak == pytest.approx(p.p_heat, rel=1e-10)


def test_discrete_no_contact():
    p = FinParams(r_s=1e4, r_t=math.inf, t_d=0.1, p_heat=1e-6, **LONG)
    with pytest.raises(ComputationError):
        solve_discrete(p, 100)
    cold = FinParams(r_s=1e4, r_t=math.inf, t_d=0.1, p_heat=0.0, **LONG)
    assert np.all(solve_discrete(cold, 100).temps == 0.1)


def test_analytic_profile_boundaries():
    p = params(1.3)
    t_o = analytic_profile(p, p.l_c)
    assert t_o == pytest.approx(p.t_d + p.p_heat * p.g / math.sinh(p.u), rel=1e-12)
    # insulated far end: T'(L) = 0
    h = 1e-7 * p.l_c
    d_end = (analytic_profile(p, p.l_c) - analytic_profile(p, p.l_c - h)) / h
    assert abs(d_end) < 1e-6 * p.r_s * p.p_heat / p.l_c
    # heater-side flux: T'(0) = -R_s P / L
    d0 = (analytic_profile(p, h) - analytic_profile(p, 0.0)) / h
    assert d0 == pytest.approx(-p.r_s * p.p_heat / p.l_c, rel=1e-6)
    with pytest.raises(ValidationError):
        analytic_profile(p, -1e-3)


def test_predicted_diffs_small_u_limit():
    p = FinParams(r_s=1e-12, r_t=1e4, t_d=0.1, p_heat=1e-6, **LONG)
    slope_h, slope_o = predicted_diffs(p)
    assert slope_o == pytest.approx(1e4, rel=1e-8)
    assert slope_h == pytest.approx(1e4, rel=1e-6)
    zero = FinParams(r_s=0.0, r_t=1e4, t_d=0.1, p_heat=1e-6, **LONG)
    assert predicted_diffs(zero) == (1e4, 1e4)


def test_predicted_diffs_ratio_reference():
    p = params(1.0)
    slope_h, slope_o = predicted_diffs(p)
    assert slope_h / slope_o == pytest.approx(2.196, abs=1e-3)
    assert slope_o == pytest.approx(1.6e4 / math.sinh(1.0), rel=1e-12)


def test_predicted_diffs_match_discrete():
    for u in np.geomspace(0.1, 5.0, 7):
        p = params(u)
        sol = solve_discrete(p, 10_000)
        slope_h, slope_o = predicted_diffs(p)
        assert (sol.t_h - p.t_d) / p.p_heat == pytest.approx(slope_h, rel=1e-4)
        assert (sol.t_o - p.t_d) / p.p_heat == pytest.approx(slope_o, rel=1e-4)


def test_ratio_function_values():
    assert ratio_function(0.0, 0.5) == 1.0
    assert ratio_function(1.0, D_OVER_L) == pytest.approx(2.1959701868395776, rel=1e-12)
    u = np.linspace(0.0, 10.0, 400)
    f = np.array([ratio_function(v, 0.3) for v in u])
    assert np.all(np.diff(f) > 0.0)


def test_invert_ratio():
    assert invert_ratio(1.0, D_OVER_L) == 0.0
    assert invert_ratio(2.1959701868395776, D_OVER_L) == pytest.approx(1.0, abs=1e-10)
    target = ratio_function(3.7, D_OVER_L)
    assert invert_ratio(target, D_OVER_L) == pytest.approx(3.7, rel=1e-10)
    with pytest.raises(RatioBelowOne):
        invert_ratio(0.99, D_OVER_L)
    with pytest.raises(RatioBelowOne):
        invert_ratio(float("nan"), D_OVER_L)
    top = ratio_function(512.0, D_OVER_L)
    assert invert_ratio(top, D_OVER_L) == pytest.approx(512.0, rel=1e-15)
    with pytest.raises(UnphysicalRatio):
        invert_ratio(math.nextafter(top, math.inf), D_OVER_L)


RATIO_GRID_D = [0.0, 1e-12, 1e-6, 0.1, 0.5556, 1.0, 10.0, 1e3, 1e6]


@pytest.mark.parametrize("d_over_l", RATIO_GRID_D)
def test_invert_ratio_reproduces_the_ratio_to_a_few_ulp(d_over_l):
    # Below u ~ 1e-2 the inverse is ill-conditioned: many u reproduce the
    # ratio, so the forward residual is pinned there, not u itself.
    for u in np.geomspace(1e-9, 500.0, 671).tolist():
        ratio = ratio_function(u, d_over_l)
        back = invert_ratio(ratio, d_over_l)
        assert abs(ratio_function(back, d_over_l) - ratio) <= 4 * math.ulp(ratio)
        if u >= 0.5:
            assert abs(back - u) <= 4 * math.ulp(u)


def test_fit_origin_slope():
    p = np.array([1e-6, 2e-6, 5e-6])
    dt = np.array([5.1e-3, 9.9e-3, 26e-3])
    assert fit_origin_slope(p, 5000.0 * p, 1e-5) == pytest.approx(5000.0, rel=1e-12)
    assert fit_origin_slope(p, dt, 3e-6) == pytest.approx(4980.0, rel=1e-12)
    # points above the threshold never enter the fit
    p2 = np.append(p, 10e-6)
    dt2 = np.append(dt, 80e-3)
    assert fit_origin_slope(p2, dt2, 3e-6) == fit_origin_slope(p, dt, 3e-6)
    with pytest.raises(NoPointsBelowThreshold):
        fit_origin_slope(p, dt, 1e-9)


def test_extraction_round_trip_noiseless():
    exp = gen_fin(1.0, 1.6e4, LONG["l_c"], LONG["d_hc"], 0.022, 0.1,
                  [1e-6, 2e-6, 3e-6])
    ext = extract_resistances(exp, 5e-6)
    assert ext.u == pytest.approx(1.0, rel=1e-8)
    assert ext.g == pytest.approx(1.6e4, rel=1e-8)


def test_extraction_round_trip_u_grid():
    for u in np.geomspace(0.05, 5.0, 9):
        exp = gen_fin(u, 1.6e4, LONG["l_c"], LONG["d_hc"], 0.022, 0.1,
                      [0.5e-6, 1e-6, 2e-6])
        ext = extract_resistances(exp, 5e-6)
        assert ext.u == pytest.approx(u, rel=1e-8)
        assert ext.g == pytest.approx(1.6e4, rel=1e-8)


def test_extraction_noisy_seeded():
    exp = gen_fin(1.0, 1.6e4, LONG["l_c"], LONG["d_hc"], 0.022, 0.1,
                  np.linspace(0.5e-6, 3e-6, 8), rel_noise=0.05, seed=3)
    ext = extract_resistances(exp, 5e-6)
    assert ext.u == pytest.approx(1.0, rel=0.15)
    assert ext.g == pytest.approx(1.6e4, rel=0.10)


def test_extraction_equal_slopes_degenerates_to_zero():
    # T_h == T_o: ratio exactly 1, so u = 0 and g = 0
    from linetherm.core import FinExperiment

    exp = FinExperiment(
        l_c=0.045, d_hc=0.0, w=0.022,
        p_heat=[1e-6, 2e-6], t_h=[0.1001, 0.1002], t_o=[0.1001, 0.1002],
        t_d=[0.1, 0.1],
    )
    ext = extract_resistances(exp, 1e-5)
    assert ext.u == 0.0 and ext.g == 0.0
    # heater side colder than far side is unphysical
    bad = FinExperiment(
        l_c=0.045, d_hc=0.0, w=0.022,
        p_heat=[1e-6, 2e-6], t_h=[0.10005, 0.1001], t_o=[0.1001, 0.1002],
        t_d=[0.1, 0.1], allow_noise=True,
    )
    with pytest.raises(UnphysicalRatio):
        extract_resistances(bad, 1e-5)


def test_fit_inverse_T():
    t_d = np.array([0.02, 0.1, 1.0, 20.0])
    assert fit_inverse_T(t_d, 1600.0 / t_d) == pytest.approx(1600.0, rel=1e-12)
    assert fit_inverse_T([0.05], [32000.0]) == pytest.approx(1600.0, rel=1e-12)
    rng = np.random.default_rng(12)
    t10 = np.geomspace(0.02, 20.0, 10)
    noisy = 1600.0 / t10 * (1.0 + 0.05 * rng.standard_normal(10))
    assert fit_inverse_T(t10, noisy) == pytest.approx(1600.0, rel=0.05)
    with pytest.raises(ValidationError):
        fit_inverse_T([], [])
    with pytest.raises(ValidationError):
        fit_inverse_T([-0.1], [100.0])
    with pytest.raises(ComputationError):
        fit_inverse_T([0.1, 1e-320], [16000.0, 5.0])


@pytest.mark.parametrize("d_over_l", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("call", [lambda d: invert_ratio(2.0, d), lambda d: invert_ratio(1.0, d),
                                  lambda d: ratio_function(1.0, d),
                                  lambda d: slopes_from_shape(1.0, 1.0, d)],
                         ids=["invert_ratio", "invert_ratio_at_one", "ratio_function",
                              "slopes_from_shape"])
def test_d_over_l_must_be_finite_and_non_negative(call, d_over_l):
    with pytest.raises(ValidationError, match="d_over_l"):
        call(d_over_l)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("call", [lambda v: ratio_function(v, 0.5),
                                  lambda v: slopes_from_shape(v, 1.0, 0.5),
                                  lambda v: slopes_from_shape(1.0, v, 0.5)],
                         ids=["ratio_function_u", "slopes_from_shape_u", "slopes_from_shape_g"])
def test_u_and_g_must_be_finite_and_non_negative(call, value):
    with pytest.raises(ValidationError, match="finite and non-negative"):
        call(value)


def test_slopes_from_shape_rejects_indeterminate_zero():
    with pytest.raises(ValidationError):
        slopes_from_shape(0.0, 1.0, 0.5)
