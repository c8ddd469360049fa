import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from linetherm.core import (
    CODATA,
    FinExperiment,
    FitResult,
    HeatPulseSeries,
    IQCloud,
    RateSample,
    SchemaVersionError,
    SystemParams,
    ValidationError,
    angular_from_cyclic,
    check_schema_version,
    cyclic_from_angular,
    default_system_params,
    load_system_params,
    rate_from_khz,
    system_params_from_dict,
    system_params_to_dict,
)

TWO_PI = 2 * math.pi


def test_planck_boltzmann_anchor():
    # h/k_B at 7.458 GHz sets the temperature scale of every conversion
    assert CODATA.h / CODATA.k_B * 7.458e9 == pytest.approx(0.3579, rel=1e-4)


@pytest.mark.parametrize("khz,expected", [(477.0, 4.77e5), (0.0, 0.0), (27.0, 2.7e4)])
def test_rate_from_khz(khz, expected):
    assert rate_from_khz(khz) == pytest.approx(expected, rel=1e-12)


def test_rate_from_khz_rejects_negative():
    with pytest.raises(ValidationError):
        rate_from_khz(-1.0)


@pytest.mark.parametrize(
    "f,w",
    [(4.10e6, 2.576e7), (0.0, 0.0), (-2.70e6, -1.696e7)],
)
def test_angular_from_cyclic(f, w):
    assert angular_from_cyclic(f) == pytest.approx(w, rel=1e-3)


@given(st.floats(-1e12, 1e12))
def test_angular_round_trip(f):
    assert cyclic_from_angular(angular_from_cyclic(f)) == pytest.approx(f, rel=1e-12, abs=1e-300)


def test_angular_rejects_nonfinite():
    with pytest.raises(ValidationError):
        angular_from_cyclic(float("nan"))


def test_default_params_match_reference_table():
    sp = default_system_params()
    assert sp.f_r == 7.458e9
    assert sp.kappa == TWO_PI * 4.10e6
    assert sp.chi == TWO_PI * (-2.70e6)
    assert sp.kappa_g is None and sp.kappa_e is None


def test_system_params_validation():
    with pytest.raises(ValidationError):
        SystemParams(f_r=-1.0, kappa=1.0, chi=0.0)
    with pytest.raises(ValidationError):
        SystemParams(f_r=1e9, kappa=0.0, chi=0.0)
    with pytest.raises(ValidationError):
        SystemParams(f_r=float("inf"), kappa=1.0, chi=0.0)
    with pytest.raises(ValidationError):
        SystemParams(f_r=1e9, kappa=float("inf"), chi=0.0)
    with pytest.raises(ValidationError):
        SystemParams(f_r=1e9, kappa=1.0, chi=float("inf"))
    # state-resolved linewidths must be consistent with the mean
    with pytest.raises(ValidationError):
        SystemParams(f_r=1e9, kappa=TWO_PI * 4.10e6, chi=0.0,
                     kappa_g=TWO_PI * 3.79e6, kappa_e=TWO_PI * 4.47e6)
    mean = TWO_PI * 0.5 * (3.79e6 + 4.47e6)
    sp = SystemParams(f_r=1e9, kappa=mean, chi=-1.0,
                      kappa_g=TWO_PI * 3.79e6, kappa_e=TWO_PI * 4.47e6)
    assert sp.kappa == pytest.approx(TWO_PI * 4.13e6)
    with pytest.raises(ValidationError):
        SystemParams(f_r=1e9, kappa=1.0, chi=0.0, kappa_g=1.0)


def test_system_params_json_round_trip(tmp_path):
    sp = default_system_params()
    doc = system_params_to_dict(sp)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    back = load_system_params(path)
    assert back == sp


def test_system_params_schema_rejection():
    with pytest.raises(SchemaVersionError):
        system_params_from_dict({"schema_version": "2.0", "f_r_hz": 1e9,
                                 "kappa_over_2pi_hz": 1.0, "chi_over_2pi_hz": 0.0})
    check_schema_version({"schema_version": "1.3"})  # same major: fine


def test_system_params_env_override(tmp_path, monkeypatch):
    doc = system_params_to_dict(SystemParams(f_r=5e9, kappa=1e6, chi=-1e5))
    path = tmp_path / "override.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("LINETHERM_PARAMS", str(path))
    assert default_system_params().f_r == 5e9


def test_rate_sample_validation():
    RateSample(4.77e5, 9e3)
    RateSample(0.0)
    with pytest.raises(ValidationError):
        RateSample(-1.0)
    with pytest.raises(ValidationError):
        RateSample(1.0, sigma=-0.1)


def test_heat_pulse_series_validation():
    t = np.array([0.0, 1e-4, 2e-4])
    HeatPulseSeries(t_heat=5e-6, t_cool=t, gamma2_star=np.ones(3), delta_f=np.zeros(3))
    with pytest.raises(ValidationError):
        HeatPulseSeries(t_heat=0.0, t_cool=t[::-1], gamma2_star=np.ones(3), delta_f=np.zeros(3))
    with pytest.raises(ValidationError):
        HeatPulseSeries(t_heat=0.0, t_cool=t, gamma2_star=np.ones(2), delta_f=np.zeros(3))
    with pytest.raises(ValidationError):
        HeatPulseSeries(t_heat=np.nan, t_cool=t, gamma2_star=np.ones(3), delta_f=np.zeros(3))
    series = HeatPulseSeries(t_heat=0.0, t_cool=t, gamma2_star=np.ones(3), delta_f=np.zeros(3))
    with pytest.raises(ValueError):
        series.t_cool[0] = 1.0  # arrays are read-only


def test_fin_experiment_ordering_flag():
    kw = dict(l_c=0.045, d_hc=0.025, w=0.022, p_heat=[1e-6], t_d=[0.1])
    FinExperiment(t_h=[0.3], t_o=[0.2], **kw)
    with pytest.raises(ValidationError):
        FinExperiment(t_h=[0.15], t_o=[0.2], **kw)
    FinExperiment(t_h=[0.15], t_o=[0.2], allow_noise=True, **kw)
    with pytest.raises(ValidationError):
        FinExperiment(t_h=[0.3], t_o=[-0.2], allow_noise=True, **kw)
    for name in ("d_hc", "w"):
        with pytest.raises(ValidationError):
            FinExperiment(t_h=[0.3], t_o=[0.2], **{**kw, name: np.nan})


def test_iq_cloud_validation():
    cloud = IQCloud(points=np.zeros((5, 2)), f_q=1e9)
    assert cloud.n_points == 5
    with pytest.raises(ValidationError):
        IQCloud(points=np.zeros((1, 2)), f_q=1e9)
    with pytest.raises(ValidationError):
        IQCloud(points=np.zeros((5, 3)), f_q=1e9)
    with pytest.raises(ValidationError):
        IQCloud(points=np.zeros((5, 2)), f_q=0.0)


def test_fit_result_shape_check():
    with pytest.raises(ValidationError):
        FitResult(params={"a": 1.0}, sigmas={"a": 0.0}, covariance=np.zeros((2, 2)),
                  param_names=("a",), residual_norm=0.0, n_iterations=1, converged=True)
