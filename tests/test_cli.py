import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

import linetherm
from linetherm import cli, heatpulse, shotnoise
from linetherm.cli import _jsonsafe, build_parser, main
from linetherm.core import SCHEMA_VERSION, IQCloud
from linetherm.dataio import (read_heatpulse_csv, write_heatpulse_csv, write_iq_csv,
                              write_phase_csv)
from linetherm.resonator import PhaseSweep, unwrapped_phase


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which strict JSON does not allow")


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out, parse_constant=_reject_constant)


def test_shotnoise_gamma_mapping(capsys):
    doc = run_json(capsys, "shotnoise", "--gamma", "7e3", "27e3", "--no-timestamp")
    table = doc["result"]["table"]
    assert table[0]["n_bar"] == pytest.approx(0.9e-3, rel=0.10)
    assert table[1]["n_bar"] == pytest.approx(3.5e-3, rel=0.05)
    assert doc["manifest"]["command"] == "shotnoise"
    assert "timestamp" not in doc["manifest"]


def test_shotnoise_gamma_khz_flag(capsys):
    doc = run_json(capsys, "shotnoise", "--gamma-khz", "7", "--no-timestamp")
    assert doc["result"]["table"][0]["n_bar"] == pytest.approx(0.9e-3, rel=0.10)


def test_shotnoise_zero_photon_row(capsys):
    doc = run_json(capsys, "shotnoise", "--nbar", "0", "--no-timestamp")
    row = doc["result"]["table"][0]
    assert row["gamma_n_per_s"] == 0.0
    assert row["temperature_k"] is None


def test_shotnoise_as_temperature(capsys):
    doc = run_json(capsys, "shotnoise", "--nbar", "6.5e-3", "--as-temperature", "--no-timestamp")
    assert doc["result"]["temperature_k"][0] == pytest.approx(0.071, abs=1e-3)


def test_shotnoise_csv_format(capsys):
    code, out, err = run(capsys, "shotnoise", "--nbar", "1e-3", "--format", "csv", "--no-timestamp")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gamma_n_per_s,delta_f_nbar_hz,n_bar,temperature_k"
    assert len(lines) == 2


def test_shotnoise_requires_input(capsys):
    code, out, err = run(capsys, "shotnoise", "--no-timestamp")
    assert code == 2
    assert json.loads(err)["error"]["exit_code"] == 2


def test_shotnoise_inversion_failure_exit_3(capsys):
    code, out, err = run(capsys, "shotnoise", "--gamma", "1e9", "--no-timestamp")
    assert code == 3
    assert json.loads(err)["error"]["type"] == "OutOfRange"


@pytest.mark.parametrize("case, expected_type, expected_code", [
    ("validation", "ValidationError", 2),
    ("computation", "OutOfRange", 3),
    ("missing_file", "FileNotFoundError", 2),
    ("malformed_sidecar", "JSONDecodeError", 2),
])
def test_main_maps_each_error_family_to_its_exit_code(tmp_path, capsys, case, expected_type,
                                                      expected_code):
    cloud = tmp_path / "cloud.csv"
    if case == "malformed_sidecar":
        run_json(capsys, "synth", "iq", "--n-points", "200", "--out", str(cloud))
        cloud.with_suffix(".json").write_text('{"schema_version": ', encoding="utf8")
    argv = {
        "validation": ["shotnoise", "--gamma", "-1"],
        "computation": ["shotnoise", "--gamma", "1e9"],
        "missing_file": ["decay", str(tmp_path / "absent.csv"), "--kind", "relaxation"],
        "malformed_sidecar": ["iqtemp", str(cloud)],
    }[case]
    code, out, err = run(capsys, *argv, "--no-timestamp")
    assert (code, out) == (expected_code, "")
    error = json.loads(err)["error"]
    assert (error["type"], error["exit_code"]) == (expected_type, expected_code)


def test_shotnoise_validation_precedes_range(capsys):
    # The over-range rate comes first, but the negative one is reported.
    code, out, err = run(capsys, "shotnoise", "--gamma", "1e12", "-1", "--no-timestamp")
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError"
    assert error["message"].endswith("got -1.0")


def test_shotnoise_table_matches_per_value_library_calls(capsys):
    sys_params = linetherm.default_system_params()
    args = ("shotnoise", "--gamma", "0", "7e3", "--gamma-khz", "27", "--nbar", "0", "1e-3",
            "--no-timestamp")
    n_bars = [shotnoise.photons_from_dephasing(g, sys_params) for g in (0.0, 7e3, 27e3)]
    rows = []
    for n in n_bars + [0.0, 1e-3]:
        pt = shotnoise.dephasing_full(n, sys_params)
        temp = shotnoise.temperature_from_photons(n, sys_params.f_r) if n > 0 else None
        rows.append([pt.gamma_n, pt.delta_f_stark, n, temp])
    doc = run_json(capsys, *args)
    assert doc["result"]["table"] == [
        dict(zip(("gamma_n_per_s", "delta_f_nbar_hz", "n_bar", "temperature_k"), row))
        for row in rows
    ]
    assert doc["result"]["lamb_shift_hz"] == pt.lamb_shift
    code, out, err = run(capsys, *args, "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == [
        ",".join("" if v is None else repr(v) for v in row) for row in rows
    ]


@pytest.mark.parametrize("flag, value", [("--gamma", "nan"), ("--nbar", "nan"), ("--nbar", "inf")])
def test_shotnoise_non_finite_input_exit_2(capsys, flag, value):
    code, out, err = run(capsys, "shotnoise", flag, value, "--no-timestamp")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValidationError"


def test_decay_end_to_end(tmp_path, capsys):
    trace = tmp_path / "t1.csv"
    run(capsys, "synth", "decay", "--kind", "relaxation", "--gamma-per-s", "4.77e5",
        "--seed", "3", "--out", str(trace))
    curve = tmp_path / "curve.csv"
    doc = run_json(capsys, "decay", "--kind", "relaxation", str(trace),
                   "--emit-curve", str(curve), "--no-timestamp")
    assert doc["result"]["params"]["gamma1_per_s"] == pytest.approx(4.77e5, rel=1e-6)
    assert doc["result"]["converged"] is True
    header = curve.read_text().splitlines()[0]
    assert header == "t_s,model"


def test_heatpulse_end_to_end(tmp_path, capsys):
    prefix = tmp_path / "flex"
    run(capsys, "synth", "heatpulse", "--seed", "1", "--t0-mk", "58",
        "--delta-t-mk", "24", "--delta-t-mk", "55", "--delta-t-mk", "114",
        "--tau-ms", "0.28", "--t-heat-us", "0.5", "--t-heat-us", "5", "--t-heat-us", "50",
        "--gamma-offset-per-s", "2.4e5", "--out", str(prefix))
    files = [f"{prefix}_{j}.csv" for j in range(3)]
    curve = tmp_path / "model"
    doc = run_json(capsys, "heatpulse", "--t0-mk", "58", *files,
                   "--emit-curve", str(curve), "--no-timestamp")
    assert doc["result"]["params"]["tau_cool_s"] == pytest.approx(0.28e-3, rel=1e-6)
    assert doc["result"]["t_heat_s"] == pytest.approx([0.5e-6, 5e-6, 50e-6], rel=1e-12)
    for j in range(3):
        lines = (tmp_path / f"model_{j}.csv").read_text().splitlines()
        assert lines[0] == "t_cool_s,gamma2_star_per_s,delta_f_hz"
        assert len(lines) == 401


def test_fin_extract_end_to_end(tmp_path, capsys):
    data = tmp_path / "exp.csv"
    run(capsys, "synth", "fin", "--seed", "2", "--u", "1.0", "--g-k-per-w", "16000",
        "--out", str(data))
    doc = run_json(capsys, "fin", "extract", str(data), "--threshold-uw", "3", "--no-timestamp")
    assert doc["result"]["u"] == pytest.approx(1.0, rel=1e-8)
    assert doc["result"]["g_k_per_w"] == pytest.approx(1.6e4, rel=1e-8)
    assert doc["result"]["threshold_w"] == pytest.approx(3e-6)


def test_fin_invt(tmp_path, capsys):
    table = tmp_path / "gvals.csv"
    t_d = np.array([0.02, 0.1, 1.0, 20.0])
    lines = ["t_d_k,g_k_per_w"] + [f"{t},{1600.0 / t}" for t in t_d]
    table.write_text("\n".join(lines) + "\n")
    doc = run_json(capsys, "fin", "invt", str(table), "--no-timestamp")
    assert doc["result"]["c_k2_per_w"] == pytest.approx(1600.0, rel=1e-9)


def test_fin_extract_non_finite_cell_exit_2(tmp_path, capsys):
    data = tmp_path / "exp.csv"
    run(capsys, "synth", "fin", "--seed", "2", "--out", str(data))
    lines = data.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index("t_h_k")] = "nan"
    lines[1] = ",".join(row)
    data.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "fin", "extract", str(data), "--threshold-uw", "3",
                         "--no-timestamp")
    assert code == 2
    assert out == ""
    assert "t_h_k" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("constant", ["NaN", "Infinity"])
def test_fin_extract_non_finite_sidecar_exit_2(tmp_path, capsys, constant):
    data = tmp_path / "exp.csv"
    run(capsys, "synth", "fin", "--seed", "2", "--out", str(data))
    (tmp_path / "exp.json").write_text(
        f'{{"schema_version": "1.0", "l_c_m": 0.045, "d_hc_m": {constant}, "w_m": 0.022}}\n'
    )
    code, out, err = run(capsys, "fin", "extract", str(data), "--threshold-uw", "3",
                         "--no-timestamp")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValidationError"


def _heatpulse_files(tmp_path, capsys):
    prefix = tmp_path / "flex"
    code, _, err = run(capsys, "synth", "heatpulse", "--seed", "1", "--delta-t-mk", "24",
                       "--delta-t-mk", "55", "--out", str(prefix))
    assert code == 0, err
    return [f"{prefix}_{j}.csv" for j in range(2)]


def test_heatpulse_non_finite_t_heat_exit_2(tmp_path, capsys):
    files = _heatpulse_files(tmp_path, capsys)
    (tmp_path / "flex_1.json").write_text('{"schema_version": "1.0", "t_heat_s": NaN}\n')
    code, out, err = run(capsys, "heatpulse", "--t0-mk", "58", *files, "--no-timestamp")
    assert code == 2
    assert out == ""
    assert "NaN" in json.loads(err)["error"]["message"]


def test_heatpulse_infinite_t0_exit_2(tmp_path, capsys):
    files = _heatpulse_files(tmp_path, capsys)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "heatpulse", "--t0-mk", "inf", *files, "--no-timestamp")
    assert code == 2
    assert out == ""
    assert "t0" in json.loads(err)["error"]["message"]
    assert caught == []


def test_heatpulse_runaway_tau_reports_null_sigma_without_warning(tmp_path, capsys,
                                                                 monkeypatch):
    # A first rate below the offset, with the fit started from the jump at
    # 1e-4 K and tau at 50 us: tau runs off to ~1e179 s, and its variance
    # scale overflows.
    guesses = heatpulse._initial_guesses

    def start_low(*args):
        gamma_off0, f0_off0, _, _, base_gamma, base_df = guesses(*args)
        return gamma_off0, f0_off0, [1e-4], 5e-5, base_gamma, base_df

    monkeypatch.setattr(heatpulse, "_initial_guesses", start_low)
    prefix = tmp_path / "run"
    code, _, err = run(capsys, "synth", "heatpulse", "--delta-t-mk", "24",
                       "--gamma-offset-per-s", "2.4e5", "--f0-offset-hz", "1e3",
                       "--out", str(prefix))
    assert code == 0, err
    path = tmp_path / "run_0.csv"
    data = read_heatpulse_csv(path)
    gamma = data.gamma2_star.copy()
    gamma[0] = 2e5
    write_heatpulse_csv(path, dataclasses.replace(data, gamma2_star=gamma))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "heatpulse", "--t0-mk", "58", str(path), "--no-timestamp")
    assert code == 3
    result = json.loads(out, parse_constant=_reject_constant)["result"]
    assert result["converged"] is False and result["params"]["tau_cool_s"] > 1e100
    assert result["sigmas"]["tau_cool_s"] is None
    assert result["covariance"][0][0] is None
    assert all(v is not None for k, v in result["sigmas"].items() if k != "tau_cool_s")


@pytest.mark.parametrize("f_r", ["Infinity", "1e400"])
def test_shotnoise_infinite_f_r_params_exit_2(tmp_path, capsys, f_r):
    params = tmp_path / "params.json"
    params.write_text(
        f'{{"f_r_hz": {f_r}, "kappa_over_2pi_hz": 4.10e6, "chi_over_2pi_hz": -2.70e6}}\n'
    )
    code, out, err = run(capsys, "shotnoise", "--nbar", "1e-3", "--params", str(params),
                         "--no-timestamp")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValidationError"


_PARAMS_REST = '"kappa_over_2pi_hz": 4.10e6, "chi_over_2pi_hz": -2.70e6'
# kind -> (synth argv, analysis argv, the JSON document's name; its data file is the .csv)
_DOCUMENT_KINDS = {
    "heatpulse": (["heatpulse", "--out", "{tmp}/run"], ["heatpulse", "--t0-mk", "58", "{data}"],
                  "run_0.json"),
    "params": (None, ["shotnoise", "--nbar", "1e-3", "--params", "{doc}"], "params.json"),
    "fin": (["fin", "--out", "{data}"], ["fin", "extract", "{data}", "--threshold-uw", "3"],
            "data.json"),
    "iq": (["iq", "--n-points", "200", "--out", "{data}"], ["iqtemp", "{data}"], "data.json"),
    "phase": (["phase", "--out", "{data}"], ["resonator", "{data}"], "data.json"),
}


@pytest.mark.parametrize("kind, text, field", [
    ("heatpulse", "[1, 2]", None),
    ("heatpulse", '{"t_heat_s": "abc"}', "t_heat_s"),
    ("heatpulse", '{"t_heat_s": 1e999}', "t_heat_s"),
    ("params", '"x"', None),
    ("params", '{"f_r_hz": "abc", ' + _PARAMS_REST + "}", "f_r_hz"),
    ("params", '{"f_r_hz": null, ' + _PARAMS_REST + "}", "f_r_hz"),
    ("fin", '{"l_c_m": 0.045, "d_hc_m": "abc", "w_m": 0.022}', "d_hc_m"),
    ("fin", "7", None),
    ("iq", '{"f_q_hz": null}', "f_q_hz"),
    ("iq", '{"f_q_hz": 1e999}', "f_q_hz"),
    ("iq", '"x"', None),
    ("phase", '{"n_bar_readout": [0.1]}', "n_bar_readout"),
])
def test_malformed_json_document_exit_2(tmp_path, capsys, kind, text, field):
    synth_argv, argv, name = _DOCUMENT_KINDS[kind]
    doc = tmp_path / name
    fill = {"tmp": tmp_path, "data": doc.with_suffix(".csv"), "doc": doc}
    if synth_argv:
        code, _, err = run(capsys, "synth", *[a.format(**fill) for a in synth_argv])
        assert code == 0, err
    doc.write_text(text + "\n")
    code, out, err = run(capsys, *[a.format(**fill) for a in argv], "--no-timestamp")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError"
    assert name in error["message"]
    if field:
        assert repr(field) in error["message"]


@pytest.mark.parametrize("command", ["decay", "heatpulse", "resonator"])
def test_negative_curve_points_exit_2(tmp_path, capsys, command):
    if command == "decay":
        data = [str(tmp_path / "t1.csv")]
        run(capsys, "synth", "decay", "--out", data[0])
        argv = ["decay", "--kind", "relaxation", *data]
    elif command == "heatpulse":
        argv = ["heatpulse", "--t0-mk", "58", *_heatpulse_files(tmp_path, capsys)]
    else:
        data = [str(tmp_path / "sweep.csv")]
        run(capsys, "synth", "phase", "--out", data[0])
        argv = ["resonator", *data]
    code, out, err = run(capsys, *argv, "--emit-curve", str(tmp_path / "curve"),
                         "--curve-points", "-1", "--no-timestamp")
    assert code == 2
    assert out == ""
    assert "--curve-points" in json.loads(err)["error"]["message"]


def test_fin_invt_non_finite_result_exit_3(tmp_path, capsys):
    table = tmp_path / "gvals.csv"
    table.write_text("t_d_k,g_k_per_w\n0.1,16000\n1e-320,5\n")
    code, out, err = run(capsys, "fin", "invt", str(table), "--no-timestamp")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"]["exit_code"] == 3


def test_iqtemp_end_to_end(tmp_path, capsys):
    paths = []
    for i, fq in enumerate((0.4e9, 0.8e9)):
        p = tmp_path / f"cloud{i}.csv"
        run(capsys, "synth", "iq", "--seed", str(10 + i), "--t-q-mk", "26.4",
            "--f-q-hz", str(fq), "--n-points", "20000", "--separation-sigma", "4",
            "--out", str(p))
        paths.append(str(p))
    doc = run_json(capsys, "iqtemp", *paths, "--seed", "0", "--no-timestamp")
    assert doc["result"]["mean_t_q_k"] == pytest.approx(0.0264, abs=2e-3)
    assert len(doc["result"]["clouds"]) == 2
    for entry in doc["result"]["clouds"]:
        assert entry["converged"] is True
        assert 0 < entry["n_iterations"] <= 500
        assert entry["separation"] == pytest.approx(4.0, rel=0.1)


def _synth_cloud(capsys, path, seed, separation_sigma, t_q_mk=26.4):
    run(capsys, "synth", "iq", "--seed", str(seed), "--t-q-mk", str(t_q_mk), "--f-q-hz", "0.5e9",
        "--n-points", "20000", "--separation-sigma", str(separation_sigma), "--out", str(path))
    return str(path)


def test_iqtemp_excludes_unconverged_cloud(tmp_path, capsys, monkeypatch):
    good = _synth_cloud(capsys, tmp_path / "good.csv", 1, 4)
    slow = _synth_cloud(capsys, tmp_path / "slow.csv", 2, 2, t_q_mk=8.15)  # p_e = 0.05
    monkeypatch.setattr(cli.iqtemp, "_EM_MAX_ITER", 30)
    doc = run_json(capsys, "iqtemp", good, slow, "--seed", "0", "--no-timestamp")
    assert len(doc["result"]["clouds"]) == 1
    assert doc["result"]["clouds"][0]["converged"] is True
    [excluded] = doc["result"]["excluded"]
    assert excluded["index"] == 1 and "did not converge" in excluded["reason"]
    code, out, err = run(capsys, "iqtemp", slow, "--seed", "1", "--no-timestamp")
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "ComputationError"


def test_iqtemp_excludes_low_separation_cloud(tmp_path, capsys):
    good = _synth_cloud(capsys, tmp_path / "good.csv", 1, 4)
    merged = _synth_cloud(capsys, tmp_path / "merged.csv", 3, 0.5)
    doc = run_json(capsys, "iqtemp", good, merged, "--seed", "0", "--no-timestamp")
    assert len(doc["result"]["clouds"]) == 1
    [excluded] = doc["result"]["excluded"]
    assert excluded["index"] == 1 and "pooled sigma" in excluded["reason"]
    code, out, err = run(capsys, "iqtemp", merged, "--seed", "1", "--no-timestamp")
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ComputationError" and error["exit_code"] == 3


def test_iqtemp_excludes_degenerate_cloud(tmp_path, capsys):
    good = _synth_cloud(capsys, tmp_path / "good.csv", 1, 4)
    same = tmp_path / "same.csv"
    write_iq_csv(same, IQCloud(points=np.full((200, 2), 1.3), f_q=0.5e9))
    doc = run_json(capsys, "iqtemp", good, str(same), "--seed", "0", "--no-timestamp")
    assert len(doc["result"]["clouds"]) == 1
    [excluded] = doc["result"]["excluded"]
    assert excluded["index"] == 1 and "all points coincide" in excluded["reason"]
    code, out, err = run(capsys, "iqtemp", str(same), "--seed", "1", "--no-timestamp")
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "DegenerateCovariance"


def test_iqtemp_reports_a_bad_file_when_the_sweep_reaches_it(tmp_path, capsys, monkeypatch):
    good = [_synth_cloud(capsys, tmp_path / f"good{i}.csv", i, 4) for i in (1, 2)]
    bad = _synth_cloud(capsys, tmp_path / "bad.csv", 3, 4)
    (tmp_path / "bad.json").unlink()
    fitted, fit = [], cli.iqtemp.fit_mixture

    def counted_fit(cloud, **kwargs):
        fitted.append(cloud.f_q)
        return fit(cloud, **kwargs)

    monkeypatch.setattr(cli.iqtemp, "fit_mixture", counted_fit)
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "iqtemp", *good, bad, "--seed", "0", "--no-timestamp",
                         "--output", str(report))
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError"
    assert str(tmp_path / "bad.json") in error["message"] and "sidecar" in error["message"]
    assert not report.exists()
    assert len(fitted) == 2  # the clouds before the bad file were fitted first


def test_iqtemp_negative_seed_exit_2(tmp_path, capsys):
    cloud = _synth_cloud(capsys, tmp_path / "c.csv", 1, 4)
    code, out, err = run(capsys, "iqtemp", cloud, "--seed", "-3", "--no-timestamp")
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError" and "-3" in error["message"]
    assert out == ""


def test_resonator_end_to_end(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    run(capsys, "synth", "phase", "--seed", "4", "--chi-over-2pi-hz=-2.66e6",
        "--out", str(sweep))
    curve = tmp_path / "model.csv"
    doc = run_json(capsys, "resonator", str(sweep), "--emit-curve", str(curve),
                   "--no-timestamp")
    assert doc["result"]["chi_over_2pi_hz"] == pytest.approx(-2.66e6, rel=1e-6)
    assert doc["result"]["params"]["kappa_g_rad_per_s"] == pytest.approx(
        2 * np.pi * 3.79e6, rel=1e-6
    )
    assert curve.read_text().splitlines()[0] == "f_hz,phase_g_rad,phase_e_rad"


def test_resonator_fitted_kappa_c_curve(tmp_path, capsys):
    f = np.linspace(7.458e9 - 25e6, 7.458e9 + 25e6, 401)
    kappa_g, kappa_e = 2 * np.pi * 3.79e6, 2 * np.pi * 4.47e6
    f_g, f_e = 7.458e9, 7.458e9 - 2.66e6
    phase_g = unwrapped_phase(f, f_g, kappa_g, 0.7 * kappa_g, 1e-9, 0.3)
    phase_e = unwrapped_phase(f, f_e, kappa_e, 0.7 * kappa_e, 1e-9, 0.3)
    sweep = tmp_path / "sweep.csv"
    write_phase_csv(sweep, PhaseSweep(f, phase_g, phase_e))
    curve = tmp_path / "model.csv"
    doc = run_json(capsys, "resonator", str(sweep), "--fit-kappa-c", "--emit-curve",
                   str(curve), "--curve-points", "401", "--no-timestamp")
    assert doc["result"]["params"]["kappa_c_frac"] == pytest.approx(0.7, rel=1e-6)
    model = np.loadtxt(curve, delimiter=",", skiprows=1)
    assert np.array_equal(model[:, 0], f)
    assert np.max(np.abs(model[:, 1] - phase_g)) < 1e-6
    assert np.max(np.abs(model[:, 2] - phase_e)) < 1e-6


def test_non_utf8_csv_exit_2(tmp_path, capsys):
    trace = tmp_path / "t1.csv"
    trace.write_bytes(b"t_s,signal\r\n0.0,1.0\r\n1e-6,0.6\xff\r\n")
    code, out, err = run(capsys, "decay", "--kind", "relaxation", str(trace), "--no-timestamp")
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError" and "t1.csv: not UTF-8 text" in error["message"]


def test_non_utf8_sidecar_exit_2(tmp_path, capsys):
    data = tmp_path / "cloud.csv"
    code, _, err = run(capsys, "synth", "iq", "--n-points", "200", "--out", str(data))
    assert code == 0, err
    data.with_suffix(".json").write_bytes(b'{"f_q_hz": 5e8, "note": "\xff"}\n')
    code, out, err = run(capsys, "iqtemp", str(data), "--no-timestamp")
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError" and "cloud.json: not UTF-8 text" in error["message"]


def test_missing_file_exit_2(capsys):
    code, out, err = run(capsys, "decay", "--kind", "echo", "/nonexistent/trace.csv")
    assert code == 2


def test_report_determinism_with_no_timestamp(tmp_path, capsys):
    args = ("shotnoise", "--gamma", "7e3", "--no-timestamp")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "decay", "--n-points", "0"),
        ("synth", "decay", "--t-max-s", "0"),
        ("synth", "heatpulse", "--t-max-s", "0"),
        ("synth", "iq", "--n-points", "0"),
        ("synth", "heatpulse", "--n-points", "0"),
        ("synth", "phase", "--n-points", "0"),
        ("synth", "heatpulse", "--n-points", "-1"),
    ],
)
def test_synth_zero_sizes_not_replaced_by_defaults(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "data"))
    assert code == 2
    assert json.loads(err)["error"]["exit_code"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "fin", "--u", "nan"),
        ("synth", "decay", "--gamma-per-s", "inf"),
        ("synth", "phase", "--tau-delay-ns", "inf"),
        ("synth", "iq", "--separation-sigma", "inf"),
        ("synth", "heatpulse", "--delta-t-mk", "24", "--delta-t-mk", "nan"),
    ],
)
def test_synth_non_finite_parameter_exit_2(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "data"))
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError"
    assert argv[2] in error["message"]
    assert out == "" and not any(tmp_path.iterdir())


def test_synth_negative_readout_photons_exit_2(tmp_path, capsys):
    argv = ["synth", "phase", "--n-bar-readout", "-1", "--out", str(tmp_path / "p.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError" and "n_bar_readout" in error["message"]
    assert out == "" and not any(tmp_path.iterdir())


def test_synth_negative_seed_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "synth", "iq", "--seed", "-1", "--out", str(tmp_path / "c.csv"))
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError" and "-1" in error["message"]
    assert out == "" and not any(tmp_path.iterdir())


@pytest.mark.parametrize("what", ["decay", "fin", "heatpulse"])
def test_synth_negative_seed_without_noise_exit_2(tmp_path, capsys, what):
    # These kinds draw no noise by default, so no random stream checks the seed.
    code, out, err = run(capsys, "synth", what, "--seed", "-1", "--out", str(tmp_path / "d"))
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError" and "--seed" in error["message"]
    assert "-1" in error["message"]
    assert out == "" and not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "decay", "--kind", "ramsey", "--noise", "0.01"),
        ("synth", "heatpulse", "--delta-t-mk", "24", "--delta-t-mk", "55",
         "--noise-gamma-per-s", "2e3"),
        ("synth", "fin", "--rel-noise", "0.05"),
        ("synth", "iq", "--n-points", "2000"),
        ("synth", "phase", "--noise-rad", "0.01"),
    ],
)
def test_synth_byte_identical_reruns(tmp_path, capsys, argv):
    def generate(subdir):
        out = tmp_path / subdir / "data"
        out.parent.mkdir()
        code, _, err = run(capsys, *argv, "--seed", "11", "--out", str(out))
        assert code == 0, err
        files = sorted(out.parent.iterdir())
        assert files
        return {f.name: f.read_bytes() for f in files}

    assert generate("a") == generate("b")


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(linetherm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "linetherm", "shotnoise", "--nbar", "1e-3", "--no-timestamp"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert doc["manifest"]["command"] == "shotnoise"
    assert doc["result"]["table"][0]["n_bar"] == 1e-3


# One representative argv per command, exercising its positionals and options.
COMMAND_ARGV = {
    "shotnoise": ["shotnoise", "--gamma", "7e3", "27e3", "--as-temperature", "--no-timestamp"],
    "decay": ["decay", "t.csv", "--kind", "ramsey", "--emit-curve", "c.csv",
              "--curve-points", "50"],
    "heatpulse": ["heatpulse", "a.csv", "b.csv", "--t0-mk", "58", "--fit-t0",
                  "--params", "p.json"],
    "fin": ["fin", "extract", "d.csv", "--threshold-uw", "3", "--output", "r.json"],
    "iqtemp": ["iqtemp", "a.csv", "b.csv", "--seed", "4"],
    "resonator": ["resonator", "s.csv", "--fit-kappa-c"],
    "synth": ["synth", "heatpulse", "--delta-t-mk", "24", "--delta-t-mk", "55", "--seed", "3",
              "--out", "run"],
}


def test_command_argv_covers_every_command():
    assert list(COMMAND_ARGV) == list(cli._COMMANDS)


def _parse_outcome(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("argv", [
    [], ["--help"], ["--version"], ["bogus"],
    *([command, "--help"] for command in COMMAND_ARGV),
    ["heatpulse", "a.csv", "--t0-mk", "58", "--bogus"],
    ["heatpulse", "a.csv"],
])
def test_help_and_errors_match_the_full_parser(capsys, monkeypatch, columns, argv):
    monkeypatch.setenv("COLUMNS", columns)
    expected = _parse_outcome(capsys, build_parser.__wrapped__().parse_args, argv)
    assert _parse_outcome(capsys, main, argv) == expected
    assert expected[1] or expected[2]


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_parser_help_matches_the_default_formatter(capsys, monkeypatch, columns, command):
    # One cached parser serves every width in the process: after help at
    # another width, main's help at this width is a fresh parser's.
    argv = ["--help"] if command is None else [command, "--help"]
    other = "40" if columns == "200" else "200"
    texts = {}
    for width in [columns, other, columns]:
        monkeypatch.setenv("COLUMNS", width)
        expected = _parse_outcome(capsys, build_parser.__wrapped__().parse_args, argv)
        assert _parse_outcome(capsys, main, argv) == expected
        texts.setdefault(width, expected[1])
    assert texts[columns] != texts[other]


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    parser = build_parser()
    assert build_parser() is parser
    argv = ["synth", "heatpulse", "--seed", "3", "--out"]
    with_flag = parser.parse_args([*argv, "run", "--delta-t-mk", "55", "--delta-t-mk", "70"])
    without = parser.parse_args([*argv, "run"])
    assert without is not with_flag
    assert with_flag.delta_t_mk == [55.0, 70.0] and without.delta_t_mk is None
    assert parser.parse_args([*argv, "run", "--delta-t-mk", "30"]).delta_t_mk == [30.0]

    # Through main: the run without the flag writes the default, 24 mK.
    out = {name: str(tmp_path / name) for name in ("flag", "plain", "explicit")}
    written = run_json(capsys, *argv, out["flag"], "--delta-t-mk", "55", "--delta-t-mk", "70")
    assert written["written"] == [out["flag"] + "_0.csv", out["flag"] + "_1.csv"]
    assert run_json(capsys, *argv, out["plain"])["written"] == [out["plain"] + "_0.csv"]
    run_json(capsys, *argv, out["explicit"], "--delta-t-mk", "24")
    plain, explicit = (Path(out[name] + "_0.csv").read_bytes() for name in ("plain", "explicit"))
    assert plain == explicit


def test_cached_parsers_follow_the_terminal_width(capsys, monkeypatch):
    texts = {}
    for columns in ["40", "200", "40"]:
        monkeypatch.setenv("COLUMNS", columns)
        fresh = build_parser.__wrapped__()
        expected = _parse_outcome(capsys, fresh.parse_args, ["synth", "--help"])
        assert _parse_outcome(capsys, main, ["synth", "--help"]) == expected
        texts.setdefault(columns, expected[1])
    assert texts["40"] != texts["200"]


def test_decay_repeated_header_column_exit_2(tmp_path, capsys):
    trace = tmp_path / "twice.csv"
    trace.write_text("t_s,t_s,signal\n0.0,1.0,0.9\n1e-6,2e-6,0.5\n2e-6,3e-6,0.3\n3e-6,4e-6,0.2\n")
    code, out, err = run(capsys, "decay", "--kind", "relaxation", str(trace), "--no-timestamp")
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError"
    assert "twice.csv: columns ['t_s'] appear more than once" in error["message"]


def _reference_jsonsafe(arr):
    """Element by element: nested lists of Python scalars, None for NaN and +-inf."""
    if arr.ndim:
        return [_reference_jsonsafe(a) for a in arr]
    v = arr[()]
    if isinstance(v, np.floating):
        return float(v) if np.isfinite(v) else None
    return bool(v) if isinstance(v, np.bool_) else int(v)


def _arrays_with_non_finite():
    shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
    special = st.sampled_from([np.nan, np.inf, -np.inf])
    return st.one_of(
        hnp.arrays(np.float64, shapes, elements=st.floats(width=64) | special),
        hnp.arrays(np.float32, shapes, elements=st.floats(width=32) | special),
        hnp.arrays(np.int64, shapes),
        hnp.arrays(np.bool_, shapes),
    )


@given(_arrays_with_non_finite())
def test_jsonsafe_arrays_match_elementwise_reference(arr):
    # json.dumps tells 1, 1.0 and true apart, which == does not.
    got = json.dumps(_jsonsafe(arr), allow_nan=False)
    assert got == json.dumps(_reference_jsonsafe(arr), allow_nan=False)
    assert json.dumps(_jsonsafe({"a": [arr]}), allow_nan=False) == f'{{"a": [{got}]}}'


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308]),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_DOCS = st.recursive(
    _SCALARS | _arrays_with_non_finite(),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=24,
)


@given(_DOCS)
@example({"a": [], "b": {}, "c": [[], {}, [[], [{}]]], "d": np.zeros((2, 0)),
          "é\u2603": ["Ω", "\x00\n\"", np.float32(0.1), np.float64(np.nan)]})
@example([np.array(-0.0), np.array([[np.inf], [-np.inf]]), 5e-324, 1e308, np.int64(-1)])
def test_report_text_matches_the_standard_library_encoder(doc):
    args = argparse.Namespace(output=None, no_timestamp=True, _argv=["shotnoise"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._report(args, "shotnoise", ["in.csv"], {"doc": doc}, seed=3)
    expected = {"schema_version": SCHEMA_VERSION,
                "manifest": cli._manifest(args, "shotnoise", ["in.csv"], 3),
                "result": {"doc": doc}}
    assert out.getvalue() == json.dumps(_jsonsafe(expected), indent=2) + "\n"
    assert cli._indented(doc) == json.dumps(_jsonsafe(doc), indent=2)
