import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import linetherm
from linetherm import cli
from linetherm.cli import _jsonsafe, build_parser, main
from linetherm.dataio import read_heatpulse_csv, write_heatpulse_csv, write_phase_csv
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


def test_heatpulse_runaway_tau_reports_null_sigma_without_warning(tmp_path, capsys):
    # A first rate below the offset starts the jump at its floor, and tau runs
    # off to ~1e179 s: its variance scale overflows.
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


@pytest.mark.parametrize("fraction", ["nan", "inf", "-1", "0", "3"])
def test_heatpulse_tail_fraction_outside_unit_interval_exit_2(tmp_path, capsys, fraction):
    files = _heatpulse_files(tmp_path, capsys)
    code, out, err = run(capsys, "heatpulse", "--t0-mk", "58", *files,
                         "--tail-fraction", fraction, "--no-timestamp")
    assert code == 2
    assert out == ""
    assert "tail_fraction" in json.loads(err)["error"]["message"]


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
                  "--tail-fraction", "0.3", "--params", "p.json"],
    "fin": ["fin", "extract", "d.csv", "--threshold-uw", "3", "--output", "r.json"],
    "iqtemp": ["iqtemp", "a.csv", "b.csv", "--seed", "4"],
    "resonator": ["resonator", "s.csv", "--fit-kappa-c"],
    "synth": ["synth", "heatpulse", "--delta-t-mk", "24", "--delta-t-mk", "55", "--seed", "3",
              "--out", "run"],
}


def test_command_argv_covers_every_command():
    assert list(COMMAND_ARGV) == list(cli._COMMANDS)


@pytest.mark.parametrize("command", list(COMMAND_ARGV))
def test_one_command_parser_gives_the_full_parsers_namespace(command):
    argv = COMMAND_ARGV[command]
    assert build_parser(command).parse_args(argv) == build_parser().parse_args(argv)


@pytest.mark.parametrize("argv, command", [
    (["heatpulse", "a.csv", "--t0-mk", "58"], "heatpulse"),
    (["synth", "--help"], "synth"),
    ([], None), (["--help"], None), (["--version"], None), (["bogus"], None),
    (["--no-timestamp", "shotnoise"], None),
])
def test_main_builds_only_the_named_commands_parser(monkeypatch, argv, command):
    built = []

    def spy(name=None):
        built.append(name)
        raise SystemExit(0)

    monkeypatch.setattr(cli, "build_parser", spy)
    with pytest.raises(SystemExit):
        main(argv)
    assert built == [command]


def _parse_outcome(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("argv", [
    [], ["--help"], ["--version"], ["bogus"],
    *([command, "--help"] for command in COMMAND_ARGV),
    ["heatpulse", "a.csv", "--t0-mk", "58", "--bogus"],
    ["heatpulse", "a.csv"],
])
def test_help_and_errors_match_the_full_parser(capsys, monkeypatch, columns, argv):
    monkeypatch.setenv("COLUMNS", columns)
    expected = _parse_outcome(capsys, lambda a: build_parser().parse_args(a), argv)
    assert _parse_outcome(capsys, main, argv) == expected
    assert expected[1] or expected[2]


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
