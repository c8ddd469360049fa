import csv
import io
import itertools
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from linetherm import dataio
from linetherm.core import (FinExperiment, HeatPulseSeries, IQCloud, SchemaVersionError,
                            ValidationError)
from linetherm.dataio import (
    read_columns,
    read_fin_csv,
    read_heatpulse_csv,
    read_heatpulse_csvs,
    read_iq_csv,
    read_json_doc,
    read_phase_csv,
    read_trace_csv,
    sidecar_path,
    write_columns,
    write_fin_csv,
    write_heatpulse_csv,
    write_iq_csv,
    write_json_doc,
    write_phase_csv,
    write_trace_csv,
)
from linetherm.heatpulse import HeatPulseModelParams
from linetherm.iqtemp import MixtureModel
from linetherm.resonator import PhaseSweep
from linetherm.synth import gen_decay, gen_fin, gen_heatpulse, gen_iq, gen_phase


def test_trace_round_trip(tmp_path):
    trace = gen_decay("ramsey", {"A": 1.0, "gamma2_star_per_s": 3e5, "delta_f_hz": 2e5,
                                 "phi_rad": 0.1, "B": 0.0},
                      np.linspace(0, 1e-5, 40), noise=0.01, seed=1)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    back = read_trace_csv(path, kind="ramsey")
    assert np.array_equal(back.times, trace.times)
    assert np.array_equal(back.signal, trace.signal)
    assert np.array_equal(back.sigma, trace.sigma)
    assert back.kind == "ramsey"


def test_heatpulse_round_trip(tmp_path, table1):
    model = HeatPulseModelParams(t0=0.058, delta_t=0.05, tau_cool=0.3e-3, gamma_offset=1e5)
    series = gen_heatpulse(model, table1, np.linspace(0, 2e-3, 25), t_heat=5e-6)
    path = tmp_path / "hp.csv"
    write_heatpulse_csv(path, series)
    assert sidecar_path(path).exists()
    back = read_heatpulse_csv(path)
    assert back.t_heat == 5e-6
    assert np.array_equal(back.t_cool, series.t_cool)
    assert np.array_equal(back.gamma2_star, series.gamma2_star)
    assert np.array_equal(back.delta_f, series.delta_f)


def test_fin_round_trip(tmp_path):
    exp = gen_fin(1.2, 1.6e4, 0.045, 0.025, 0.022, 0.1, [1e-6, 2e-6])
    path = tmp_path / "fin.csv"
    write_fin_csv(path, exp)
    back = read_fin_csv(path)
    assert back.l_c == exp.l_c and back.d_hc == exp.d_hc and back.w == exp.w
    assert np.array_equal(back.t_h, exp.t_h)


def test_fin_missing_sidecar(tmp_path):
    exp = gen_fin(1.2, 1.6e4, 0.045, 0.025, 0.022, 0.1, [1e-6])
    path = tmp_path / "fin.csv"
    write_fin_csv(path, exp)
    sidecar_path(path).unlink()
    with pytest.raises(ValidationError) as exc:
        read_fin_csv(path)
    assert str(exc.value) == f"{path}: missing geometry sidecar {sidecar_path(path)}"


def test_iq_missing_sidecar(tmp_path):
    path = tmp_path / "iq.csv"
    write_iq_csv(path, IQCloud(points=np.zeros((3, 2)), f_q=0.5e9))
    sidecar_path(path).unlink()
    with pytest.raises(ValidationError) as exc:
        read_iq_csv(path)
    assert str(exc.value) == f"{path}: missing sidecar {sidecar_path(path)} with f_q_hz"


_GRID = np.array([1.0, 2.0, 3.0])
_FIN_RECORDS = dict(p_heat=[1e-6], t_h=[0.2], t_o=[0.15], t_d=[0.1])


_RECORDS = [
    lambda v: PhaseSweep(_GRID, _GRID, _GRID, n_bar_readout=v),
    lambda v: IQCloud(points=np.zeros((3, 2)), f_q=v),
    lambda v: HeatPulseSeries(t_heat=v, t_cool=_GRID, gamma2_star=_GRID, delta_f=_GRID),
    lambda v: FinExperiment(l_c=v, d_hc=0.025, w=0.022, **_FIN_RECORDS),
    lambda v: FinExperiment(l_c=0.045, d_hc=v, w=0.022, **_FIN_RECORDS),
    lambda v: FinExperiment(l_c=0.045, d_hc=0.025, w=v, **_FIN_RECORDS),
]


@pytest.mark.parametrize("make_record, value", [
    *((make, v) for make in _RECORDS for v in (float("nan"), float("inf"), -float("inf"))),
    (_RECORDS[0], -1.0),  # a negative readout photon number
])
def test_records_reject_a_scalar_field_no_sidecar_could_hold(make_record, value):
    # Strict JSON, which read_json_doc reads, has no NaN or infinity.
    with pytest.raises(ValidationError):
        make_record(value)


def test_write_json_doc_refuses_non_finite_numbers_and_writes_nothing(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError):
        write_json_doc(path, {"f_q_hz": float("inf")})
    assert not path.exists()


def test_iq_round_trip(tmp_path):
    model = MixtureModel(weights=(0.7, 0.3), means=np.array([[-2.0, 0.0], [2.0, 0.0]]),
                         covariances=np.array([np.eye(2), np.eye(2)]))
    cloud = gen_iq(model, 500, 0.5e9, seed=2)
    path = tmp_path / "iq.csv"
    write_iq_csv(path, cloud)
    back = read_iq_csv(path)
    assert back.f_q == 0.5e9
    assert np.array_equal(back.points, cloud.points)


def test_phase_round_trip(tmp_path):
    params = {"f_g_hz": 7.458e9, "f_e_hz": 7.4553e9,
              "kappa_g_rad_per_s": 2 * np.pi * 3.79e6,
              "kappa_e_rad_per_s": 2 * np.pi * 4.47e6,
              "tau_delay_s": 0.0, "theta0_rad": 0.0}
    sweep = gen_phase(params, np.linspace(7.43e9, 7.49e9, 60), n_bar_readout=0.16)
    path = tmp_path / "phase.csv"
    write_phase_csv(path, sweep)
    back = read_phase_csv(path)
    assert back.n_bar_readout == 0.16
    assert np.array_equal(back.phase_e, sweep.phase_e)
    sidecar_path(path).unlink()
    assert read_phase_csv(path).n_bar_readout == 0.0


def test_schema_version_rejected(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"schema_version": "2.0", "t_heat_s": 1.0}))
    with pytest.raises(SchemaVersionError):
        read_json_doc(path)


def test_bad_csv_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_s,signal\n0.0,1.0\nnope,2.0\n")
    with pytest.raises(ValidationError):
        read_trace_csv(path, kind="echo")
    path.write_text("wrong,header\n0.0,1.0\n")
    with pytest.raises(ValidationError):
        read_trace_csv(path, kind="echo")
    path.write_text("")
    with pytest.raises(ValidationError):
        read_trace_csv(path, kind="echo")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_csv_cell_rejected(tmp_path, cell):
    path = tmp_path / "trace.csv"
    path.write_text(f"t_s,signal\n0.0,1.0\n1.0,{cell}\n")
    with pytest.raises(ValidationError, match="trace.csv.*'signal'"):
        read_trace_csv(path, kind="echo")


def test_blank_rows_are_skipped(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t_s,signal\n\n0.0,1.0\n   \n,\n , \t\n\"\",\" \"\n1.0,0.5\n\n")
    data = read_columns(path, ("t_s", "signal"))
    assert np.array_equal(data["t_s"], [0.0, 1.0])
    assert np.array_equal(data["signal"], [1.0, 0.5])


def test_quoted_numeric_cells_parse(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text('t_s,signal\n"0.0","1.25"\n1.0," -2e-3 "\r\n')
    data = read_columns(path, ("t_s", "signal"))
    assert np.array_equal(data["t_s"], [0.0, 1.0])
    assert np.array_equal(data["signal"], [1.25, -2e-3])


@pytest.mark.parametrize("row", ["1.0", "1.0,", "1.0,x", "1.0,0x10"])
def test_short_or_unparseable_row_names_the_path(tmp_path, row):
    path = tmp_path / "bad_rows.csv"
    path.write_text(f"t_s,signal\n0.0,1.0\n{row}\n")
    with pytest.raises(ValidationError, match="bad_rows.csv"):
        read_columns(path, ("t_s", "signal"))


def test_header_only_file_rejected_without_warning(tmp_path):
    path = tmp_path / "header_only.csv"
    path.write_text("t_s,signal\n\n , \n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="header_only.csv: no data rows"):
            read_columns(path, ("t_s", "signal"))


@pytest.mark.parametrize("text", ["t_s,signal", "t_s,signal\r\n"])
def test_header_without_body_rejected_without_warning(tmp_path, text):
    path = tmp_path / "header_only.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="header_only.csv: no data rows"):
            read_columns(path, ("t_s", "signal"))


def _line_filter_read_columns(path, required, optional=()):
    """The reader before the one-call parse, which fed np.loadtxt the non-blank lines one by one."""
    with open(path, "r", encoding="utf8", newline="") as fh:
        header = [h.strip() for h in next(csv.reader(fh))]
        missing = [c for c in required if c not in header]
        if missing:
            raise ValidationError(f"{path}: missing columns {missing}, found {header}")
        idx = {c: header.index(c) for c in (*required, *optional) if c in header}
        lines = (line for line in fh if line[:1] in "0123456789+-."
                 or line.replace(",", "").replace('"', "").strip())
        first = next(lines, None)
        if first is None:
            raise ValidationError(f"{path}: no data rows")
        try:
            table = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                               usecols=list(idx.values()), ndmin=2, comments=None,
                               quotechar='"')
        except ValueError as exc:
            raise ValidationError(f"{path}: bad row: {exc}") from exc
    return dict(zip(idx, np.array(table.T)))


def _outcome(read, path, names):
    try:
        return read(path, names[:1], optional=names[1:])
    except ValidationError as exc:
        return str(exc)


_BLANK_ROWS = ["", ",", " , \t", '"",""']
_BAD_ROWS = ["nope,1.0", "1.0", "1.0,x", '"1.0",', "1.0,0x10"]


@settings(deadline=None, max_examples=60)
@given(
    hnp.arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 3)),
               elements=st.floats(-1e6, 1e6, allow_subnormal=False)),
    st.sampled_from(["\n", "\r\n"]),
    st.data(),
)
def test_one_call_parse_matches_line_filter_reader(tmp_path_factory, table, newline, data):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    names = ["t_s", "signal", "sigma"][:table.shape[1]]
    write_columns(path, names, table.T)
    header, *rows = path.read_text().splitlines()
    body = []
    for row in rows:
        body += data.draw(st.lists(st.sampled_from(_BLANK_ROWS), max_size=2))
        cells = row.split(",")
        quoted = data.draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
        body.append(",".join(f'"{c}"' if q else c for c, q in zip(cells, quoted)))
    body += data.draw(st.lists(st.sampled_from(_BLANK_ROWS), max_size=2))
    if data.draw(st.booleans()):
        body.insert(data.draw(st.integers(0, len(body))), data.draw(st.sampled_from(_BAD_ROWS)))
    path.write_bytes(newline.join([header, *body, ""]).encode())
    expected = _outcome(_line_filter_read_columns, path, names)
    got = _outcome(read_columns, path, names)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.keys() == expected.keys()
        for name in names:
            assert np.array_equal(got[name], expected[name])


@pytest.mark.parametrize("rows", [1, 5000])
def test_non_utf8_csv_rejected(tmp_path, rows):
    # 5000 rows put the bad byte past the first block the header read decodes.
    path = tmp_path / "latin.csv"
    path.write_bytes(b"t_s,signal\r\n" + b"0.0,1.0\r\n" * rows + b"1.0,\xff\r\n")
    with pytest.raises(ValidationError, match="latin.csv: not UTF-8 text"):
        read_columns(path, ("t_s", "signal"))


def test_non_utf8_json_rejected(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"f_q_hz": 5e8, "note": "\xff"}\n')
    with pytest.raises(ValidationError, match="doc.json: not UTF-8 text"):
        read_json_doc(path)


def test_utf8_bom_is_not_part_of_the_first_column_name(tmp_path):
    path = tmp_path / "excel.csv"
    path.write_bytes(b"\xef\xbb\xbft_s,signal\r\n0.0,1.0\r\n,\r\n1.0,0.5\r\n")
    data = read_columns(path, ("t_s", "signal"))
    assert np.array_equal(data["t_s"], [0.0, 1.0])
    assert np.array_equal(data["signal"], [1.0, 0.5])


@pytest.mark.parametrize("header, repeated", [("t_s,t_s,signal", "t_s"),
                                              ("t_s,signal, signal", "signal"),
                                              ("sigma,t_s,signal,sigma", "sigma")])
def test_repeated_header_column_rejected(tmp_path, header, repeated):
    path = tmp_path / "trace.csv"
    row = ",".join(["1.0"] * len(header.split(",")))
    path.write_text("\n".join([header, row, row, ""]))
    with pytest.raises(ValidationError, match=f"trace.csv: columns \\['{repeated}'\\] appear more"):
        read_columns(path, ("t_s", "signal"), optional=("sigma",))


def test_repeated_unread_column_is_ignored(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("note,t_s,note,signal\n9,0.0,8,1.0\n7,1.0,6,0.5\n")
    data = read_columns(path, ("t_s", "signal"))
    assert np.array_equal(data["t_s"], [0.0, 1.0])
    assert np.array_equal(data["signal"], [1.0, 0.5])


def test_read_columns_accepts_an_open_stream(tmp_path):
    text = 't_s,signal\r\n0.0,"1.0"\r\n,\r\n1.0,0.5\r\n'
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    from_path = read_columns(path, ("t_s", "signal"))
    from_stream = read_columns(io.StringIO(text, newline=""), ("t_s", "signal"))
    assert from_stream.keys() == from_path.keys()
    for name in from_path:
        assert np.array_equal(from_stream[name], from_path[name])


_HP_COLUMNS = ["t_cool_s", "gamma2_star_per_s", "delta_f_hz"]


def _one_file_heatpulse(path):
    """A heat-pulse file read alone: its columns through read_columns and its sidecar."""
    data = read_columns(path, tuple(_HP_COLUMNS))
    sc = sidecar_path(path)
    t_heat = read_json_doc(sc).get("t_heat_s", 0.0) if sc.exists() else 0.0
    return t_heat, [data[c] for c in _HP_COLUMNS]


def _write_heatpulse_variant(path, series, data):
    """series as a CSV in a drawn layout: column order, extra columns, BOM, line ends,
    quoted cells, blank rows; with or without a sidecar."""
    columns = dict(zip(_HP_COLUMNS, [series.t_cool, series.gamma2_star, series.delta_f]))
    names = data.draw(st.permutations(_HP_COLUMNS + data.draw(
        st.lists(st.sampled_from(["note", "run_id"]), unique=True, max_size=2))))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(names)]
    for i in range(len(series.t_cool)):
        lines += data.draw(st.lists(st.sampled_from(_BLANK_ROWS), max_size=1))
        cells = [repr(float(columns[c][i])) if c in columns else "7" for c in names]
        quoted = data.draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
        lines.append(",".join(f'"{c}"' if q else c for c, q in zip(cells, quoted)))
    lines += data.draw(st.lists(st.sampled_from(_BLANK_ROWS), max_size=2))
    text = newline.join(lines) + data.draw(st.sampled_from(["", newline]))
    bom = b"\xef\xbb\xbf" if data.draw(st.booleans()) else b""
    path.write_bytes(bom + text.encode())
    if data.draw(st.booleans()):
        write_json_doc(sidecar_path(path), {"t_heat_s": series.t_heat})


def _heatpulse_series_set(table1, k, n=9):
    model = HeatPulseModelParams(t0=0.058, delta_t=0.05, tau_cool=0.3e-3, gamma_offset=1e5)
    return [gen_heatpulse(model, table1, np.linspace(0, 2e-3, n + j % 3), t_heat=1e-6 * (j + 1),
                          noise_gamma=2e3, noise_delta_f=300.0, seed=j)
            for j in range(k)]


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 6), st.data())
def test_read_heatpulse_csvs_matches_one_file_reads(tmp_path_factory, table1, k, data):
    folder = tmp_path_factory.mktemp("hp")
    paths = [folder / f"hp{j}.csv" for j in range(k)]
    for path, series in zip(paths, _heatpulse_series_set(table1, k)):
        _write_heatpulse_variant(path, series, data)
    with mock.patch.object(dataio, "read_columns", wraps=dataio.read_columns) as spy:
        got = read_heatpulse_csvs(paths)
    # One parse per distinct header line: the files were not read again one by one.
    headers = {p.read_bytes().decode("utf-8-sig").splitlines()[0] for p in paths}
    assert spy.call_count == len(headers)
    assert len(got) == k
    for path, series in zip(paths, got):
        alone = read_heatpulse_csv(path)
        t_heat, columns = _one_file_heatpulse(path)
        assert series.t_heat == alone.t_heat == t_heat
        for mine, single, ref in zip([series.t_cool, series.gamma2_star, series.delta_f],
                                     [alone.t_cool, alone.gamma2_star, alone.delta_f], columns):
            assert np.array_equal(mine, single) and np.array_equal(mine, ref)
            assert mine.tobytes() == ref.tobytes()


def _error(read, arg):
    with pytest.raises(ValidationError) as exc:
        read(arg)
    return type(exc.value), str(exc.value)


def _break_csv(path, how):
    text = path.read_bytes()
    header, first, rest = text.split(b"\r\n", 2)
    if how == "nope":
        first = b"nope" + first[first.index(b","):]
    elif how == "non-finite":
        first = first[:first.rindex(b",") + 1] + b"inf"
    elif how == "missing column":
        header = header.replace(b"delta_f_hz", b"delta_f")
    elif how == "repeated column":
        header = header.replace(b"delta_f_hz", b"t_cool_s")
    elif how == "non-UTF-8":
        first = first + b"\xff"
    path.write_bytes(b"\r\n".join([header, first, rest]))


@pytest.mark.parametrize("how", ["nope", "non-finite", "missing column", "repeated column",
                                 "non-UTF-8", "bad sidecar", "decreasing t_cool"])
@pytest.mark.parametrize("bad", [0, 2, 4])
def test_read_heatpulse_csvs_error_is_the_bad_files_own(tmp_path, table1, how, bad):
    series = _heatpulse_series_set(table1, 5)
    paths = [tmp_path / f"hp{j}.csv" for j in range(5)]
    for path, s in zip(paths, series):
        write_heatpulse_csv(path, s)
    if how == "bad sidecar":
        write_json_doc(sidecar_path(paths[bad]), {"t_heat_s": "soon"})
    elif how == "decreasing t_cool":
        write_columns(paths[bad], _HP_COLUMNS, [series[bad].t_cool[::-1],
                                                series[bad].gamma2_star, series[bad].delta_f])
    else:
        _break_csv(paths[bad], how)
    expected = _error(read_heatpulse_csv, paths[bad])
    assert _error(read_heatpulse_csvs, paths) == expected
    if how != "decreasing t_cool":
        assert str(paths[bad].with_suffix("")) in expected[1]


def test_read_heatpulse_csvs_reports_an_earlier_sidecar_before_a_later_csv(tmp_path, table1):
    paths = [tmp_path / f"hp{j}.csv" for j in range(4)]
    for path, s in zip(paths, _heatpulse_series_set(table1, 4)):
        write_heatpulse_csv(path, s)
    sidecar_path(paths[1]).write_text("[]")
    _break_csv(paths[3], "nope")
    assert _error(read_heatpulse_csvs, paths) == _error(read_heatpulse_csv, paths[1])
    assert "hp1.json" in _error(read_heatpulse_csvs, paths)[1]
