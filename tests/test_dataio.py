import csv
import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from linetherm.core import SchemaVersionError, ValidationError
from linetherm.dataio import (
    read_columns,
    read_fin_csv,
    read_heatpulse_csv,
    read_iq_csv,
    read_json_doc,
    read_phase_csv,
    read_trace_csv,
    sidecar_path,
    write_columns,
    write_fin_csv,
    write_heatpulse_csv,
    write_iq_csv,
    write_phase_csv,
    write_trace_csv,
)
from linetherm.heatpulse import HeatPulseModelParams
from linetherm.iqtemp import MixtureModel
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
    with pytest.raises(ValidationError):
        read_fin_csv(path)


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
