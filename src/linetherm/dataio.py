"""Dataset file formats: CSV columns with SI unit suffixes, JSON sidecars.

Every CSV carries a fixed header; metadata that does not fit a column
lives in a JSON sidecar next to the file (same path, .json extension).
JSON documents carry a schema_version field and readers reject unknown
major versions. Floats are written with repr, i.e. shortest round-trip,
which also makes repeated writes byte-identical.

read_columns is the one CSV parser. It reads a path, streaming the file
into np.loadtxt, or an open text stream. read_heatpulse_csvs reads the K
files of one joint fit through one read_columns call per distinct header:
the non-blank rows of those files form one stream.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from pathlib import Path

import numpy as np

from .core import (
    SCHEMA_VERSION,
    FinExperiment,
    HeatPulseSeries,
    IQCloud,
    LinethermError,
    ValidationError,
    check_schema_version,
    number_field,
    read_text,
)
from .decoherence import DecayTrace
from .resonator import PhaseSweep

__all__ = [
    "HEATPULSE_COLUMNS",
    "FIN_COLUMNS",
    "IQ_COLUMNS",
    "PHASE_COLUMNS",
    "sidecar_path",
    "read_json_doc",
    "write_json_doc",
    "write_columns",
    "read_columns",
    "write_trace_csv",
    "read_trace_csv",
    "write_heatpulse_csv",
    "read_heatpulse_csv",
    "read_heatpulse_csvs",
    "write_fin_csv",
    "read_fin_csv",
    "write_iq_csv",
    "read_iq_csv",
    "write_phase_csv",
    "read_phase_csv",
]


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def read_json_doc(path) -> dict:
    """Read a JSON document; NaN and Infinity, which strict JSON lacks, are rejected."""
    def reject(name):
        raise ValidationError(f"{path}: {name} is not a JSON number")

    doc = json.loads(read_text(path), parse_constant=reject)
    check_schema_version(doc, source=str(path))
    return doc


def write_json_doc(path, doc: dict) -> None:
    """doc under schema_version as strict JSON; NaN or infinity is a ValueError, nothing written."""
    out = {"schema_version": SCHEMA_VERSION}
    out.update(doc)
    text = json.dumps(out, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf8") as fh:
        fh.write(text + "\n")


def write_columns(path, header, columns) -> None:
    """Header and repr'd rows, comma-separated with CRLF line ends and no quoting."""
    rows = zip(*[map(repr, np.asarray(c, dtype=float).tolist()) for c in columns])
    lines = [",".join(header), *map(",".join, rows)]
    with open(path, "w", encoding="utf8", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


_NUMBER_START = "0123456789+-."  # a line that starts with one of these is not blank


def _blank(line: str) -> bool:
    """A row whose cells are all blank, quoted or not."""
    return not line.replace(",", "").replace('"', "").strip()


def _read_body(fh, path, usecols) -> np.ndarray:
    """The rows after the header line of the open file fh, in one np.loadtxt call.

    The body goes to numpy's C reader as it stands. np.loadtxt skips empty
    lines but fails on a row of blank cells, so only when that first parse
    fails, or the first row is blank, is the body read again without blank
    rows; that parse's error, if any, is the one reported.
    """
    kwargs = dict(delimiter=",", usecols=usecols, ndmin=2, comments=None, quotechar='"')
    line = fh.readline()
    if line and not _blank(line):
        try:
            return np.loadtxt(itertools.chain([line], fh), **kwargs)
        except UnicodeDecodeError:
            raise
        except ValueError:
            fh.seek(0)
            fh.readline()
    rows = (line for line in fh if not _blank(line))
    first = next(rows, None)
    if first is None:
        raise ValidationError(f"{path}: no data rows")
    try:
        return np.loadtxt(itertools.chain([first], rows), **kwargs)
    except UnicodeDecodeError:
        raise
    except ValueError as exc:
        raise ValidationError(f"{path}: bad row: {exc}") from exc


def _columns(fh, path, required, optional) -> dict:
    """read_columns on the open stream fh, whose header line is next; path names it in errors."""
    first = fh.readline()
    if not first:
        raise ValidationError(f"{path}: empty file")
    header = [h.strip() for h in next(csv.reader([first]))]
    missing = [c for c in required if c not in header]
    if missing:
        raise ValidationError(f"{path}: missing columns {missing}, found {header}")
    wanted = [c for c in (*required, *optional) if c in header]
    repeated = [c for c in wanted if header.count(c) > 1]
    if repeated:
        raise ValidationError(f"{path}: columns {repeated} appear more than once in the header")
    idx = {c: header.index(c) for c in wanted}
    table = _read_body(fh, path, list(idx.values()))
    columns = dict(zip(idx, np.array(table.T)))
    for c, v in columns.items():
        if not np.isfinite(v).all():
            raise ValidationError(f"{path}: column {c!r} holds a non-finite value")
    return columns


def read_columns(source, required, optional=()) -> dict:
    """The required columns and the optional ones present, by name, as float arrays.

    source is a path or an open text stream at the start of its header line.
    A path is read as UTF-8 (a leading byte-order mark dropped) with its line
    ends as they stand; a stream, which must be seekable, should be opened
    the same way (newline=""). A header that repeats a wanted column is a
    ValidationError.
    """
    if hasattr(source, "readline"):
        return _columns(source, getattr(source, "name", "<stream>"), required, optional)
    try:
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            return _columns(fh, source, required, optional)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{source}: not UTF-8 text ({exc.reason})") from None


# -- decay traces -----------------------------------------------------------

def write_trace_csv(path, trace: DecayTrace) -> None:
    header = ["t_s", "signal"]
    columns = [trace.times, trace.signal]
    if trace.sigma is not None:
        header.append("sigma")
        columns.append(trace.sigma)
    write_columns(path, header, columns)


def read_trace_csv(path, kind: str) -> DecayTrace:
    data = read_columns(path, ("t_s", "signal"), optional=("sigma",))
    return DecayTrace(
        kind=kind, times=data["t_s"], signal=data["signal"], sigma=data.get("sigma")
    )


# -- heat-pulse series ------------------------------------------------------

HEATPULSE_COLUMNS = ("t_cool_s", "gamma2_star_per_s", "delta_f_hz")


def write_heatpulse_csv(path, series: HeatPulseSeries) -> None:
    write_columns(path, HEATPULSE_COLUMNS, [series.t_cool, series.gamma2_star, series.delta_f])
    write_json_doc(sidecar_path(path), {"t_heat_s": series.t_heat})


def _heatpulse_series(path, data) -> HeatPulseSeries:
    """The series of one file from its columns; t_heat from the sidecar, 0.0 without one."""
    sc = sidecar_path(path)
    try:
        t_heat = number_field(read_json_doc(sc), "t_heat_s", str(sc), default=0.0)
    except FileNotFoundError:
        t_heat = 0.0
    return HeatPulseSeries(
        t_heat=t_heat,
        t_cool=data["t_cool_s"],
        gamma2_star=data["gamma2_star_per_s"],
        delta_f=data["delta_f_hz"],
    )


def _read_heatpulse_group(paths) -> list:
    """read_heatpulse_csvs on valid files; any error is raised, not necessarily the first one.

    Files that share a header line are parsed as one table. A row count that
    does not add up to the files' non-blank lines is an error too.
    """
    groups = {}  # header line -> [(position, non-blank body lines)]
    for i, path in enumerate(paths):
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            header, *lines = fh.readlines() or [""]
        body = [line for line in lines if line[0] in _NUMBER_START or not _blank(line)]
        if not body:
            raise ValidationError(f"{path}: no data rows")
        if not body[-1].endswith(("\n", "\r")):
            body[-1] += "\n"
        groups.setdefault(header.rstrip("\r\n"), []).append((i, body))
    columns = [None] * len(paths)
    for header, files in groups.items():
        text = "".join(itertools.chain([header, "\n"], *(body for _, body in files)))
        data = read_columns(io.StringIO(text, newline=""), HEATPULSE_COLUMNS)
        ends = list(itertools.accumulate(len(body) for _, body in files))
        if ends[-1] != data["t_cool_s"].size:
            raise ValidationError("rows do not match the files' lines")
        for (i, _), start, end in zip(files, [0, *ends], ends):
            columns[i] = {c: v[start:end] for c, v in data.items()}
    return [_heatpulse_series(path, data) for path, data in zip(paths, columns)]


def read_heatpulse_csvs(paths) -> list:
    """One HeatPulseSeries per path, in order, bitwise as each file read alone gives it.

    The files' rows go through one read_columns call per distinct header
    line, and each sidecar through one read_json_doc call. On any error the
    files are read again one by one, in order, so the error raised is the
    one the first bad file gives alone: file j's CSV, then its sidecar, then
    file j + 1.
    """
    paths = list(paths)
    try:
        return _read_heatpulse_group(paths)
    except (LinethermError, OSError, ValueError):
        return [_heatpulse_series(p, read_columns(p, HEATPULSE_COLUMNS)) for p in paths]


def read_heatpulse_csv(path) -> HeatPulseSeries:
    """read_heatpulse_csvs of one path."""
    return read_heatpulse_csvs([path])[0]


# -- fin experiments --------------------------------------------------------

FIN_COLUMNS = ("p_heat_w", "t_h_k", "t_o_k", "t_d_k")


def write_fin_csv(path, exp: FinExperiment) -> None:
    write_columns(path, FIN_COLUMNS, [exp.p_heat, exp.t_h, exp.t_o, exp.t_d])
    write_json_doc(
        sidecar_path(path), {"l_c_m": exp.l_c, "d_hc_m": exp.d_hc, "w_m": exp.w}
    )


def read_fin_csv(path) -> FinExperiment:
    data = read_columns(path, FIN_COLUMNS)
    sc = sidecar_path(path)
    try:
        geo = read_json_doc(sc)
    except FileNotFoundError:
        raise ValidationError(f"{path}: missing geometry sidecar {sc}") from None
    return FinExperiment(
        l_c=number_field(geo, "l_c_m", str(sc)),
        d_hc=number_field(geo, "d_hc_m", str(sc)),
        w=number_field(geo, "w_m", str(sc)),
        p_heat=data["p_heat_w"],
        t_h=data["t_h_k"],
        t_o=data["t_o_k"],
        t_d=data["t_d_k"],
        allow_noise=True,
    )


# -- IQ clouds ---------------------------------------------------------------

IQ_COLUMNS = ("i", "q")


def write_iq_csv(path, cloud: IQCloud) -> None:
    write_columns(path, IQ_COLUMNS, [cloud.points[:, 0], cloud.points[:, 1]])
    write_json_doc(sidecar_path(path), {"f_q_hz": cloud.f_q})


def read_iq_csv(path) -> IQCloud:
    data = read_columns(path, IQ_COLUMNS)
    sc = sidecar_path(path)
    try:
        doc = read_json_doc(sc)
    except FileNotFoundError:
        raise ValidationError(f"{path}: missing sidecar {sc} with f_q_hz") from None
    f_q = number_field(doc, "f_q_hz", str(sc))
    return IQCloud(points=np.column_stack([data["i"], data["q"]]), f_q=f_q)


# -- phase sweeps -------------------------------------------------------------

PHASE_COLUMNS = ("f_hz", "phase_g_rad", "phase_e_rad")


def write_phase_csv(path, sweep: PhaseSweep) -> None:
    write_columns(path, PHASE_COLUMNS, [sweep.frequencies, sweep.phase_g, sweep.phase_e])
    write_json_doc(sidecar_path(path), {"n_bar_readout": sweep.n_bar_readout})


def read_phase_csv(path) -> PhaseSweep:
    data = read_columns(path, PHASE_COLUMNS)
    sc = sidecar_path(path)
    try:
        n_bar = number_field(read_json_doc(sc), "n_bar_readout", str(sc), default=0.0)
    except FileNotFoundError:
        n_bar = 0.0
    return PhaseSweep(
        frequencies=data["f_hz"],
        phase_g=data["phase_g_rad"],
        phase_e=data["phase_e_rad"],
        n_bar_readout=n_bar,
    )
