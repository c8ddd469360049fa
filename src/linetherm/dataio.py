"""Dataset file formats: CSV columns with SI unit suffixes, JSON sidecars.

Every CSV carries a fixed header; metadata that does not fit a column
lives in a JSON sidecar next to the file (same path, .json extension).
JSON documents carry a schema_version field and readers reject unknown
major versions. Floats are written with repr, i.e. shortest round-trip,
which also makes repeated writes byte-identical.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from pathlib import Path

import numpy as np

from .core import (
    SCHEMA_VERSION,
    FinExperiment,
    HeatPulseSeries,
    IQCloud,
    ValidationError,
    check_schema_version,
    number_field,
)
from .decoherence import DecayTrace
from .resonator import PhaseSweep

__all__ = [
    "sidecar_path",
    "read_json_doc",
    "write_json_doc",
    "write_columns",
    "read_columns",
    "write_trace_csv",
    "read_trace_csv",
    "write_heatpulse_csv",
    "read_heatpulse_csv",
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

    with open(path, "r", encoding="utf8") as fh:
        doc = json.load(fh, parse_constant=reject)
    check_schema_version(doc, source=str(path))
    return doc


def write_json_doc(path, doc: dict) -> None:
    out = {"schema_version": SCHEMA_VERSION}
    out.update(doc)
    with open(path, "w", encoding="utf8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")


def write_columns(path, header, columns) -> None:
    rows = zip(*[map(repr, np.asarray(c, dtype=float).tolist()) for c in columns])
    with open(path, "w", encoding="utf8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_columns(path, required, optional=()) -> dict:
    with open(path, "r", encoding="utf8", newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        missing = [c for c in required if c not in header]
        if missing:
            raise ValidationError(f"{path}: missing columns {missing}, found {header}")
        idx = {c: header.index(c) for c in (*required, *optional) if c in header}
        # Rows whose cells are all blank, quoted or not, are skipped.
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
    columns = dict(zip(idx, np.array(table.T)))
    for c, v in columns.items():
        if not np.isfinite(v).all():
            raise ValidationError(f"{path}: column {c!r} holds a non-finite value")
    return columns


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

def write_heatpulse_csv(path, series: HeatPulseSeries) -> None:
    write_columns(
        path,
        ["t_cool_s", "gamma2_star_per_s", "delta_f_hz"],
        [series.t_cool, series.gamma2_star, series.delta_f],
    )
    write_json_doc(sidecar_path(path), {"t_heat_s": series.t_heat})


def read_heatpulse_csv(path) -> HeatPulseSeries:
    data = read_columns(path, ("t_cool_s", "gamma2_star_per_s", "delta_f_hz"))
    t_heat = 0.0
    sc = sidecar_path(path)
    if os.path.exists(sc):
        t_heat = number_field(read_json_doc(sc), "t_heat_s", str(sc), default=0.0)
    return HeatPulseSeries(
        t_heat=t_heat,
        t_cool=data["t_cool_s"],
        gamma2_star=data["gamma2_star_per_s"],
        delta_f=data["delta_f_hz"],
    )


# -- fin experiments --------------------------------------------------------

def write_fin_csv(path, exp: FinExperiment) -> None:
    write_columns(
        path,
        ["p_heat_w", "t_h_k", "t_o_k", "t_d_k"],
        [exp.p_heat, exp.t_h, exp.t_o, exp.t_d],
    )
    write_json_doc(
        sidecar_path(path), {"l_c_m": exp.l_c, "d_hc_m": exp.d_hc, "w_m": exp.w}
    )


def read_fin_csv(path, allow_noise: bool = True) -> FinExperiment:
    data = read_columns(path, ("p_heat_w", "t_h_k", "t_o_k", "t_d_k"))
    sc = sidecar_path(path)
    if not os.path.exists(sc):
        raise ValidationError(f"{path}: missing geometry sidecar {sc}")
    geo = read_json_doc(sc)
    return FinExperiment(
        l_c=number_field(geo, "l_c_m", str(sc)),
        d_hc=number_field(geo, "d_hc_m", str(sc)),
        w=number_field(geo, "w_m", str(sc)),
        p_heat=data["p_heat_w"],
        t_h=data["t_h_k"],
        t_o=data["t_o_k"],
        t_d=data["t_d_k"],
        allow_noise=allow_noise,
    )


# -- IQ clouds ---------------------------------------------------------------

def write_iq_csv(path, cloud: IQCloud) -> None:
    write_columns(path, ["i", "q"], [cloud.points[:, 0], cloud.points[:, 1]])
    write_json_doc(sidecar_path(path), {"f_q_hz": cloud.f_q})


def read_iq_csv(path) -> IQCloud:
    data = read_columns(path, ("i", "q"))
    sc = sidecar_path(path)
    if not os.path.exists(sc):
        raise ValidationError(f"{path}: missing sidecar {sc} with f_q_hz")
    f_q = number_field(read_json_doc(sc), "f_q_hz", str(sc))
    return IQCloud(points=np.column_stack([data["i"], data["q"]]), f_q=f_q)


# -- phase sweeps -------------------------------------------------------------

def write_phase_csv(path, sweep: PhaseSweep) -> None:
    write_columns(
        path,
        ["f_hz", "phase_g_rad", "phase_e_rad"],
        [sweep.frequencies, sweep.phase_g, sweep.phase_e],
    )
    write_json_doc(sidecar_path(path), {"n_bar_readout": sweep.n_bar_readout})


def read_phase_csv(path) -> PhaseSweep:
    data = read_columns(path, ("f_hz", "phase_g_rad", "phase_e_rad"))
    n_bar = 0.0
    sc = sidecar_path(path)
    if os.path.exists(sc):
        n_bar = number_field(read_json_doc(sc), "n_bar_readout", str(sc), default=0.0)
    return PhaseSweep(
        frequencies=data["f_hz"],
        phase_g=data["phase_g_rad"],
        phase_e=data["phase_e_rad"],
        n_bar_readout=n_bar,
    )
