"""Command-line interface: ingestion, fits, conversions, synthetic data.

Every analysis command emits a JSON report {schema_version, manifest,
result} (or a plot-ready CSV table where noted); the manifest records the
command line, input paths, seed, and tool version for provenance. All
numeric output is SI with unit-suffixed names; prefixed units appear only
in suffixed input flags (--t0-mk, --tau-ms, --threshold-uw, ...).

Exit codes: 0 success, 2 validation failure (a missing file and malformed
JSON included), 3 fit/inversion failure, with a machine-readable error
JSON on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .core import (
    SCHEMA_VERSION,
    ComputationError,
    LinethermError,
    SystemParams,
    ValidationError,
    default_system_params,
    load_system_params,
)
from . import dataio, decoherence, fin, heatpulse, iqtemp, resonator, shotnoise, synth

KHZ = 1e3
UW = 1e-6
MK = 1e-3
MS = 1e-3
US = 1e-6
NS = 1e-9


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def _manifest(args, command: str, inputs, seed=None) -> dict:
    doc = {
        "command": command,
        "argv": list(getattr(args, "_argv", [])),
        "inputs": [str(p) for p in inputs],
        "seed": seed,
        "version": __version__,
    }
    if not args.no_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return doc


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _report(args, command: str, inputs, result: dict, seed=None) -> None:
    """Write {schema_version, manifest, result} as json.dumps(_jsonsafe(doc), indent=2) would.

    The text comes from one walk of the document (_indented): every list or
    dict whose children are all scalars is one call of the C encoder,
    through a JSONEncoder per nesting depth that is made on first use and
    then kept for the process.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "manifest": _manifest(args, command, inputs, seed),
        "result": result,
    }
    _emit(args, _indented(doc))


_CONTAINERS = (dict, list, tuple, np.ndarray)


@functools.lru_cache(maxsize=None)
def _encoder(depth: int) -> json.JSONEncoder:
    """The C encoder whose item separator breaks the line to the indent of depth + 1.

    It refuses NaN and infinity, which _jsonsafe turns into None.
    """
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "), allow_nan=False)


def _indented(value, depth: int = 0) -> str:
    """json.dumps(_jsonsafe(value), indent=2) of a value nested depth levels deep.

    json.dumps runs its pure-Python encoder whenever indent is given. Here
    only containers that hold other containers are walked in Python; any
    other container is encoded as it is, and again through _jsonsafe if it
    holds a numpy scalar or a non-finite float. The keys of a dict that
    holds containers must be str, as every report's are.
    """
    if isinstance(value, np.ndarray):
        value = _jsonsafe(value)
    if not isinstance(value, (dict, list, tuple)):
        return _encoder(depth).encode(_jsonsafe(value))
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    children = value.values() if isinstance(value, dict) else value
    indent = "\n" + "  " * (depth + 1)
    if not any(isinstance(v, _CONTAINERS) for v in children):
        try:
            text = _encoder(depth).encode(value)
        except (TypeError, ValueError):
            text = _encoder(depth).encode(_jsonsafe(value))
        return text[0] + indent + text[1:-1] + indent[:-2] + text[-1]
    parts = [_indented(v, depth + 1) for v in children]
    if isinstance(value, dict):
        parts = [json.encoder.encode_basestring_ascii(k) + ": " + part
                 for k, part in zip(value, parts)]
        brackets = "{}"
    else:
        brackets = "[]"
    return brackets[0] + indent + ("," + indent).join(parts) + indent[:-2] + brackets[1]


def _jsonsafe(value):
    """value with numpy types as Python ones and every non-finite float as None."""
    if isinstance(value, dict):
        return {k: _jsonsafe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonsafe(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and np.isfinite(value).all():
            return value.tolist()  # one call where no element needs None
        return _jsonsafe(value.tolist())
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _fit_result_doc(result) -> dict:
    return {
        "params": result.params,
        "sigmas": result.sigmas,
        "param_names": list(result.param_names),
        "covariance": result.covariance,
        "residual_norm": result.residual_norm,
        "n_iterations": result.n_iterations,
        "converged": result.converged,
        "diagnostics": {k: v for k, v in result.diagnostics.items() if k != "cost_path"},
    }


def _finish_fit(args, command, inputs, result, extra=None, seed=None) -> int:
    doc = _fit_result_doc(result)
    if extra:
        doc.update(extra)
    _report(args, command, inputs, doc, seed=seed)
    if not result.converged:
        _error_json(3, ComputationError("fit did not converge; see report diagnostics"))
        return 3
    return 0


def _error_json(code: int, exc: BaseException) -> None:
    sys.stderr.write(
        json.dumps({"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}})
        + "\n"
    )


def _curve_grid(args, lo, hi) -> np.ndarray:
    if args.curve_points < 0:
        raise ValidationError("--curve-points must be non-negative")
    return np.linspace(lo, hi, args.curve_points)


def _system_params(args) -> SystemParams:
    if getattr(args, "params", None):
        return load_system_params(args.params)
    return default_system_params()


# ---------------------------------------------------------------------------
# shotnoise
# ---------------------------------------------------------------------------

def cmd_shotnoise(args) -> int:
    sys_params = _system_params(args)
    gammas = [float(g) for g in args.gamma or []]
    gammas += [float(g) * KHZ for g in args.gamma_khz or []]
    nbars = [float(n) for n in args.nbar or []]
    if not gammas and not nbars:
        raise ValidationError("provide --gamma/--gamma-khz or --nbar values")

    n_bar = np.concatenate([shotnoise.photons_from_dephasing(gammas, sys_params), nbars])
    pt = shotnoise.dephasing_full(n_bar, sys_params)
    hot = n_bar > 0
    temps = np.full(n_bar.size, None)
    temps[hot] = shotnoise.temperature_from_photons(n_bar[hot], sys_params.f_r).tolist()
    header = ["gamma_n_per_s", "delta_f_nbar_hz", "n_bar", "temperature_k"]
    rows = list(zip(pt.gamma_n.tolist(), pt.delta_f_stark.tolist(), n_bar.tolist(), temps.tolist()))

    if args.as_temperature:
        _report(args, "shotnoise", [], {"temperature_k": temps.tolist()})
        return 0

    if args.format == "csv":
        lines = [",".join(header)]
        lines += [",".join("" if v is None else repr(v) for v in row) for row in rows]
        _emit(args, "\n".join(lines))
        return 0

    table = [dict(zip(header, row)) for row in rows]
    _report(args, "shotnoise", [], {"table": table, "lamb_shift_hz": pt.lamb_shift})
    return 0


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------

_DECAY_FITS = {
    "relaxation": decoherence.fit_relaxation,
    "ramsey": decoherence.fit_ramsey,
    "echo": decoherence.fit_echo,
}


def cmd_decay(args) -> int:
    trace = dataio.read_trace_csv(args.trace, kind=args.kind)
    result = _DECAY_FITS[args.kind](trace)
    if args.emit_curve:
        t = _curve_grid(args, trace.times[0], trace.times[-1])
        y = decoherence.decay_model(args.kind, t, result.params)
        dataio.write_columns(args.emit_curve, ["t_s", "model"], [t, y])
    return _finish_fit(args, "decay", [args.trace], result)


# ---------------------------------------------------------------------------
# heatpulse
# ---------------------------------------------------------------------------

def cmd_heatpulse(args) -> int:
    sys_params = _system_params(args)
    datasets = dataio.read_heatpulse_csvs(args.data)
    t0 = args.t0_mk * MK
    result = heatpulse.fit_cooling(datasets, sys_params, t0, fit_t0=args.fit_t0)
    if args.emit_curve:
        tau = result.params["tau_cool_s"]
        g_off = result.params["gamma_offset_per_s"]
        f_off = result.params["f0_offset_hz"]
        t0_fit = result.params.get("t0_k", t0)
        for j, d in enumerate(datasets):
            name = "delta_t_k" if len(datasets) == 1 else f"delta_t_k[{j}]"
            model = heatpulse.HeatPulseModelParams(
                t0=t0_fit, delta_t=result.params[name], tau_cool=tau
            )
            t = _curve_grid(args, d.t_cool[0], d.t_cool[-1])
            gamma, delta_f = heatpulse.trajectory(model, sys_params, t)
            dataio.write_columns(f"{args.emit_curve}_{j}.csv", dataio.HEATPULSE_COLUMNS,
                                 [t, gamma + g_off, delta_f + f_off])
    extra = {"t0_k": result.params.get("t0_k", t0), "t_heat_s": [d.t_heat for d in datasets]}
    return _finish_fit(args, "heatpulse", args.data, result, extra=extra)


# ---------------------------------------------------------------------------
# fin
# ---------------------------------------------------------------------------

def cmd_fin(args) -> int:
    if args.action == "extract":
        exp = dataio.read_fin_csv(args.data)
        if args.threshold_w is not None:
            threshold = args.threshold_w
        elif args.threshold_uw is not None:
            threshold = args.threshold_uw * UW
        else:
            raise ValidationError("provide --threshold-w or --threshold-uw")
        ext = fin.extract_resistances(exp, threshold)
        result = {
            "u": ext.u,
            "g_k_per_w": ext.g,
            "r_s_k_per_w": ext.g * ext.u,
            "r_t_k_per_w": ext.g / ext.u if ext.u > 0 else None,
            "slope_h_k_per_w": ext.slope_h,
            "slope_o_k_per_w": ext.slope_o,
            "threshold_w": ext.threshold,
        }
        _report(args, "fin extract", [args.data], result)
        return 0
    # inverse-temperature trend fit over per-cooldown extractions
    data = dataio.read_columns(args.data, ("t_d_k", "g_k_per_w"))
    c = fin.fit_inverse_T(data["t_d_k"], data["g_k_per_w"])
    _report(args, "fin invt", [args.data], {"c_k2_per_w": float(c)})
    return 0


# ---------------------------------------------------------------------------
# iqtemp
# ---------------------------------------------------------------------------

def cmd_iqtemp(args) -> int:
    clouds = (dataio.read_iq_csv(path) for path in args.clouds)
    sweep = iqtemp.sweep_temperature(clouds, seed=args.seed)
    result = {
        "clouds": [
            {"f_q_hz": fq, "t_q_k": tq, "converged": conv, "n_iterations": n_it,
             "separation": sep}
            for fq, tq, conv, n_it, sep in zip(
                sweep.f_q, sweep.t_q, sweep.converged, sweep.n_iterations, sweep.separation
            )
        ],
        "mean_t_q_k": sweep.mean,
        "sigma_t_q_k": sweep.sigma,
        "excluded": [{"index": i, "reason": r} for i, r in sweep.excluded],
    }
    _report(args, "iqtemp", args.clouds, result, seed=args.seed)
    return 0


# ---------------------------------------------------------------------------
# resonator
# ---------------------------------------------------------------------------

def cmd_resonator(args) -> int:
    sweep = dataio.read_phase_csv(args.sweep)
    result = resonator.fit_phase_pair(sweep, fit_kappa_c=args.fit_kappa_c)
    if args.emit_curve:
        f = _curve_grid(args, sweep.frequencies[0], sweep.frequencies[-1])
        p = result.params
        kappa = np.array([[p["kappa_g_rad_per_s"]], [p["kappa_e_rad_per_s"]]])
        phase = resonator.unwrapped_phase(
            f,
            np.array([[p["f_g_hz"]], [p["f_e_hz"]]]),
            kappa,
            p["kappa_c_frac"] * kappa if args.fit_kappa_c else None,
            p["tau_delay_s"],
            p["theta0_rad"],
        )
        dataio.write_columns(args.emit_curve, dataio.PHASE_COLUMNS, [f, *phase])
    extra = {"chi_over_2pi_hz": result.params["chi_rad_per_s"] / (2 * np.pi)}
    return _finish_fit(args, "resonator", [args.sweep], result, extra=extra)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _or_default(value, default):
    return default if value is None else value


def cmd_synth(args) -> int:
    for name, value in vars(args).items():
        if any(isinstance(v, float) and not np.isfinite(v)
               for v in (value if isinstance(value, list) else [value])):
            raise ValidationError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if args.n_points is not None and args.n_points < 0:
        raise ValidationError("--n-points must be non-negative")
    if args.seed < 0:
        raise ValidationError(f"--seed must be non-negative, got {args.seed}")
    written = []
    if args.what == "decay":
        t = np.linspace(0.0, _or_default(args.t_max_s, 1e-5), _or_default(args.n_points, 100))
        params = {"A": args.a, "B": args.b, decoherence.RATE_NAMES[args.kind]: args.gamma_per_s,
                  "delta_f_hz": args.delta_f_hz, "phi_rad": args.phi_rad}
        trace = synth.gen_decay(args.kind, params, t, noise=args.noise, seed=args.seed)
        dataio.write_trace_csv(args.out, trace)
        written.append(args.out)
    elif args.what == "heatpulse":
        sys_params = _system_params(args)
        t = np.linspace(0.0, _or_default(args.t_max_s, 2e-3), _or_default(args.n_points, 41))
        delta_ts = _or_default(args.delta_t_mk, [24.0])
        t_heats = _or_default(args.t_heat_us, [0.5])
        for j, dt_mk in enumerate(delta_ts):
            model = heatpulse.HeatPulseModelParams(
                t0=args.t0_mk * MK,
                delta_t=dt_mk * MK,
                tau_cool=args.tau_ms * MS,
                gamma_offset=args.gamma_offset_per_s,
                f0_offset=args.f0_offset_hz,
            )
            series = synth.gen_heatpulse(
                model,
                sys_params,
                t,
                noise_gamma=args.noise_gamma_per_s,
                noise_delta_f=args.noise_delta_f_hz,
                seed=args.seed + j,
                t_heat=t_heats[min(j, len(t_heats) - 1)] * US,
            )
            path = f"{args.out}_{j}.csv"
            dataio.write_heatpulse_csv(path, series)
            written.append(path)
    elif args.what == "fin":
        powers = np.asarray(_or_default(args.power_uw, [1.0, 2.0, 5.0, 10.0])) * UW
        exp = synth.gen_fin(
            u=args.u,
            g=args.g_k_per_w,
            l_c=args.l_c_m,
            d_hc=args.d_hc_m,
            w=args.w_m,
            t_d=args.t_d_k,
            powers=powers,
            rel_noise=args.rel_noise,
            seed=args.seed,
        )
        dataio.write_fin_csv(args.out, exp)
        written.append(args.out)
    elif args.what == "iq":
        ratio = np.exp(
            -shotnoise.H * args.f_q_hz / (shotnoise.K_B * args.t_q_mk * MK)
        )
        p_e = ratio / (1.0 + ratio)
        half = args.separation_sigma / 2.0
        model = iqtemp.MixtureModel(
            weights=(1.0 - p_e, p_e),
            means=np.array([[-half, 0.0], [half, 0.0]]),
            covariances=np.array([np.eye(2), np.eye(2)]),
        )
        n_points = _or_default(args.n_points, 50000)
        cloud = synth.gen_iq(model, n_points, args.f_q_hz, seed=args.seed)
        dataio.write_iq_csv(args.out, cloud)
        written.append(args.out)
    else:  # phase
        f_g = args.f_g_hz
        f_e = f_g + args.chi_over_2pi_hz
        kappa_g = 2 * np.pi * args.kappa_g_over_2pi_hz
        kappa_e = 2 * np.pi * args.kappa_e_over_2pi_hz
        span = args.span_linewidths * max(kappa_g, kappa_e) / (2 * np.pi)
        center = 0.5 * (f_g + f_e)
        n_points = _or_default(args.n_points, 401)
        f = np.linspace(center - span / 2.0, center + span / 2.0, n_points)
        params = {
            "f_g_hz": f_g,
            "f_e_hz": f_e,
            "kappa_g_rad_per_s": kappa_g,
            "kappa_e_rad_per_s": kappa_e,
            "tau_delay_s": args.tau_delay_ns * NS,
            "theta0_rad": args.theta0_rad,
        }
        sweep = synth.gen_phase(
            params, f, noise=args.noise_rad, seed=args.seed, n_bar_readout=args.n_bar_readout
        )
        dataio.write_phase_csv(args.out, sweep)
        written.append(args.out)

    sys.stdout.write(json.dumps({"written": written, "seed": args.seed}) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p, *, output=True, params=False, curve=False):
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp from the manifest (byte-stable output)")
    if output:
        p.add_argument("--output", help="write the report to this file instead of stdout")
    if params:
        p.add_argument("--params", help="SystemParams JSON (default: $LINETHERM_PARAMS or bundled)")
    if curve:
        p.add_argument("--emit-curve", help="write the fitted model on a dense grid to CSV")
        p.add_argument("--curve-points", type=int, default=400)


def _shotnoise_args(p):
    p.add_argument("--gamma", nargs="+", metavar="PER_S", help="dephasing rates in 1/s")
    p.add_argument("--gamma-khz", nargs="+", metavar="KHZ", help="dephasing rates in kHz (1e3/s)")
    p.add_argument("--nbar", nargs="+", metavar="N", help="mean photon numbers")
    p.add_argument("--as-temperature", action="store_true",
                   help="report only the black-body temperature column")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p, params=True)


def _decay_args(p):
    p.add_argument("trace", help="CSV with header t_s,signal[,sigma]")
    p.add_argument("--kind", choices=decoherence.KINDS, required=True)
    _add_common(p, curve=True)


def _heatpulse_args(p):
    p.add_argument("data", nargs="+", help="CSV files t_cool_s,gamma2_star_per_s,delta_f_hz")
    p.add_argument("--t0-mk", type=float, required=True, help="fixed baseline temperature (mK)")
    p.add_argument("--fit-t0", action="store_true", help="fit T0 instead of fixing it")
    _add_common(p, params=True, curve=True)


def _fin_args(p):
    p.add_argument("action", choices=("extract", "invt"))
    p.add_argument("data", help="CSV data file")
    p.add_argument("--threshold-uw", type=float, help="linear-fit power threshold (uW)")
    p.add_argument("--threshold-w", type=float, help="linear-fit power threshold (W)")
    _add_common(p)


def _iqtemp_args(p):
    p.add_argument("clouds", nargs="+", help="CSV files i,q with f_q_hz sidecars")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)


def _resonator_args(p):
    p.add_argument("sweep", help="CSV with header f_hz,phase_g_rad,phase_e_rad")
    p.add_argument("--fit-kappa-c", action="store_true")
    _add_common(p, curve=True)


def _synth_args(p):
    p.add_argument("what", choices=("decay", "heatpulse", "fin", "iq", "phase"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path (or prefix for heatpulse)")
    # decay
    p.add_argument("--kind", choices=decoherence.KINDS, default="relaxation")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--gamma-per-s", type=float, default=4.77e5)
    p.add_argument("--delta-f-hz", type=float, default=2.5e5)
    p.add_argument("--phi-rad", type=float, default=0.0)
    p.add_argument("--t-max-s", type=float, default=None)
    p.add_argument("--n-points", type=int, default=None)
    p.add_argument("--noise", type=float, default=0.0)
    # heatpulse
    p.add_argument("--t0-mk", type=float, default=58.0)
    p.add_argument("--delta-t-mk", type=float, action="append")
    p.add_argument("--tau-ms", type=float, default=0.28)
    p.add_argument("--t-heat-us", type=float, action="append")
    p.add_argument("--gamma-offset-per-s", type=float, default=0.0)
    p.add_argument("--f0-offset-hz", type=float, default=0.0)
    p.add_argument("--noise-gamma-per-s", type=float, default=0.0)
    p.add_argument("--noise-delta-f-hz", type=float, default=0.0)
    # fin
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--g-k-per-w", type=float, default=1.6e4)
    p.add_argument("--l-c-m", type=float, default=0.045)
    p.add_argument("--d-hc-m", type=float, default=0.025)
    p.add_argument("--w-m", type=float, default=0.022)
    p.add_argument("--t-d-k", type=float, default=0.1)
    p.add_argument("--power-uw", type=float, action="append")
    p.add_argument("--rel-noise", type=float, default=0.0)
    # iq
    p.add_argument("--t-q-mk", type=float, default=26.4)
    p.add_argument("--f-q-hz", type=float, default=0.5e9)
    p.add_argument("--separation-sigma", type=float, default=2.0)
    # phase
    p.add_argument("--f-g-hz", type=float, default=7.458e9)
    p.add_argument("--chi-over-2pi-hz", type=float, default=-2.66e6)
    p.add_argument("--kappa-g-over-2pi-hz", type=float, default=3.79e6)
    p.add_argument("--kappa-e-over-2pi-hz", type=float, default=4.47e6)
    p.add_argument("--tau-delay-ns", type=float, default=0.0)
    p.add_argument("--theta0-rad", type=float, default=0.0)
    p.add_argument("--span-linewidths", type=float, default=12.0)
    p.add_argument("--noise-rad", type=float, default=0.0)
    p.add_argument("--n-bar-readout", type=float, default=0.0)
    _add_common(p, output=False, params=True)


# name -> (help, argument builder, handler), in the order help lists them.
_COMMANDS = {
    "shotnoise": ("convert between dephasing rate, photon number, temperature",
                  _shotnoise_args, cmd_shotnoise),
    "decay": ("fit one relaxation/Ramsey/echo trace", _decay_args, cmd_decay),
    "heatpulse": ("joint cooling fit over heat-pulse datasets", _heatpulse_args, cmd_heatpulse),
    "fin": ("stripline clamp thermal-resistance extraction", _fin_args, cmd_fin),
    "iqtemp": ("mixture thermometry over IQ cloud files", _iqtemp_args, cmd_iqtemp),
    "resonator": ("fit the qubit-state-dependent phase response", _resonator_args,
                  cmd_resonator),
    "synth": ("write seeded synthetic datasets", _synth_args, cmd_synth),
}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and then kept for the process.

    parse_args returns a new Namespace on every call and leaves the parser
    as it was, so the kept parser parses as a new one would. argparse reads
    the terminal width when it formats help, not when the parser is built,
    so help still follows the width of the moment.
    """
    parser = argparse.ArgumentParser(
        prog="linetherm",
        description="Thermometry of cryogenic microwave input lines from qubit decoherence data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_text, add_args, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args._argv = argv
    try:
        return args.func(args)
    except ComputationError as exc:
        _error_json(3, exc)
        return 3
    except (LinethermError, OSError, json.JSONDecodeError) as exc:
        _error_json(2, exc)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
