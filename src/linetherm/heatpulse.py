"""Attenuator-heating relaxation: black-body trajectory model and joint fit.

After a heat pulse the emitter temperature relaxes as
T(t) = T0 + dT * exp(-t / tau_cool); the resonator occupation follows the
Bose-Einstein distribution at f_r and maps to (Gamma_n, Delta_f_{q,nbar})
through the exact shot-noise relation. The joint fit shares tau_cool over
all heat-pulse datasets and fits one temperature jump per dataset, with
T0 held fixed from the independently measured baseline photon number.

Measured Gamma_2* carries an additive offset (everything that dephases
besides photon noise) and measured frequency shifts carry a zero-point
offset; both are fitted as parameters shared across datasets, initialized
from the large-t_cool tails, which removes them exactly on noiseless data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import FitResult, HeatPulseSeries, SystemParams, ValidationError
from .fitkit import ParamSpec, ResidualProblem, joint_fit
from .shotnoise import (
    OutOfRange,
    _bose_einstein,
    _dephasing_full,
    photons_from_dephasing,
    temperature_from_photons,
)

__all__ = [
    "HeatPulseModelParams",
    "trajectory",
    "calibrate_offset",
    "fit_cooling",
    "CalibrationWarning",
]


class CalibrationWarning(UserWarning):
    """Offset calibration rests on too little data to be trustworthy."""


@dataclass(frozen=True)
class HeatPulseModelParams:
    """Ground-truth/record parameters of one heat-pulse relaxation curve.

    gamma_offset (1/s) and f0_offset (Hz) are measurement offsets added on
    top of the pure shot-noise observables; they do not enter trajectory().
    """

    t0: float
    delta_t: float
    tau_cool: float
    gamma_offset: float = 0.0
    f0_offset: float = 0.0

    def __post_init__(self):
        if not self.t0 > 0:
            raise ValidationError("t0 must be positive")
        if self.delta_t < 0:
            raise ValidationError("delta_t must be non-negative")
        if not self.tau_cool > 0:
            raise ValidationError("tau_cool must be positive")


def _curves(t, t0, delta_t, tau, sys):
    """(Gamma_n, Delta_f_stark) arrays for the relaxing-temperature model.

    Calls the unchecked shot-noise kernels: t0 > 0 and delta_t >= 0 (both
    validated or positive-transformed by every caller) keep T > 0, hence
    n_bar >= 0.
    """
    temp = t0 + delta_t * np.exp(-np.asarray(t, dtype=float) / tau)
    gamma, delta_f = _dephasing_full(_bose_einstein(temp, sys.f_r), sys)
    return np.asarray(gamma, dtype=float), np.asarray(delta_f, dtype=float)


def trajectory(params: HeatPulseModelParams, sys: SystemParams, t_cool):
    """Shot-noise observables (Gamma_n in 1/s, Delta_f_{q,nbar} in Hz) at t_cool."""
    t = np.asarray(t_cool, dtype=float)
    if np.any(t < 0):
        raise ValidationError("t_cool must be non-negative")
    gamma, delta_f = _curves(t, params.t0, params.delta_t, params.tau_cool, sys)
    if np.isscalar(t_cool):
        return float(gamma), float(delta_f)
    return gamma, delta_f


def calibrate_offset(gamma2_star_tail, gamma_n_baseline: float) -> float:
    """Additive rate offset that maps the measured tail onto the baseline.

    gamma2_star_tail holds the large-t_cool samples of Gamma_2*;
    gamma_n_baseline is the independently known photon-noise rate of the
    unheated line. Subtracting the returned offset from all measured rates
    makes them asymptote to that baseline.
    """
    tail = np.asarray(gamma2_star_tail, dtype=float)
    if tail.size == 0:
        raise ValidationError("tail must contain at least one sample")
    if tail.size == 1:
        warnings.warn(
            "offset calibrated from a single tail sample; low confidence",
            CalibrationWarning,
            stacklevel=2,
        )
    return float(tail.mean()) - gamma_n_baseline


def _tail(values: np.ndarray, fraction: float) -> np.ndarray:
    n = max(1, int(round(fraction * values.size)))
    return values[-n:]


def _initial_guesses(datasets, sys, t0_k, tail_fraction):
    base_gamma, base_df = _curves(np.array([0.0]), t0_k, 0.0, 1.0, sys)
    base_gamma, base_df = float(base_gamma[0]), float(base_df[0])

    gamma_tails = np.concatenate([_tail(d.gamma2_star, tail_fraction) for d in datasets])
    df_tails = np.concatenate([_tail(d.delta_f, tail_fraction) for d in datasets])
    gamma_off0 = float(gamma_tails.mean()) - base_gamma
    f0_off0 = float(df_tails.mean()) - base_df

    delta_t0 = []
    taus = []
    for d in datasets:
        gamma0 = max(d.gamma2_star[0] - gamma_off0, 0.0)  # negative: no photons
        try:
            photons = photons_from_dephasing(gamma0, sys)
            dt0 = temperature_from_photons(photons, sys.f_r) - t0_k if photons > 0 else 0.0
        except OutOfRange:
            dt0 = 10.0
        delta_t0.append(min(max(dt0, 1e-4), 10.0))

        # 1/e crossing of the offset-corrected decay for the tau guess.
        span = d.t_cool[-1] - d.t_cool[0]
        y = d.gamma2_star
        tail_level = float(_tail(y, tail_fraction).mean())
        drop = y[0] - tail_level
        scale = max(abs(y).max(), 1.0)
        if span > 0 and abs(drop) > 1e-9 * scale:
            target = tail_level + drop / np.e
            below = np.flatnonzero(y <= target) if drop > 0 else np.flatnonzero(y >= target)
            taus.append(d.t_cool[below[0]] - d.t_cool[0] if below.size else span / 3.0)
        else:
            taus.append(span / 3.0 if span > 0 else 1e-3)
    tau0 = float(np.median(taus))
    if tau0 <= 0:
        tau0 = 1e-3
    return gamma_off0, f0_off0, delta_t0, tau0, base_gamma, base_df


def fit_cooling(datasets, sys: SystemParams, t0_k: float, *, fit_t0: bool = False,
                tail_fraction: float = 0.25) -> FitResult:
    """Joint fit of Gamma_2*(t_cool) and Delta_f(t_cool) over all datasets.

    tau_cool, gamma_offset and f0_offset are shared; delta_t is fitted per
    dataset (log-transformed, hence positive). T0 is fixed to t0_k unless
    fit_t0=True. Each observable block is weighted by the inverse of its
    pooled RMS about the per-dataset means, so neither dominates the cost;
    the weights are reported in diagnostics["block_weights"]. The offsets
    start from the last tail_fraction, in (0, 1], of each dataset. The fit runs
    with joint_fit's fixed settings: damping from 1e-3, relative cost and
    step tolerances 1e-10, at most 200 iterations.
    """
    datasets = list(datasets)
    if not datasets:
        raise ValidationError("need at least one dataset")
    for j, d in enumerate(datasets):
        if not isinstance(d, HeatPulseSeries):
            raise ValidationError(f"dataset {j} is not a HeatPulseSeries")
        if len(d) < 4:
            raise ValidationError(f"dataset {j} has {len(d)} points, need >= 4")
    if not t0_k > 0:
        raise ValidationError("t0_k must be positive")
    if not 0 < tail_fraction <= 1:
        raise ValidationError("tail_fraction must lie in (0, 1]")

    gamma_off0, f0_off0, delta_t0, tau0, base_gamma, base_df = _initial_guesses(
        datasets, sys, t0_k, tail_fraction
    )

    pooled_g = np.concatenate([d.gamma2_star - d.gamma2_star.mean() for d in datasets])
    pooled_f = np.concatenate([d.delta_f - d.delta_f.mean() for d in datasets])
    rms_g = float(np.sqrt(np.mean(pooled_g**2)))
    rms_f = float(np.sqrt(np.mean(pooled_f**2)))
    w_gamma = 1.0 / rms_g if rms_g > 0 else 1.0
    w_df = 1.0 / rms_f if rms_f > 0 else 1.0

    problems = []
    specs = []
    for j, d in enumerate(datasets):
        def resid(p, _d=d):
            t0 = p["t0_k"] if fit_t0 else t0_k
            gamma, delta_f = _curves(_d.t_cool, t0, p["delta_t_k"], p["tau_cool_s"], sys)
            r_g = (gamma + p["gamma_offset_per_s"] - _d.gamma2_star) * w_gamma
            r_f = (delta_f + p["f0_offset_hz"] - _d.delta_f) * w_df
            return np.concatenate([r_g, r_f])

        shared = [
            ParamSpec("tau_cool_s", tau0, "positive", shared=True),
            ParamSpec("gamma_offset_per_s", gamma_off0, shared=True),
            ParamSpec("f0_offset_hz", f0_off0, shared=True),
        ]
        if fit_t0:
            shared.append(ParamSpec("t0_k", t0_k, "positive", shared=True))
        problems.append(ResidualProblem(resid))
        specs.append(shared + [ParamSpec("delta_t_k", delta_t0[j], "positive")])

    result = joint_fit(problems, specs)
    result.diagnostics["baseline_gamma_per_s"] = base_gamma
    result.diagnostics["baseline_delta_f_hz"] = base_df
    result.diagnostics["t0_k"] = result.params.get("t0_k", t0_k)
    result.diagnostics["block_weights"] = {"gamma": w_gamma, "delta_f": w_df}
    return result
