"""Seeded synthetic-data generators, the oracles for every fit round trip.

All randomness comes from numpy's PCG64 generator. Each observable draws
from its own stream, derived from (seed, label) through a CRC32 of the
label in the seed-sequence spawn key, so adding an observable to a
generator never shifts the streams of existing ones and identical
(spec, seed) inputs reproduce identical bytes. Generators sample the
closed-form models of the analysis modules; there is no time-domain
dynamics simulation here.
"""

from __future__ import annotations

import zlib
from typing import Mapping

import numpy as np

from .core import FinExperiment, HeatPulseSeries, IQCloud, SystemParams, ValidationError
from .decoherence import DecayTrace, decay_model
from .fin import slopes_from_shape
from .heatpulse import HeatPulseModelParams, trajectory
from .iqtemp import MixtureModel, sample_mixture
from .resonator import PhaseSweep, unwrapped_phase

__all__ = [
    "stream",
    "gen_decay",
    "gen_heatpulse",
    "gen_fin",
    "gen_iq",
    "gen_phase",
]


def stream(seed: int, label: str) -> np.random.Generator:
    """Independent, reproducible generator for one named observable."""
    key = zlib.crc32(label.encode("utf8"))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def gen_decay(kind: str, params: Mapping[str, float], t_grid, noise: float = 0.0,
              seed: int = 0):
    """Decay trace of the given kind with Gaussian signal noise.

    params uses the fit parameter names of decoherence.decay_model.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise ValidationError("t_grid must be non-empty")
    y = decay_model(kind, t, params)
    sigma = None
    if noise > 0:
        y = y + noise * stream(seed, "signal").standard_normal(t.size)
        sigma = np.full(t.size, noise)
    return DecayTrace(kind=kind, times=t, signal=y, sigma=sigma)


def gen_heatpulse(model: HeatPulseModelParams, sys: SystemParams, t_grid,
                  noise_gamma: float = 0.0, noise_delta_f: float = 0.0,
                  seed: int = 0, t_heat: float = 0.0) -> HeatPulseSeries:
    """One heat-pulse series: model observables plus offsets plus noise."""
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise ValidationError("t_grid must be non-empty")
    gamma, delta_f = trajectory(model, sys, t)
    gamma = gamma + model.gamma_offset
    delta_f = delta_f + model.f0_offset
    if noise_gamma > 0:
        gamma = gamma + noise_gamma * stream(seed, "gamma").standard_normal(t.size)
    if noise_delta_f > 0:
        delta_f = delta_f + noise_delta_f * stream(seed, "delta_f").standard_normal(t.size)
    return HeatPulseSeries(t_heat=t_heat, t_cool=t, gamma2_star=gamma, delta_f=delta_f)


def gen_fin(u: float, g: float, l_c: float, d_hc: float, w: float, t_d: float,
            powers, rel_noise: float = 0.0, seed: int = 0) -> FinExperiment:
    """Fin experiment records from the slope model.

    rel_noise applies multiplicative Gaussian noise to the temperature
    rises (T_h - T_d, T_o - T_d), not to the stabilized T_d itself.
    """
    p = np.asarray(powers, dtype=float)
    slope_h, slope_o = slopes_from_shape(u, g, d_hc / l_c)
    rise_h = slope_h * p
    rise_o = slope_o * p
    if rel_noise > 0:
        rise_h = rise_h * (1.0 + rel_noise * stream(seed, "t_h").standard_normal(p.size))
        rise_o = rise_o * (1.0 + rel_noise * stream(seed, "t_o").standard_normal(p.size))
    return FinExperiment(
        l_c=l_c,
        d_hc=d_hc,
        w=w,
        p_heat=p,
        t_h=t_d + rise_h,
        t_o=t_d + rise_o,
        t_d=np.full(p.size, t_d),
        allow_noise=rel_noise > 0,
    )


def gen_iq(mixture: MixtureModel, n_points: int, f_q: float, seed: int = 0) -> IQCloud:
    """IQ cloud sampled from a two-component mixture."""
    if n_points < 2:
        raise ValidationError("need at least 2 points")
    points = sample_mixture(mixture, n_points, stream(seed, "points"))
    return IQCloud(points=points, f_q=f_q)


def gen_phase(params: Mapping[str, float], f_grid, noise: float = 0.0, seed: int = 0,
              n_bar_readout: float = 0.0) -> PhaseSweep:
    """Phase sweep for both qubit states from the reflection model.

    params uses the fit parameter names f_g_hz, f_e_hz, kappa_g_rad_per_s,
    kappa_e_rad_per_s, tau_delay_s, theta0_rad.
    """
    f = np.asarray(f_grid, dtype=float)
    if f.size == 0:
        raise ValidationError("f_grid must be non-empty")
    phases = {}
    for state in ("g", "e"):
        phase = unwrapped_phase(
            f,
            params[f"f_{state}_hz"],
            params[f"kappa_{state}_rad_per_s"],
            None,
            params.get("tau_delay_s", 0.0),
            params.get("theta0_rad", 0.0),
        )
        if noise > 0:
            phase = phase + noise * stream(seed, f"phase_{state}").standard_normal(f.size)
        phases[state] = phase
    return PhaseSweep(
        frequencies=f,
        phase_g=phases["g"],
        phase_e=phases["e"],
        n_bar_readout=n_bar_readout,
    )
