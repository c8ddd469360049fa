"""Attenuator-heating relaxation: black-body trajectory model and joint fit.

After a heat pulse the emitter temperature relaxes as
T(t) = T0 + dT * exp(-t / tau_cool); the resonator occupation follows the
Bose-Einstein distribution at f_r and maps to (Gamma_n, Delta_f_{q,nbar})
through the exact shot-noise relation. The joint fit shares tau_cool over
all heat-pulse datasets and fits one temperature jump per dataset, with
T0 held fixed from the independently measured baseline photon number.

Measured Gamma_2* carries an additive offset (everything that dephases
besides photon noise) and measured frequency shifts carry a zero-point
offset; both are fitted as parameters shared across datasets. The fit
starts from one pass over every sample (_initial_guesses): a weighted
log-linear fit of the temperature rise per dataset, tau their median.

The datasets form one batched fit problem, evaluated by one _curves call
per residual and one analytic _curve_slopes call per Jacobian, the chain
rule through the model:
d(Gamma_n + 2*pi*i*Delta_f)/dn_bar = i*chi/sqrt(z) with z the shot-noise
radicand, dn_bar/dT = n_bar(n_bar + 1)*x/T with x = h*f_r/(k_B*T),
dT/d(delta_t) = exp(-t/tau), dT/d(tau) = delta_t*(t/tau)*exp(-t/tau)/tau
and dT/d(T0) = 1; each offset has a unit column on its own observable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import H, K_B, TWO_PI, FitResult, HeatPulseSeries, SystemParams, ValidationError
from .fitkit import ParamSpec, ResidualProblem, joint_fit
from .shotnoise import (
    N_MAX,
    _bose_einstein,
    _dephasing_full,
    _sqrt_radicand,
    dephasing_full,
    photons_from_dephasing,
    temperature_from_photons,
)

__all__ = [
    "HeatPulseModelParams",
    "trajectory",
    "fit_cooling",
]


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


def _curve_slopes(t, t0, delta_t, tau, sys):
    """dT/d(delta_t), dT/d(tau) and d(Gamma_n + 2*pi*i*Delta_f_stark)/dT of _curves.

    dT/d(tau) is written delta_t*(t/tau)*exp(-t/tau)/tau, not with tau**2,
    which overflows when tau runs away; dT/d(T0) is 1.
    """
    decay = np.exp(-t / tau)
    temp = t0 + delta_t * decay
    n = _bose_einstein(temp, sys.f_r)
    x = H * sys.f_r / (K_B * temp)
    dval_dtemp = 1j * sys.chi / _sqrt_radicand(n, sys) * (n * (n + 1.0) * x / temp)
    return decay, delta_t * (t / tau) * decay / tau, dval_dtemp


def trajectory(params: HeatPulseModelParams, sys: SystemParams, t_cool):
    """Shot-noise observables (Gamma_n in 1/s, Delta_f_{q,nbar} in Hz) at t_cool."""
    t = np.asarray(t_cool, dtype=float)
    if np.any(t < 0):
        raise ValidationError("t_cool must be non-negative")
    gamma, delta_f = _curves(t, params.t0, params.delta_t, params.tau_cool, sys)
    if np.isscalar(t_cool):
        return float(gamma), float(delta_f)
    return gamma, delta_f


_TAIL_SHARE = 0.25  # the offsets start from the last quarter of every dataset
_PEAK_SHARE = 0.25  # the decay fit keeps samples above this share of their dataset's peak rise


def _initial_guesses(t, gamma, delta_f, dataset, sys, t0_k):
    """Start point of fit_cooling from every sample of the batch at once.

    t, gamma and delta_f hold all datasets' samples, concatenated, and
    dataset each sample's dataset index. Each offset starts at the mean of
    every dataset's last _TAIL_SHARE minus the T0 baseline. Every
    offset-corrected rate is inverted to a rise T - T0 (a rate at or below
    the offset, or above the N_MAX value, to none), and
    log(rise) = log(delta_t) - t/tau is fitted per dataset by least squares
    over the samples above _PEAK_SHARE of its peak rise, each weighted by
    its rise. tau starts at the median over the datasets that decay, at most
    a third of the latest t (the tails must lie past the decay), and each
    jump at its dataset's intercept under that tau (1e-4 K if none rises).
    """
    size = np.bincount(dataset)
    base_gamma, base_df = (float(v[0]) for v in _curves(np.zeros(1), t0_k, 0.0, 1.0, sys))
    from_end = np.cumsum(size)[dataset] - np.arange(t.size)
    tail = from_end <= np.maximum(1, np.round(_TAIL_SHARE * size))[dataset]
    gamma_off0 = float(gamma[tail].mean()) - base_gamma
    f0_off0 = float(delta_f[tail].mean()) - base_df

    rate = gamma - gamma_off0
    rate[(rate < 0) | (rate > dephasing_full(N_MAX, sys).gamma_n)] = 0.0
    photons = photons_from_dephasing(rate, sys)
    hot = photons > 0
    rise = np.zeros(t.size)
    rise[hot] = temperature_from_photons(photons[hot], sys.f_r) - t0_k
    peak = np.zeros(size.size)
    np.maximum.at(peak, dataset, rise)
    w = np.where(rise > _PEAK_SHARE * peak[dataset], rise, 0.0)
    y = np.log(np.where(w > 0, rise, 1.0))
    n, s0, st, sy, stt, sty = (np.bincount(dataset, v, size.size)
                               for v in (w > 0, w, w * t, w * y, w * t * t, w * t * y))
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = (st * st - s0 * stt) / (s0 * sty - st * sy)
        decaying = tau[(n >= 2) & (tau > 0) & (tau < np.inf)]
        tau0 = min(float(np.median(decaying)) if decaying.size else np.inf, float(t.max()) / 3.0)
        delta_t0 = np.nan_to_num(np.exp((sy + st / tau0) / s0), nan=1e-4)
    return gamma_off0, f0_off0, delta_t0.tolist(), tau0, base_gamma, base_df


def fit_cooling(datasets, sys: SystemParams, t0_k: float, *, fit_t0: bool = False) -> FitResult:
    """Joint fit of Gamma_2*(t_cool) and Delta_f(t_cool) over all datasets.

    tau_cool, gamma_offset and f0_offset are shared; delta_t is fitted per
    dataset (log-transformed, hence positive). T0 is fixed to t0_k unless
    fit_t0=True. Each observable block is weighted by the inverse of its
    pooled RMS about the per-dataset means, so neither dominates the cost;
    the weights are reported in diagnostics["block_weights"]. All
    datasets are one batch (module docstring), rows [Gamma_2*, Delta_f] per
    dataset. The fit runs with joint_fit's fixed settings: damping from
    1e-3, relative cost and step tolerances 1e-10, at most 200 iterations.
    """
    datasets = list(datasets)
    if not datasets:
        raise ValidationError("need at least one dataset")
    for j, d in enumerate(datasets):
        if not isinstance(d, HeatPulseSeries):
            raise ValidationError(f"dataset {j} is not a HeatPulseSeries")
        if len(d) < 4:
            raise ValidationError(f"dataset {j} has {len(d)} points, need >= 4")
    if not 0 < t0_k < np.inf:
        raise ValidationError("t0_k must be finite and positive")

    pooled_g = np.concatenate([d.gamma2_star - d.gamma2_star.mean() for d in datasets])
    pooled_f = np.concatenate([d.delta_f - d.delta_f.mean() for d in datasets])
    rms_g = float(np.sqrt(np.mean(pooled_g**2)))
    rms_f = float(np.sqrt(np.mean(pooled_f**2)))
    w_gamma = 1.0 / rms_g if rms_g > 0 else 1.0
    w_df = 1.0 / rms_f if rms_f > 0 else 1.0

    # One batch over all samples; order puts the rows [r_g, r_f] per dataset.
    lengths = [len(d) for d in datasets]
    dataset = np.repeat(np.arange(len(datasets)), lengths)
    order = np.argsort(np.tile(dataset, 2), kind="stable")
    t_all = np.concatenate([d.t_cool for d in datasets])
    gamma_all = np.concatenate([d.gamma2_star for d in datasets])
    df_all = np.concatenate([d.delta_f for d in datasets])
    gamma_off0, f0_off0, delta_t0, tau0, base_gamma, base_df = _initial_guesses(
        t_all, gamma_all, df_all, dataset, sys, t0_k
    )

    def resid(p):
        t0 = p["t0_k"] if fit_t0 else t0_k
        gamma, delta_f = _curves(t_all, t0, p["delta_t_k"][dataset], p["tau_cool_s"], sys)
        r_g = (gamma + p["gamma_offset_per_s"] - gamma_all) * w_gamma
        r_f = (delta_f + p["f0_offset_hz"] - df_all) * w_df
        return np.concatenate([r_g, r_f])[order]

    def jac(p):
        t0 = p["t0_k"] if fit_t0 else t0_k
        ddelta, dtau, dval = _curve_slopes(t_all, t0, p["delta_t_k"][dataset],
                                           p["tau_cool_s"], sys)
        # d(r_g, r_f)/dT as rows (r_g, r_f); columns follow the local names,
        # shared then private.
        drdt = np.stack([dval.real * w_gamma, dval.imag / TWO_PI * w_df])
        out = np.zeros((2, t_all.size, 5 if fit_t0 else 4))
        out[..., 0] = drdt * dtau
        out[0, :, 1] = w_gamma
        out[1, :, 2] = w_df
        if fit_t0:
            out[..., 3] = drdt
        out[..., -1] = drdt * ddelta
        return out.reshape(-1, out.shape[-1])[order]

    shared = [
        ParamSpec("tau_cool_s", tau0, "positive"),
        ParamSpec("gamma_offset_per_s", gamma_off0),
        ParamSpec("f0_offset_hz", f0_off0),
    ]
    if fit_t0:
        shared.append(ParamSpec("t0_k", t0_k, "positive"))
    private = [[ParamSpec("delta_t_k", dt0, "positive")] for dt0 in delta_t0]
    problem = ResidualProblem(resid, jac=jac, sizes=[2 * n for n in lengths])
    result = joint_fit([problem], shared, private)
    result.diagnostics["baseline_gamma_per_s"] = base_gamma
    result.diagnostics["baseline_delta_f_hz"] = base_df
    result.diagnostics["t0_k"] = result.params.get("t0_k", t0_k)
    result.diagnostics["block_weights"] = {"gamma": w_gamma, "delta_f": w_df}
    return result
