"""Qubit-state-dependent reflection phase fits: f_r, kappa_g/e, chi.

Single-port reflection with fully external coupling by default,

    S11(f) = 1 - kappa_c / (kappa/2 + 2*pi*i*(f - f0)),    kappa_c = kappa,

which winds the phase by a full 2*pi across the resonance, plus a linear
electrical-delay term -2*pi*f*tau_delay + theta0. The two qubit-state
traces are fitted jointly on unwrapped phase, as one batch of two
datasets sharing tau_delay and theta0. The dispersive shift convention is
chi = 2*pi*(f_e - f_g), the per-state pull entering the shot-noise model
(conventions with a total pull of 2*chi exist elsewhere; this is not that).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, ComputationError, FitResult, ValidationError, _readonly
from .fitkit import ParamSpec, ResidualProblem, joint_fit, lm_fit

__all__ = [
    "PhaseSweep",
    "reflection_phase",
    "unwrapped_phase",
    "fit_phase_pair",
    "extrapolate_chi",
    "SpanTooNarrow",
]


class SpanTooNarrow(ValidationError):
    """The frequency sweep does not cover enough linewidths for a stable fit."""


@dataclass(frozen=True)
class PhaseSweep:
    """Unwrapped reflection phase vs frequency for both qubit states."""

    frequencies: np.ndarray
    phase_g: np.ndarray
    phase_e: np.ndarray
    n_bar_readout: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "frequencies", _readonly(self.frequencies))
        object.__setattr__(self, "phase_g", _readonly(self.phase_g))
        object.__setattr__(self, "phase_e", _readonly(self.phase_e))
        n = self.frequencies.size
        if self.phase_g.size != n or self.phase_e.size != n:
            raise ValidationError("phase columns must match the frequency grid")
        if n > 1 and not np.all(np.diff(self.frequencies) > 0):
            raise ValidationError("frequencies must be strictly increasing")
        if not 0 <= self.n_bar_readout < np.inf:
            raise ValidationError(
                f"n_bar_readout must be finite and non-negative, got {self.n_bar_readout}"
            )

    def __len__(self) -> int:
        return self.frequencies.size


def _s11(f, f0, kappa, kappa_c):
    delta = TWO_PI * (np.asarray(f, dtype=float) - f0)
    return 1.0 - kappa_c / (0.5 * kappa + 1j * delta)


def reflection_phase(f, f0: float, kappa: float, kappa_c: float | None = None,
                     tau_delay: float = 0.0, theta0: float = 0.0):
    """Principal-value reflection phase arg(S11) plus electrical delay (rad).

    kappa_c defaults to kappa (fully over-coupled). On resonance with
    kappa_c = kappa the reflection is -1, i.e. a phase of pi.
    """
    kappa_c = kappa if kappa_c is None else kappa_c
    if kappa <= 0:
        raise ValidationError("kappa must be positive")
    if not (0 < kappa_c <= kappa):
        raise ValidationError("kappa_c must satisfy 0 < kappa_c <= kappa")
    out = np.angle(_s11(f, f0, kappa, kappa_c)) + theta0 - TWO_PI * np.asarray(f, dtype=float) * tau_delay
    return float(out) if np.isscalar(f) else out


def unwrapped_phase(f_grid, f0, kappa, kappa_c=None, tau_delay=0.0, theta0=0.0):
    """Phase model continuous along an increasing grid (for fits and synth).

    Parameters broadcast against the grid; the phase is unwrapped along the last axis.
    """
    kappa_c = kappa if kappa_c is None else kappa_c
    resonant = np.unwrap(np.angle(_s11(f_grid, f0, kappa, kappa_c)))
    return resonant + theta0 - TWO_PI * np.asarray(f_grid, dtype=float) * tau_delay


def _estimate_trace(f, phase, f_ref):
    """Rough (tau, f0, kappa, theta0_centered) fit seeds for one trace.

    theta0 is estimated in the band-centered delay convention
    theta0c - 2*pi*(f - f_ref)*tau, where it decouples from tau.
    """
    n = f.size
    k = max(3, n // 10)
    slope_left = np.polyfit(f[:k], phase[:k], 1)[0]
    slope_right = np.polyfit(f[-k:], phase[-k:], 1)[0]
    tau0 = -0.5 * (slope_left + slope_right) / TWO_PI

    detrended = phase + TWO_PI * (f - f_ref) * tau0
    grad = np.gradient(detrended, f)
    f0 = float(f[np.argmax(np.abs(grad))])

    left = float(detrended[:k].mean())
    right = float(detrended[-k:].mean())
    drop = left - right
    # Quarter/three-quarter drop crossings are kappa/(2 pi) apart.
    target_a = left - 0.25 * drop
    target_b = left - 0.75 * drop
    dec = np.minimum.accumulate(detrended)  # enforce monotone for interp
    f_a = float(np.interp(-target_a, -dec, f))
    f_b = float(np.interp(-target_b, -dec, f))
    kappa0 = TWO_PI * max(f_b - f_a, (f[1] - f[0]))
    # The unwrapped resonance term starts near 0 at the left edge (and ends
    # near -2*pi at the right), so the left level estimates theta0c on the
    # same branch the model uses.
    theta0c = left
    return tau0, f0, kappa0, theta0c


def fit_phase_pair(sweep: PhaseSweep, *, fit_kappa_c: bool = False) -> FitResult:
    """Joint phase fit of both qubit-state traces, one batch of two datasets.

    Both traces are evaluated together through unwrapped_phase, sharing the
    delay, the phase offset and, with fit_kappa_c, the coupling fraction;
    each state has its own resonance frequency and linewidth. Returns the
    six fitted parameters {f_g_hz, f_e_hz, kappa_g_rad_per_s,
    kappa_e_rad_per_s, tau_delay_s, theta0_rad} plus derived entries
    chi_rad_per_s = 2*pi*(f_e - f_g) and kappa_mean_rad_per_s with
    uncertainties propagated from the fit covariance. The sweep must span
    at least ~3 linewidths around each resonance.
    """
    if len(sweep) < 8:
        raise ValidationError("need at least 8 frequency points")
    f = sweep.frequencies
    # The delay is fitted against (f - f_ref); against absolute f its
    # coefficient is almost collinear with theta0 over a narrow fractional
    # band, which stalls the optimizer. theta0 is mapped back afterwards.
    # f - f_ref and f0 - f_ref are exact (Sterbenz), so the model rounds as
    # it would on absolute frequencies.
    f_ref = 0.5 * (f[0] + f[-1])
    df = f - f_ref
    phases = np.stack([sweep.phase_g, sweep.phase_e])
    est = []
    for state, phase in zip("ge", phases):
        tau0, f0, kappa0, th0c = _estimate_trace(f, phase, f_ref)
        margin = min(f0 - f[0], f[-1] - f0)
        if margin < 1.5 * kappa0 / TWO_PI or not f[0] < f0 < f[-1]:
            raise SpanTooNarrow(
                f"state {state}: sweep spans {margin / (kappa0 / TWO_PI):.2f} half-linewidths "
                "around the resonance; need >= 1.5 on each side"
            )
        est.append((tau0, f0, kappa0, th0c))
    tau0, f0, kappa0, theta0c0 = np.array(est).T
    tau0, theta0c0 = tau0.mean(), theta0c0.mean()

    def model(f0, kappa, frac, tau, theta0c):
        kappa = kappa[:, None]
        return unwrapped_phase(df, f0[:, None] - f_ref, kappa, frac * kappa, tau, theta0c)

    # Remove whole 2*pi offsets between traces and the model branch.
    k2pi = np.round(np.median(phases - model(f0, kappa0, 1.0, tau0, theta0c0), axis=1) / TWO_PI)
    phases = phases - TWO_PI * k2pi[:, None]

    def resid(p):
        frac = p["kappa_c_frac"] if fit_kappa_c else 1.0
        return (model(p["f_hz"], p["kappa_rad_per_s"], frac, p["tau_delay_s"], p["theta0c_rad"])
                - phases).ravel()

    def jac(p):
        # S11 = 1 - u with u = kappa_c / D, D = kappa/2 + 2*pi*i*(f - f0):
        # d arg(S11) = Im(dS11 / S11), and np.unwrap only adds constants.
        kappa = p["kappa_rad_per_s"][:, None]
        frac = p["kappa_c_frac"] if fit_kappa_c else 1.0
        d = 0.5 * kappa + 1j * TWO_PI * (f - p["f_hz"][:, None])
        u = frac * kappa / d
        g = u / (1.0 - u)
        columns = [np.broadcast_to(-TWO_PI * df, g.shape), np.ones(g.shape)]
        if fit_kappa_c:
            columns.append(-g.imag / frac)
        columns += [(-1j * TWO_PI * g / d).imag, (0.5 * g / d).imag - g.imag / kappa]
        return np.stack(columns, axis=-1).reshape(g.size, -1)

    shared = [ParamSpec("tau_delay_s", tau0), ParamSpec("theta0c_rad", theta0c0)]
    if fit_kappa_c:
        shared.append(ParamSpec("kappa_c_frac", 0.9, "bounded", lo=0.01, hi=1.0))
    private = [[ParamSpec("f_hz", f0[k]), ParamSpec("kappa_rad_per_s", kappa0[k], "positive")]
               for k in range(2)]
    problem = ResidualProblem(resid, jac=jac, sizes=[f.size, f.size])
    result = _decentered(joint_fit([problem], shared, private), f_ref)

    names = list(result.param_names)
    cov = result.covariance
    i_fg, i_fe = names.index("f_g_hz"), names.index("f_e_hz")
    i_kg, i_ke = names.index("kappa_g_rad_per_s"), names.index("kappa_e_rad_per_s")
    chi = TWO_PI * (result.params["f_e_hz"] - result.params["f_g_hz"])
    var_chi = TWO_PI**2 * (cov[i_fe, i_fe] + cov[i_fg, i_fg] - 2.0 * cov[i_fe, i_fg])
    kappa_mean = 0.5 * (result.params["kappa_g_rad_per_s"] + result.params["kappa_e_rad_per_s"])
    var_km = 0.25 * (cov[i_kg, i_kg] + cov[i_ke, i_ke] + 2.0 * cov[i_kg, i_ke])
    result.params["chi_rad_per_s"] = chi
    result.sigmas["chi_rad_per_s"] = float(np.sqrt(max(var_chi, 0.0)))
    result.params["kappa_mean_rad_per_s"] = kappa_mean
    result.sigmas["kappa_mean_rad_per_s"] = float(np.sqrt(max(var_km, 0.0)))
    return result


# The batch's per-state names, as the engine reports them, and theta0c.
_PUBLIC_NAMES = {"f_hz[0]": "f_g_hz", "kappa_rad_per_s[0]": "kappa_g_rad_per_s",
                 "f_hz[1]": "f_e_hz", "kappa_rad_per_s[1]": "kappa_e_rad_per_s",
                 "theta0c_rad": "theta0_rad"}


def _decentered(result: FitResult, f_ref: float) -> FitResult:
    """Public names; theta0c mapped back to theta0 = theta0c + 2*pi*f_ref*tau (exact linear)."""
    names = list(result.param_names)
    i_th = names.index("theta0c_rad")
    i_tau = names.index("tau_delay_s")
    c = TWO_PI * f_ref
    lin = np.eye(len(names))
    lin[i_th, i_tau] = c
    cov = lin @ result.covariance @ lin.T
    cov = 0.5 * (cov + cov.T)
    params = {_PUBLIC_NAMES.get(name, name): value for name, value in result.params.items()
              if name != "theta0c_rad"}
    params["theta0_rad"] = result.params["theta0c_rad"] + c * params["tau_delay_s"]
    names = [_PUBLIC_NAMES.get(name, name) for name in names]
    sigmas = {name: float(np.sqrt(max(cov[i, i], 0.0))) for i, name in enumerate(names)}
    return FitResult(
        params=params,
        sigmas=sigmas,
        covariance=cov,
        param_names=tuple(names),
        residual_norm=result.residual_norm,
        n_iterations=result.n_iterations,
        converged=result.converged,
        diagnostics=result.diagnostics,
    )


def extrapolate_chi(points) -> float:
    """Dispersive shift extrapolated to vanishing photon number.

    points is a sequence of (n_bar, chi) pairs, chi in rad/s. With four or
    more distinct n_bar the trend chi(n) = chi0 + a*(1 - exp(-n/n_c)) is
    fitted and chi0 returned, and a trend fit that does not converge raises
    ComputationError; with two or three a straight line is extrapolated to
    n = 0 instead. Fewer than two distinct n_bar is a ValidationError.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or np.unique(pts[:, 0]).size < 2:
        raise ValidationError("need (n_bar, chi) pairs at two or more distinct n_bar")
    if not np.all(np.isfinite(pts)) or np.any(pts[:, 0] < 0):
        raise ValidationError("n_bar and chi must be finite and n_bar non-negative")
    order = np.argsort(pts[:, 0])
    n, chi = pts[order, 0], pts[order, 1]

    if np.unique(n).size <= 3:
        slope, intercept = np.polyfit(n, chi, 1)
        return float(intercept)

    chi0_0 = chi[0]
    a0 = chi[-1] - chi[0]
    if a0 == 0.0:
        return float(chi[0])
    positive = n[n > 0]
    nc0 = float(np.median(positive)) if positive.size else 1.0

    def resid(p):
        return p["chi0"] + p["a"] * (1.0 - np.exp(-n / p["n_c"])) - chi

    def jac(p):
        e = np.exp(-n / p["n_c"])
        return np.column_stack([np.ones_like(n), 1.0 - e, -p["a"] * e * n / p["n_c"]**2])

    specs = [
        ParamSpec("chi0", chi0_0),
        ParamSpec("a", a0),
        ParamSpec("n_c", nc0, "positive"),
    ]
    result = lm_fit(ResidualProblem(resid, jac=jac), specs)
    if not result.converged:
        raise ComputationError("the chi(n_bar) trend fit did not converge")
    return float(result.params["chi0"])
